//! Output checks. Each returns whether one operation's output is right;
//! the workloads count every `false` as a failed operation.

use crate::verify::Planned;
use tlc_core::verify::{Verdict, VerifyError};
use tlc_sim::twin::TwinReport;

/// `verify-clean`: the verdict equals the in-process verdict bit for
/// bit, and an accepted charge equals the plan-intended charge.
pub fn clean_verdict(
    got: &Result<Verdict, VerifyError>,
    expected: &Result<Verdict, VerifyError>,
    intended: u64,
) -> bool {
    got == expected && got.as_ref().map_or(true, |v| v.charge == intended)
}

/// `verify-mixed`: as `clean_verdict`, and each item got the outcome it
/// was planned for — fresh accepted, replay `Replayed`, tampered proof
/// rejected on its signature.
pub fn mixed_verdict(
    got: &Result<Verdict, VerifyError>,
    expected: &Result<Verdict, VerifyError>,
    planned: Planned,
    intended: u64,
) -> bool {
    let as_planned = match planned {
        Planned::Fresh => matches!(got, Ok(v) if v.charge == intended),
        Planned::Replay => got == &Err(VerifyError::Replayed),
        Planned::Tampered => matches!(got, Err(VerifyError::Signature(_))),
    };
    got == expected && as_planned
}

/// `edge-cycle`: the cycle's PoC was accepted at the intended charge in
/// the single round Theorem 4 promises.
pub fn cycle_verdict(got: &Result<Verdict, VerifyError>, intended: u64) -> bool {
    matches!(got, Ok(v) if v.charge == intended && v.rounds == 1)
}

/// The twin digest the roaming run is pinned to at the default seed.
pub const TWIN_DEFAULT_SEED: u64 = 0x7717;
pub const TWIN_DEFAULT_DIGEST: u64 = 17_085_692_347_542_658_039;

/// `twin-roaming`: names each invariant a run broke (empty when sound).
/// `reference` is the first run of the same seed in this process; its
/// digest and bonded total must repeat exactly.
pub fn twin_report(
    r: &TwinReport,
    seed: u64,
    min_peak: u64,
    sink_seen: u64,
    reference: Option<&TwinReport>,
    (pin_seed, pin_digest): (u64, u64),
) -> Vec<&'static str> {
    let mut bad = Vec::new();
    if r.stale_events != 0 {
        bad.push("stale events");
    }
    if r.peak_concurrent < min_peak {
        bad.push("peak concurrency below the tier");
    }
    let rs = &r.roaming;
    if rs
        .home
        .checked_add(rs.visited)
        .and_then(|x| x.checked_add(rs.vendor))
        != Some(rs.charged)
    {
        bad.push("home + visited + vendor != charged");
    }
    if rs.bonded_cycles == 0 || rs.bonded_link_charged == 0 {
        bad.push("no bonded settlements");
    }
    if sink_seen != r.cycles_settled {
        bad.push("sink saw a different settlement count");
    }
    if let Some(first) = reference {
        if first.digest != r.digest || first.roaming.bonded_link_charged != rs.bonded_link_charged {
            bad.push("digest or bonded charge differs between runs");
        }
    }
    if seed == pin_seed && r.digest != pin_digest {
        bad.push("digest differs from the pinned value");
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::messages::MessageError;

    fn ok(charge: u64) -> Result<Verdict, VerifyError> {
        Ok(Verdict {
            charge,
            edge_claim: charge + 20_000,
            operator_claim: charge - 20_000,
            rounds: 1,
        })
    }

    #[test]
    fn clean_verdict_needs_the_oracle_and_the_intended_charge() {
        assert!(clean_verdict(&ok(100_000), &ok(100_000), 100_000));
        assert!(!clean_verdict(&ok(100_001), &ok(100_001), 100_000));
        let bad = Err(VerifyError::Signature(MessageError::Malformed("x")));
        assert!(!clean_verdict(&bad, &ok(100_000), 100_000));
    }

    #[test]
    fn mixed_verdict_needs_the_planned_outcome() {
        let replayed = Err(VerifyError::Replayed);
        assert!(mixed_verdict(&replayed, &replayed, Planned::Replay, 0));
        // The oracle agreeing is not enough when the plan was a replay.
        assert!(!mixed_verdict(
            &ok(100_000),
            &ok(100_000),
            Planned::Replay,
            100_000
        ));
        assert!(!mixed_verdict(&replayed, &replayed, Planned::Tampered, 0));
    }

    #[test]
    fn cycle_verdict_needs_one_round() {
        assert!(cycle_verdict(&ok(100_000), 100_000));
        let mut two = ok(100_000);
        if let Ok(v) = two.as_mut() {
            v.rounds = 2;
        }
        assert!(!cycle_verdict(&two, 100_000));
    }
}
