//! `twin-roaming`: the 300k-session digital twin with the roaming plane
//! on, run back to back; a sink timestamps every settlement.

use crate::check;
use crate::common;
use crate::trace::Spans;
use crate::Live;
use std::time::Instant;
use tlc_sim::experiments::twin::tier_config;
use tlc_sim::twin::{
    run_twin, RoamingTwinConfig, SettleCause, Settled, SettlementSink, TwinConfig, TwinReport,
};
use tlc_sim::wheel::WheelBackend;

/// Sessions admitted at t=0.
pub const TWIN_SESSIONS: usize = 300_000;
/// Worker threads for the epoch barrier loop, fixed rather than read
/// from the host.
pub const TWIN_THREADS: usize = 2;

pub fn config(seed: u64) -> TwinConfig {
    let mut cfg = tier_config(TWIN_SESSIONS, seed);
    cfg.roaming = Some(RoamingTwinConfig::paper_default());
    cfg.threads = TWIN_THREADS;
    cfg.backend = WheelBackend::Wheel;
    cfg
}

/// Timestamps settlements and groups them by the epoch they closed in.
pub struct EpochSink {
    base: Instant,
    epoch_us: u64,
    /// Wall ns of the first settlement of each epoch (the barrier).
    pub barrier_ns: Vec<u64>,
    /// Settlements per epoch, before the run-end flush.
    pub per_epoch: Vec<u64>,
    pub seen: u64,
    /// Traced runs only: the delivery burst in progress as (epoch, or
    /// `u64::MAX` for the run-end flush; first callback ns; callbacks;
    /// last callback's end ns). One span per burst rather than per
    /// callback keeps a run's millions of settlements out of memory.
    burst: Option<(u64, u64, u64, u64)>,
    /// Traced runs only: summed burst time and callbacks.
    sink_ns: u64,
    sink_calls: u64,
    spans: Spans,
}

impl EpochSink {
    fn new(epoch_us: u64, tracing: bool) -> EpochSink {
        EpochSink {
            base: Instant::now(),
            epoch_us,
            barrier_ns: Vec::new(),
            per_epoch: Vec::new(),
            seen: 0,
            burst: None,
            sink_ns: 0,
            sink_calls: 0,
            spans: Spans::new(tracing),
        }
    }

    fn close_burst(&mut self) {
        if let Some((key, start, calls, end)) = self.burst.take() {
            self.spans.record("twin.sink_burst", key, start, end);
            self.sink_ns += end - start;
            self.sink_calls += calls;
        }
    }
}

impl SettlementSink for EpochSink {
    fn settle(&mut self, s: &Settled) {
        let now = self.base.elapsed().as_nanos() as u64;
        self.seen += 1;
        let key = if s.cause == SettleCause::RunEnd {
            u64::MAX
        } else {
            let epoch = (s.at_us.saturating_sub(1) / self.epoch_us) as usize;
            while self.per_epoch.len() <= epoch {
                self.per_epoch.push(0);
                self.barrier_ns.push(now);
            }
            self.per_epoch[epoch] += 1;
            epoch as u64
        };
        if self.spans.enabled() {
            if self.burst.is_some_and(|b| b.0 != key) {
                self.close_burst();
            }
            let b = self.burst.get_or_insert((key, now, 0, now));
            b.2 += 1;
            b.3 = self.base.elapsed().as_nanos() as u64;
        }
    }
}

/// What one twin run measured.
pub struct TwinRun {
    pub report: TwinReport,
    pub wall_s: f64,
    pub admit_s: f64,
    pub epoch_ms: Vec<f64>,
    pub settled_per_s: f64,
    pub sink_us: f64,
    pub seen: u64,
}

pub fn run_once(cfg: &TwinConfig, spans: &mut Spans) -> TwinRun {
    let mut sink = EpochSink::new(cfg.epoch.as_micros().max(1), spans.enabled());
    let report = run_twin(cfg, &mut sink);
    let wall_s = sink.base.elapsed().as_secs_f64();
    sink.close_burst();
    let b = &sink.barrier_ns;
    let epoch_ms: Vec<f64> = b.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
    // Throughput after the first settled epoch and before the run-end
    // flush: settlements of epochs 2.. over the wall time between the
    // first and the last barrier.
    let after: u64 = sink.per_epoch.iter().skip(1).sum();
    let span_ns = b
        .last()
        .copied()
        .unwrap_or(0)
        .saturating_sub(b.first().copied().unwrap_or(0));
    let settled_per_s = after as f64 / (span_ns as f64 / 1e9).max(1e-9);
    let sink_us = sink.sink_ns as f64 / 1e3 / sink.sink_calls.max(1) as f64;
    spans.absorb(std::mem::take(&mut sink.spans));
    TwinRun {
        admit_s: b.first().copied().unwrap_or(0) as f64 / 1e9,
        report,
        wall_s,
        epoch_ms,
        settled_per_s,
        sink_us,
        seen: sink.seen,
    }
}

/// Runs the twin until `seconds` have passed (at least twice), checking
/// every run. Each run's admission is a set-up sample.
pub fn run(seed: u64, seconds: f64, spans: &mut Spans) -> (Live, Vec<TwinRun>) {
    let pinned = (check::TWIN_DEFAULT_SEED, check::TWIN_DEFAULT_DIGEST);
    run_with(&config(seed), TWIN_SESSIONS as u64, pinned, seconds, spans)
}

pub fn run_with(
    cfg: &TwinConfig,
    min_peak: u64,
    pinned: (u64, u64),
    seconds: f64,
    spans: &mut Spans,
) -> (Live, Vec<TwinRun>) {
    let seed = cfg.seed;
    let start = Instant::now();
    let cpu0 = common::cpu_time();
    let mut live = Live::default();
    let mut runs: Vec<TwinRun> = Vec::new();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let r = run_once(cfg, spans);
        let bad = check::twin_report(
            &r.report,
            seed,
            min_peak,
            r.seen,
            runs.first().map(|f| &f.report),
            pinned,
        );
        for b in &bad {
            eprintln!("twin-roaming check failed: {b}");
        }
        live.attempted += r.seen;
        if !bad.is_empty() {
            live.failed += r.seen;
            live.mismatched += r.seen;
        }
        live.latencies_ms.extend_from_slice(&r.epoch_ms);
        live.throughput.push(r.settled_per_s);
        live.server_setup.push(r.admit_s);
        runs.push(r);
    }
    live.ops = live.attempted;
    live.cpu = common::cpu_time().saturating_sub(cpu0);
    live.rounds = runs.len();
    (live, runs)
}

/// Thread-seconds each twin layer spent in a run: the layer's isolated
/// per-call cost (`cost_s`, by metric name) times the call count the
/// report implies.
pub fn layer_seconds(r: &TwinReport, cost_s: impl Fn(&str) -> f64) -> [(&'static str, f64); 6] {
    let arrivals = r.sessions_created.saturating_sub(TWIN_SESSIONS as u64) as f64;
    let flushes = (r.handovers + r.roaming.operator_handovers) as f64;
    [
        (
            "twin.share.wheel",
            // Every fired event was scheduled and popped once; a teardown
            // cancels its session's pending timers (about three).
            r.events_fired as f64 * (cost_s("wheel.schedule_ns") + cost_s("wheel.pop_ns"))
                + r.sessions_retired as f64 * 3.0 * cost_s("wheel.cancel_ns"),
        ),
        (
            "twin.share.arena",
            r.sessions_created as f64 * cost_s("arena.churn_ns"),
        ),
        (
            "twin.share.soa",
            r.events_fired as f64 * cost_s("soa.accrue_ns")
                + flushes * cost_s("soa.handover_flush_ns"),
        ),
        (
            "twin.share.measure",
            r.cycles_settled as f64 * cost_s("measure.settle_row_ns"),
        ),
        (
            "twin.share.roaming",
            r.roaming.cycles_settled as f64 * cost_s("roaming.settle_ns")
                + r.roaming.bonded_cycles as f64 * cost_s("roaming.reconcile_ns"),
        ),
        ("twin.share.churn", arrivals * cost_s("churn.arrival_ns")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> TwinConfig {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.roaming = Some(RoamingTwinConfig::paper_default());
        cfg
    }

    #[test]
    fn sound_runs_count_no_failures() {
        let cfg = small(9);
        let (live, runs) = run_with(&cfg, 1_000, (0, 0), 0.0, &mut Spans::new(false));
        assert_eq!(runs.len(), 2);
        assert!(live.attempted > 0);
        assert_eq!(live.failed, 0);
    }

    /// A wrong pinned digest fails every settlement of the run.
    #[test]
    fn wrong_digest_counts_as_failed() {
        let cfg = small(9);
        let (live, _) = run_with(&cfg, 1_000, (9, 12345), 0.0, &mut Spans::new(false));
        assert!(live.attempted > 0);
        assert_eq!(live.failed, live.attempted);
    }
}
