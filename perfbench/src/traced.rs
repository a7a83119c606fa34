//! The traced run: the live phase once untraced and once with spans
//! on, then each layer's public function timed in isolation on the
//! workload's own inputs, with the layers' self time on one operation's
//! blocking path set against the untraced median.

use crate::trace::Spans;
use crate::{build_inputs, run_live, Args, Inputs, Outcome};
use crate::{common, layers, ratio, twin, verify};

/// How far layers plus residual may sit from the untraced median (as a
/// share of it) before the traced run reports the accounting as off.
pub const ACCOUNTING_TOLERANCE: f64 = 0.2;

/// Traced run: the live phase untraced and then traced (half the time
/// each), followed by the per-layer replay on the workload's inputs.
pub fn run(args: &Args, workers: usize) -> Outcome {
    let (_, inputs) = build_inputs(args, workers);
    let half = args.seconds / 2.0;
    let untraced = run_live(args, &inputs, workers, half, &mut Spans::new(false));
    let mut spans = Spans::new(true);
    let phase = run_live(args, &inputs, workers, half, &mut spans);
    let live = &phase.live;
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match spans.write_to(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    let span_us = spans.median_us();
    let span = |k: &str| span_us.get(k).copied().unwrap_or(0.0);

    // Layer costs, each timed in isolation on the workload's inputs.
    let seed = args.seed;
    let fill = live.batch_fill();
    let small;
    let set = match &inputs {
        Inputs::Clean(pool, _) => {
            let pocs = pool.pocs.iter().step_by(pool.pairs.len()).collect();
            layers::ProofSet::new(pool.plan, &pool.keys, 0, 0, pocs)
        }
        Inputs::Mixed(mx) => {
            let pocs = mx
                .batches
                .iter()
                .filter(|(slot, _)| *slot == 0)
                .flat_map(|(_, b)| b.iter())
                .filter(|&&i| mx.items[i].1 == verify::Planned::Fresh)
                .map(|&i| &mx.items[i].0)
                .collect();
            layers::ProofSet::new(mx.plan, &mx.keys, 0, 0, pocs)
        }
        Inputs::Cycle(_) | Inputs::Twin => {
            small = layer_proofs(seed);
            layers::ProofSet::new(small.1, &small.0, 0, 0, small.2.iter().collect())
        }
    };
    let mut m = layers::verify_path(&set, fill);
    m.extend(layers::protocol(
        &layer_cycles(seed),
        &layer_keys(seed),
        set.plan,
    ));
    let twin_cfg = twin::config(seed);
    let peak = phase
        .twin_runs
        .first()
        .map_or(twin::TWIN_SESSIONS as u64, |r| r.report.peak_concurrent) as usize;
    // About three armed timers per live session: tick, cycle end, teardown.
    m.extend(layers::twin_path(&twin_cfg, peak, peak * 3));
    let cost = |m: &[(&'static str, f64)], k: &str| {
        m.iter().find(|(n, _)| *n == k).map_or(0.0, |(_, x)| *x)
    };

    // Counts and times from the live run.
    let cpu_ms = live.cpu.as_secs_f64() * 1e3;
    let per_op = ratio(cpu_ms, live.ops as f64);
    let is_twin = matches!(inputs, Inputs::Twin);
    let is_cycle = matches!(inputs, Inputs::Cycle(_));
    m.extend([
        ("service.batch_fill", fill),
        (
            "service.deadline_flush_share",
            ratio(live.deadline_flushes as f64, live.batches as f64),
        ),
        ("ingress.pauses_per_kpoc", live.per_kpoc(live.pauses)),
        ("ingress.shed_per_kpoc", live.per_kpoc(live.shed)),
        (
            "ingress.pool_exhausted_per_kpoc",
            live.per_kpoc(live.pool_exhausted),
        ),
        (
            "ingress.quarantines_per_kpoc",
            live.per_kpoc(live.quarantines),
        ),
        ("client.send_lag_ms", common::median(&live.lag_ms)),
        (
            "proc.cpu_ms_per_kpoc",
            if is_twin { 0.0 } else { per_op * 1e3 },
        ),
        (
            "proc.cpu_ms_per_cycle",
            if is_twin || is_cycle { per_op } else { 0.0 },
        ),
    ]);
    if is_cycle {
        // The live negotiations replace the isolated ones.
        m.retain(|(k, _)| *k != "protocol.negotiate_us" && *k != "protocol.rounds");
        m.push((
            "protocol.negotiate_us",
            common::median(&phase.cycle_times.negotiate_us),
        ));
        m.push(("protocol.rounds", common::mean(&phase.cycle_times.rounds)));
    }

    // Self time of the layers on one operation's blocking path.
    let traced_p50 = live.p50();
    let untraced_p50 = untraced.live.p50();
    let (path_us, write_us) = if is_twin {
        let runs = &phase.twin_runs;
        let r = &runs.last().expect("at least one twin run").report;
        let wall_s = common::median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let sink_us = common::median(&runs.iter().map(|r| r.sink_us).collect::<Vec<_>>());
        let shares = twin::layer_seconds(r, |k| cost(&m, k) * 1e-9);
        let busy_s: f64 = shares.iter().map(|(_, s)| s).sum();
        // The sink runs on the barrier thread, between the shards' turns.
        let sink_s = r.cycles_settled as f64 * sink_us * 1e-6;
        let thread_s = wall_s * twin::TWIN_THREADS as f64;
        m.extend(shares.iter().map(|&(k, s)| (k, s / thread_s)));
        m.extend([
            ("twin.share.sink", sink_s / wall_s),
            ("twin.epoch_ms", traced_p50),
            ("twin.admit_s", common::median(&live.server_setup)),
            ("twin.events", r.events_fired as f64),
            ("twin.cycles", r.cycles_settled as f64),
            ("twin.handovers", r.handovers as f64),
            (
                "twin.operator_handovers",
                r.roaming.operator_handovers as f64,
            ),
            ("twin.peak_shard_slots", r.peak_shard_slots as f64),
            ("cycle.verify_leg_ms", 0.0),
        ]);
        let epochs =
            (twin_cfg.duration.as_micros() / twin_cfg.epoch.as_micros().max(1)).max(1) as f64;
        (
            (busy_s / twin::TWIN_THREADS as f64 + sink_s) / epochs * 1e6,
            sink_us,
        )
    } else {
        let (write_us, decode_ns) = match &inputs {
            Inputs::Mixed(_) => (
                span("client.submit_batch") / verify::MIXED_BATCH as f64,
                cost(&m, "codec.batch_decode_ns_per_poc"),
            ),
            _ => (span("client.write"), cost(&m, "codec.submit_decode_ns")),
        };
        let leg_us = write_us
            + (cost(&m, "wire.frame_split_ns") + decode_ns + cost(&m, "codec.verdict_ns")) / 1e3
            + cost(&m, "service.hash_us")
            + cost(&m, "service.sig_us_per_batch.live")
            + span("client.verdict");
        let leg_ms = if is_cycle {
            common::median(&phase.cycle_times.verify_leg_ms)
        } else {
            traced_p50
        };
        m.push(("cycle.verify_leg_ms", leg_ms));
        m.extend(TWIN_ONLY.iter().map(|&k| (k, 0.0)));
        (leg_us + span("protocol.negotiate"), write_us)
    };
    let layers_ms = path_us / 1e3;
    let residual = traced_p50 - layers_ms;
    let accounted = ratio(layers_ms + residual, untraced_p50);
    let ok = (accounted - 1.0).abs() <= ACCOUNTING_TOLERANCE && residual >= 0.0;
    m.extend([
        ("client.write_us", write_us),
        ("ingress.wait_ms", residual),
        ("trace.untraced_p50_ms", untraced_p50),
        ("trace.overhead_ms", traced_p50 - untraced_p50),
        ("trace.layers_ms", layers_ms),
        ("trace.accounted_share", accounted),
    ]);
    println!(
        "{{\"accounting\": {{\"untraced_p50_ms\": {untraced_p50:?}, \"traced_p50_ms\": {traced_p50:?}, \"layers_ms\": {layers_ms:?}, \"residual_ms\": {residual:?}, \"tolerance\": {ACCOUNTING_TOLERANCE}, \"within_tolerance\": {ok}}}}}"
    );
    if !ok {
        eprintln!("perfbench: layers plus residual miss the untraced median by more than {ACCOUNTING_TOLERANCE}");
    }
    Outcome {
        attempted: untraced.live.attempted + live.attempted,
        failed: untraced.live.failed + live.failed,
        mismatched: untraced.live.mismatched + live.mismatched,
        metrics: m,
    }
}

/// Per-layer metrics only the twin workload measures; 0 elsewhere.
const TWIN_ONLY: [&str; 14] = [
    "twin.share.wheel",
    "twin.share.arena",
    "twin.share.soa",
    "twin.share.measure",
    "twin.share.roaming",
    "twin.share.churn",
    "twin.share.sink",
    "twin.epoch_ms",
    "twin.admit_s",
    "twin.events",
    "twin.cycles",
    "twin.handovers",
    "twin.operator_handovers",
    "twin.peak_shard_slots",
];

fn layer_keys(seed: u64) -> common::Keys {
    common::Keys::generate(seed, 1)
}

/// Sixteen cycles of relationship (0, 0), for the layers of workloads
/// with no proofs of their own and for the isolated negotiation cost.
fn layer_cycles(seed: u64) -> Vec<common::CycleInput> {
    let rel = common::Rel { edge: 0, op: 0 };
    (0..16)
        .map(|i| common::CycleInput::draw(seed, rel, 0, 1_000 + i))
        .collect()
}

/// A small proof set for the verify-path layers of workloads that have
/// no proof pool of their own.
fn layer_proofs(
    seed: u64,
) -> (
    common::Keys,
    tlc_core::plan::DataPlan,
    Vec<tlc_core::messages::PocMsg>,
) {
    let plan = tlc_core::plan::DataPlan::paper_default();
    let keys = layer_keys(seed);
    let pocs = common::negotiate_all(&layer_cycles(seed), &keys, plan, common::host_cpus());
    (keys, plan, pocs)
}
