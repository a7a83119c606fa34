//! End-to-end and per-layer benchmark of the TLC charging path: PoC
//! negotiation, the TCP verifier, and the roaming digital twin, driven
//! only through the crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify-clean --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the host and the seeds.

mod check;
mod client;
mod common;
mod cycle;
mod layers;
mod trace;
mod traced;
mod twin;
mod verify;

use std::time::{Duration, Instant};
use tlc_core::verify::remote::{IngressConfig, IngressReport};
use trace::Spans;
use verify::Pace;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "verify-clean",
    "verify-clean-r2000",
    "verify-clean-r10000",
    "verify-mixed",
    "twin-roaming",
];

/// Workloads the binary runs that `BENCHMARK.json` leaves out.
/// `edge-cycle`'s rate is one thread's signing speed, and on a shared
/// host that speed drifts by a factor of up to two over tens of seconds,
/// so ten runs of the same code spread by more than any bound a
/// regression gate can use. Compare it in alternating pairs of runs.
pub const UNGATED: [&str; 1] = ["edge-cycle"];

/// End-to-end metrics every workload reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics every traced run reports; a count or share for a
/// component the workload does not run is 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("wire.submit_encode_ns", "ns"),
    ("wire.frame_split_ns", "ns"),
    ("codec.submit_decode_ns", "ns"),
    ("codec.batch_decode_ns_per_poc", "ns"),
    ("codec.verdict_ns", "ns"),
    ("service.hash_us", "us"),
    ("service.sig_us_per_poc.b1", "us"),
    ("service.sig_us_per_poc.b32", "us"),
    ("service.sig_us_per_batch.live", "us"),
    ("service.batch_fill", "count"),
    ("service.deadline_flush_share", "ratio"),
    ("verify.replay_batch_us_per_poc", "us"),
    ("verify.reject_tampered_us", "us"),
    ("ingress.pauses_per_kpoc", "1/kPoC"),
    ("ingress.shed_per_kpoc", "1/kPoC"),
    ("ingress.pool_exhausted_per_kpoc", "1/kPoC"),
    ("ingress.quarantines_per_kpoc", "1/kPoC"),
    ("ingress.wait_ms", "ms"),
    ("client.write_us", "us"),
    ("client.send_lag_ms", "ms"),
    ("proc.cpu_ms_per_kpoc", "ms/kPoC"),
    ("proc.cpu_ms_per_cycle", "ms"),
    ("protocol.negotiate_us", "us"),
    ("protocol.rounds", "count"),
    ("messages.sign_us", "us"),
    ("messages.verify_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("cycle.verify_leg_ms", "ms"),
    ("twin.epoch_ms", "ms"),
    ("twin.admit_s", "s"),
    ("twin.events", "count"),
    ("twin.cycles", "count"),
    ("twin.handovers", "count"),
    ("twin.operator_handovers", "count"),
    ("twin.peak_shard_slots", "count"),
    ("wheel.schedule_ns", "ns"),
    ("wheel.pop_ns", "ns"),
    ("wheel.cancel_ns", "ns"),
    ("arena.churn_ns", "ns"),
    ("soa.accrue_ns", "ns"),
    ("soa.handover_flush_ns", "ns"),
    ("soa.sweep_ns_per_row", "ns"),
    ("measure.settle_row_ns", "ns"),
    ("roaming.settle_ns", "ns"),
    ("roaming.reconcile_ns", "ns"),
    ("churn.arrival_ns", "ns"),
    ("twin.share.wheel", "ratio"),
    ("twin.share.arena", "ratio"),
    ("twin.share.soa", "ratio"),
    ("twin.share.measure", "ratio"),
    ("twin.share.roaming", "ratio"),
    ("twin.share.churn", "ratio"),
    ("twin.share.sink", "ratio"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.accounted_share", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What a live (timed) phase measured. Per-round values are kept so the
/// reported figure can be taken across rounds.
#[derive(Default)]
pub struct Live {
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output was wrong (a subset of `failed`).
    pub mismatched: u64,
    pub rejections: u64,
    pub rounds: usize,
    /// Every operation's latency in the run (epoch wall times for the
    /// twin): the twin's percentiles and the ungated tail line.
    pub latencies_ms: Vec<f64>,
    /// Per-round (per-window for `edge-cycle`) p50 and p90. When
    /// present, the reported figure is their lower quartile; see
    /// [`best_quartile`].
    pub round_p50: Vec<f64>,
    pub round_p90: Vec<f64>,
    /// Operations per second per round (per window, per twin run).
    pub throughput: Vec<f64>,
    pub server_setup: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub cpu: Duration,
    pub ops: u64,
    pub verified: u64,
    pub batches: u64,
    pub deadline_flushes: u64,
    pub submissions: u64,
    pub pauses: u64,
    pub shed: u64,
    pub pool_exhausted: u64,
    pub quarantines: u64,
}

impl Live {
    pub fn add_report(&mut self, r: &IngressReport) {
        self.verified += r.service.accepted + r.service.rejected;
        self.batches += r.service.batches;
        self.deadline_flushes += r
            .service
            .shards
            .iter()
            .map(|s| s.deadline_flushes)
            .sum::<u64>();
        self.submissions += r.ingress.submissions;
        self.pauses += r.ingress.pauses;
        self.shed += r.ingress.shed_overload;
        self.pool_exhausted += r.pool.exhausted;
        self.quarantines += r.ingress.quarantines;
    }

    /// Records one round's latency samples.
    pub fn add_round(&mut self, lat: &[f64]) {
        let sorted = common::sorted(lat.to_vec());
        self.round_p50.push(common::pctl(&sorted, 0.5));
        self.round_p90.push(common::pctl(&sorted, 0.9));
        self.latencies_ms.extend_from_slice(lat);
    }

    pub fn p50(&self) -> f64 {
        self.per_round_or_pooled(&self.round_p50, 0.5)
    }

    fn p90(&self) -> f64 {
        self.per_round_or_pooled(&self.round_p90, 0.9)
    }

    fn per_round_or_pooled(&self, rounds: &[f64], q: f64) -> f64 {
        if rounds.is_empty() {
            common::pctl(&common::sorted(self.latencies_ms.clone()), q)
        } else {
            best_quartile(rounds, false)
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        best_quartile(&self.throughput, true)
    }

    pub fn batch_fill(&self) -> f64 {
        ratio(self.verified as f64, self.batches as f64)
    }

    pub fn per_kpoc(&self, n: u64) -> f64 {
        ratio(n as f64 * 1e3, self.submissions as f64)
    }
}

/// The quartile of per-round figures on the good side: the lower
/// quartile of a time, the upper quartile of a rate. On a shared host
/// another tenant only ever slows a round down, and it does so in bursts
/// that can cover most of a run; a regression in the code slows every
/// round and still moves this quartile.
pub fn best_quartile(rounds: &[f64], higher_is_better: bool) -> f64 {
    let sorted = common::sorted(rounds.to_vec());
    common::pctl(&sorted, if higher_is_better { 0.75 } else { 0.25 })
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) && !UNGATED.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or {UNGATED:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Clears every environment switch the measured code reads, so the
/// shipped defaults run whatever the caller's shell exports.
fn pin_environment() {
    for var in [
        "TLC_INGRESS_BACKEND",
        "TLC_INGRESS_SHARDS",
        "TLC_TWIN_SCHED",
        "TLC_TWIN_THREADS",
        "TLC_SWEEP_THREADS",
    ] {
        std::env::remove_var(var);
    }
}

/// The result of one workload run, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    pin_environment();
    let workers = common::host_cpus();
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \"ingress_backend\": \"{}\", \"service_workers\": {}, \"twin_threads\": {}, \"twin_seed\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        common::host_cpus(),
        IngressConfig::default().backend.name(),
        workers,
        twin::TWIN_THREADS,
        args.seed,
    );
    let out = if args.trace {
        traced::run(&args, workers)
    } else {
        untraced(&args, workers)
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print_result(&out, expected);
    if out.mismatched > 0 {
        eprintln!(
            "perfbench: {} operations produced wrong output",
            out.mismatched
        );
    }
}

fn print_result(out: &Outcome, expected: &[(&str, &str)]) {
    let mut fields = Vec::new();
    for (name, unit) in expected {
        let v = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        let v = if v.is_finite() { v } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.mismatched == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

/// Builds a workload's inputs `SETUP_REPS` times, timing each; returns
/// the median time and the last build.
fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let v = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (common::median(&times), last.expect("at least one set-up"))
}

/// One workload's live phase on already-built inputs.
pub enum Inputs {
    Clean(verify::Pool, Pace),
    Mixed(verify::Mixed),
    Cycle(cycle::CycleSetup),
    Twin,
}

pub fn build_inputs(args: &Args, workers: usize) -> (f64, Inputs) {
    let seed = args.seed;
    let threads = common::host_cpus();
    match args.workload.as_str() {
        "verify-clean" | "verify-clean-r2000" | "verify-clean-r10000" => {
            let pace = match args.workload.as_str() {
                "verify-clean-r2000" => Pace::Rate(2_000.0),
                "verify-clean-r10000" => Pace::Rate(10_000.0),
                _ => Pace::Window,
            };
            let (t, pool) = repeat_setup(|| verify::clean_pool(seed, threads));
            (t, Inputs::Clean(pool, pace))
        }
        "verify-mixed" => {
            let (t, m) = repeat_setup(|| verify::mixed_inputs(seed, threads));
            (t, Inputs::Mixed(m))
        }
        "edge-cycle" => {
            // Keys plus a server with every relationship registered: the
            // session itself is part of the set-up, so it is timed here
            // and torn down; the live phase opens its own.
            let (t, cs) = repeat_setup(|| {
                let cs = cycle::setup(seed);
                let handle = client::spawn_server(workers);
                let s = client::open_session(handle.addr(), cs.plan, &cs.pairs);
                client::close_session(s.writer, s.reader);
                client::stop_server(handle);
                cs
            });
            (t, Inputs::Cycle(cs))
        }
        _ => (0.0, Inputs::Twin),
    }
}

pub struct LivePhase {
    pub live: Live,
    pub twin_runs: Vec<twin::TwinRun>,
    pub cycle_times: cycle::CycleTimes,
}

pub fn run_live(
    args: &Args,
    inputs: &Inputs,
    workers: usize,
    seconds: f64,
    spans: &mut Spans,
) -> LivePhase {
    let mut twin_runs = Vec::new();
    let mut cycle_times = cycle::CycleTimes::default();
    let live = match inputs {
        Inputs::Clean(pool, pace) => verify::clean(pool, *pace, seconds, workers, spans),
        Inputs::Mixed(m) => verify::mixed(m, seconds, workers, spans),
        Inputs::Cycle(cs) => {
            let handle = client::spawn_server(workers);
            let session = client::open_session(handle.addr(), cs.plan, &cs.pairs);
            let (mut live, times) = cycle::run(cs, args.seed, seconds, session, spans);
            let report = client::stop_server(handle);
            live.add_report(&report);
            cycle_times = times;
            live
        }
        Inputs::Twin => {
            let (live, runs) = twin::run(args.seed, seconds, spans);
            twin_runs = runs;
            live
        }
    };
    LivePhase {
        live,
        twin_runs,
        cycle_times,
    }
}

fn untraced(args: &Args, workers: usize) -> Outcome {
    let (mut setup_s, inputs) = build_inputs(args, workers);
    let mut spans = Spans::new(false);
    let phase = run_live(args, &inputs, workers, args.seconds, &mut spans);
    let live = &phase.live;
    // The server bind/spawn, HELLO and REGISTER a round repeats belong
    // to set-up too; the twin's set-up is its admission, timed per run.
    setup_s += common::median(&live.server_setup);
    let lat = common::sorted(live.latencies_ms.clone());
    let metrics = vec![
        ("setup_s", setup_s),
        ("peak_rss_mb", common::peak_rss_mb()),
        ("ops_per_s", live.ops_per_s()),
        ("p50_ms", live.p50()),
        ("p90_ms", live.p90()),
    ];
    // The deeper tail is printed but not gated: on a shared 2-CPU host
    // it is set by how often the host stalls the process, not by the
    // code under test.
    println!(
        "{{\"tail\": {{\"samples\": {}, \"p99_ms\": {:?}, \"p999_ms\": {:?}, \"max_ms\": {:?}}}}}",
        lat.len(),
        common::pctl(&lat, 0.99),
        common::pctl(&lat, 0.999),
        common::pctl(&lat, 1.0)
    );
    eprintln!(
        "perfbench: {} rounds, {} attempted, {} failed, {} rejections",
        live.rounds, live.attempted, live.failed, live.rejections
    );
    Outcome {
        attempted: live.attempted,
        failed: live.failed,
        mismatched: live.mismatched,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the gated workloads and the
    /// metrics this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.split_whitespace().collect();
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\",\"why\":")),
                "{w}"
            );
        }
        for w in UNGATED {
            assert!(!compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{entry}");
        }
    }
}
