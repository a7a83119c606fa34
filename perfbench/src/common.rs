//! Inputs, statistics and process measurements shared by every workload.

use std::time::{Duration, Instant};
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_crypto::{KeyPair, PublicKey};
use tlc_net::rng::SimRng;

/// RSA modulus size the protocol ships with.
pub const KEY_BITS: usize = 1024;
/// Loss gap between what the edge sent and the operator delivered.
pub const LOSS_GAP: u64 = 40_000;
/// Negotiation round cap handed to both endpoints.
pub const MAX_ROUNDS: u32 = 16;

/// Splitmix64 finaliser: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edge and operator key sets; relationship `(e, o)` pairs edge key
/// `e` with operator key `o`, so `n × n` relationships need `2n` keys.
pub struct Keys {
    pub edge: Vec<KeyPair>,
    pub op: Vec<KeyPair>,
}

impl Keys {
    pub fn generate(seed: u64, n: usize) -> Keys {
        let gen = |side: u64, i: usize| {
            KeyPair::generate_for_seed(KEY_BITS, mix(seed, side * 1_000 + i as u64))
                .expect("1024-bit keygen is infallible")
        };
        Keys {
            edge: (0..n).map(|i| gen(1, i)).collect(),
            op: (0..n).map(|i| gen(2, i)).collect(),
        }
    }
}

/// One charging relationship as the verifier sees it.
#[derive(Clone, Copy, Debug)]
pub struct Rel {
    pub edge: usize,
    pub op: usize,
}

impl Rel {
    pub fn keys(self, keys: &Keys) -> (PublicKey, PublicKey) {
        (
            keys.edge[self.edge].public.clone(),
            keys.op[self.op].public.clone(),
        )
    }
}

/// What one cycle's negotiation starts from: the ground-truth pair.
#[derive(Clone, Copy, Debug)]
pub struct CycleInput {
    pub rel: Rel,
    pub sent: u64,
    pub received: u64,
    pub nonce_e: [u8; NONCE_LEN],
    pub nonce_o: [u8; NONCE_LEN],
}

impl CycleInput {
    /// Cycle `index` of relationship slot `slot`, drawn from `seed`.
    pub fn draw(seed: u64, rel: Rel, slot: u64, index: u64) -> CycleInput {
        let mut rng = SimRng::new(mix(seed, slot << 32 | index));
        let sent = 1_000_000 + rng.next_below(50_000_000);
        let nonce = |side: u8| {
            let mut n = [side; NONCE_LEN];
            n[..8].copy_from_slice(&mix(seed, slot).to_be_bytes());
            n[8..].copy_from_slice(&index.to_be_bytes());
            n
        };
        CycleInput {
            rel,
            sent,
            received: sent - LOSS_GAP,
            nonce_e: nonce(0xE0),
            nonce_o: nonce(0x0F),
        }
    }

    /// The plan-intended charge x̂_o + c·(x̂_e − x̂_o), computed here from
    /// the plan's weight rather than through the verifier's pricing.
    pub fn intended(&self, plan: &DataPlan) -> u64 {
        let w = plan.loss_weight.as_f64();
        self.received + ((self.sent - self.received) as f64 * w).round() as u64
    }

    /// Builds both endpoints (operator initiates, as in the paper).
    pub fn endpoints(&self, keys: &Keys, plan: DataPlan) -> (Endpoint, Endpoint) {
        let edge = &keys.edge[self.rel.edge];
        let op = &keys.op[self.rel.op];
        let e = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: self.sent,
                inferred_peer_truth: self.received,
            },
            Box::new(OptimalStrategy),
            edge.private.clone(),
            op.public.clone(),
            self.nonce_e,
            MAX_ROUNDS,
        );
        let o = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: self.received,
                inferred_peer_truth: self.sent,
            },
            Box::new(OptimalStrategy),
            op.private.clone(),
            edge.public.clone(),
            self.nonce_o,
            MAX_ROUNDS,
        );
        (o, e)
    }

    /// Runs the negotiation to a signed PoC.
    pub fn negotiate(&self, keys: &Keys, plan: DataPlan) -> (PocMsg, u32) {
        let (mut o, mut e) = self.endpoints(keys, plan);
        let (poc, _) = run_negotiation(&mut o, &mut e).expect("honest negotiation completes");
        (poc, o.rounds().max(e.rounds()))
    }
}

/// Negotiates every input on `threads` threads, keeping input order.
pub fn negotiate_all(
    inputs: &[CycleInput],
    keys: &Keys,
    plan: DataPlan,
    threads: usize,
) -> Vec<PocMsg> {
    let chunk = inputs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|c| c.negotiate(keys, plan).0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("negotiation thread"))
            .collect()
    })
}

/// Logical CPUs the process may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of an already sorted slice.
pub fn pctl(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    pctl(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    Duration::from_millis(f.iter().sum::<u64>() * 10)
}

/// Times `f` over `iters` calls and returns nanoseconds per call: the
/// median of `reps` repetitions, after a short untimed warm-up.
pub fn time_ns<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..iters.min(64) {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters.max(1) as f64);
    }
    median(&samples)
}
