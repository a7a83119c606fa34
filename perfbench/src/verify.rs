//! The verify workloads: pre-negotiated PoCs pushed through the TCP
//! verifier, either as single SUBMIT frames from a paced or window-bound
//! generator (`verify-clean*`), or as a bulk `RemoteVerifier` upload with
//! replays and tampered proofs mixed in (`verify-mixed`).

use crate::check;
use crate::client::{self, Incoming};
use crate::common::{self, CycleInput, Keys, Rel};
use crate::trace::Spans;
use crate::Live;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tlc_core::messages::PocMsg;
use tlc_core::plan::DataPlan;
use tlc_core::verify::remote::codec::Submit;
use tlc_core::verify::remote::{IngressReport, RemoteVerifier};
use tlc_core::verify::{Verdict, Verifier, VerifyError};
use tlc_crypto::PublicKey;
use tlc_net::rng::SimRng;

/// Edge keys × operator keys = 64 relationships for `verify-clean`.
const CLEAN_KEYS: usize = 8;
/// PoCs in the `verify-clean` pool; every round replays the whole pool
/// into a fresh server, since a PoC is accepted once per server lifetime.
pub const CLEAN_POOL: usize = 1024;
/// In the open-loop steps, a PoC whose verdict takes longer than this
/// missed the latency limit and counts as a failed operation.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// How the `verify-clean` generator releases submissions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pace {
    /// Open loop: PoC `i` is due `i / rate` seconds after the round starts.
    Rate(f64),
    /// Closed loop: a new PoC goes out whenever the granted window has room.
    Window,
}

/// Everything a verify workload replays: keys, relationships, the PoC
/// pool and the in-process verdict for each PoC.
pub struct Pool {
    pub plan: DataPlan,
    pub keys: Keys,
    pub pairs: Vec<(PublicKey, PublicKey)>,
    pub inputs: Vec<CycleInput>,
    pub pocs: Vec<PocMsg>,
    /// The in-process `Verifier` verdict for `pocs[i]` in pool order.
    pub expected: Vec<Result<Verdict, VerifyError>>,
}

/// Builds the `verify-clean` pool: 64 relationships interleaved
/// round-robin, each PoC negotiated from its own ground-truth pair.
pub fn clean_pool(seed: u64, threads: usize) -> Pool {
    pool_of(seed, CLEAN_KEYS, CLEAN_POOL, threads)
}

/// A pool over `keys × keys` relationships holding `size` PoCs.
pub fn pool_of(seed: u64, keys_per_side: usize, size: usize, threads: usize) -> Pool {
    let plan = DataPlan::paper_default();
    let keys = Keys::generate(seed, keys_per_side);
    let rels: Vec<Rel> = (0..keys_per_side * keys_per_side)
        .map(|i| Rel {
            edge: i / keys_per_side,
            op: i % keys_per_side,
        })
        .collect();
    let inputs: Vec<CycleInput> = (0..size)
        .map(|i| {
            let slot = i % rels.len();
            CycleInput::draw(seed, rels[slot], slot as u64, (i / rels.len()) as u64)
        })
        .collect();
    let pocs = common::negotiate_all(&inputs, &keys, plan, threads);
    let pairs: Vec<_> = rels.iter().map(|r| r.keys(&keys)).collect();
    let slots: Vec<usize> = (0..size).map(|i| i % rels.len()).collect();
    let expected = oracle(plan, &pairs, &slots, &pocs);
    Pool {
        plan,
        keys,
        pairs,
        inputs,
        pocs,
        expected,
    }
}

/// In-process verdicts for a submission sequence: one `Verifier` per
/// relationship, fed in submission order.
pub fn oracle(
    plan: DataPlan,
    pairs: &[(PublicKey, PublicKey)],
    slots: &[usize],
    pocs: &[PocMsg],
) -> Vec<Result<Verdict, VerifyError>> {
    let mut verifiers: Vec<Verifier> = pairs
        .iter()
        .map(|(e, o)| Verifier::new(plan, e.clone(), o.clone()))
        .collect();
    slots
        .iter()
        .zip(pocs)
        .map(|(&s, poc)| verifiers[s].verify(poc))
        .collect()
}

/// One `verify-clean` round's raw results.
pub struct RoundResult {
    pub server_setup: Duration,
    pub latencies_ms: Vec<f64>,
    pub elapsed: Duration,
    pub failed: u64,
    pub mismatched: u64,
    pub max_lag_ms: f64,
    pub report: IngressReport,
}

/// Runs one round: fresh server, one connection, the whole pool once.
pub fn clean_round(pool: &Pool, pace: Pace, workers: usize, spans: &mut Spans) -> RoundResult {
    let n = pool.pocs.len();
    let t0 = Instant::now();
    let handle = client::spawn_server(workers);
    let session = client::open_session(handle.addr(), pool.plan, &pool.pairs);
    let server_setup = t0.elapsed();
    let client::Session {
        mut writer,
        mut reader,
        window,
        rels,
    } = session;
    let encoded: Vec<Vec<u8>> = pool.pocs.iter().map(|p| p.encode()).collect();
    let due_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let tracing = spans.enabled();
    let base = Instant::now();

    let (lat, failed, mismatched, last_ns, read_spans, max_lag_ms, write_spans, reader) =
        std::thread::scope(|s| {
            let due = &due_ns;
            let rel_ids = &rels;
            let reader_thread = s.spawn(move || {
                let mut lat = vec![f64::NAN; n];
                let (mut failed, mut mismatched, mut got) = (0u64, 0u64, 0usize);
                let mut read_spans = Spans::new(tracing);
                let mut last_ns = 0u64;
                while got < n {
                    match client::read_verdict(&mut reader) {
                        Incoming::Verdict(v) => {
                            let now = base.elapsed().as_nanos() as u64;
                            let tag = v.tag as usize;
                            got += 1;
                            last_ns = now;
                            if tag >= n {
                                failed += 1;
                                continue;
                            }
                            let ok = v.rel == rel_ids[tag % rel_ids.len()]
                                && check::clean_verdict(
                                    &v.result,
                                    &pool.expected[tag],
                                    pool.inputs[tag].intended(&pool.plan),
                                );
                            if !ok {
                                mismatched += 1;
                            }
                            let ms =
                                now.saturating_sub(due[tag].load(Ordering::Acquire)) as f64 / 1e6;
                            lat[tag] = ms;
                            read_spans.record(
                                "client.verdict",
                                v.tag,
                                now,
                                base.elapsed().as_nanos() as u64,
                            );
                            let _ = credit_tx.send(());
                        }
                        Incoming::Other(_) => {
                            got += 1;
                            failed += 1;
                            let _ = credit_tx.send(());
                        }
                        Incoming::Closed => break,
                    }
                }
                failed += (n - got) as u64;
                (lat, failed, mismatched, last_ns, read_spans, reader)
            });

            let mut write_spans = Spans::new(tracing);
            let mut credits = window as usize;
            let mut max_lag_ms = 0f64;
            let mut scratch = Vec::with_capacity(1024);
            for (i, poc) in encoded.iter().enumerate() {
                let due_at = match pace {
                    Pace::Rate(r) => {
                        let due_at = Duration::from_secs_f64(i as f64 / r);
                        let now = base.elapsed();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        max_lag_ms =
                            max_lag_ms.max(common::ms(base.elapsed().saturating_sub(due_at)));
                        due_at
                    }
                    Pace::Window => {
                        while credits == 0 {
                            credit_rx.recv().expect("reader alive");
                            credits += 1;
                        }
                        while credit_rx.try_recv().is_ok() {
                            credits += 1;
                        }
                        credits -= 1;
                        base.elapsed()
                    }
                };
                due_ns[i].store(due_at.as_nanos() as u64, Ordering::Release);
                let start = base.elapsed().as_nanos() as u64;
                let msg = Submit {
                    rel: rels[i % rels.len()],
                    tag: i as u64,
                    poc: poc.clone(),
                };
                client::send(&mut writer, &msg.to_frame(), &mut scratch);
                write_spans.record(
                    "client.write",
                    i as u64,
                    start,
                    base.elapsed().as_nanos() as u64,
                );
            }
            let (lat, failed, mismatched, last_ns, read_spans, reader) =
                reader_thread.join().expect("reader thread");
            (
                lat,
                failed,
                mismatched,
                last_ns,
                read_spans,
                max_lag_ms,
                write_spans,
                reader,
            )
        });
    client::close_session(writer, reader);
    let report = client::stop_server(handle);
    spans.absorb(write_spans);
    spans.absorb(read_spans);
    let failed = if let Pace::Rate(_) = pace {
        let over_limit = lat
            .iter()
            .filter(|l| l.is_nan() || **l > LATENCY_LIMIT_MS)
            .count() as u64;
        // A generator that fell behind by more than the limit means the
        // backlog grew: the whole round missed the latency limit.
        if max_lag_ms > LATENCY_LIMIT_MS {
            n as u64
        } else {
            failed.max(over_limit)
        }
    } else {
        failed
    };
    RoundResult {
        server_setup,
        latencies_ms: lat.into_iter().filter(|l| !l.is_nan()).collect(),
        elapsed: Duration::from_nanos(last_ns),
        failed: failed + mismatched,
        mismatched,
        max_lag_ms,
        report,
    }
}

/// Runs `verify-clean` rounds until `seconds` have passed (at least two).
pub fn clean(pool: &Pool, pace: Pace, seconds: f64, workers: usize, spans: &mut Spans) -> Live {
    let start = Instant::now();
    let cpu0 = common::cpu_time();
    let mut live = Live::default();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        let r = clean_round(pool, pace, workers, spans);
        rounds += 1;
        live.throughput
            .push(r.latencies_ms.len() as f64 / r.elapsed.as_secs_f64().max(1e-9));
        live.add_round(&r.latencies_ms);
        live.server_setup.push(r.server_setup.as_secs_f64());
        live.lag_ms.push(r.max_lag_ms);
        live.attempted += pool.pocs.len() as u64;
        live.failed += r.failed;
        live.mismatched += r.mismatched;
        live.add_report(&r.report);
    }
    live.ops = live.attempted;
    live.cpu = common::cpu_time().saturating_sub(cpu0);
    live.rounds = rounds;
    live
}

// ── verify-mixed ────────────────────────────────────────────────────────

/// Relationships in the bulk upload.
pub const MIXED_RELS: usize = 8;
/// Batches each relationship uploads per round.
pub const MIXED_BATCHES: usize = 6;
/// Proofs per batch. A relationship's first batch has nothing to replay
/// yet: 18 fresh and 2 tampered. Each later batch carries 12 fresh, 6
/// replays and 2 tampered, so a round of 6 batches is exactly 65% fresh,
/// 25% replays and 10% tampered.
pub const MIXED_BATCH: usize = 20;
const FRESH: usize = 12;
const REPLAYS: usize = 6;
const TAMPERED: usize = 2;

/// What a mixed-upload item is supposed to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Planned {
    Fresh,
    Replay,
    Tampered,
}

/// The `verify-mixed` upload: its batches in submission order, each
/// proof with its plan and the in-process verdict.
pub struct Mixed {
    pub plan: DataPlan,
    pub keys: Keys,
    pub pairs: Vec<(PublicKey, PublicKey)>,
    /// `(relationship slot, items)` per SUBMIT_BATCH call, in order.
    pub batches: Vec<(usize, Vec<usize>)>,
    /// Every submitted item: the proof, its plan, and its intended charge.
    pub items: Vec<(PocMsg, Planned, u64)>,
    /// The in-process verdict of each item, in submission (tag) order.
    pub expected: Vec<Result<Verdict, VerifyError>>,
    /// Item index per tag.
    pub order: Vec<usize>,
}

pub fn mixed_inputs(seed: u64, threads: usize) -> Mixed {
    let plan = DataPlan::paper_default();
    let keys = Keys::generate(seed, MIXED_RELS);
    let rels: Vec<Rel> = (0..MIXED_RELS).map(|i| Rel { edge: i, op: i }).collect();
    let per_rel = (MIXED_BATCH - TAMPERED) + FRESH * (MIXED_BATCHES - 1) + TAMPERED;
    let inputs: Vec<CycleInput> = (0..MIXED_RELS * per_rel)
        .map(|i| {
            CycleInput::draw(
                seed,
                rels[i / per_rel],
                (i / per_rel) as u64,
                (i % per_rel) as u64,
            )
        })
        .collect();
    let pocs = common::negotiate_all(&inputs, &keys, plan, threads);
    let mut rng = SimRng::new(common::mix(seed, 0x4D49_5845));
    let mut items: Vec<(PocMsg, Planned, u64)> = Vec::new();
    let mut per_batch: Vec<Vec<Vec<usize>>> = vec![Vec::new(); MIXED_RELS];
    for r in 0..MIXED_RELS {
        // The relationship's `k`-th proof, as planned, with its charge.
        let item = |k: usize, planned: Planned| {
            let mut poc = pocs[r * per_rel + k].clone();
            if planned == Planned::Tampered {
                poc.charge += 1;
            }
            (poc, planned, inputs[r * per_rel + k].intended(&plan))
        };
        let mut next = 0usize;
        let mut submitted: Vec<usize> = Vec::new();
        for b in 0..MIXED_BATCHES {
            let fresh = if b == 0 {
                MIXED_BATCH - TAMPERED
            } else {
                FRESH
            };
            let mut batch = Vec::with_capacity(MIXED_BATCH);
            for k in next..next + fresh {
                items.push(item(k, Planned::Fresh));
                batch.push(items.len() - 1);
            }
            if b > 0 {
                for _ in 0..REPLAYS {
                    let k = submitted[rng.next_below(submitted.len() as u64) as usize];
                    items.push(item(k, Planned::Replay));
                    batch.push(items.len() - 1);
                }
            }
            // Tamper copies of proofs the relationship has not submitted
            // yet, so each is judged on its broken signature, not as a
            // replay.
            let ahead = next + fresh;
            for k in ahead..ahead + TAMPERED {
                items.push(item(k, Planned::Tampered));
                batch.push(items.len() - 1);
            }
            submitted.extend(next..next + fresh);
            next += fresh;
            // Fisher–Yates with the workload's own stream.
            for i in (1..batch.len()).rev() {
                batch.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            per_batch[r].push(batch);
        }
    }
    let mut batches = Vec::new();
    for b in 0..MIXED_BATCHES {
        for (r, list) in per_batch.iter().enumerate() {
            batches.push((r, list[b].clone()));
        }
    }
    let order: Vec<usize> = batches
        .iter()
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    let slots: Vec<usize> = batches
        .iter()
        .flat_map(|(r, b)| b.iter().map(move |_| *r))
        .collect();
    let seq: Vec<PocMsg> = order.iter().map(|&i| items[i].0.clone()).collect();
    let pairs: Vec<_> = rels.iter().map(|r| r.keys(&keys)).collect();
    let expected = oracle(plan, &pairs, &slots, &seq);
    Mixed {
        plan,
        keys,
        pairs,
        batches,
        items,
        expected,
        order,
    }
}

/// One bulk upload into a fresh server.
pub fn mixed_round(m: &Mixed, workers: usize, spans: &mut Spans) -> (RoundResult, u64) {
    let t0 = Instant::now();
    let handle = client::spawn_server(workers);
    let mut client = RemoteVerifier::connect(handle.addr(), 0).expect("connect");
    let rels: Vec<_> = m
        .pairs
        .iter()
        .map(|(e, o)| {
            client
                .register(m.plan, e.clone(), o.clone())
                .expect("register")
        })
        .collect();
    let server_setup = t0.elapsed();
    let total = m.order.len();
    let mut sent_at = vec![0f64; total];
    let mut tally = Tally::new(total);
    let base = Instant::now();
    let mut tag = 0usize;
    for (slot, batch) in &m.batches {
        let start = base.elapsed();
        sent_at[tag..tag + batch.len()].fill(common::ms(start));
        let pocs = batch.iter().map(|&i| &m.items[i].0);
        match client.submit_batch(rels[*slot], pocs) {
            Ok((first, count)) if first as usize == tag && count == batch.len() => {}
            _ => tally.failed += batch.len() as u64,
        }
        spans.record(
            "client.submit_batch",
            tag as u64,
            start.as_nanos() as u64,
            base.elapsed().as_nanos() as u64,
        );
        tag += batch.len();
        tally.judge(m, client.take_ready(), &sent_at, common::ms(base.elapsed()));
    }
    match client.collect_results() {
        Ok(rest) => tally.judge(m, rest, &sent_at, common::ms(base.elapsed())),
        Err(_) => tally.failed += 1,
    }
    let elapsed = base.elapsed();
    // Every verdict was collected above; the goodbye must bring none.
    if !client.goodbye().is_ok_and(|rest| rest.is_empty()) {
        tally.failed += 1;
    }
    let report = client::stop_server(handle);
    let Tally {
        lat,
        failed,
        mismatched,
        rejections,
    } = tally;
    let missing = lat.iter().filter(|l| l.is_nan()).count() as u64;
    (
        RoundResult {
            server_setup,
            latencies_ms: lat.into_iter().filter(|l| !l.is_nan()).collect(),
            elapsed,
            failed: failed + missing + mismatched,
            mismatched,
            max_lag_ms: 0.0,
            report,
        },
        rejections,
    )
}

/// Per-tag verdict bookkeeping for one bulk upload.
struct Tally {
    lat: Vec<f64>,
    failed: u64,
    mismatched: u64,
    rejections: u64,
}

impl Tally {
    fn new(total: usize) -> Tally {
        Tally {
            lat: vec![f64::NAN; total],
            failed: 0,
            mismatched: 0,
            rejections: 0,
        }
    }

    /// Checks verdicts the client has handed back, timing each from the
    /// start of the SUBMIT_BATCH call that carried it.
    fn judge(
        &mut self,
        m: &Mixed,
        results: Vec<tlc_core::verify::service::SubmissionResult>,
        sent_at: &[f64],
        now_ms: f64,
    ) {
        for r in results {
            let tag = r.tag as usize;
            if tag >= self.lat.len() || !self.lat[tag].is_nan() {
                self.failed += 1;
                continue;
            }
            self.lat[tag] = now_ms - sent_at[tag];
            let (_, planned, intended) = &m.items[m.order[tag]];
            if r.result.is_err() {
                self.rejections += 1;
            }
            if !check::mixed_verdict(&r.result, &m.expected[tag], *planned, *intended) {
                self.mismatched += 1;
            }
        }
    }
}

pub fn mixed(m: &Mixed, seconds: f64, workers: usize, spans: &mut Spans) -> Live {
    let start = Instant::now();
    let cpu0 = common::cpu_time();
    let mut live = Live::default();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        let (r, rejections) = mixed_round(m, workers, spans);
        rounds += 1;
        live.throughput
            .push(r.latencies_ms.len() as f64 / r.elapsed.as_secs_f64().max(1e-9));
        live.add_round(&r.latencies_ms);
        live.server_setup.push(r.server_setup.as_secs_f64());
        live.attempted += m.order.len() as u64;
        live.failed += r.failed;
        live.mismatched += r.mismatched;
        live.rejections += rejections;
        live.add_report(&r.report);
    }
    live.ops = live.attempted;
    live.cpu = common::cpu_time().saturating_sub(cpu0);
    live.rounds = rounds;
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tampered PoC that the benchmark expects to be accepted must be
    /// counted as a failed, mismatched operation by a live round.
    #[test]
    fn tampered_proof_expected_as_accepted_counts_as_failed() {
        let mut pool = pool_of(5, 2, 16, 2);
        let clean = clean_round(&pool, Pace::Window, 2, &mut Spans::new(false));
        assert_eq!((clean.failed, clean.mismatched), (0, 0));
        assert!(pool.expected[3].is_ok());
        pool.pocs[3].charge += 1;
        let r = clean_round(&pool, Pace::Window, 2, &mut Spans::new(false));
        assert_eq!(r.mismatched, 1);
        assert_eq!(r.failed, 1);
    }

    /// The mixed upload's plan holds against the in-process oracle.
    #[test]
    fn mixed_plan_matches_the_oracle() {
        let m = mixed_inputs(3, 2);
        let (r, rejections) = mixed_round(&m, 2, &mut Spans::new(false));
        assert_eq!((r.failed, r.mismatched), (0, 0));
        let count = |p: Planned| m.order.iter().filter(|&&i| m.items[i].1 == p).count();
        let total = m.order.len();
        assert_eq!(total, MIXED_RELS * MIXED_BATCHES * MIXED_BATCH);
        assert_eq!(count(Planned::Fresh) * 100, total * 65);
        assert_eq!(count(Planned::Replay) * 100, total * 25);
        assert_eq!(count(Planned::Tampered) * 100, total * 10);
        assert_eq!(rejections as usize, total - count(Planned::Fresh));
    }
}
