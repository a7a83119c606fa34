//! Per-layer costs: each layer's public function timed in isolation on
//! the workload's own inputs (traced runs only).

use crate::common::{self, time_ns, Keys};
use std::hint::black_box;
use tlc_core::messages::{CdaMsg, CdrMsg, PocDigests, PocMsg};
use tlc_core::plan::DataPlan;
use tlc_core::plan::UsagePair;
use tlc_core::roaming::{reconcile_bonded, LinkCdr, RoamingAgreement, Segment, Serving};
use tlc_core::strategy::Role;
use tlc_core::verify::remote::codec::{Submit, SubmitBatch, SubmitBatchRef, SubmitRef, VerdictMsg};
use tlc_core::verify::{verify_poc_batch_prehashed, Verifier};
use tlc_crypto::{pkcs1, PrivateKey, PublicKey};
use tlc_net::rng::SimRng;
use tlc_net::wire::{FrameDecoder, DEFAULT_MAX_PAYLOAD};
use tlc_sim::arena::Arena;
use tlc_sim::soa::{ChargeColumns, ChargeRow};
use tlc_sim::twin::{settle_twin_row, TwinConfig};
use tlc_sim::wheel::{Scheduler, WheelBackend};
use tlc_workloads::churn::ChurnGen;

/// Repetitions per micro-benchmark; the median is reported.
const REPS: usize = 5;

/// One relationship's proofs plus what signing and verifying them needs.
pub struct ProofSet<'a> {
    pub plan: DataPlan,
    pub edge: &'a PublicKey,
    pub op: &'a PublicKey,
    pub edge_priv: &'a PrivateKey,
    pub op_priv: &'a PrivateKey,
    /// Proofs of that one relationship (at least one).
    pub pocs: Vec<&'a PocMsg>,
}

impl<'a> ProofSet<'a> {
    pub fn new(
        plan: DataPlan,
        keys: &'a Keys,
        edge: usize,
        op: usize,
        pocs: Vec<&'a PocMsg>,
    ) -> Self {
        ProofSet {
            plan,
            edge: &keys.edge[edge].public,
            op: &keys.op[op].public,
            edge_priv: &keys.edge[edge].private,
            op_priv: &keys.op[op].private,
            pocs,
        }
    }
}

/// Verify-path layers: wire, codec, service stages, verify, messages
/// and crypto. `live_fill` is the mean signature batch the live run's
/// service report shows; the returned `service.sig_us_per_batch.live`
/// is the RSA time of one batch that size.
pub fn verify_path(set: &ProofSet, live_fill: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let pocs = &set.pocs;
    let encoded: Vec<Vec<u8>> = pocs.iter().map(|p| p.encode()).collect();
    let n = pocs.len();
    let mut k = 0usize;
    let mut next = || {
        k = (k + 1) % n;
        k
    };

    let mut buf = Vec::with_capacity(1024);
    out.push((
        "wire.submit_encode_ns",
        time_ns(REPS, 2_000, || {
            let i = next();
            buf.clear();
            let frame = Submit {
                rel: 7,
                tag: i as u64,
                poc: encoded[i].clone(),
            }
            .to_frame();
            frame.encode_into(&mut buf).expect("under the cap");
            black_box(&buf);
        }),
    ));

    let frames: Vec<Vec<u8>> = encoded
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Submit {
                rel: 7,
                tag: i as u64,
                poc: p.clone(),
            }
            .to_frame()
            .encode()
            .expect("under the cap")
        })
        .collect();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    out.push((
        "wire.frame_split_ns",
        time_ns(REPS, 2_000, || {
            decoder.push(&frames[next()]).expect("valid frame");
            black_box(decoder.next_frame());
        }),
    ));

    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f[tlc_net::wire::HEADER_LEN..].to_vec())
        .collect();
    out.push((
        "codec.submit_decode_ns",
        time_ns(REPS, 2_000, || {
            let s = SubmitRef::decode(&payloads[next()]).expect("valid SUBMIT");
            black_box(PocMsg::decode(s.poc).expect("valid PoC"));
        }),
    ));

    let batch = crate::verify::MIXED_BATCH;
    let batch_payload = SubmitBatch {
        rel: 7,
        first_tag: 0,
        pocs: encoded.iter().cycle().take(batch).cloned().collect(),
    }
    .to_frame()
    .payload;
    out.push((
        "codec.batch_decode_ns_per_poc",
        time_ns(REPS, 200, || {
            let b = SubmitBatchRef::decode(&batch_payload).expect("valid batch");
            for p in &b.pocs {
                black_box(PocMsg::decode(p).expect("valid PoC"));
            }
        }) / batch as f64,
    ));

    let verdict = Verifier::new(set.plan, set.edge.clone(), set.op.clone()).verify(pocs[0]);
    out.push((
        "codec.verdict_ns",
        time_ns(REPS, 2_000, || {
            let f = VerdictMsg {
                rel: 7,
                tag: 9,
                shard: 0,
                result: verdict.clone(),
            }
            .to_frame();
            black_box(VerdictMsg::decode(&f.payload).expect("valid VERDICT"));
        }),
    ));

    out.push((
        "service.hash_us",
        time_ns(REPS, 500, || {
            black_box(pocs[next()].chain_digests());
        }) / 1e3,
    ));

    let digests: Vec<PocDigests> = pocs.iter().map(|p| p.chain_digests()).collect();
    let sig_batch = |size: usize| -> f64 {
        let items: Vec<(&PocMsg, &PocDigests)> =
            (0..size).map(|i| (pocs[i % n], &digests[i % n])).collect();
        let iters = (256 / size).max(4);
        time_ns(REPS, iters, || {
            black_box(verify_poc_batch_prehashed(
                &items, &set.plan, set.edge, set.op,
            ));
        }) / 1e3
    };
    out.push(("service.sig_us_per_poc.b1", sig_batch(1)));
    out.push(("service.sig_us_per_poc.b32", sig_batch(32) / 32.0));
    let fill = live_fill.round().clamp(1.0, 64.0) as usize;
    out.push(("service.sig_us_per_batch.live", sig_batch(fill)));

    let mut warm = Verifier::new(set.plan, set.edge.clone(), set.op.clone());
    for p in pocs.iter() {
        let _ = warm.verify(p);
    }
    let refs: Vec<&PocMsg> = pocs.to_vec();
    out.push((
        "verify.replay_batch_us_per_poc",
        time_ns(REPS, 16, || {
            black_box(warm.verify_batch(&refs));
        }) / 1e3
            / n as f64,
    ));
    // A tampered proof never enters the replay cache, so one verifier
    // judges it afresh on every call.
    let mut fresh = Verifier::new(set.plan, set.edge.clone(), set.op.clone());
    let mut tampered = pocs[0].clone();
    tampered.charge += 1;
    out.push((
        "verify.reject_tampered_us",
        time_ns(REPS, 64, || {
            black_box(fresh.verify(&tampered).is_err());
        }) / 1e3,
    ));

    // One cycle's signatures, re-made from a proof's own fields.
    let poc = pocs[0];
    let (fin, other) = match poc.role {
        Role::Edge => (set.edge_priv, set.op_priv),
        Role::Operator => (set.op_priv, set.edge_priv),
    };
    let cdr = &poc.cda.peer_cdr;
    out.push((
        "messages.sign_us",
        time_ns(REPS, 32, || {
            let c =
                CdrMsg::sign(cdr.role, cdr.plan, cdr.seq, cdr.nonce, cdr.usage, fin).expect("sign");
            let a = CdaMsg::sign(
                poc.cda.role,
                poc.cda.plan,
                poc.cda.nonce,
                poc.cda.usage,
                c,
                other,
            )
            .expect("sign");
            black_box(
                PocMsg::sign(
                    poc.role,
                    poc.plan,
                    poc.charge,
                    a,
                    poc.nonce_e,
                    poc.nonce_o,
                    fin,
                )
                .expect("sign"),
            );
        }) / 1e3,
    ));
    out.push((
        "messages.verify_us",
        time_ns(REPS, 64, || {
            black_box(pocs[next()].verify_chain(set.edge, set.op).is_ok());
        }) / 1e3,
    ));
    let msg = b"charging data record body of a typical length for one cycle........";
    out.push((
        "crypto.sign_us",
        time_ns(REPS, 64, || {
            black_box(pkcs1::sign(set.edge_priv, msg).expect("sign"));
        }) / 1e3,
    ));
    let sig = pkcs1::sign(set.edge_priv, msg).expect("sign");
    out.push((
        "crypto.verify_us",
        time_ns(REPS, 256, || {
            black_box(pkcs1::verify(set.edge, msg, &sig).is_ok());
        }) / 1e3,
    ));
    out
}

/// Negotiation cost and rounds over the given cycle inputs.
pub fn protocol(
    inputs: &[common::CycleInput],
    keys: &Keys,
    plan: DataPlan,
) -> Vec<(&'static str, f64)> {
    let mut us = Vec::new();
    let mut rounds = Vec::new();
    for c in inputs {
        let t = std::time::Instant::now();
        let (poc, r) = c.negotiate(keys, plan);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(poc);
        rounds.push(r as f64);
    }
    vec![
        ("protocol.negotiate_us", common::median(&us)),
        ("protocol.rounds", common::mean(&rounds)),
    ]
}

/// Twin layers at the twin's population: `sessions` live sessions and
/// `timers` live scheduler entries.
pub fn twin_path(cfg: &TwinConfig, sessions: usize, timers: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = SimRng::new(common::mix(cfg.seed, 0x0057_494E));
    let horizon = cfg.cycle.as_micros().max(1);

    let mut sched: Scheduler<u32> = Scheduler::with_capacity(WheelBackend::Wheel, timers + 4096);
    for i in 0..timers {
        sched.schedule(1 + rng.next_below(horizon), i as u32);
    }
    const M: usize = 4096;
    let mut sched_ns = Vec::new();
    let mut cancel_ns = Vec::new();
    let mut pop_ns = Vec::new();
    for _ in 0..REPS {
        let now = sched.now();
        let offsets: Vec<u64> = (0..M).map(|_| now + 1 + rng.next_below(horizon)).collect();
        let t = std::time::Instant::now();
        let toks: Vec<_> = offsets.iter().map(|&at| sched.schedule(at, 0)).collect();
        sched_ns.push(t.elapsed().as_nanos() as f64 / M as f64);
        let t = std::time::Instant::now();
        for tok in toks {
            black_box(sched.cancel(tok));
        }
        cancel_ns.push(t.elapsed().as_nanos() as f64 / M as f64);
        // Pop in steady state: every popped timer is re-armed, as a
        // session's tick re-arms its next tick.
        let t = std::time::Instant::now();
        for _ in 0..M {
            if let Some((tick, _, v)) = sched.pop_next(u64::MAX) {
                sched.schedule(tick + 1 + (v as u64 % horizon), v);
            }
        }
        pop_ns.push(t.elapsed().as_nanos() as f64 / M as f64);
    }
    // The pop loop also re-arms; report pop net of one schedule.
    let schedule = common::median(&sched_ns);
    out.push(("wheel.schedule_ns", schedule));
    out.push((
        "wheel.pop_ns",
        (common::median(&pop_ns) - schedule).max(0.0),
    ));
    out.push(("wheel.cancel_ns", common::median(&cancel_ns)));
    drop(sched);

    let mut arena: Arena<[u64; 4]> = Arena::with_capacity(sessions);
    let mut ids: Vec<_> = (0..sessions).map(|i| arena.insert([i as u64; 4])).collect();
    out.push((
        "arena.churn_ns",
        time_ns(REPS, 20_000, || {
            let j = rng.next_below(ids.len() as u64) as usize;
            black_box(arena.remove(ids[j]));
            ids[j] = arena.insert([j as u64; 4]);
        }),
    ));
    drop(arena);

    let mut cols = ChargeColumns::with_capacity(sessions);
    for row in 0..sessions {
        cols.ensure_row(row);
        cols.start_cycle(row, 0);
        cols.accrue(row, 100_000 + row as u64, 1_000, 500, row % 2 == 0);
    }
    out.push((
        "soa.accrue_ns",
        time_ns(REPS, 50_000, || {
            let row = rng.next_below(sessions as u64) as usize;
            cols.accrue(row, 125_000, 1_200, 300, true);
        }),
    ));
    out.push((
        "soa.handover_flush_ns",
        time_ns(REPS, 50_000, || {
            let row = rng.next_below(sessions as u64) as usize;
            black_box(cols.handover_flush(row, 2_000));
        }),
    ));
    let w = cfg.plan.loss_weight;
    out.push((
        "soa.sweep_ns_per_row",
        time_ns(3, 1, || {
            black_box(cols.sweep(w));
        }) / sessions as f64,
    ));
    let rows: Vec<ChargeRow> = (0..1024)
        .map(|i| cols.row(i * (sessions / 1024).max(1) % sessions))
        .collect();
    let mut r = 0usize;
    out.push((
        "measure.settle_row_ns",
        time_ns(REPS, 20_000, || {
            r = (r + 1) % rows.len();
            black_box(settle_twin_row(&rows[r], &cfg.plan));
        }),
    ));
    drop(cols);

    let agreement = cfg
        .roaming
        .as_ref()
        .map_or_else(RoamingAgreement::paper_default, |rc| rc.agreement);
    let segs = [
        Segment {
            serving: Serving::Home,
            claims: UsagePair {
                edge: 1_250_000,
                operator: 1_210_000,
            },
        },
        Segment {
            serving: Serving::Visited,
            claims: UsagePair {
                edge: 640_000,
                operator: 611_000,
            },
        },
    ];
    out.push((
        "roaming.settle_ns",
        time_ns(REPS, 20_000, || {
            black_box(agreement.settle(black_box(&segs)));
        }),
    ));
    let links = [
        LinkCdr {
            claims: UsagePair {
                edge: 900_000,
                operator: 880_000,
            },
            rtt_us: 30_000,
            loss_bp: 200,
        },
        LinkCdr {
            claims: UsagePair {
                edge: 400_000,
                operator: 368_000,
            },
            rtt_us: 45_000,
            loss_bp: 800,
        },
    ];
    out.push((
        "roaming.reconcile_ns",
        time_ns(REPS, 20_000, || {
            black_box(reconcile_bonded(black_box(&links), w));
        }),
    ));

    let mut churn = ChurnGen::new(cfg.churn, SimRng::new(common::mix(cfg.seed, 0x4348)));
    out.push((
        "churn.arrival_ns",
        time_ns(REPS, 20_000, || {
            black_box(churn.next_arrival());
            black_box(churn.draw_profile());
        }),
    ));
    out
}
