//! `edge-cycle`: one thread negotiates charging cycles back to back and
//! submits each PoC the moment it is signed; a second thread reads the
//! verdicts. A cycle's latency runs from negotiation start to verdict.

use crate::check;
use crate::client::{self, Incoming};
use crate::common::{self, CycleInput, Keys, Rel};
use crate::trace::Spans;
use crate::Live;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::run_negotiation;
use tlc_core::verify::remote::codec::Submit;
use tlc_crypto::PublicKey;
use tlc_net::wire::{Frame, FrameKind};

/// Key pairs per side (16 in all).
const CYCLE_KEYS: usize = 8;
/// Relationships the cycles rotate over: `(i, i)` and `(i, i + 1)`.
const CYCLE_RELS: usize = 16;

pub struct CycleSetup {
    pub plan: DataPlan,
    pub keys: Keys,
    pub rels: Vec<Rel>,
    pub pairs: Vec<(PublicKey, PublicKey)>,
}

pub fn setup(seed: u64) -> CycleSetup {
    let plan = DataPlan::paper_default();
    let keys = Keys::generate(seed, CYCLE_KEYS);
    let rels: Vec<Rel> = (0..CYCLE_RELS)
        .map(|i| Rel {
            edge: i % CYCLE_KEYS,
            op: (i + i / CYCLE_KEYS) % CYCLE_KEYS,
        })
        .collect();
    let pairs = rels.iter().map(|r| r.keys(&keys)).collect();
    CycleSetup {
        plan,
        keys,
        rels,
        pairs,
    }
}

/// Per-cycle timings beyond the end-to-end latency.
#[derive(Default)]
pub struct CycleTimes {
    pub negotiate_us: Vec<f64>,
    pub verify_leg_ms: Vec<f64>,
    pub rounds: Vec<f64>,
}

/// Negotiates and verifies cycles on `session` for `seconds`.
pub fn run(
    cs: &CycleSetup,
    seed: u64,
    seconds: f64,
    session: client::Session,
    spans: &mut Spans,
) -> (Live, CycleTimes) {
    let client::Session {
        mut writer,
        mut reader,
        rels: rel_ids,
        ..
    } = session;
    // Cycles run at about one per millisecond on one thread; leave room.
    let cap = ((seconds * 5_000.0) as usize).max(1_000);
    let start_ns: Vec<AtomicU64> = (0..cap).map(|_| AtomicU64::new(0)).collect();
    let signed_ns: Vec<AtomicU64> = (0..cap).map(|_| AtomicU64::new(0)).collect();
    let intended: Vec<AtomicU64> = (0..cap).map(|_| AtomicU64::new(0)).collect();
    let sent = AtomicU64::new(u64::MAX);
    let tracing = spans.enabled();
    let cpu0 = common::cpu_time();
    let base = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);

    let (lat, leg, failed, mismatched, last_ns, read_spans, reader, times, count, write_spans) =
        std::thread::scope(|s| {
            let (start_ns, signed_ns, intended, sent) = (&start_ns, &signed_ns, &intended, &sent);
            let reader_thread = s.spawn(move || {
                // (negotiation start ns, cycle latency ms) per verdict.
                let mut lat: Vec<(u64, f64)> = Vec::new();
                let mut leg = Vec::new();
                let (mut failed, mut mismatched, mut got) = (0u64, 0u64, 0u64);
                let mut last_ns = 0u64;
                let mut read_spans = Spans::new(tracing);
                while got < sent.load(Ordering::Acquire) {
                    match client::read_verdict(&mut reader) {
                        Incoming::Verdict(v) => {
                            let now = base.elapsed().as_nanos() as u64;
                            got += 1;
                            last_ns = now;
                            let i = v.tag as usize;
                            if i >= cap {
                                failed += 1;
                                continue;
                            }
                            if !check::cycle_verdict(&v.result, intended[i].load(Ordering::Acquire))
                            {
                                mismatched += 1;
                            }
                            let t0 = start_ns[i].load(Ordering::Acquire);
                            lat.push((t0, now.saturating_sub(t0) as f64 / 1e6));
                            leg.push(
                                now.saturating_sub(signed_ns[i].load(Ordering::Acquire)) as f64
                                    / 1e6,
                            );
                            read_spans.record(
                                "client.verdict",
                                v.tag,
                                now,
                                base.elapsed().as_nanos() as u64,
                            );
                        }
                        // The writer's end-of-run STATS request: a wake-up.
                        Incoming::Other(FrameKind::Stats) => {}
                        Incoming::Other(_) => {
                            got += 1;
                            failed += 1;
                        }
                        Incoming::Closed => break,
                    }
                }
                let missing = sent.load(Ordering::Acquire).saturating_sub(got);
                (
                    lat,
                    leg,
                    failed + missing,
                    mismatched,
                    last_ns,
                    read_spans,
                    reader,
                )
            });

            let mut times = CycleTimes::default();
            let mut write_spans = Spans::new(tracing);
            let mut scratch = Vec::with_capacity(1024);
            let mut i = 0usize;
            while i < cap && base.elapsed() < deadline {
                let slot = i % cs.rels.len();
                let input =
                    CycleInput::draw(seed, cs.rels[slot], slot as u64, (i / cs.rels.len()) as u64);
                intended[i].store(input.intended(&cs.plan), Ordering::Release);
                let t0 = base.elapsed().as_nanos() as u64;
                start_ns[i].store(t0, Ordering::Release);
                let (mut o, mut e) = input.endpoints(&cs.keys, cs.plan);
                let (poc, _) =
                    run_negotiation(&mut o, &mut e).expect("honest negotiation completes");
                let t1 = base.elapsed().as_nanos() as u64;
                signed_ns[i].store(t1, Ordering::Release);
                times.negotiate_us.push((t1 - t0) as f64 / 1e3);
                times.rounds.push(o.rounds().max(e.rounds()) as f64);
                write_spans.record("protocol.negotiate", i as u64, t0, t1);
                let msg = Submit {
                    rel: rel_ids[slot],
                    tag: i as u64,
                    poc: poc.encode(),
                };
                client::send(&mut writer, &msg.to_frame(), &mut scratch);
                write_spans.record(
                    "client.write",
                    i as u64,
                    t1,
                    base.elapsed().as_nanos() as u64,
                );
                i += 1;
            }
            sent.store(i as u64, Ordering::Release);
            // The reader may already be blocked after the last verdict;
            // a STATS round trip always produces one more frame.
            client::send(
                &mut writer,
                &Frame::new(FrameKind::StatsReq, Vec::new()),
                &mut scratch,
            );
            let (lat, leg, failed, mismatched, last_ns, read_spans, reader) =
                reader_thread.join().expect("reader thread");
            (
                lat,
                leg,
                failed,
                mismatched,
                last_ns,
                read_spans,
                reader,
                times,
                i,
                write_spans,
            )
        });
    client::close_session(writer, reader);
    spans.absorb(write_spans);
    spans.absorb(read_spans);

    let mut live = Live::default();
    // One-second windows by negotiation start.
    let windows = (seconds.ceil() as usize).max(1);
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t0, ms) in &lat {
        let w = ((t0 / 1_000_000_000) as usize).min(windows - 1);
        by_window[w].push(ms);
    }
    for w in by_window.iter().filter(|w| !w.is_empty()) {
        live.add_round(w);
    }
    // The rate is the median over whole windows of the cycles started in
    // each, so a stretch of the run the host stalls moves it less.
    let full = seconds.floor() as usize;
    if full == 0 {
        live.throughput
            .push(lat.len() as f64 / Duration::from_nanos(last_ns).as_secs_f64().max(1e-9));
    }
    live.throughput
        .extend(by_window.iter().take(full).map(|w| w.len() as f64));
    live.attempted = count as u64;
    live.failed = failed + mismatched;
    live.mismatched = mismatched;
    live.ops = count as u64;
    live.cpu = common::cpu_time().saturating_sub(cpu0);
    live.rounds = 1;
    let mut times = times;
    times.verify_leg_ms = leg;
    (live, times)
}
