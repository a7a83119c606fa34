//! Million-session charging digital twin (DESIGN §13).
//!
//! The packet-level scenario driver (`sim::scenario`) prices one
//! session at full fidelity; this module prices *populations*. Each
//! twin session is a rate/loss abstraction of a §7.1 application
//! ([`tlc_workloads::churn::SessionProfile`]) living in a generational
//! slab ([`crate::arena`]), with its charging counters in a
//! cache-line row ([`crate::soa`]) and its future — ticks,
//! cycle ends, handovers, teardown — parked in a hierarchical timer
//! wheel ([`crate::wheel`]). Schedule and cancel are O(1), so a
//! churning population of a million sessions costs per-event constant
//! work instead of a million-entry binary-heap reshuffle.
//!
//! # Sharding and determinism
//!
//! Sessions are pinned to shards round-robin at arrival; each shard
//! owns its scheduler, arena, counter columns, and RNG streams (split
//! from the twin seed by shard index). Time advances in fixed
//! **epochs**: every shard runs its wheel to the epoch boundary in
//! parallel ([`crate::par::par_map_mut`]), then a barrier merges the
//! shards' offered-load deltas **in shard-index order** into the
//! shared cell-congestion level used by the next epoch. Nothing a
//! shard computes depends on any other shard within an epoch, so the
//! run is byte-identical at any thread count — and, because both
//! scheduler backends fire in `(tick, seq)` order, identical across
//! [`WheelBackend::Wheel`] and [`WheelBackend::Heap`] too. The
//! equivalence suite (`tests/twin_equiv.rs`) pins both axes with a
//! digest over every counter that matters.
//!
//! # Closed loop
//!
//! Settled cycles flow to a [`SettlementSink`] post-barrier, in shard
//! order. A configurable sample of them carries the full measured
//! usage pair so the sink can run the *real* TLC machinery — signed
//! negotiation to a PoC, submission to the verifier service or the
//! TCP ingress — against twin-generated load (`tests/twin_soak.rs`).

use crate::arena::{Arena, SessionId};
use crate::par::par_map_mut;
use crate::soa::{ChargeColumns, ChargeRow, GapSweep};
use crate::wheel::{Scheduler, Token, WheelBackend};
use tlc_core::plan::{DataPlan, UsagePair};
use tlc_core::roaming::{reconcile_bonded, LinkCdr, RoamingAgreement, Segment, Serving};
use tlc_net::packet::Direction;
use tlc_net::rng::{Label, SimRng};
use tlc_net::time::SimDuration;
use tlc_workloads::churn::{ChurnConfig, ChurnGen, SessionProfile};

pub use crate::measure::{settle_twin_row, TwinSettlement};

/// Digital-twin run configuration.
#[derive(Clone, Debug)]
pub struct TwinConfig {
    /// Root seed; every RNG stream in the run splits from it.
    pub seed: u64,
    /// Shard count. Sessions pin to shards, so this is a *model*
    /// parameter: changing it changes the population split (thread
    /// count, by contrast, never changes results).
    pub shards: usize,
    /// Worker threads for the epoch barrier loop (1 = sequential).
    pub threads: usize,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Sessions pre-admitted at t=0, spread round-robin over shards.
    pub initial_sessions: usize,
    /// Arrival/lifetime/mix/handover shape (per shard).
    pub churn: ChurnConfig,
    /// Charging-cycle length per session.
    pub cycle: SimDuration,
    /// Accounting-tick length: how often a session's counters accrue.
    pub tick: SimDuration,
    /// Epoch (barrier) length for cross-shard congestion coupling.
    pub epoch: SimDuration,
    /// Scheduler backend (equivalence axis; see `wheel`).
    pub backend: WheelBackend,
    /// Plan priced at settlement.
    pub plan: DataPlan,
    /// Fraction of settled cycles forwarded to the sink with full
    /// context for closed-loop verification (0 disables sampling).
    pub sample_rate: f64,
    /// Aggregate cell capacity in bytes per epoch before congestion
    /// loss starts to bite (the cross-shard coupling knob).
    pub cell_capacity_bytes_per_epoch: u64,
    /// Three-party roaming plane (DESIGN §14). `None` keeps the twin
    /// byte-identical to a pre-roaming run: no extra RNG draws, no
    /// extra events, and the digest folds nothing new.
    pub roaming: Option<RoamingTwinConfig>,
}

/// Roaming-plane configuration for a twin run.
#[derive(Clone, Debug)]
pub struct RoamingTwinConfig {
    /// The commercial agreement cycles settle under.
    pub agreement: RoamingAgreement,
    /// Fraction of admitted sessions that roam (and so hand over
    /// between operators mid-cycle).
    pub roamer_fraction: f64,
    /// Fraction of admitted sessions that bond multiple links.
    pub bonded_fraction: f64,
    /// Mean gap between a roamer's operator handovers (each actual
    /// gap is jittered per session, up to 2x).
    pub operator_handover_gap: SimDuration,
}

impl RoamingTwinConfig {
    /// Evaluation defaults: the paper-default agreement, 30 % roamers,
    /// 20 % bonded devices, ~3 s between operator handovers.
    pub fn paper_default() -> Self {
        RoamingTwinConfig {
            agreement: RoamingAgreement::paper_default(),
            roamer_fraction: 0.3,
            bonded_fraction: 0.2,
            operator_handover_gap: SimDuration::from_secs(3),
        }
    }
}

impl TwinConfig {
    /// A small smoke-tier default: mixed churn, 4 shards, 10 s.
    pub fn smoke(seed: u64) -> Self {
        TwinConfig {
            seed,
            shards: 4,
            threads: 1,
            duration: SimDuration::from_secs(10),
            initial_sessions: 1_000,
            churn: ChurnConfig::mixed(),
            cycle: SimDuration::from_secs(2),
            tick: SimDuration::from_millis(500),
            epoch: SimDuration::from_secs(1),
            backend: WheelBackend::Wheel,
            plan: DataPlan::paper_default(),
            sample_rate: 0.0,
            cell_capacity_bytes_per_epoch: u64::MAX,
            roaming: None,
        }
    }
}

/// Why a cycle settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettleCause {
    /// The charging cycle completed.
    CycleEnd,
    /// The session tore down mid-cycle (partial cycle settled).
    Teardown,
    /// The run ended with the cycle open.
    RunEnd,
}

/// One settled charging cycle handed to the sink.
#[derive(Clone, Copy, Debug)]
pub struct Settled {
    /// Owning shard.
    pub shard: usize,
    /// Arena slot index of the session (row id; reused after churn).
    pub row: u32,
    /// Twin time at settlement, µs.
    pub at_us: u64,
    /// Why the cycle closed.
    pub cause: SettleCause,
    /// The priced settlement.
    pub settlement: TwinSettlement,
    /// True for the sampled subset that should run the real
    /// negotiation/verification path.
    pub sampled: bool,
}

/// Receiver for settled cycles (post-barrier, shard order).
pub trait SettlementSink {
    /// Called once per settled cycle with non-zero traffic.
    fn settle(&mut self, s: &Settled);
}

/// Discards settlements (pure-throughput runs).
pub struct NullSink;

impl SettlementSink for NullSink {
    fn settle(&mut self, _s: &Settled) {}
}

/// What a twin run produced.
#[derive(Clone, Debug, Default)]
pub struct TwinReport {
    /// Sessions ever admitted.
    pub sessions_created: u64,
    /// Sessions torn down.
    pub sessions_retired: u64,
    /// Peak concurrent sessions across shards.
    pub peak_concurrent: u64,
    /// Live sessions at run end.
    pub final_concurrent: u64,
    /// Wheel events fired (ticks + cycles + handovers + arrivals + teardowns).
    pub events_fired: u64,
    /// Events that dereferenced a stale [`SessionId`] (cancelled
    /// late; must stay 0 — teardown cancels its tokens eagerly).
    pub stale_events: u64,
    /// Handovers executed.
    pub handovers: u64,
    /// Cycles settled (including partial teardown/run-end cycles).
    pub cycles_settled: u64,
    /// Cycles forwarded to the sink as sampled.
    pub cycles_sampled: u64,
    /// Aggregate gap accounting over every settled cycle.
    pub sweep: GapSweep,
    /// Peak arena slots in any one shard (bounds memory; churn must
    /// reuse slots, not grow this).
    pub peak_shard_slots: u64,
    /// True when the run had a roaming plane configured (folds the
    /// roaming counters into the digest).
    pub roaming_enabled: bool,
    /// Three-party settlement aggregates (all zero when roaming is
    /// disabled).
    pub roaming: RoamingSweep,
    /// Order-sensitive digest of the run: byte-identical runs — any
    /// thread count, either scheduler backend — produce the same
    /// value.
    pub digest: u64,
}

/// Aggregate three-party settlement accounting over every settled
/// cycle of a roaming-enabled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoamingSweep {
    /// Sessions admitted as roamers (operator handovers scheduled).
    pub roamers_admitted: u64,
    /// Sessions admitted with bonded multi-link devices.
    pub bonded_admitted: u64,
    /// Operator (home↔visited) handovers executed.
    pub operator_handovers: u64,
    /// Cycles settled through the three-party agreement.
    pub cycles_settled: u64,
    /// Σ charged volume across all settled segments.
    pub charged: u64,
    /// Σ home-operator retained volume.
    pub home: u64,
    /// Σ visited-operator wholesale volume.
    pub visited: u64,
    /// Σ edge-vendor revenue-share volume.
    pub vendor: u64,
    /// Bonded cycles reconciled from per-link CDRs.
    pub bonded_cycles: u64,
    /// Σ reconciled bonded charge (exact sum of per-link charges).
    pub bonded_link_charged: u64,
}

impl RoamingSweep {
    /// Folds another sweep (shard merge, done in shard order).
    /// Saturating: a wrapped settlement tally would *be* a gap.
    pub fn merge(&mut self, other: &RoamingSweep) {
        self.roamers_admitted = self.roamers_admitted.saturating_add(other.roamers_admitted);
        self.bonded_admitted = self.bonded_admitted.saturating_add(other.bonded_admitted);
        self.operator_handovers = self
            .operator_handovers
            .saturating_add(other.operator_handovers);
        self.cycles_settled = self.cycles_settled.saturating_add(other.cycles_settled);
        self.charged = self.charged.saturating_add(other.charged);
        self.home = self.home.saturating_add(other.home);
        self.visited = self.visited.saturating_add(other.visited);
        self.vendor = self.vendor.saturating_add(other.vendor);
        self.bonded_cycles = self.bonded_cycles.saturating_add(other.bonded_cycles);
        self.bonded_link_charged = self
            .bonded_link_charged
            .saturating_add(other.bonded_link_charged);
    }
}

impl TwinReport {
    fn finish(&mut self) {
        // FNV-1a over the counters the equivalence contract covers.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.sessions_created);
        fold(self.sessions_retired);
        fold(self.events_fired);
        fold(self.handovers);
        fold(self.cycles_settled);
        fold(self.sweep.total_sent);
        fold(self.sweep.total_delivered);
        fold(self.sweep.total_gateway);
        fold(self.sweep.intended);
        fold(self.sweep.legacy_gap);
        fold(self.sweep.tlc_gap);
        // Roaming counters only fold when the plane was configured, so
        // non-roaming runs keep their pre-roaming golden digests.
        if self.roaming_enabled {
            fold(0x524F_414D); // "ROAM" discriminator
            fold(self.roaming.roamers_admitted);
            fold(self.roaming.bonded_admitted);
            fold(self.roaming.operator_handovers);
            fold(self.roaming.cycles_settled);
            fold(self.roaming.charged);
            fold(self.roaming.home);
            fold(self.roaming.visited);
            fold(self.roaming.vendor);
            fold(self.roaming.bonded_cycles);
            fold(self.roaming.bonded_link_charged);
        }
        self.digest = h;
    }
}

/// A wheel event. `Copy` so the scheduler slab stays flat.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Admit the next churn arrival (session field unused).
    Arrival,
    /// Accrue one accounting tick for a session.
    Tick(SessionId),
    /// Close a session's charging cycle.
    CycleEnd(SessionId),
    /// Flush a session's in-flight bytes (mobility).
    Handover(SessionId),
    /// Hand a roamer over between operators (flush + serving flip).
    OperatorHandover(SessionId),
    /// Tear the session down.
    Teardown(SessionId),
}

/// One live twin session.
struct Session {
    profile: SessionProfile,
    /// Pending wheel tokens, cancelled eagerly at teardown so slot
    /// reuse never races a stale event (the generation check in
    /// [`Arena`] is the backstop, not the mechanism).
    tick_tok: Token,
    cycle_tok: Token,
    handover_tok: Token,
    op_handover_tok: Token,
    teardown_tok: Token,
    /// Operator currently carrying the session's traffic (always
    /// `Home` unless the roaming plane flips it).
    serving: Serving,
    /// True for bonded multi-link devices (roaming plane only).
    bonded: bool,
    /// Per-session loss stream, split off the shard stream at admit
    /// time so event interleaving can't perturb other sessions.
    rng: SimRng,
}

/// Per-shard twin state.
struct Shard {
    index: usize,
    sched: Scheduler<Event>,
    arena: Arena<Session>,
    cols: ChargeColumns,
    /// Per-operator counter shard: bytes carried while the *visited*
    /// operator served. Unused (never grown) when roaming is off.
    cols_visited: ChargeColumns,
    churn: ChurnGen,
    /// Congestion-loss fraction for the current epoch, set at the
    /// barrier from the *previous* epoch's global offered load.
    congestion: f64,
    /// Bytes offered this epoch (reported at the barrier).
    offered: u64,
    /// Sampling stream (separate from churn/loss streams).
    sample_rng: SimRng,
    /// `"twin/shard{index}/session"`, hashed once: each admitted
    /// session's stream label extends it with the admission count.
    session_label: Label,
    plan: DataPlan,
    cycle: SimDuration,
    tick: SimDuration,
    sample_rate: f64,
    // Counters folded into the report at the end.
    created: u64,
    retired: u64,
    fired: u64,
    stale: u64,
    handovers: u64,
    settled_n: u64,
    sampled_n: u64,
    peak_slots: u64,
    sweep: GapSweep,
    rsweep: RoamingSweep,
    roaming: Option<RoamingTwinConfig>,
    /// Settlements produced this epoch, drained at the barrier.
    outbox: Vec<Settled>,
}

impl Shard {
    fn new(cfg: &TwinConfig, index: usize) -> Self {
        let root = SimRng::new(cfg.seed);
        let label = |what: &str| format!("twin/shard{index}/{what}");
        Shard {
            index,
            sched: Scheduler::with_capacity(cfg.backend, 1024),
            arena: Arena::with_capacity(1024),
            cols: ChargeColumns::with_capacity(1024),
            cols_visited: ChargeColumns::new(),
            churn: ChurnGen::new(cfg.churn, root.split(&label("churn"))),
            congestion: 0.0,
            offered: 0,
            sample_rng: root.split(&label("sample")),
            session_label: Label::new().str(&label("session")),
            plan: cfg.plan,
            cycle: cfg.cycle,
            tick: cfg.tick,
            sample_rate: cfg.sample_rate,
            created: 0,
            retired: 0,
            fired: 0,
            stale: 0,
            handovers: 0,
            settled_n: 0,
            sampled_n: 0,
            peak_slots: 0,
            sweep: GapSweep::default(),
            rsweep: RoamingSweep::default(),
            roaming: cfg.roaming.clone(),
            outbox: Vec::new(),
        }
    }

    /// Admits one session at `now`, scheduling its whole future.
    fn admit(&mut self, now_us: u64, profile: SessionProfile, lifetime: SimDuration) {
        let rng = self
            .churn
            .rng()
            .split_label(self.session_label.decimal(self.created));
        let id = self.arena.insert(Session {
            profile,
            tick_tok: Token::NONE,
            cycle_tok: Token::NONE,
            handover_tok: Token::NONE,
            op_handover_tok: Token::NONE,
            teardown_tok: Token::NONE,
            serving: Serving::Home,
            bonded: false,
            rng,
        });
        self.created += 1;
        self.peak_slots = self.peak_slots.max(self.arena.slot_count() as u64);
        let row = id.index as usize;
        self.cols.ensure_row(row);
        self.cols.start_cycle(row, now_us);
        if self.roaming.is_some() {
            self.cols_visited.ensure_row(row);
            self.cols_visited.start_cycle(row, now_us);
        }

        // Stagger the first tick by a per-session phase so a million
        // sessions don't all land on the same wheel slot.
        let tick_us = self.tick.as_micros().max(1);
        let cycle_us = self.cycle.as_micros().max(tick_us);
        let (phase, ho_gap, op_ho_in) = {
            let Some(s) = self.arena.get_mut(id) else {
                return;
            };
            let phase = s.rng.next_below(tick_us);
            let ho_gap = self.churn.next_handover_gap();
            // Roaming draws happen only when the plane is configured,
            // so a disabled run's RNG streams are byte-identical to a
            // pre-roaming build.
            let op_ho_in = match &self.roaming {
                Some(rc) => {
                    let roamer = s.rng.chance(rc.roamer_fraction);
                    s.bonded = s.rng.chance(rc.bonded_fraction);
                    if roamer {
                        let gap_us = rc.operator_handover_gap.as_micros().max(1);
                        Some(gap_us + s.rng.next_below(gap_us))
                    } else {
                        None
                    }
                }
                None => None,
            };
            (phase, ho_gap, op_ho_in)
        };
        if op_ho_in.is_some() {
            self.rsweep.roamers_admitted = self.rsweep.roamers_admitted.saturating_add(1);
        }
        if self.arena.get(id).map(|s| s.bonded).unwrap_or(false) {
            self.rsweep.bonded_admitted = self.rsweep.bonded_admitted.saturating_add(1);
        }
        let tick_tok = self.sched.schedule(now_us + 1 + phase, Event::Tick(id));
        let cycle_tok = self.sched.schedule(now_us + cycle_us, Event::CycleEnd(id));
        let teardown_tok = self
            .sched
            .schedule(now_us + lifetime.as_micros().max(1), Event::Teardown(id));
        let handover_tok = match ho_gap {
            Some(gap) => self
                .sched
                .schedule(now_us + gap.as_micros().max(1), Event::Handover(id)),
            None => Token::NONE,
        };
        let op_handover_tok = match op_ho_in {
            Some(gap) => self
                .sched
                .schedule(now_us + gap, Event::OperatorHandover(id)),
            None => Token::NONE,
        };
        if let Some(s) = self.arena.get_mut(id) {
            s.tick_tok = tick_tok;
            s.cycle_tok = cycle_tok;
            s.teardown_tok = teardown_tok;
            s.handover_tok = handover_tok;
            s.op_handover_tok = op_handover_tok;
        }
    }

    /// Settles the session's current cycle and restarts the row.
    fn settle(&mut self, id: SessionId, now_us: u64, cause: SettleCause) {
        if self.roaming.is_some() {
            self.settle_roaming(id, now_us, cause);
            return;
        }
        let row = id.index as usize;
        let r = self.cols.row(row);
        if r.sent > 0 || r.gateway > 0 {
            let settlement = settle_twin_row(&r, &self.plan);
            let sampled = self.sample_rate > 0.0 && self.sample_rng.chance(self.sample_rate);
            self.settled_n += 1;
            if sampled {
                self.sampled_n += 1;
            }
            // Saturating fold (charge-arith): a wrapped tally here would
            // misstate the very gap the twin exists to measure.
            self.sweep.merge(&GapSweep {
                active_rows: 1,
                total_sent: r.sent,
                total_delivered: r.delivered,
                total_gateway: r.gateway,
                intended: settlement.intended,
                legacy_gap: settlement.legacy_gap(),
                tlc_gap: settlement.tlc_gap(),
            });
            self.outbox.push(Settled {
                shard: self.index,
                row: id.index,
                at_us: now_us,
                cause,
                settlement,
                sampled,
            });
        }
        self.cols.start_cycle(row, now_us);
    }

    /// Roaming-plane settlement: combine the per-operator rows for the
    /// gap sweep, price each operator's segment through the three-party
    /// agreement, and reconcile bonded devices' per-link CDRs.
    fn settle_roaming(&mut self, id: SessionId, now_us: u64, cause: SettleCause) {
        let Some(rc) = self.roaming.as_ref() else {
            return;
        };
        let agreement = rc.agreement;
        let row = id.index as usize;
        let rh = self.cols.row(row);
        let rv = self.cols_visited.row(row);
        let combined = combine_rows(&rh, &rv);
        if combined.sent > 0 || combined.gateway > 0 {
            let settlement = settle_twin_row(&combined, &self.plan);
            let sampled = self.sample_rate > 0.0 && self.sample_rng.chance(self.sample_rate);
            self.settled_n += 1;
            if sampled {
                self.sampled_n += 1;
            }
            self.sweep.merge(&GapSweep {
                active_rows: 1,
                total_sent: combined.sent,
                total_delivered: combined.delivered,
                total_gateway: combined.gateway,
                intended: settlement.intended,
                legacy_gap: settlement.legacy_gap(),
                tlc_gap: settlement.tlc_gap(),
            });
            // One segment per operator that carried traffic, priced on
            // the honest measured pair (edge reads exactly, operator
            // view trails by that operator's monitor lag).
            let mut segments: Vec<Segment> = Vec::with_capacity(2);
            for (serving, r) in [(Serving::Home, &rh), (Serving::Visited, &rv)] {
                if r.sent > 0 || r.gateway > 0 {
                    segments.push(Segment {
                        serving,
                        claims: UsagePair {
                            edge: r.sent,
                            operator: r.delivered.saturating_sub(r.monitor_lag),
                        },
                    });
                }
            }
            let rs = agreement.settle(&segments);
            self.rsweep.cycles_settled = self.rsweep.cycles_settled.saturating_add(1);
            self.rsweep.charged = self.rsweep.charged.saturating_add(rs.charged);
            self.rsweep.home = self.rsweep.home.saturating_add(rs.split.home);
            self.rsweep.visited = self.rsweep.visited.saturating_add(rs.split.visited);
            self.rsweep.vendor = self.rsweep.vendor.saturating_add(rs.split.vendor);
            if self.arena.get(id).map(|s| s.bonded).unwrap_or(false) && combined.sent > 0 {
                let links = bonded_links(&combined);
                let rec = reconcile_bonded(&links, self.plan.loss_weight);
                self.rsweep.bonded_cycles = self.rsweep.bonded_cycles.saturating_add(1);
                self.rsweep.bonded_link_charged =
                    self.rsweep.bonded_link_charged.saturating_add(rec.charged);
            }
            self.outbox.push(Settled {
                shard: self.index,
                row: id.index,
                at_us: now_us,
                cause,
                settlement,
                sampled,
            });
        }
        self.cols.start_cycle(row, now_us);
        self.cols_visited.start_cycle(row, now_us);
    }

    /// Runs one accounting tick for a live session.
    fn run_tick(&mut self, id: SessionId, now_us: u64) {
        let tick_us = self.tick.as_micros().max(1);
        let congestion = self.congestion;
        let Some(s) = self.arena.get_mut(id) else {
            self.stale += 1;
            return;
        };
        let p = s.profile;
        let serving = s.serving;
        // Mean bytes per tick, jittered ±p.jitter around the mean.
        let mean = p.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
        let jit = s.rng.range_f64(1.0 - p.jitter, 1.0 + p.jitter);
        let sent = (mean * jit).max(0.0) as u64;
        // Residual air loss plus the cell-level congestion loss set at
        // the last epoch barrier (QCI-protected gaming mostly dodges
        // congestion, mirroring the paper's QCI=7 setup).
        let air = (sent as f64 * p.base_loss * s.rng.range_f64(0.5, 1.5)) as u64;
        let cong_frac = if p.base_loss < 0.02 {
            congestion * 0.1
        } else {
            congestion
        };
        let congested = ((sent.saturating_sub(air)) as f64 * cong_frac) as u64;
        // Downlink: the gateway meters upstream of the lossy leg.
        let gw_before = p.direction == Direction::Downlink;
        // The operator's monitor trails by up to one tick of delivered
        // bytes (RRC COUNTER CHECK cadence), refreshed every tick.
        let delivered_rate = sent.saturating_sub(air).saturating_sub(congested);
        let lag = (delivered_rate as f64 * s.rng.range_f64(0.0, 0.05)) as u64;
        let row = id.index as usize;
        self.offered = self.offered.saturating_add(sent);
        // Counters accrue on whichever operator currently serves; with
        // roaming off that is always `cols` (the home bank).
        let cols = match serving {
            Serving::Home => &mut self.cols,
            Serving::Visited => &mut self.cols_visited,
        };
        cols.accrue(row, sent, air, congested, gw_before);
        cols.set_monitor_lag(row, lag);
        let tok = self.sched.schedule(now_us + tick_us, Event::Tick(id));
        if let Some(s) = self.arena.get_mut(id) {
            s.tick_tok = tok;
        }
    }

    /// Executes a handover: claw back in-flight bytes, reschedule.
    fn run_handover(&mut self, id: SessionId, now_us: u64) {
        let tick_us = self.tick.as_micros().max(1);
        let (flush, gap, serving) = {
            let Some(s) = self.arena.get_mut(id) else {
                self.stale += 1;
                return;
            };
            // The cell flushes up to ~half a tick of in-flight bytes.
            let rate = s.profile.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
            let flush = (rate * s.rng.range_f64(0.1, 0.5)) as u64;
            (flush, self.churn.next_handover_gap(), s.serving)
        };
        self.handovers += 1;
        let cols = match serving {
            Serving::Home => &mut self.cols,
            Serving::Visited => &mut self.cols_visited,
        };
        cols.handover_flush(id.index as usize, flush);
        let tok = match gap {
            Some(g) => self
                .sched
                .schedule(now_us + g.as_micros().max(1), Event::Handover(id)),
            None => Token::NONE,
        };
        if let Some(s) = self.arena.get_mut(id) {
            s.handover_tok = tok;
        }
    }

    /// Hands a roamer over between operators: flush in-flight bytes on
    /// the operator being left (same link-layer mobility loss as an
    /// intra-operator handover), flip the serving side, reschedule.
    fn run_operator_handover(&mut self, id: SessionId, now_us: u64) {
        let Some(rc) = self.roaming.as_ref() else {
            self.stale += 1;
            return;
        };
        let base_gap_us = rc.operator_handover_gap.as_micros().max(1);
        let tick_us = self.tick.as_micros().max(1);
        let (flush, leaving, gap_us) = {
            let Some(s) = self.arena.get_mut(id) else {
                self.stale += 1;
                return;
            };
            let rate = s.profile.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
            let flush = (rate * s.rng.range_f64(0.1, 0.5)) as u64;
            let leaving = s.serving;
            s.serving = match leaving {
                Serving::Home => Serving::Visited,
                Serving::Visited => Serving::Home,
            };
            (flush, leaving, base_gap_us + s.rng.next_below(base_gap_us))
        };
        self.rsweep.operator_handovers = self.rsweep.operator_handovers.saturating_add(1);
        let cols = match leaving {
            Serving::Home => &mut self.cols,
            Serving::Visited => &mut self.cols_visited,
        };
        cols.handover_flush(id.index as usize, flush);
        let tok = self
            .sched
            .schedule(now_us + gap_us, Event::OperatorHandover(id));
        if let Some(s) = self.arena.get_mut(id) {
            s.op_handover_tok = tok;
        }
    }

    /// Tears a session down: settle the partial cycle, cancel every
    /// pending token, free the slot (O(1) throughout).
    fn run_teardown(&mut self, id: SessionId, now_us: u64) {
        self.settle(id, now_us, SettleCause::Teardown);
        let Some(s) = self.arena.remove(id) else {
            self.stale += 1;
            return;
        };
        self.sched.cancel(s.tick_tok);
        self.sched.cancel(s.cycle_tok);
        self.sched.cancel(s.handover_tok);
        self.sched.cancel(s.op_handover_tok);
        // teardown_tok is the event being fired; cancelling is a no-op
        // but harmless on the heap backend's tombstone path.
        self.sched.cancel(s.teardown_tok);
        self.cols.clear_row(id.index as usize);
        if self.roaming.is_some() {
            self.cols_visited.clear_row(id.index as usize);
        }
        self.retired += 1;
    }

    /// Runs this shard's wheel up to (not including) `epoch_end_us`.
    fn run_epoch(&mut self, epoch_end_us: u64) {
        self.offered = 0;
        while let Some((tick, _seq, ev)) = self.sched.pop_next(epoch_end_us) {
            self.fired += 1;
            match ev {
                Event::Arrival => {
                    if let Some(a) = self.churn.next_arrival() {
                        self.admit(tick, a.profile, a.lifetime);
                        let gap = a.inter_arrival.as_micros().max(1);
                        self.sched.schedule(tick + gap, Event::Arrival);
                    }
                }
                Event::Tick(id) => self.run_tick(id, tick),
                Event::CycleEnd(id) => {
                    if self.arena.contains(id) {
                        self.settle(id, tick, SettleCause::CycleEnd);
                        let cycle_us = self.cycle.as_micros().max(1);
                        let tok = self.sched.schedule(tick + cycle_us, Event::CycleEnd(id));
                        if let Some(s) = self.arena.get_mut(id) {
                            s.cycle_tok = tok;
                        }
                    } else {
                        self.stale += 1;
                    }
                }
                Event::Handover(id) => self.run_handover(id, tick),
                Event::OperatorHandover(id) => self.run_operator_handover(id, tick),
                Event::Teardown(id) => self.run_teardown(id, tick),
            }
        }
    }

    /// Settles every still-open cycle at run end.
    fn finish(&mut self, now_us: u64) {
        let live: Vec<SessionId> = self.arena.iter().map(|(id, _)| id).collect();
        for id in live {
            self.settle(id, now_us, SettleCause::RunEnd);
        }
    }
}

/// Sums the per-operator rows into one session-level row (the gap
/// sweep and the sink see the whole cycle, not per-operator slices).
fn combine_rows(home: &ChargeRow, visited: &ChargeRow) -> ChargeRow {
    ChargeRow {
        sent: home.sent.saturating_add(visited.sent),
        delivered: home.delivered.saturating_add(visited.delivered),
        gateway: home.gateway.saturating_add(visited.gateway),
        lost_air: home.lost_air.saturating_add(visited.lost_air),
        lost_congestion: home.lost_congestion.saturating_add(visited.lost_congestion),
        lost_handover: home.lost_handover.saturating_add(visited.lost_handover),
        monitor_lag: home.monitor_lag.saturating_add(visited.monitor_lag),
        cycle_start_us: home.cycle_start_us.min(visited.cycle_start_us),
    }
}

/// Derives a bonded device's per-link CDRs from its cycle row: a
/// low-RTT primary carrying ~2/3 of the volume and a high-RTT, lossier
/// secondary with the remainder. Deterministic (no RNG), and the link
/// volumes partition the row exactly, so
/// `Σ per-link edge claims == session volume` by construction.
fn bonded_links(r: &ChargeRow) -> [LinkCdr; 2] {
    let e_secondary = r.sent / 3;
    let e_primary = r.sent.saturating_sub(e_secondary);
    let o_secondary = r.delivered / 3;
    let o_primary = r.delivered.saturating_sub(o_secondary);
    [
        LinkCdr {
            claims: UsagePair {
                edge: e_primary,
                operator: o_primary,
            },
            rtt_us: 15_000,
            loss_bp: 150,
        },
        LinkCdr {
            claims: UsagePair {
                edge: e_secondary,
                operator: o_secondary,
            },
            rtt_us: 45_000,
            loss_bp: 800,
        },
    ]
}

/// Runs the twin, feeding settled cycles to `sink`.
pub fn run_twin(cfg: &TwinConfig, sink: &mut dyn SettlementSink) -> TwinReport {
    let shards = cfg.shards.max(1);
    let mut state: Vec<Shard> = (0..shards).map(|i| Shard::new(cfg, i)).collect();

    // Initial population, round-robin so every shard starts balanced.
    for (i, shard) in state.iter_mut().enumerate() {
        let mut n = cfg.initial_sessions / shards;
        if i < cfg.initial_sessions % shards {
            n += 1;
        }
        for _ in 0..n {
            let profile = shard.churn.draw_profile();
            let lifetime = shard.churn.draw_lifetime();
            shard.admit(0, profile, lifetime);
        }
        // Seed the churn arrival chain: the Arrival handler draws the
        // session arriving *now* plus the gap to the next arrival, so
        // the chain self-perpetuates from one seed event.
        if shard.churn.config().arrivals_per_sec > 0.0 {
            shard.sched.schedule(1, Event::Arrival);
        }
    }

    let mut report = TwinReport::default();
    let epoch_us = cfg.epoch.as_micros().max(1);
    let end_us = cfg.duration.as_micros();
    let mut peak: u64 = state.iter().map(|s| s.arena.len() as u64).sum();
    let mut now = 0u64;
    while now < end_us {
        let next = (now + epoch_us).min(end_us);
        // Parallel phase: each shard runs its own wheel to the epoch
        // boundary. Results (offered load) return in shard order.
        let offered: Vec<u64> = par_map_mut(cfg.threads.max(1), &mut state, |_, sh| {
            sh.run_epoch(next);
            sh.offered
        });
        // Barrier: merge offered load in shard order, derive the next
        // epoch's congestion level for every shard identically.
        let total: u64 = offered.iter().sum();
        let cap = cfg.cell_capacity_bytes_per_epoch.max(1);
        let over = total.saturating_sub(cap) as f64 / cap as f64;
        let congestion = (over / (1.0 + over) * 0.5).min(0.5);
        for sh in state.iter_mut() {
            sh.congestion = congestion;
            for s in sh.outbox.drain(..) {
                sink.settle(&s);
            }
        }
        let live: u64 = state.iter().map(|s| s.arena.len() as u64).sum();
        peak = peak.max(live);
        now = next;
    }
    for sh in state.iter_mut() {
        sh.finish(end_us);
        for s in sh.outbox.drain(..) {
            sink.settle(&s);
        }
    }

    for sh in &state {
        report.sessions_created += sh.created;
        report.sessions_retired += sh.retired;
        report.events_fired += sh.fired;
        report.stale_events += sh.stale;
        report.handovers += sh.handovers;
        report.cycles_settled += sh.settled_n;
        report.cycles_sampled += sh.sampled_n;
        report.sweep.merge(&sh.sweep);
        report.roaming.merge(&sh.rsweep);
        report.peak_shard_slots = report.peak_shard_slots.max(sh.peak_slots);
        report.final_concurrent += sh.arena.len() as u64;
    }
    report.peak_concurrent = peak;
    report.roaming_enabled = cfg.roaming.is_some();
    report.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> TwinConfig {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.initial_sessions = 200;
        cfg.duration = SimDuration::from_secs(6);
        cfg
    }

    #[test]
    fn twin_runs_and_settles() {
        let r = run_twin(&small(1), &mut NullSink);
        assert!(r.sessions_created >= 200);
        assert!(r.cycles_settled > 0, "no cycles settled");
        assert!(r.events_fired > 0);
        assert_eq!(r.stale_events, 0, "teardown must cancel its tokens");
        assert!(r.sweep.intended > 0);
    }

    #[test]
    fn thread_count_is_not_an_equivalence_axis_violation() {
        let mut a = small(2);
        a.threads = 1;
        let mut b = small(2);
        b.threads = 4;
        let ra = run_twin(&a, &mut NullSink);
        let rb = run_twin(&b, &mut NullSink);
        assert_eq!(ra.digest, rb.digest, "threads changed the run");
        assert_eq!(ra.sweep, rb.sweep);
    }

    #[test]
    fn wheel_and_heap_backends_are_byte_identical() {
        let mut a = small(3);
        a.backend = WheelBackend::Wheel;
        let mut b = small(3);
        b.backend = WheelBackend::Heap;
        let ra = run_twin(&a, &mut NullSink);
        let rb = run_twin(&b, &mut NullSink);
        assert_eq!(ra.digest, rb.digest, "scheduler backend changed the run");
        assert_eq!(ra.events_fired, rb.events_fired);
        assert_eq!(ra.sweep, rb.sweep);
    }

    #[test]
    fn congestion_coupling_responds_to_capacity() {
        let mut tight = small(4);
        tight.cell_capacity_bytes_per_epoch = 100_000;
        let mut loose = small(4);
        loose.cell_capacity_bytes_per_epoch = u64::MAX;
        let rt = run_twin(&tight, &mut NullSink);
        let rl = run_twin(&loose, &mut NullSink);
        assert!(
            rt.sweep.total_delivered < rl.sweep.total_delivered,
            "capacity cap should cost delivered bytes: {} !< {}",
            rt.sweep.total_delivered,
            rl.sweep.total_delivered
        );
    }

    #[test]
    fn sink_sees_sampled_and_unsampled_cycles() {
        struct Count {
            total: u64,
            sampled: u64,
        }
        impl SettlementSink for Count {
            fn settle(&mut self, s: &Settled) {
                self.total += 1;
                if s.sampled {
                    self.sampled += 1;
                }
            }
        }
        let mut cfg = small(5);
        cfg.sample_rate = 0.25;
        let mut sink = Count {
            total: 0,
            sampled: 0,
        };
        let r = run_twin(&cfg, &mut sink);
        assert_eq!(sink.total, r.cycles_settled);
        assert_eq!(sink.sampled, r.cycles_sampled);
        assert!(sink.sampled > 0 && sink.sampled < sink.total);
    }

    fn roaming_cfg(seed: u64) -> TwinConfig {
        let mut cfg = small(seed);
        cfg.roaming = Some(RoamingTwinConfig::paper_default());
        cfg
    }

    #[test]
    fn roaming_twin_conserves_three_party_charges() {
        let r = run_twin(&roaming_cfg(7), &mut NullSink);
        assert!(r.roaming_enabled);
        assert!(r.roaming.roamers_admitted > 0, "no roamers admitted");
        assert!(r.roaming.bonded_admitted > 0, "no bonded devices");
        assert!(r.roaming.operator_handovers > 0, "no operator handovers");
        assert!(r.roaming.cycles_settled > 0);
        assert!(r.roaming.visited > 0, "visited operator never earned");
        // The conservation law: every cycle splits exactly, and the
        // sums are saturating-but-unsaturated at this scale.
        assert_eq!(
            r.roaming
                .home
                .saturating_add(r.roaming.visited)
                .saturating_add(r.roaming.vendor),
            r.roaming.charged,
            "home + visited + vendor must equal the charged volume"
        );
        assert!(r.roaming.bonded_cycles > 0);
        assert!(r.roaming.bonded_link_charged > 0);
    }

    #[test]
    fn roaming_twin_is_backend_and_thread_invariant() {
        let mut wheel1 = roaming_cfg(8);
        wheel1.backend = WheelBackend::Wheel;
        wheel1.threads = 1;
        let mut heap4 = roaming_cfg(8);
        heap4.backend = WheelBackend::Heap;
        heap4.threads = 4;
        let ra = run_twin(&wheel1, &mut NullSink);
        let rb = run_twin(&heap4, &mut NullSink);
        assert_eq!(
            ra.digest, rb.digest,
            "backend/threads changed a roaming run"
        );
        assert_eq!(ra.roaming, rb.roaming);
        assert_eq!(ra.sweep, rb.sweep);
    }

    #[test]
    fn disabling_roaming_leaves_the_run_untouched() {
        // A roaming config whose knobs are all zero still takes the
        // roaming settlement path; only `None` preserves the original
        // event and RNG schedule. Verify `None` matches `None`.
        let ra = run_twin(&small(9), &mut NullSink);
        let rb = run_twin(&small(9), &mut NullSink);
        assert_eq!(ra.digest, rb.digest);
        assert!(!ra.roaming_enabled);
        assert_eq!(ra.roaming, RoamingSweep::default());
    }

    #[test]
    fn churn_reuses_slots() {
        let mut cfg = small(6);
        cfg.churn.mean_lifetime = SimDuration::from_secs(2);
        cfg.duration = SimDuration::from_secs(12);
        let r = run_twin(&cfg, &mut NullSink);
        assert!(r.sessions_retired > 0, "short lifetimes must retire");
        // Slots bound by peak concurrency, not total created.
        assert!(
            r.peak_shard_slots < r.sessions_created,
            "slots {} !< created {}",
            r.peak_shard_slots,
            r.sessions_created
        );
    }
}
