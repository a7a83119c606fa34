//! Per-session charging counters for the digital twin (DESIGN §13).
//!
//! Per-session charging state — what the edge sent, what the
//! operator's gateway metered, what the device/modem actually got,
//! loss tallies, the operator's monitor lag, and the cycle boundary —
//! lives in one 64-byte-aligned [`ChargeRow`] per session, indexed by
//! the session's arena slot ([`crate::arena::SessionId::index`]). The
//! twin reaches rows at random (whichever session's event fires next),
//! and each of its operations — accrue plus monitor lag, handover
//! flush, settle — reads and writes several counters of one row, so
//! a row-major bank makes each of them touch exactly one cache line.
//! The module keeps its struct-of-arrays name for API stability; the
//! full-bank gap sweep ([`ChargeColumns::sweep`]) is still one linear
//! pass, just not a column-wise one, and is not on the twin's hot
//! path.
//!
//! Freed rows are zeroed at teardown, so sweeps run unconditionally
//! over every slot — a dead row contributes nothing — and slot reuse
//! starts from a clean row by construction.

use tlc_core::plan::{charge_for, LossWeight, UsagePair};

/// One session's charging counters: the bank's storage unit, one
/// cache line per row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct ChargeRow {
    /// Bytes the edge sent this cycle (x̂_e side of the truth pair).
    pub sent: u64,
    /// Bytes delivered through to the far vantage (x̂_o side).
    pub delivered: u64,
    /// Bytes the operator's gateway metered (what legacy bills).
    pub gateway: u64,
    /// Bytes lost to residual air loss.
    pub lost_air: u64,
    /// Bytes lost to cell congestion.
    pub lost_congestion: u64,
    /// Bytes flushed by handovers (link-layer mobility loss, §3.1).
    pub lost_handover: u64,
    /// Bytes the operator's monitor has not yet observed (RRC
    /// COUNTER CHECK lag): its measured view is `delivered - lag`.
    pub monitor_lag: u64,
    /// Cycle start, µs of twin time.
    pub cycle_start_us: u64,
}

/// The charging-counter bank: one [`ChargeRow`] per arena slot.
#[derive(Default)]
pub struct ChargeColumns {
    rows: Vec<ChargeRow>,
}

/// Aggregate of one gap sweep over the live rows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GapSweep {
    /// Rows with any counted traffic.
    pub active_rows: u64,
    /// Σ sent.
    pub total_sent: u64,
    /// Σ delivered.
    pub total_delivered: u64,
    /// Σ gateway-metered.
    pub total_gateway: u64,
    /// Σ plan-intended charge x̂ (Eq. 1 over the truth pair).
    pub intended: u64,
    /// Σ |legacy charge − x̂|.
    pub legacy_gap: u64,
    /// Σ |TLC honest charge − x̂| (TLC priced on measured records,
    /// i.e. with the operator's monitor lag applied).
    pub tlc_gap: u64,
}

impl GapSweep {
    /// Aggregate legacy gap ratio ε = ΣΔ / Σx̂.
    pub fn legacy_gap_ratio(&self) -> f64 {
        if self.intended == 0 {
            0.0
        } else {
            self.legacy_gap as f64 / self.intended as f64
        }
    }

    /// Aggregate TLC gap ratio.
    pub fn tlc_gap_ratio(&self) -> f64 {
        if self.intended == 0 {
            0.0
        } else {
            self.tlc_gap as f64 / self.intended as f64
        }
    }

    /// Folds another sweep (shard merge, done in shard order).
    /// Saturating: a wrapped aggregate would *be* a charging gap.
    pub fn merge(&mut self, other: &GapSweep) {
        self.active_rows = self.active_rows.saturating_add(other.active_rows);
        self.total_sent = self.total_sent.saturating_add(other.total_sent);
        self.total_delivered = self.total_delivered.saturating_add(other.total_delivered);
        self.total_gateway = self.total_gateway.saturating_add(other.total_gateway);
        self.intended = self.intended.saturating_add(other.intended);
        self.legacy_gap = self.legacy_gap.saturating_add(other.legacy_gap);
        self.tlc_gap = self.tlc_gap.saturating_add(other.tlc_gap);
    }
}

impl ChargeColumns {
    /// Empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the bank for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        ChargeColumns {
            rows: Vec::with_capacity(n),
        }
    }

    /// Number of rows (== arena slot count).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Grows the bank (zero-filled) so `row` is addressable.
    pub fn ensure_row(&mut self, row: usize) {
        if row >= self.rows.len() {
            self.rows.resize(row + 1, ChargeRow::default());
        }
    }

    /// Zeroes a row (teardown, or cycle rollover via
    /// [`ChargeColumns::start_cycle`]).
    pub fn clear_row(&mut self, row: usize) {
        self.start_cycle(row, 0);
    }

    /// Clears the row's counters and stamps a fresh cycle start.
    pub fn start_cycle(&mut self, row: usize, now_us: u64) {
        if let Some(r) = self.rows.get_mut(row) {
            *r = ChargeRow {
                cycle_start_us: now_us,
                ..ChargeRow::default()
            };
        }
    }

    /// Cycle start of a row, µs.
    pub fn cycle_start_us(&self, row: usize) -> u64 {
        self.rows.get(row).map_or(0, |r| r.cycle_start_us)
    }

    /// Accrues one accounting tick: the edge sent `sent` bytes, of
    /// which `air`/`congestion` bytes were lost before the charged
    /// far vantage. `gateway_before_loss` says whether the gateway
    /// meter sits upstream of the loss (downlink: it bills everything
    /// sent) or downstream (uplink: it bills what survived).
    pub fn accrue(
        &mut self,
        row: usize,
        sent: u64,
        air: u64,
        congestion: u64,
        gateway_before_loss: bool,
    ) {
        let Some(r) = self.rows.get_mut(row) else {
            return;
        };
        let lost = air.saturating_add(congestion).min(sent);
        let delivered = sent.saturating_sub(lost);
        r.sent = r.sent.saturating_add(sent);
        r.delivered = r.delivered.saturating_add(delivered);
        r.gateway = r
            .gateway
            .saturating_add(if gateway_before_loss { sent } else { delivered });
        r.lost_air = r.lost_air.saturating_add(air.min(sent));
        r.lost_congestion = r
            .lost_congestion
            .saturating_add(congestion.min(sent.saturating_sub(air)));
    }

    /// Charges a handover flush: `bytes` already counted as delivered
    /// are clawed back into mobility loss (they were buffered in the
    /// cell and dropped by the handover before reaching the device).
    pub fn handover_flush(&mut self, row: usize, bytes: u64) -> u64 {
        let Some(r) = self.rows.get_mut(row) else {
            return 0;
        };
        let clawed = bytes.min(r.delivered);
        r.delivered = r.delivered.saturating_sub(clawed);
        r.lost_handover = r.lost_handover.saturating_add(clawed);
        clawed
    }

    /// Sets the operator's monitor lag for a row (bytes its measured
    /// view trails the delivered truth).
    pub fn set_monitor_lag(&mut self, row: usize, lag: u64) {
        if let Some(r) = self.rows.get_mut(row) {
            r.monitor_lag = lag.min(r.delivered);
        }
    }

    /// Reads a row out (settlement path).
    pub fn row(&self, row: usize) -> ChargeRow {
        self.rows.get(row).copied().unwrap_or_default()
    }

    /// The gap-accounting sweep: one linear pass over the bank,
    /// pricing every active row under legacy and TLC-honest charging
    /// at loss weight `w`. Dead rows are all-zero and skip in one
    /// branch.
    pub fn sweep(&self, w: LossWeight) -> GapSweep {
        let mut out = GapSweep::default();
        for r in self.rows.iter().filter(|r| r.sent != 0) {
            let (intended, legacy_gap, tlc_gap) =
                price_row(r.sent, r.delivered, r.gateway, r.monitor_lag, w);
            out.merge(&GapSweep {
                active_rows: 1,
                total_sent: r.sent,
                total_delivered: r.delivered,
                total_gateway: r.gateway,
                intended,
                legacy_gap,
                tlc_gap,
            });
        }
        out
    }
}

/// Prices one row: returns `(intended, legacy_gap, tlc_gap)`.
///
/// * intended x̂ = x̂_o + c·(x̂_e − x̂_o) over the truth pair,
/// * legacy bills the gateway meter,
/// * TLC-honest bills Eq. 1 over the *measured* pair — the edge reads
///   exactly, the operator's view trails by `monitor_lag`.
pub fn price_row(
    sent: u64,
    delivered: u64,
    gateway: u64,
    monitor_lag: u64,
    w: LossWeight,
) -> (u64, u64, u64) {
    let intended = charge_for(
        UsagePair {
            edge: sent,
            operator: delivered,
        },
        w,
    );
    let legacy_gap = gateway.abs_diff(intended);
    let tlc = charge_for(
        UsagePair {
            edge: sent,
            operator: delivered.saturating_sub(monitor_lag),
        },
        w,
    );
    let tlc_gap = tlc.abs_diff(intended);
    (intended, legacy_gap, tlc_gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> LossWeight {
        LossWeight::half()
    }

    #[test]
    fn each_row_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<ChargeRow>(), 64);
        assert_eq!(std::mem::align_of::<ChargeRow>(), 64);
        let mut c = ChargeColumns::with_capacity(4);
        c.ensure_row(3);
        assert!(c
            .rows
            .iter()
            .all(|r| (r as *const ChargeRow as usize).is_multiple_of(64)));
    }

    #[test]
    fn accrue_uplink_vs_downlink_gateway_placement() {
        let mut c = ChargeColumns::new();
        c.ensure_row(0);
        c.ensure_row(1);
        // Uplink: gateway meters after loss.
        c.accrue(0, 1000, 60, 40, false);
        // Downlink: gateway meters before loss.
        c.accrue(1, 1000, 60, 40, true);
        let ul = c.row(0);
        let dl = c.row(1);
        assert_eq!(ul.delivered, 900);
        assert_eq!(ul.gateway, 900, "uplink gateway bills survivors");
        assert_eq!(dl.delivered, 900);
        assert_eq!(dl.gateway, 1000, "downlink gateway bills everything sent");
        assert_eq!(ul.lost_air + ul.lost_congestion, 100);
    }

    #[test]
    fn sweep_prices_gap_between_vantages() {
        let mut c = ChargeColumns::new();
        c.ensure_row(0);
        c.accrue(0, 1000, 0, 200, true); // DL: sent 1000, delivered 800
        let s = c.sweep(w());
        // intended = 800 + 0.5·200 = 900; legacy bills 1000 → gap 100.
        assert_eq!(s.intended, 900);
        assert_eq!(s.legacy_gap, 100);
        assert_eq!(s.tlc_gap, 0, "honest TLC with no monitor lag is exact");
        assert!((s.legacy_gap_ratio() - 100.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_lag_moves_tlc_but_less_than_legacy() {
        let mut c = ChargeColumns::new();
        c.ensure_row(0);
        c.accrue(0, 1000, 0, 200, true);
        c.set_monitor_lag(0, 80);
        let s = c.sweep(w());
        // Measured pair (1000, 720) → TLC 860 vs intended 900.
        assert_eq!(s.tlc_gap, 40);
        assert!(s.tlc_gap < s.legacy_gap);
    }

    #[test]
    fn handover_flush_claws_back_delivered() {
        let mut c = ChargeColumns::new();
        c.ensure_row(0);
        c.accrue(0, 1000, 0, 0, true);
        let clawed = c.handover_flush(0, 300);
        assert_eq!(clawed, 300);
        let r = c.row(0);
        assert_eq!(r.delivered, 700);
        assert_eq!(r.lost_handover, 300);
        assert_eq!(r.gateway, 1000, "gateway already billed the flushed bytes");
        // Flush can never exceed what was delivered.
        assert_eq!(c.handover_flush(0, 10_000), 700);
    }

    #[test]
    fn cleared_rows_vanish_from_sweep() {
        let mut c = ChargeColumns::new();
        c.ensure_row(3);
        c.accrue(1, 500, 0, 0, true);
        c.accrue(3, 700, 0, 100, true);
        assert_eq!(c.sweep(w()).active_rows, 2);
        c.clear_row(3);
        let s = c.sweep(w());
        assert_eq!(s.active_rows, 1);
        assert_eq!(s.total_sent, 500);
        // Reused row starts clean.
        c.start_cycle(3, 42);
        assert_eq!(c.row(3).sent, 0);
        assert_eq!(c.cycle_start_us(3), 42);
    }
}
