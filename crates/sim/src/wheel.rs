//! Hierarchical timer wheel — the event scheduler behind the
//! million-session digital twin (DESIGN §13).
//!
//! The legacy experiment driver walks a `BinaryHeap` of boxed events:
//! O(log n) per schedule/pop and a pointer chase per entry. At twin
//! scale (millions of outstanding timers, constant churn) that heap is
//! the bottleneck, so [`Scheduler`] replaces it with a fixed-hierarchy
//! timer wheel: 4 levels × 256 slots covering 2³² ticks, O(1)
//! schedule and O(1) cancel.
//!
//! **Chunked slots.** A slot is a list of fixed chunks of 32 records;
//! a record is 16 bytes, `(tick, idx, gen)`, naming the slab entry
//! that holds the event's sequence number and payload. Chunks come
//! from a free list the scheduler owns, so nothing allocates after
//! warm-up. Cascading a slot to a lower level copies its records
//! chunk by chunk and never touches the slab: the walk reads
//! contiguous memory instead of chasing one cache miss per event.
//!
//! **Lazy cancel.** Cancel bumps the slab entry's generation and frees
//! it; the record stays in its slot as a tombstone and is dropped when
//! that slot drains at level 0 (or when an overflow re-admission or
//! the due queue meets it). A tombstone lives at most until the cursor
//! reaches its tick. If a cancel leaves tombstones outnumbering both
//! the live events and a small floor, a compaction pass strips them
//! all, so they never exceed the larger of the peak live count and
//! that floor.
//!
//! **Determinism / equivalence.** Events fire in `(tick, seq)` order,
//! where `seq` is the global schedule sequence number: a level-0 slot
//! holds one distinct tick, and its live records are sorted by `seq`
//! when it fires. The legacy heap backend orders by the same key, so
//! both backends produce *byte-identical* event streams for equal
//! seeds and any op stream that schedules at or after the last
//! `pop_next` horizon (as the twin does) — `TwinConfig::backend`
//! (or `TLC_TWIN_SCHED=heap|wheel`) flips between them, and the
//! `twin_equiv` suite pins the equivalence, exactly like
//! `IngressConfig::backend` did for the poll/epoll ingress loops.
//!
//! Tokens are generational: a [`Token`] returned by
//! [`Scheduler::schedule`] is invalidated by cancel/fire, and a stale
//! token (slot reused by a later event) can never cancel the new
//! occupant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which event-queue implementation backs a [`Scheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WheelBackend {
    /// The hierarchical timer wheel (default; O(1) schedule/cancel).
    Wheel,
    /// The legacy binary-heap scheduler, kept for conformance testing.
    Heap,
}

impl WheelBackend {
    /// Backend from the `TLC_TWIN_SCHED` environment variable
    /// (`wheel` / `heap`), defaulting to the wheel.
    pub fn from_env() -> Self {
        match std::env::var("TLC_TWIN_SCHED").as_deref() {
            Ok("heap") => WheelBackend::Heap,
            _ => WheelBackend::Wheel,
        }
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WheelBackend::Wheel => "wheel",
            WheelBackend::Heap => "heap",
        }
    }
}

/// Handle to a scheduled event; generational, so stale handles are
/// harmless (cancel of an already-fired/cancelled event is a no-op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    idx: u32,
    gen: u32,
}

impl Token {
    /// A token that never refers to a live event.
    pub const NONE: Token = Token {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

const LEVELS: usize = 4;
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS; // 256 per level
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Ticks covered by the four levels; anything farther parks in the
/// overflow list until the cursor gets close enough.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);
const NIL: u32 = u32::MAX;
/// Records per slot chunk: 32 × 16 B, eight cache lines.
const CHUNK: usize = 32;
/// Tombstones tolerated before a compaction pass, however few events
/// are live: small runs never pay for one.
const COMPACT_FLOOR: usize = 4096;
/// Capacity the due queue keeps between bursts; a same-tick burst
/// grows it, and it shrinks back once the burst has fired.
const DUE_KEEP: usize = 1024;

/// A slab entry. Liveness is the generation alone: fire and cancel
/// both bump it, so every record or token naming an older generation
/// is stale. A free entry keeps its last payload (`T: Copy`, nothing
/// to drop) until reuse overwrites it.
struct Entry<T> {
    seq: u64,
    gen: u32,
    payload: T,
}

/// One slot record: entry `idx` at generation `gen` fires at `tick`.
#[derive(Clone, Copy)]
struct Rec {
    tick: u64,
    idx: u32,
    gen: u32,
}

impl Rec {
    const EMPTY: Rec = Rec {
        tick: 0,
        idx: NIL,
        gen: 0,
    };
}

/// A block of slot records, cache-line aligned.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Chunk {
    recs: [Rec; CHUNK],
}

/// A chunk's fill and its successor in a slot list (or the free list),
/// kept apart so a chunk is exactly eight cache lines.
#[derive(Clone, Copy)]
struct Link {
    len: u32,
    next: u32,
}

/// The sharded-twin event scheduler: timer wheel by default, legacy
/// heap behind [`WheelBackend::Heap`]. Payloads are `Copy` so firing
/// never allocates.
pub struct Scheduler<T: Copy> {
    backend: WheelBackend,
    entries: Vec<Entry<T>>,
    /// Free slab indices (LIFO).
    free: Vec<u32>,
    /// Global schedule counter: the deterministic tiebreak for events
    /// at the same tick.
    seq: u64,
    /// Current wheel time (last fired tick).
    cursor: u64,
    /// Head chunk of each slot list, `heads[level][slot]`; appends go
    /// to the head while it has room.
    heads: [[u32; SLOTS]; LEVELS],
    /// Slot-occupancy bitmaps, 256 bits per level.
    bits: [[u64; 4]; LEVELS],
    /// The chunk pool, shared by every slot; `links` runs parallel.
    chunks: Vec<Chunk>,
    links: Vec<Link>,
    free_chunk: u32,
    /// Records scheduled ≥ `HORIZON` ticks ahead, and the least tick
    /// among them (tombstones included, so it is a lower bound).
    overflow: Vec<Rec>,
    overflow_min: u64,
    /// Fired-but-unpopped entries at the cursor as `(seq, idx, gen)`,
    /// ascending `seq`, consumed from `due_at`. No tick field: every
    /// due entry fires at the cursor.
    due: Vec<(u64, u32, u32)>,
    due_at: usize,
    heap: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    live: usize,
    /// Cancelled records still held in slots, overflow or `due`.
    stale: usize,
}

impl<T: Copy> Scheduler<T> {
    /// A scheduler starting at tick 0.
    pub fn new(backend: WheelBackend) -> Self {
        Scheduler {
            backend,
            entries: Vec::new(),
            free: Vec::new(),
            seq: 0,
            cursor: 0,
            heads: [[NIL; SLOTS]; LEVELS],
            bits: [[0u64; 4]; LEVELS],
            chunks: Vec::new(),
            links: Vec::new(),
            free_chunk: NIL,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            due: Vec::new(),
            due_at: 0,
            heap: BinaryHeap::new(),
            live: 0,
            stale: 0,
        }
    }

    /// Pre-sizes the slab for `n` outstanding events.
    pub fn with_capacity(backend: WheelBackend, n: usize) -> Self {
        let mut s = Self::new(backend);
        s.entries.reserve(n);
        if backend == WheelBackend::Heap {
            s.heap.reserve(n);
        }
        s
    }

    /// Outstanding (scheduled, unfired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current scheduler time: the tick of the last fired event batch
    /// (the wheel may sit at a later cascade point, never past the
    /// last `pop_next` horizon).
    pub fn now(&self) -> u64 {
        self.cursor
    }

    /// The backend in use.
    pub fn backend(&self) -> WheelBackend {
        self.backend
    }

    fn alloc(&mut self, payload: T) -> (u32, u32, u64) {
        let seq = self.seq;
        self.seq += 1;
        if let Some(idx) = self.free.pop() {
            if let Some(e) = self.entries.get_mut(idx as usize) {
                e.seq = seq;
                e.payload = payload;
                return (idx, e.gen, seq);
            }
        }
        let idx = self.entries.len() as u32;
        self.entries.push(Entry {
            seq,
            gen: 0,
            payload,
        });
        (idx, 0, seq)
    }

    fn is_live(&self, idx: u32, gen: u32) -> bool {
        self.entries.get(idx as usize).is_some_and(|e| e.gen == gen)
    }

    /// Fires or cancels entry `idx`: returns its payload and frees it.
    fn release(&mut self, idx: u32) -> Option<T> {
        let e = self.entries.get_mut(idx as usize)?;
        // Wrapping add keeps release panic-free; a token only matches
        // when both idx and gen agree, so even a wrapped generation
        // cannot resurrect a stale handle by accident.
        e.gen = e.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(e.payload)
    }

    /// Schedules `payload` to fire at absolute `tick` (clamped to the
    /// present: ticks at or before `now()` fire on the next pop).
    /// O(1) for both backends.
    pub fn schedule(&mut self, tick: u64, payload: T) -> Token {
        let tick = tick.max(self.cursor);
        let (idx, gen, seq) = self.alloc(payload);
        self.live += 1;
        match self.backend {
            WheelBackend::Heap => self.heap.push(Reverse((tick, seq, idx, gen))),
            WheelBackend::Wheel => self.wheel_insert(Rec { tick, idx, gen }),
        }
        Token { idx, gen }
    }

    /// Cancels a scheduled event; `true` if it was still pending.
    /// O(1) amortised: both backends cancel lazily, leaving a
    /// tombstone that is skipped when met.
    pub fn cancel(&mut self, token: Token) -> bool {
        if !self.is_live(token.idx, token.gen) {
            return false;
        }
        self.release(token.idx);
        if self.backend == WheelBackend::Wheel {
            self.stale += 1;
            if self.stale > self.live.max(COMPACT_FLOOR) {
                self.compact();
            }
        }
        true
    }

    /// Pops the next event with `tick <= horizon`, advancing scheduler
    /// time to its tick. Returns `(tick, seq, payload)`.
    pub fn pop_next(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        match self.backend {
            WheelBackend::Heap => self.heap_pop(horizon),
            WheelBackend::Wheel => self.wheel_pop(horizon),
        }
    }

    /// The tick of the earliest outstanding event, if any (exact for
    /// both backends; neither moves scheduler time).
    pub fn peek_tick(&mut self) -> Option<u64> {
        match self.backend {
            WheelBackend::Heap => loop {
                let &Reverse((tick, _, idx, gen)) = self.heap.peek()?;
                if self.is_live(idx, gen) {
                    return Some(tick);
                }
                self.heap.pop();
            },
            WheelBackend::Wheel => {
                if self.due_front().is_some() {
                    return Some(self.cursor);
                }
                self.wheel_peek()
            }
        }
    }

    fn heap_pop(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        loop {
            let &Reverse((tick, seq, idx, gen)) = self.heap.peek()?;
            if !self.is_live(idx, gen) {
                self.heap.pop();
                continue;
            }
            if tick > horizon {
                return None;
            }
            self.heap.pop();
            self.cursor = self.cursor.max(tick);
            if let Some(p) = self.release(idx) {
                return Some((tick, seq, p));
            }
        }
    }

    // ── Wheel internals ────────────────────────────────────────────────

    fn occupied(&self, level: usize, slot: usize) -> bool {
        self.bits[level][slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// First occupied slot at `level` whose offset from `from` is in
    /// `[0, 256)`, in wrap order; returns the offset.
    fn next_slot_offset(&self, level: usize, from: usize) -> Option<usize> {
        let words = &self.bits[level];
        for off in 0..4usize {
            // Examine 64-slot words starting at the word containing
            // `from`, masking below `from` in the first word.
            let wi = ((from >> 6) + off) & 3;
            let mut w = words[wi];
            if off == 0 {
                w &= !0u64 << (from & 63);
            }
            if w != 0 {
                let slot = (wi << 6) + w.trailing_zeros() as usize;
                let delta = (slot + SLOTS - from) & (SLOTS - 1);
                return Some(delta);
            }
        }
        // Wrapped below `from` in the starting word.
        let wi = from >> 6;
        let w = words[wi] & !(!0u64 << (from & 63));
        if w != 0 {
            let slot = (wi << 6) + w.trailing_zeros() as usize;
            return Some((slot + SLOTS - from) & (SLOTS - 1));
        }
        None
    }

    /// Takes a chunk off the free list (or grows the pool) as the new
    /// head of a list continuing at `next`.
    fn alloc_chunk(&mut self, next: u32) -> u32 {
        let c = self.free_chunk;
        if let Some(l) = self.links.get_mut(c as usize) {
            self.free_chunk = l.next;
            *l = Link { len: 0, next };
            return c;
        }
        self.chunks.push(Chunk {
            recs: [Rec::EMPTY; CHUNK],
        });
        self.links.push(Link { len: 0, next });
        (self.chunks.len() - 1) as u32
    }

    /// Appends a record to `level`/`slot`.
    fn push_rec(&mut self, level: usize, slot: usize, r: Rec) {
        let head = self.heads[level][slot];
        let c = match self.links.get(head as usize) {
            Some(l) if (l.len as usize) < CHUNK => head,
            _ => {
                let c = self.alloc_chunk(head);
                self.heads[level][slot] = c;
                c
            }
        };
        if let (Some(l), Some(ch)) = (
            self.links.get_mut(c as usize),
            self.chunks.get_mut(c as usize),
        ) {
            if let Some(dst) = ch.recs.get_mut(l.len as usize) {
                *dst = r;
                l.len += 1;
            }
        }
        self.bits[level][slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Empties `level`/`slot`, handing each record to `f` in place
    /// and returning each chunk to the free list once its records are
    /// done — so `f` may insert anywhere, even back into this slot,
    /// without the chunk being reused under it.
    fn drain_slot(&mut self, level: usize, slot: usize, mut f: impl FnMut(&mut Self, Rec)) {
        self.bits[level][slot >> 6] &= !(1u64 << (slot & 63));
        let mut c = std::mem::replace(&mut self.heads[level][slot], NIL);
        while let Some(&Link { len, next }) = self.links.get(c as usize) {
            for i in 0..len as usize {
                let rec = self.chunks.get(c as usize).and_then(|ch| ch.recs.get(i));
                if let Some(&r) = rec {
                    f(self, r);
                }
            }
            if let Some(l) = self.links.get_mut(c as usize) {
                *l = Link {
                    len: 0,
                    next: self.free_chunk,
                };
                self.free_chunk = c;
            }
            c = next;
        }
    }

    fn wheel_insert(&mut self, r: Rec) {
        let tick = r.tick.max(self.cursor);
        let r = Rec { tick, ..r };
        let delta = tick - self.cursor;
        if delta >= HORIZON {
            self.overflow_min = self.overflow_min.min(tick);
            self.overflow.push(r);
            return;
        }
        // Smallest level whose span covers the delta.
        let level = match delta {
            0..=0xFF => 0usize,
            0x100..=0xFFFF => 1,
            0x1_0000..=0xFF_FFFF => 2,
            _ => 3,
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.push_rec(level, slot, r);
    }

    /// Lower bound on the next record's tick (tombstones included),
    /// across levels + overflow. Exact for level 0; slot-base bound
    /// for higher levels.
    fn next_bound(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut upd = |t: u64| {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        };
        let pos0 = (self.cursor & SLOT_MASK) as usize;
        if let Some(off) = self.next_slot_offset(0, pos0) {
            // Level-0 slots hold exact ticks; offset 0 = the cursor's
            // own slot (possible right after a jump, before firing).
            upd(self.cursor + off as u64);
        }
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let span = 1u64 << shift;
            let pos = ((self.cursor >> shift) & SLOT_MASK) as usize;
            // Scan strictly-ahead slots: the cursor's own slot at a
            // higher level holds entries a full window wrap away, so
            // it is due *last*, not first. Scanning from `pos + 1`
            // makes the first occupied slot the genuinely nearest one,
            // with `off + 1 == 256` (only `pos` occupied) landing the
            // full-wrap bound as the natural limit of the formula.
            let from = (pos + 1) & (SLOTS - 1);
            if let Some(off) = self.next_slot_offset(level, from) {
                let aligned = self.cursor & !(span - 1);
                upd(aligned + span * (off as u64 + 1));
            }
        }
        if !self.overflow.is_empty() {
            upd(self.overflow_min);
        }
        best
    }

    /// Earliest live tick, found without moving the cursor: a
    /// cascade here would clamp later `schedule` calls to a tick the
    /// heap backend has not reached. At each level the first slot in
    /// wrap order holding a live record holds that level's earliest
    /// (level 0 starts at the cursor's own slot; higher levels start
    /// strictly ahead and reach their own, full-wrap slot last).
    fn wheel_peek(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            let start = if level == 0 { pos } else { pos + 1 };
            let found = (0..SLOTS)
                .map(|k| (start + k) & (SLOTS - 1))
                .filter(|&slot| self.occupied(level, slot))
                .find_map(|slot| self.slot_min_live(self.heads[level][slot]));
            if let Some(t) = found {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        self.overflow
            .iter()
            .filter(|r| self.is_live(r.idx, r.gen))
            .map(|r| r.tick)
            .chain(best)
            .min()
    }

    /// Least tick among the live records of the chunk list at `c`.
    fn slot_min_live(&self, mut c: u32) -> Option<u64> {
        let mut best: Option<u64> = None;
        while let (Some(ch), Some(l)) = (self.chunks.get(c as usize), self.links.get(c as usize)) {
            for r in ch.recs.iter().take(l.len as usize) {
                if self.is_live(r.idx, r.gen) {
                    best = Some(best.map_or(r.tick, |b| b.min(r.tick)));
                }
            }
            c = l.next;
        }
        best
    }

    /// Front of the due run, skipping cancelled entries; once the run
    /// is consumed, resets it and drops burst-sized capacity.
    fn due_front(&mut self) -> Option<(u64, u32)> {
        while let Some(&(seq, idx, gen)) = self.due.get(self.due_at) {
            if self.is_live(idx, gen) {
                return Some((seq, idx));
            }
            self.due_at += 1;
            self.stale = self.stale.saturating_sub(1);
        }
        self.due.clear();
        self.due_at = 0;
        if self.due.capacity() > DUE_KEEP {
            self.due.shrink_to(DUE_KEEP);
        }
        None
    }

    /// Jumps the cursor to `tick`, cascading higher-level slots at the
    /// landing position and firing the level-0 slot into `due` (which
    /// callers have emptied).
    fn advance_to(&mut self, tick: u64) {
        self.cursor = tick;

        // Re-admit overflow records that now fit the wheel horizon.
        if !self.overflow.is_empty() && self.overflow_min.saturating_sub(tick) < HORIZON {
            let mut i = 0;
            let mut min = u64::MAX;
            while let Some(&r) = self.overflow.get(i) {
                if !self.is_live(r.idx, r.gen) {
                    self.overflow.swap_remove(i);
                    self.stale = self.stale.saturating_sub(1);
                } else if r.tick.saturating_sub(tick) < HORIZON {
                    self.overflow.swap_remove(i);
                    self.wheel_insert(r);
                } else {
                    min = min.min(r.tick);
                    i += 1;
                }
            }
            self.overflow_min = min;
        }

        // Cascade the landing slot of each higher level, top-down, so
        // records settle into their final level-0 slots. Records are
        // copied as they are, tombstones included: no slab access.
        for level in (1..LEVELS).rev() {
            let pos = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.occupied(level, pos) {
                self.drain_slot(level, pos, Self::wheel_insert);
            }
        }

        // Fire the level-0 slot at the cursor: every record in it is
        // at the cursor's tick (see the module docs).
        let pos0 = (tick & SLOT_MASK) as usize;
        if self.occupied(0, pos0) {
            self.drain_slot(0, pos0, |s, r| {
                match s.entries.get(r.idx as usize) {
                    Some(e) if e.gen == r.gen && r.tick == tick => {
                        s.due.push((e.seq, r.idx, r.gen))
                    }
                    // Defensive: a live record a full window ahead
                    // goes back to its level.
                    Some(e) if e.gen == r.gen => s.wheel_insert(r),
                    _ => s.stale = s.stale.saturating_sub(1),
                }
            });
            // Deterministic same-tick ordering: ascending schedule seq.
            self.due.sort_unstable();
        }
    }

    /// Strips every tombstone — from the slots, the overflow list and
    /// the unconsumed due run — keeping each live record in place.
    fn compact(&mut self) {
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                if self.occupied(level, slot) {
                    self.drain_slot(level, slot, |s, r| {
                        if s.is_live(r.idx, r.gen) {
                            s.push_rec(level, slot, r);
                        }
                    });
                }
            }
        }
        let entries = &self.entries;
        let live = |idx: u32, gen: u32| entries.get(idx as usize).is_some_and(|e| e.gen == gen);
        self.overflow.retain(|r| live(r.idx, r.gen));
        self.overflow_min = self
            .overflow
            .iter()
            .map(|r| r.tick)
            .min()
            .unwrap_or(u64::MAX);
        self.due.drain(..self.due_at.min(self.due.len()));
        self.due_at = 0;
        self.due.retain(|&(_, idx, gen)| live(idx, gen));
        self.stale = 0;
    }

    fn wheel_pop(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        loop {
            if let Some((seq, idx)) = self.due_front() {
                if self.cursor > horizon {
                    return None;
                }
                self.due_at += 1;
                if let Some(p) = self.release(idx) {
                    return Some((self.cursor, seq, p));
                }
                continue;
            }
            let bound = self.next_bound()?;
            if bound > horizon {
                return None;
            }
            self.advance_to(bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator for the model test (no SimRng dep
    /// cycle worries, and test-local).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn drain(s: &mut Scheduler<u64>, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((tick, _seq, p)) = s.pop_next(horizon) {
            out.push((tick, p));
        }
        out
    }

    #[test]
    fn fires_in_tick_then_seq_order() {
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            let mut s = Scheduler::new(backend);
            s.schedule(10, 1u64);
            s.schedule(5, 2);
            s.schedule(10, 3);
            s.schedule(5, 4);
            let got = drain(&mut s, u64::MAX);
            assert_eq!(got, vec![(5, 2), (5, 4), (10, 1), (10, 3)], "{backend:?}");
            assert!(s.is_empty());
        }
    }

    #[test]
    fn cancel_prevents_fire_and_stale_token_is_noop() {
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            let mut s = Scheduler::new(backend);
            let a = s.schedule(7, 1u64);
            let b = s.schedule(8, 2);
            assert!(s.cancel(a));
            assert!(!s.cancel(a), "double cancel must be a no-op");
            // Slot reuse: the new event takes a's slab slot with a new
            // generation; the stale token must not cancel it.
            let c = s.schedule(9, 3);
            assert!(!s.cancel(a));
            let got = drain(&mut s, u64::MAX);
            assert_eq!(got, vec![(8, 2), (9, 3)], "{backend:?}");
            let _ = (b, c);
        }
    }

    #[test]
    fn horizon_bounds_popping() {
        let mut s = Scheduler::new(WheelBackend::Wheel);
        s.schedule(100, 1u64);
        s.schedule(300, 2);
        assert_eq!(s.pop_next(99), None);
        assert_eq!(s.pop_next(100), Some((100, 0, 1)));
        assert_eq!(s.pop_next(250), None);
        assert_eq!(s.pop_next(300), Some((300, 1, 2)));
    }

    #[test]
    fn far_events_cascade_correctly() {
        let mut s = Scheduler::new(WheelBackend::Wheel);
        // One event per level, plus one beyond the wheel horizon.
        let ticks = [3u64, 700, 70_000, 20_000_000, HORIZON + 17];
        for (i, &t) in ticks.iter().enumerate() {
            s.schedule(t, i as u64);
        }
        let got = drain(&mut s, u64::MAX);
        let expect: Vec<(u64, u64)> = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn schedule_in_past_fires_now() {
        let mut s = Scheduler::new(WheelBackend::Wheel);
        s.schedule(50, 1u64);
        assert_eq!(s.pop_next(u64::MAX), Some((50, 0, 1)));
        // Cursor is now 50; earlier tick clamps to the cursor.
        s.schedule(10, 2);
        assert_eq!(s.pop_next(u64::MAX), Some((50, 1, 2)));
    }

    #[test]
    fn peek_matches_pop() {
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            let mut s = Scheduler::new(backend);
            s.schedule(90_000, 1u64);
            s.schedule(40, 2);
            assert_eq!(s.peek_tick(), Some(40), "{backend:?}");
            assert_eq!(s.pop_next(u64::MAX), Some((40, 1, 2)));
            assert_eq!(s.peek_tick(), Some(90_000));
        }
    }

    #[test]
    fn wheel_matches_heap_model_under_random_ops() {
        // 4 seeds × 3000 mixed schedule/cancel/reuse/peek/pop
        // operations at three cancel weights: 0 → about one op in ten
        // cancels; 6 → nearly half, so most slots drain holding
        // tombstones. Both backends must produce identical streams.
        for seed in 1..=4u64 {
            for cancel_weight in [0, 2, 6] {
                let a = model_stream(seed, WheelBackend::Wheel, cancel_weight);
                let b = model_stream(seed, WheelBackend::Heap, cancel_weight);
                assert_eq!(
                    a, b,
                    "wheel/heap diverged at seed {seed} weight {cancel_weight}"
                );
            }
        }
    }

    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut s = Scheduler::new(WheelBackend::Wheel);
        for round in 0..100u64 {
            for k in 0..64u64 {
                s.schedule(round * 10 + k % 7, k);
            }
            while s.pop_next((round + 1) * 10).is_some() {}
        }
        assert!(
            s.entries.len() <= 128,
            "slab grew to {} despite churn",
            s.entries.len()
        );
    }

    /// Walks every slot list and the free list: `(records held in
    /// slots + overflow, tombstones among them, chunks in slot lists,
    /// chunks on the free list, occupied slots)`.
    fn census(s: &Scheduler<u64>) -> (usize, usize, usize, usize, usize) {
        let (mut held, mut dead, mut in_use, mut occupied) = (0, 0, 0, 0);
        for level in 0..LEVELS {
            for slot in 0..SLOTS {
                let mut c = s.heads[level][slot];
                assert_eq!(c != NIL, s.occupied(level, slot), "bitmap out of sync");
                occupied += usize::from(c != NIL);
                while c != NIL {
                    let l = s.links[c as usize];
                    for r in &s.chunks[c as usize].recs[..l.len as usize] {
                        held += 1;
                        dead += usize::from(!s.is_live(r.idx, r.gen));
                    }
                    in_use += 1;
                    c = l.next;
                }
            }
        }
        for r in &s.overflow {
            held += 1;
            dead += usize::from(!s.is_live(r.idx, r.gen));
        }
        let mut free = 0;
        let mut c = s.free_chunk;
        while c != NIL {
            free += 1;
            c = s.links[c as usize].next;
        }
        (held, dead, in_use, free, occupied)
    }

    /// One seeded op stream — schedule at mixed horizons, cancel,
    /// cancel-then-reuse at the same tick, peek, pop — returning the
    /// fired `(tick, payload)` and peeked `(u64::MAX, tick)`
    /// observations. Every schedule lands at or after the last pop
    /// horizon, the domain where the backends must agree.
    fn model_stream(seed: u64, backend: WheelBackend, cancel_weight: u64) -> Vec<(u64, u64)> {
        let mut rng = Lcg(seed);
        let mut s = Scheduler::new(backend);
        let mut out = Vec::new();
        let mut tokens: Vec<(Token, u64)> = Vec::new();
        let mut now = 0u64;
        for op in 0..3000u64 {
            let roll = rng.next() % (10 + cancel_weight);
            if roll < 5 {
                // Mixed horizons: near, mid, far, overflow.
                let delta = match rng.next() % 8 {
                    0 => rng.next() % 16,
                    1..=4 => rng.next() % 300,
                    5 => rng.next() % 70_000,
                    6 => rng.next() % 20_000_000,
                    _ => HORIZON + rng.next() % 1000,
                };
                tokens.push((s.schedule(now + delta, op), now + delta));
            } else if roll < 6 {
                // Cancel, then reuse the freed slab entry at the same
                // tick: the new record joins its tombstone's slot.
                if let Some(&(tok, at)) = tokens.last() {
                    s.cancel(tok);
                    let at = at.max(now);
                    tokens.push((s.schedule(at, op), at));
                }
            } else if roll < 7 {
                out.push((u64::MAX, s.peek_tick().unwrap_or(u64::MAX)));
            } else if roll < 9 {
                now += rng.next() % 500;
                while let Some((t, _, p)) = s.pop_next(now) {
                    out.push((t, p));
                }
            } else if !tokens.is_empty() {
                let i = (rng.next() as usize) % tokens.len();
                s.cancel(tokens.swap_remove(i).0);
            }
        }
        out.push((u64::MAX, s.peek_tick().unwrap_or(u64::MAX)));
        while let Some((t, _, p)) = s.pop_next(u64::MAX) {
            out.push((t, p));
        }
        assert!(s.is_empty());
        assert_eq!(s.stale, 0, "{backend:?}: tombstone count leaked");
        out
    }

    #[test]
    fn cancel_then_reuse_into_the_same_slot_fires_once() {
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            for tick in [7u64, 700, 70_000, 20_000_000, HORIZON + 17] {
                let mut s = Scheduler::new(backend);
                let a = s.schedule(tick, 1u64);
                assert!(s.cancel(a));
                // Same slab entry, next generation, same slot as the
                // tombstone left by `a`.
                let b = s.schedule(tick, 2);
                assert_eq!(b.idx, a.idx, "{backend:?}: slab entry not reused");
                assert!(!s.cancel(a));
                assert_eq!(s.peek_tick(), Some(tick), "{backend:?} @ {tick}");
                assert_eq!(drain(&mut s, u64::MAX), vec![(tick, 2)], "{backend:?}");
                assert!(!s.cancel(b), "fired token must be stale");
            }
        }
    }

    #[test]
    fn tombstone_only_slots_at_every_level_and_in_overflow() {
        let ticks = [3u64, 700, 70_000, 20_000_000, HORIZON + 17];
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            // Nothing live: every slot holds only tombstones.
            let mut s = Scheduler::new(backend);
            let toks: Vec<Token> = ticks.iter().map(|&t| s.schedule(t, t)).collect();
            for tok in toks {
                assert!(s.cancel(tok));
            }
            assert_eq!(s.peek_tick(), None, "{backend:?}");
            assert_eq!(s.pop_next(u64::MAX), None, "{backend:?}");
            assert!(s.is_empty());

            // One live event behind each tombstone-only slot: peek
            // must skip the tombstones and agree with pop.
            for (i, &dead) in ticks.iter().enumerate() {
                let mut s = Scheduler::new(backend);
                let live_at = ticks.get(i + 1).copied().unwrap_or(dead + 5);
                let tok = s.schedule(dead, 0u64);
                s.schedule(live_at, 1);
                assert!(s.cancel(tok));
                assert_eq!(s.peek_tick(), Some(live_at), "{backend:?} @ {dead}");
                assert_eq!(s.pop_next(u64::MAX), Some((live_at, 1, 1)));
                assert_eq!(s.peek_tick(), None);
            }
        }
        let mut s = Scheduler::new(WheelBackend::Wheel);
        for &t in &ticks {
            let tok = s.schedule(t, t);
            s.cancel(tok);
        }
        assert_eq!(s.pop_next(u64::MAX), None);
        let (held, dead, in_use, _, occupied) = census(&s);
        assert_eq!((held, dead, in_use, occupied), (0, 0, 0, 0));
        assert_eq!(s.stale, 0);
    }

    #[test]
    fn same_tick_burst_fires_in_seq_order_and_frees_its_buffer() {
        // One shard's initial population closing its cycle at t = 5 s:
        // 75k events at one tick, every seventh cancelled.
        const BURST: u64 = 75_000;
        let at = 5_000_000;
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            let mut s = Scheduler::with_capacity(backend, BURST as usize);
            s.schedule(at - 1, u64::MAX);
            let toks: Vec<Token> = (0..BURST).map(|i| s.schedule(at, i)).collect();
            for tok in toks.iter().step_by(7) {
                assert!(s.cancel(*tok));
            }
            assert_eq!(s.pop_next(u64::MAX), Some((at - 1, 0, u64::MAX)));
            assert_eq!(s.peek_tick(), Some(at), "{backend:?}");
            let mut last_seq = 0;
            let mut fired = 0u64;
            while let Some((tick, seq, p)) = s.pop_next(u64::MAX) {
                assert_eq!(tick, at);
                assert!(seq > last_seq, "{backend:?}: seq order broken");
                assert_ne!(p % 7, 0, "{backend:?}: cancelled event fired");
                last_seq = seq;
                fired += 1;
            }
            assert_eq!(fired, BURST - BURST.div_ceil(7), "{backend:?}");
            assert!(s.is_empty());
            if backend == WheelBackend::Wheel {
                assert!(s.due.capacity() <= DUE_KEEP, "due kept burst capacity");
                assert_eq!(s.stale, 0);
                let (held, _, in_use, free, _) = census(&s);
                assert_eq!((held, in_use), (0, 0));
                assert_eq!(free, s.chunks.len(), "chunks leaked");
            }
        }
    }

    #[test]
    fn compaction_strips_tombstones_and_keeps_order() {
        // 20k events over every level and the overflow list, three in
        // four cancelled: the tombstones pass the floor and the live
        // count, so compaction must strip them mid-stream.
        let run = |backend: WheelBackend| {
            let mut rng = Lcg(0xC0DE);
            let mut s = Scheduler::new(backend);
            let toks: Vec<Token> = (0..20_000u64)
                .map(|i| {
                    let at = match i % 5 {
                        0 => rng.next() % 256,
                        1 => rng.next() % 65_536,
                        2 => rng.next() % 16_000_000,
                        3 => rng.next() % HORIZON,
                        _ => HORIZON + rng.next() % HORIZON,
                    };
                    s.schedule(at, i)
                })
                .collect();
            for tok in toks.iter().filter(|t| t.idx % 4 != 0) {
                assert!(s.cancel(*tok));
            }
            if backend == WheelBackend::Wheel {
                let (held, dead, _, _, _) = census(&s);
                assert_eq!(dead, s.stale);
                assert!(dead <= s.len().max(COMPACT_FLOOR), "{dead} tombstones kept");
                assert!(held < 20_000, "compaction never ran");
            }
            drain(&mut s, u64::MAX)
        };
        let w = run(WheelBackend::Wheel);
        assert_eq!(w.len(), 5_000);
        assert_eq!(w, run(WheelBackend::Heap));

        // Tombstones inside a fired burst: compaction strips the due
        // run too, and the survivors still pop in schedule order.
        for backend in [WheelBackend::Wheel, WheelBackend::Heap] {
            let mut s = Scheduler::new(backend);
            let toks: Vec<Token> = (0..12_000u64).map(|i| s.schedule(9, i)).collect();
            assert_eq!(s.pop_next(9), Some((9, 0, 0)));
            for tok in toks.iter().skip(1).filter(|t| t.idx % 3 != 0) {
                assert!(s.cancel(*tok));
            }
            if backend == WheelBackend::Wheel {
                assert!(
                    s.stale <= s.len().max(COMPACT_FLOOR),
                    "{} tombstones",
                    s.stale
                );
            }
            let rest = drain(&mut s, u64::MAX);
            let want: Vec<(u64, u64)> = (3..12_000).step_by(3).map(|i| (9, i)).collect();
            assert_eq!(rest, want, "{backend:?}");
        }
    }

    #[test]
    fn chunk_pool_stays_bounded_under_steady_churn() {
        // Steady schedule/cancel/pop churn around a few thousand live
        // events, over ~70 wraps of level 1 (~19k of level 0), with a
        // 5000-event same-tick burst every 400 steps.
        let mut rng = Lcg(0x5EED);
        let mut s = Scheduler::new(WheelBackend::Wheel);
        let mut tokens: Vec<Token> = Vec::new();
        let mut now = 0u64;
        let (mut peak_live, mut peak_occupied, mut peak_need) = (0, 0, 0);
        for step in 0..12_000u64 {
            for _ in 0..4 {
                let delta = match rng.next() % 4 {
                    0 => rng.next() % 256,
                    1 | 2 => rng.next() % 65_536,
                    _ => rng.next() % 1_000_000,
                };
                tokens.push(s.schedule(now + 1 + delta, step));
            }
            if step % 400 == 0 {
                for _ in 0..5000 {
                    tokens.push(s.schedule(now + 1000, step));
                }
            }
            // Cancel about as fast as we schedule, so tombstones pile
            // up until compaction strips them.
            for _ in 0..3 {
                if !tokens.is_empty() {
                    let i = (rng.next() as usize) % tokens.len();
                    s.cancel(tokens.swap_remove(i));
                }
            }
            now += 400;
            while s.pop_next(now).is_some() {}
            if tokens.len() > 2 * s.len() + 64 {
                tokens.retain(|t| s.is_live(t.idx, t.gen));
            }
            assert!(
                s.due.capacity() <= DUE_KEEP,
                "step {step}: due kept a burst"
            );
            let (held, dead, in_use, free, occupied) = census(&s);
            assert_eq!(in_use + free, s.chunks.len(), "step {step}: chunk leaked");
            assert_eq!(dead, s.stale, "step {step}: tombstone count drifted");
            assert_eq!(held, s.len() + dead, "step {step}");
            // Only each slot's head chunk may be partly filled.
            let need = held.div_ceil(CHUNK) + occupied;
            assert!(
                in_use <= need,
                "step {step}: {in_use} chunks for {held} records"
            );
            // The tombstone bound.
            peak_live = peak_live.max(s.len());
            assert!(
                dead <= peak_live.max(COMPACT_FLOOR),
                "step {step}: {dead} tombstones"
            );
            peak_occupied = peak_occupied.max(occupied);
            peak_need = peak_need.max(need);
        }
        // The pool is the high-water mark of chunks in use, plus a
        // chunk per slot touched mid-cascade at most.
        let pool = s.chunks.len();
        assert!(pool <= peak_need + 8, "pool {pool} vs need {peak_need}");
        let held_bound = peak_live + peak_live.max(COMPACT_FLOOR);
        assert!(
            pool <= held_bound.div_ceil(CHUNK) + peak_occupied + 8,
            "pool {pool} chunks for peak live {peak_live}, {peak_occupied} slots"
        );
    }
}
