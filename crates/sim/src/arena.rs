//! Generational slab arena for twin sessions (DESIGN §13).
//!
//! A million concurrent sessions with constant churn must not mean a
//! million boxed allocations plus free-list fragmentation: sessions
//! live in one contiguous slab, keyed by a dense [`SessionId`] whose
//! index doubles as the row index into the charging counter bank
//! (`sim::soa`). Teardown pushes the slot onto a free list;
//! the next arrival reuses it — churn is slot reuse, not allocation.
//!
//! Ids are **generational**: every reuse bumps the slot's generation,
//! so an event scheduled against a torn-down session (still parked in
//! the wheel) dereferences to `None` instead of the unrelated session
//! that inherited the slot. That generation check is what makes
//! teardown-mid-cycle and handover-across-teardown safe (see the
//! regression tests in `tests/twin_equiv.rs`).

/// Dense generational handle to an arena slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId {
    /// Slot index; also the row index into the charging counter bank.
    pub index: u32,
    /// Slot generation at allocation time.
    pub generation: u32,
}

impl SessionId {
    /// An id that never resolves.
    pub const NONE: SessionId = SessionId {
        index: u32::MAX,
        generation: u32::MAX,
    };
}

enum Slot<T> {
    Occupied(T),
    /// Free; holds the next free slot index (`u32::MAX` = end).
    Free(u32),
}

/// Generational slab arena.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    gens: Vec<u32>,
    free_head: u32,
    live: usize,
}

const NIL: u32 = u32::MAX;

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            gens: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// An empty arena with room for `n` sessions before regrowth.
    pub fn with_capacity(n: usize) -> Self {
        let mut a = Self::new();
        a.slots.reserve(n);
        a.gens.reserve(n);
        a
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free); the charging counter
    /// bank is sized to this.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a session, reusing a free slot when one exists.
    pub fn insert(&mut self, value: T) -> SessionId {
        self.live += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let i = index as usize;
            if let Some(slot) = self.slots.get_mut(i) {
                if let Slot::Free(next) = *slot {
                    self.free_head = next;
                }
                *slot = Slot::Occupied(value);
            }
            let generation = self.gens.get(i).copied().unwrap_or(0);
            return SessionId { index, generation };
        }
        let index = self.slots.len() as u32;
        self.slots.push(Slot::Occupied(value));
        self.gens.push(0);
        SessionId {
            index,
            generation: 0,
        }
    }

    /// Removes the session behind `id`. `None` if the id is stale
    /// (generation mismatch) or the slot is already free.
    pub fn remove(&mut self, id: SessionId) -> Option<T> {
        let i = id.index as usize;
        if self.gens.get(i).copied() != Some(id.generation) {
            return None;
        }
        let slot = self.slots.get_mut(i)?;
        if matches!(slot, Slot::Free(_)) {
            return None;
        }
        let old = std::mem::replace(slot, Slot::Free(self.free_head));
        self.free_head = id.index;
        if let Some(g) = self.gens.get_mut(i) {
            // Wrapping keeps removal panic-free; ids only match on
            // exact generation equality, so wrapping cannot revive a
            // stale handle.
            *g = g.wrapping_add(1);
        }
        self.live -= 1;
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Free(_) => None,
        }
    }

    /// Shared access; `None` for stale ids.
    pub fn get(&self, id: SessionId) -> Option<&T> {
        if self.gens.get(id.index as usize).copied() != Some(id.generation) {
            return None;
        }
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutable access; `None` for stale ids.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut T> {
        if self.gens.get(id.index as usize).copied() != Some(id.generation) {
            return None;
        }
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Whether `id` still refers to a live session.
    pub fn contains(&self, id: SessionId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates live sessions in slot order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| match slot {
                Slot::Occupied(v) => Some((
                    SessionId {
                        index: i as u32,
                        generation: self.gens.get(i).copied().unwrap_or(0),
                    },
                    v,
                )),
                Slot::Free(_) => None,
            })
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let id = a.insert(41u32);
        assert_eq!(a.get(id), Some(&41));
        *a.get_mut(id).unwrap() += 1;
        assert_eq!(a.remove(id), Some(42));
        assert_eq!(a.get(id), None);
        assert_eq!(a.remove(id), None, "double remove");
        assert!(a.is_empty());
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut a = Arena::new();
        let old = a.insert(1u32);
        assert_eq!(a.remove(old), Some(1));
        let new = a.insert(2u32);
        assert_eq!(new.index, old.index, "slot must be reused");
        assert_ne!(new.generation, old.generation);
        // The stale id must not alias the new occupant.
        assert_eq!(a.get(old), None);
        assert_eq!(a.remove(old), None);
        assert_eq!(a.get(new), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn churn_stays_within_peak_slots() {
        let mut a = Arena::new();
        let mut ids = Vec::new();
        for wave in 0..50u32 {
            for k in 0..100u32 {
                ids.push(a.insert(wave * 1000 + k));
            }
            for id in ids.drain(..) {
                assert!(a.remove(id).is_some());
            }
        }
        assert_eq!(a.slot_count(), 100, "churn must reuse, not grow");
        assert!(a.is_empty());
    }

    #[test]
    fn iter_visits_live_in_slot_order() {
        let mut a = Arena::new();
        let a0 = a.insert(10u32);
        let a1 = a.insert(11u32);
        let a2 = a.insert(12u32);
        a.remove(a1);
        let got: Vec<(u32, u32)> = a.iter().map(|(id, v)| (id.index, *v)).collect();
        assert_eq!(got, vec![(0, 10), (2, 12)]);
        let _ = (a0, a2);
    }
}
