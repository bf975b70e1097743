//! Structure-of-arrays entry storage shared by the event-driven schemes.
//!
//! The schemes used to keep queued instructions in a slab of `Entry`
//! structs (`Vec<Option<Entry>>`): every readiness test dereferenced a
//! 40-byte record to reach two bools. [`EntryStore`] splits the entry
//! fields into parallel arrays — instruction ids, op classes and source
//! tags in flat slices, and the three per-entry flags (*live*, *ready per
//! operand*, *held*) as `u64` bitset words. The payoff:
//!
//! * a wakeup flip is one OR into a bitset word;
//! * "both operands ready and not held" is a word-wide AND, so CAM
//!   selection walks `live & ready0 & ready1 & !held` with
//!   `trailing_zeros` instead of maintaining a linked ready list;
//! * the physical-energy counters the schemes charge (ready candidates,
//!   enabled comparators) are `count_ones` over the same words, so they
//!   cannot drift from the entry state.
//!
//! Slots are stable `u32` handles (the [`WakeupMap`](crate::wakeup) refers
//! to entries by slot), bounded by the structure's capacity — every scheme
//! checks occupancy before inserting, so the arrays are allocated once at
//! construction and never grow.
//!
//! The frozen scan models in [`reference`](crate::reference) deliberately
//! keep the naive array-of-structs layout; `tests/golden_stats.rs` proves
//! the statistics (including every energy figure) stay bit-identical.

use crate::fifo::Entry;
use diq_isa::{InstId, OpClass, PhysReg};

const WORD_BITS: usize = 64;

/// Fixed-capacity SoA entry storage with `u64` flag bitsets.
#[derive(Clone, Debug)]
pub(crate) struct EntryStore {
    ids: Box<[InstId]>,
    ops: Box<[OpClass]>,
    srcs: Box<[[Option<PhysReg>; 2]]>,
    /// Occupied slots.
    live: Box<[u64]>,
    /// Per-operand readiness. Bits of dead slots are stale — always mask
    /// with `live`. A missing operand reads ready from insertion on.
    ready: [Box<[u64]>; 2],
    /// Issued speculatively and awaiting load confirmation or cancel.
    held: Box<[u64]>,
    free: Vec<u32>,
    len: usize,
}

#[inline]
fn bit(slot: u32) -> (usize, u64) {
    (
        slot as usize / WORD_BITS,
        1u64 << (slot as usize % WORD_BITS),
    )
}

impl EntryStore {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= u32::MAX as usize);
        let words = capacity.div_ceil(WORD_BITS);
        EntryStore {
            ids: vec![InstId(0); capacity].into_boxed_slice(),
            ops: vec![OpClass::IntAlu; capacity].into_boxed_slice(),
            srcs: vec![[None; 2]; capacity].into_boxed_slice(),
            live: vec![0; words].into_boxed_slice(),
            ready: [
                vec![0; words].into_boxed_slice(),
                vec![0; words].into_boxed_slice(),
            ],
            held: vec![0; words].into_boxed_slice(),
            // Pop order: lowest slot first keeps occupancy dense, so
            // word-wide scans touch few words.
            free: (0..capacity as u32).rev().collect(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry, returning its slot. Panics when full — callers
    /// gate dispatch on occupancy before inserting.
    pub(crate) fn insert(&mut self, e: &Entry) -> u32 {
        let slot = self.free.pop().expect("entry store full");
        let i = slot as usize;
        self.ids[i] = e.id;
        self.ops[i] = e.op;
        self.srcs[i] = e.srcs;
        let (w, m) = bit(slot);
        self.live[w] |= m;
        for op in 0..2 {
            if e.ready[op] {
                self.ready[op][w] |= m;
            } else {
                self.ready[op][w] &= !m;
            }
        }
        debug_assert!(!e.held, "entries are never inserted held");
        self.held[w] &= !m;
        self.len += 1;
        slot
    }

    pub(crate) fn remove(&mut self, slot: u32) {
        let (w, m) = bit(slot);
        debug_assert!(self.live[w] & m != 0, "remove of a dead slot");
        self.live[w] &= !m;
        self.held[w] &= !m;
        self.free.push(slot);
        self.len -= 1;
    }

    /// A copy of the entry's fields in struct form (selection candidates).
    pub(crate) fn snapshot(&self, slot: u32) -> Entry {
        let (w, m) = bit(slot);
        debug_assert!(self.live[w] & m != 0, "snapshot of a dead slot");
        let i = slot as usize;
        Entry {
            id: self.ids[i],
            op: self.ops[i],
            srcs: self.srcs[i],
            ready: [self.ready[0][w] & m != 0, self.ready[1][w] & m != 0],
            held: self.held[w] & m != 0,
        }
    }

    pub(crate) fn id(&self, slot: u32) -> InstId {
        self.ids[slot as usize]
    }

    pub(crate) fn srcs(&self, slot: u32) -> [Option<PhysReg>; 2] {
        self.srcs[slot as usize]
    }

    pub(crate) fn is_ready(&self, slot: u32, operand: usize) -> bool {
        let (w, m) = bit(slot);
        self.ready[operand][w] & m != 0
    }

    pub(crate) fn set_ready(&mut self, slot: u32, operand: usize) {
        let (w, m) = bit(slot);
        self.ready[operand][w] |= m;
    }

    pub(crate) fn clear_ready(&mut self, slot: u32, operand: usize) {
        let (w, m) = bit(slot);
        self.ready[operand][w] &= !m;
    }

    pub(crate) fn all_ready(&self, slot: u32) -> bool {
        let (w, m) = bit(slot);
        self.ready[0][w] & self.ready[1][w] & m != 0
    }

    pub(crate) fn is_held(&self, slot: u32) -> bool {
        let (w, m) = bit(slot);
        self.held[w] & m != 0
    }

    pub(crate) fn set_held(&mut self, slot: u32) {
        let (w, m) = bit(slot);
        self.held[w] |= m;
    }

    pub(crate) fn clear_held(&mut self, slot: u32) {
        let (w, m) = bit(slot);
        self.held[w] &= !m;
    }

    /// Live entries that are fully ready and not held — the selection
    /// candidates of a CAM-style queue — via `trailing_zeros` over the
    /// combined bitset words.
    #[inline]
    pub(crate) fn for_each_selectable(&self, mut f: impl FnMut(u32)) {
        for (w, (((&live, r0), r1), &held)) in self
            .live
            .iter()
            .zip(self.ready[0].iter())
            .zip(self.ready[1].iter())
            .zip(self.held.iter())
            .enumerate()
        {
            let mut word = live & r0 & r1 & !held;
            while word != 0 {
                let slot = (w * WORD_BITS) as u32 + word.trailing_zeros();
                f(slot);
                word &= word - 1;
            }
        }
    }

    /// Number of selectable entries (see [`for_each_selectable`]). The
    /// selection pass counts its candidates as it gathers them — one
    /// bitset scan serves selection and the select-energy charge — so this
    /// recount serves the idle charge, where nothing is gathered, and the
    /// tests' cross-checks.
    ///
    /// [`for_each_selectable`]: EntryStore::for_each_selectable
    pub(crate) fn selectable_count(&self) -> usize {
        self.live
            .iter()
            .zip(self.ready[0].iter())
            .zip(self.ready[1].iter())
            .zip(self.held.iter())
            .map(|(((&live, r0), r1), &held)| (live & r0 & r1 & !held).count_ones() as usize)
            .sum()
    }

    /// Live unready operands — the enabled comparators a CAM broadcast is
    /// charged for. Missing operands read ready from insertion, so they are
    /// never counted.
    #[inline]
    pub(crate) fn unready_operand_count(&self) -> usize {
        self.live
            .iter()
            .zip(self.ready[0].iter())
            .zip(self.ready[1].iter())
            .map(|((&live, r0), r1)| {
                ((live & !r0).count_ones() + (live & !r1).count_ones()) as usize
            })
            .sum()
    }

    /// Calls `f` for every live slot, ascending.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(u32)) {
        for (w, &live) in self.live.iter().enumerate() {
            let mut word = live;
            while word != 0 {
                let slot = (w * WORD_BITS) as u32 + word.trailing_zeros();
                f(slot);
                word &= word - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::RegClass;

    fn entry(id: u64, ready: [bool; 2]) -> Entry {
        Entry {
            id: InstId(id),
            op: OpClass::IntAlu,
            srcs: [Some(PhysReg::new(RegClass::Int, 7)), None],
            ready,
            held: false,
        }
    }

    #[test]
    fn insert_snapshot_remove_round_trip() {
        let mut s = EntryStore::new(70); // crosses a word boundary
        let slots: Vec<u32> = (0..70)
            .map(|i| s.insert(&entry(i, [i % 2 == 0, true])))
            .collect();
        assert_eq!(s.len(), 70);
        for (i, &slot) in slots.iter().enumerate() {
            let e = s.snapshot(slot);
            assert_eq!(e.id, InstId(i as u64));
            assert_eq!(e.ready, [i % 2 == 0, true]);
            assert!(!e.held);
        }
        assert_eq!(s.unready_operand_count(), 35);
        assert_eq!(s.selectable_count(), 35);
        s.remove(slots[0]);
        assert_eq!(s.len(), 69);
        let again = s.insert(&entry(99, [true, true]));
        assert_eq!(again, slots[0], "freed slot is reused");
        assert_eq!(s.snapshot(again).id, InstId(99));
    }

    #[test]
    fn ready_and_held_bits_flip_independently() {
        let mut s = EntryStore::new(4);
        let a = s.insert(&entry(1, [false, true]));
        assert!(!s.all_ready(a));
        s.set_ready(a, 0);
        assert!(s.all_ready(a));
        assert_eq!(s.selectable_count(), 1);
        s.set_held(a);
        assert!(s.is_held(a));
        assert_eq!(s.selectable_count(), 0, "held entries are unselectable");
        s.clear_held(a);
        s.clear_ready(a, 0);
        assert!(!s.all_ready(a));
        assert!(s.is_ready(a, 1));
        assert_eq!(s.unready_operand_count(), 1);
    }

    #[test]
    fn selectable_iteration_matches_count_across_words() {
        let mut s = EntryStore::new(130);
        let mut expect = Vec::new();
        for i in 0..130u64 {
            let ready = [i % 3 != 0, i % 5 != 0];
            let slot = s.insert(&entry(i, ready));
            if ready[0] && ready[1] {
                expect.push(slot);
            }
        }
        let mut got = Vec::new();
        s.for_each_selectable(|slot| got.push(slot));
        assert_eq!(got, expect);
        assert_eq!(s.selectable_count(), expect.len());
        let mut live = 0;
        s.for_each_live(|_| live += 1);
        assert_eq!(live, 130);
    }

    #[test]
    #[should_panic(expected = "entry store full")]
    fn insert_past_capacity_panics() {
        let mut s = EntryStore::new(2);
        for i in 0..3 {
            s.insert(&entry(i, [true, true]));
        }
    }
}
