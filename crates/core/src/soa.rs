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
//! The store is also the one owner of the operand protocol every scheme
//! shares. It keeps the per-tag consumer lists ([`WakeupMap`]): `insert`
//! makes each unready operand listen for its tag, `remove` takes those
//! listeners off again (a squashed entry leaves no ghost consumer),
//! [`wake`](EntryStore::wake) delivers a produced tag, and
//! [`cancel`](EntryStore::cancel) undoes a speculative one. The schemes
//! only decide *where* an entry sits and *when* it leaves.
//!
//! Slots are stable `u32` handles (the [`WakeupMap`] refers to entries by
//! slot), bounded by the structure's capacity — every scheme checks
//! occupancy before inserting, so the arrays are allocated once at
//! construction and never grow.
//!
//! The frozen scan models in [`reference`](crate::reference) deliberately
//! keep the naive array-of-structs layout; `tests/golden_stats.rs` proves
//! the statistics (including every energy figure) stay bit-identical.

use crate::fifo::Entry;
use crate::wakeup::WakeupMap;
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
    /// `tag → [waiting (slot, operand)]`: exactly the live unready operands.
    waiters: WakeupMap,
}

#[inline]
fn bit(slot: u32) -> (usize, u64) {
    (
        slot as usize / WORD_BITS,
        1u64 << (slot as usize % WORD_BITS),
    )
}

/// The slots of the set bits of bitset word `w`, ascending.
#[inline]
fn slots(w: usize, mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let slot = (w * WORD_BITS) as u32 + word.trailing_zeros();
            word &= word - 1;
            slot
        })
    })
}

impl EntryStore {
    /// A store of `capacity` slots whose operands name tags among `regs`
    /// physical registers (`[int, fp]`).
    pub(crate) fn new(capacity: usize, regs: [usize; 2]) -> Self {
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
            waiters: WakeupMap::new(capacity, regs),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry, returning its slot, and makes each unready
    /// operand listen for its tag. Panics when full — callers gate
    /// dispatch on occupancy before inserting.
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
                let tag = e.srcs[op].expect("unready operand has a tag");
                self.waiters.listen(tag, slot, op);
            }
        }
        debug_assert!(!e.held, "entries are never inserted held");
        self.held[w] &= !m;
        self.len += 1;
        slot
    }

    /// Frees `slot`, first taking its unready operands off their tags'
    /// consumer lists: a later broadcast of a recycled tag must not wake a
    /// dead — or worse, a reused — slot. Issued and held entries are fully
    /// ready, so only a squashed entry has listeners to remove.
    pub(crate) fn remove(&mut self, slot: u32) {
        let (w, m) = bit(slot);
        debug_assert!(self.live[w] & m != 0, "remove of a dead slot");
        if self.ready[0][w] & self.ready[1][w] & m == 0 {
            for op in 0..2 {
                if self.ready[op][w] & m == 0 {
                    let tag = self.srcs[slot as usize][op].expect("unready operand has a tag");
                    self.waiters.unlisten(tag, slot);
                }
            }
        }
        self.live[w] &= !m;
        self.held[w] &= !m;
        self.free.push(slot);
        self.len -= 1;
    }

    /// Removes every entry with `id >= from` (wrong-path squash), in
    /// ascending slot order, and returns how many there were.
    pub(crate) fn remove_from(&mut self, from: InstId) -> usize {
        let mut removed = 0;
        for w in 0..self.live.len() {
            for slot in slots(w, self.live[w]) {
                if self.ids[slot as usize] >= from {
                    self.remove(slot);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Delivers a produced tag to the operands listening for it, wherever
    /// their entries sit.
    pub(crate) fn wake(&mut self, tag: PhysReg) {
        let ready = &mut self.ready;
        self.waiters.wake(tag, |waiter| {
            let (w, m) = bit(waiter.slot);
            let word = &mut ready[waiter.operand as usize][w];
            debug_assert!(*word & m == 0, "double wakeup");
            *word |= m;
        });
    }

    /// Miss cancel for `tag`: every live operand that `tag` made ready
    /// reverts to waiting and listens again for the real broadcast, and
    /// its entry, if held after a speculative issue, becomes a normal
    /// queued entry again. A scan of the live slots is cheap enough: a
    /// cancel happens once per L1 miss, not once per cycle.
    pub(crate) fn cancel(&mut self, tag: PhysReg) {
        for w in 0..self.live.len() {
            for slot in slots(w, self.live[w]) {
                let (_, m) = bit(slot);
                for op in 0..2 {
                    if self.srcs[slot as usize][op] == Some(tag) && self.ready[op][w] & m != 0 {
                        self.ready[op][w] &= !m;
                        self.held[w] &= !m;
                        self.waiters.listen(tag, slot, op);
                    }
                }
            }
        }
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

    pub(crate) fn is_held(&self, slot: u32) -> bool {
        let (w, m) = bit(slot);
        self.held[w] & m != 0
    }

    pub(crate) fn set_held(&mut self, slot: u32) {
        let (w, m) = bit(slot);
        self.held[w] |= m;
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
            slots(w, live & r0 & r1 & !held).for_each(&mut f);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::RegClass;

    fn entry(id: u64, ready: [bool; 2]) -> Entry {
        Entry {
            id: InstId(id),
            op: OpClass::IntAlu,
            srcs: [
                Some(PhysReg::new(RegClass::Int, 7)),
                Some(PhysReg::new(RegClass::Int, 8)),
            ],
            ready,
            held: false,
        }
    }

    #[test]
    fn insert_snapshot_remove_round_trip() {
        let mut s = EntryStore::new(70, [64, 64]); // crosses a word boundary
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
    fn wake_and_cancel_flip_ready_and_held_bits() {
        let mut s = EntryStore::new(4, [64, 64]);
        let tag = PhysReg::new(RegClass::Int, 7);
        let a = s.insert(&entry(1, [false, true]));
        assert_eq!(s.selectable_count(), 0);
        s.wake(tag);
        assert!(s.snapshot(a).all_ready());
        assert_eq!(s.selectable_count(), 1);
        s.set_held(a);
        assert!(s.is_held(a));
        assert_eq!(s.selectable_count(), 0, "held entries are unselectable");
        s.cancel(tag);
        let e = s.snapshot(a);
        assert_eq!(e.ready, [false, true], "only the cancelled operand reverts");
        assert!(!e.held, "cancel returns a held entry to the queue");
        assert_eq!(s.unready_operand_count(), 1);
        s.wake(tag);
        assert!(s.snapshot(a).all_ready(), "cancel listens again");
    }

    #[test]
    fn selectable_iteration_matches_count_across_words() {
        let mut s = EntryStore::new(130, [64, 64]);
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
    }

    #[test]
    #[should_panic(expected = "entry store full")]
    fn insert_past_capacity_panics() {
        let mut s = EntryStore::new(2, [64, 64]);
        for i in 0..3 {
            s.insert(&entry(i, [true, true]));
        }
    }
}
