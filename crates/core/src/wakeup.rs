//! The event-driven wakeup fast path: per-tag consumer lists. The entries
//! they refer to live in the SoA [`EntryStore`](crate::soa), addressed by
//! stable `u32` slots, and the store owns the map: only it listens,
//! unlistens and wakes, so the operand protocol is written once for every
//! scheme.
//!
//! The paper's argument is about *step complexity*: a conventional CAM
//! broadcasts every produced tag to every queue entry, while the distributed
//! schemes touch only a constant amount of state per event. Before this
//! module existed the simulator modelled every scheme the CAM way — each
//! result (and each cycle's readiness check) scanned full entry vectors —
//! so simulated wall-clock did not reflect the complexity the paper
//! measures. Now each entry store owns a [`WakeupMap`] (`tag → [waiter]`): a
//! result broadcast is a [`WakeupEvent`] that touches only the entries
//! actually listening for that tag.
//!
//! **Energy accounting stays broadcast-shaped.** The physical machine still
//! drives the tag lines across every occupied bank and evaluates a
//! comparator per unready operand; those costs are charged from counters the
//! schemes maintain incrementally (occupied entries, unready operands,
//! ready entries), so the meter readings are bit-identical to the scan
//! implementation's — see `reference` for the frozen scan models and
//! `tests/golden_stats.rs` for the proof.

use diq_isa::PhysReg;

/// One registered consumer: entry `slot` is waiting for its operand
/// `operand` (0 or 1).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Waiter {
    /// Entry-store slot of the waiting entry.
    pub slot: u32,
    /// Which of the entry's two operands the tag feeds.
    pub operand: u8,
}

/// A result broadcast, as the event-driven simulation sees it: the produced
/// tag plus the energy-relevant state of the structure at broadcast time.
/// The simulation work is proportional to the *waiters*; the energy charge
/// is proportional to the *physical* broadcast (banks driven, comparators
/// listening), which the caller reads from its own counters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WakeupEvent {
    /// Occupied banks the tag lines were driven across.
    pub banks: usize,
    /// Enabled comparators (unready operands) that saw the broadcast.
    pub comparators: usize,
}

/// Sentinel "no waiter" for [`WakeupMap`] heads and next-links.
const NIL: u32 = u32::MAX;

/// Per-tag consumer lists for one scheduler structure, indexed by register
/// class and physical index.
///
/// Intrusive: a waiter is identified by `slot * 2 + operand` (an operand
/// waits on at most one tag at a time, so that index is unique), the
/// per-tag list is `heads[tag] → next[waiter] → …`, and both arrays are
/// sized at construction — from the physical register file and the entry
/// store's capacity — so listening, waking, and unlistening never allocate
/// (per-tag `Vec`s would keep ratcheting up to new per-tag waiter peaks
/// deep into a run; `tests/alloc_steady_state.rs` counts this path).
#[derive(Clone, Debug)]
pub(crate) struct WakeupMap {
    /// Per register class: head waiter of each tag's list.
    heads: [Box<[u32]>; 2],
    /// Next waiter on the same tag's list, indexed by `slot * 2 + operand`.
    next: Box<[u32]>,
}

impl WakeupMap {
    /// A map for an entry store of `slots` slots, with tag namespaces sized
    /// by the physical register counts `regs` (`[int, fp]`).
    pub(crate) fn new(slots: usize, regs: [usize; 2]) -> Self {
        WakeupMap {
            heads: [
                vec![NIL; regs[0]].into_boxed_slice(),
                vec![NIL; regs[1]].into_boxed_slice(),
            ],
            next: vec![NIL; 2 * slots].into_boxed_slice(),
        }
    }

    /// Registers entry `slot` as waiting on `tag` with operand `operand`.
    pub(crate) fn listen(&mut self, tag: PhysReg, slot: u32, operand: usize) {
        let head = &mut self.heads[tag.class().index()][tag.index()];
        let w = slot * 2 + operand as u32;
        self.next[w as usize] = *head;
        *head = w;
    }

    /// Drains the consumers of `tag`, calling `f` for each (most recently
    /// registered first — consumers only flip independent ready bits, so
    /// the order is unobservable).
    pub(crate) fn wake(&mut self, tag: PhysReg, mut f: impl FnMut(Waiter)) {
        let head = &mut self.heads[tag.class().index()][tag.index()];
        let mut w = std::mem::replace(head, NIL);
        while w != NIL {
            let next = std::mem::replace(&mut self.next[w as usize], NIL);
            f(Waiter {
                slot: w / 2,
                operand: (w % 2) as u8,
            });
            w = next;
        }
    }

    /// Removes every waiter registered by `slot` under `tag` (wrong-path
    /// squash: a removed entry must leave no ghost consumer behind, or a
    /// later broadcast of the recycled tag would wake a dead — or worse, a
    /// reused — slot).
    pub(crate) fn unlisten(&mut self, tag: PhysReg, slot: u32) {
        let class = tag.class().index();
        let mut prev = NIL;
        let mut w = self.heads[class][tag.index()];
        while w != NIL {
            let next = self.next[w as usize];
            if w / 2 == slot {
                if prev == NIL {
                    self.heads[class][tag.index()] = next;
                } else {
                    self.next[prev as usize] = next;
                }
                self.next[w as usize] = NIL;
            } else {
                prev = w;
            }
            w = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::RegClass;

    #[test]
    fn wake_drains_only_the_tag_and_keeps_classes_apart() {
        let mut m = WakeupMap::new(8, [64, 64]);
        let p40i = PhysReg::new(RegClass::Int, 40);
        let p40f = PhysReg::new(RegClass::Fp, 40);
        m.listen(p40i, 1, 0);
        m.listen(p40i, 2, 1);
        m.listen(p40f, 3, 0);
        let mut woken = Vec::new();
        m.wake(p40i, |w| woken.push((w.slot, w.operand)));
        woken.sort_unstable();
        assert_eq!(woken, [(1, 0), (2, 1)]);
        woken.clear();
        m.wake(p40i, |w| woken.push((w.slot, w.operand)));
        assert!(woken.is_empty(), "list drained");
        m.wake(p40f, |w| woken.push((w.slot, w.operand)));
        assert_eq!(woken, [(3, 0)], "FP class is a separate namespace");
    }

    #[test]
    fn waking_an_unlistened_tag_is_a_no_op() {
        let mut m = WakeupMap::new(8, [256, 256]);
        m.wake(PhysReg::new(RegClass::Int, 159), |_| {
            panic!("no waiters were registered")
        });
    }

    #[test]
    fn unlisten_removes_only_the_slot_mid_list() {
        let mut m = WakeupMap::new(8, [64, 64]);
        let tag = PhysReg::new(RegClass::Int, 7);
        m.listen(tag, 1, 0);
        m.listen(tag, 2, 0);
        m.listen(tag, 2, 1);
        m.listen(tag, 3, 1);
        m.unlisten(tag, 2);
        let mut woken = Vec::new();
        m.wake(tag, |w| woken.push((w.slot, w.operand)));
        woken.sort_unstable();
        assert_eq!(woken, [(1, 0), (3, 1)], "both of slot 2's waiters gone");
        // Unlistened waiters can re-listen cleanly.
        m.listen(tag, 2, 1);
        woken.clear();
        m.wake(tag, |w| woken.push((w.slot, w.operand)));
        assert_eq!(woken, [(2, 1)]);
    }
}
