//! The instruction window: every instruction from fetch to commit, in one
//! ring indexed by instruction id.
//!
//! Only this module knows the ring's layout; the pipeline stages go
//! through [`Window`]'s methods.

use diq_branch::Prediction;
use diq_isa::{Cycle, Inst, InstId, PhysReg};
use std::collections::VecDeque;

/// [`Slot::lsq`] of an instruction with no LSQ entry. No entry ever gets
/// this sequence number, so passing it to the LSQ panics on the index
/// instead of updating some other entry.
pub(crate) const NO_LSQ: u64 = u64::MAX;

/// One instruction in the [`Window`], fetch through commit. Fetch writes
/// the slot once; dispatch fills the rename fields in place.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) inst: Inst,
    pub(crate) pred: Option<Prediction>,
    pub(crate) mispredicted: bool,
    /// Fetched past an unresolved mispredicted branch (speculation mode).
    pub(crate) wrong_path: bool,
    pub(crate) dst: Option<PhysReg>,
    pub(crate) srcs: [Option<PhysReg>; 2],
    /// Store data register: not an issue condition (stores issue once the
    /// address operand is ready, as in SimpleScalar), but the store cannot
    /// complete until the data exists.
    pub(crate) store_data: Option<PhysReg>,
    /// The destination's previous mapping: freed at commit, restored by a
    /// wrong-path squash.
    pub(crate) prev_mapping: Option<PhysReg>,
    /// Globally unique dispatch sequence number. Completion events carry
    /// it; after a squash reuses instruction ids for the correct path, a
    /// stale event's token no longer matches and the event is dead. A
    /// load-hit-speculation replay *bumps* the token, so the cancelled
    /// speculative pass's completion events die the same way.
    pub(crate) token: u64,
    /// A memory operation's [`Lsq`](crate::Lsq) sequence number;
    /// [`NO_LSQ`] for every other instruction.
    pub(crate) lsq: u64,
    pub(crate) completed: bool,
    /// Already left the issue queue.
    pub(crate) issued: bool,
    /// Issued on a speculatively woken operand; still occupying its
    /// issue-queue slot until the miss cancel (or a squash) resolves it.
    pub(crate) spec_held: bool,
    /// Un-issued by a miss cancel and waiting to re-issue at the true fill.
    pub(crate) replay_pending: bool,
    /// Cycle of the most recent speculative issue (replay-latency
    /// accounting).
    pub(crate) spec_issued_at: Cycle,
}

impl Slot {
    pub(crate) fn fetched(inst: Inst, wrong_path: bool) -> Self {
        Slot {
            inst,
            pred: None,
            mispredicted: false,
            wrong_path,
            dst: None,
            srcs: [None; 2],
            store_data: None,
            prev_mapping: None,
            token: 0,
            lsq: NO_LSQ,
            completed: false,
            issued: false,
            spec_held: false,
            replay_pending: false,
            spec_issued_at: 0,
        }
    }
}

/// The instruction window, a ring indexed by `id - base`:
/// `slots[..dispatched]` is the reorder buffer, `slots[dispatched..]` the
/// fetch queue.
///
/// Instruction ids are dense from fetch to commit — fetch numbers the
/// slots it appends, commit pops the front, and a wrong-path squash
/// truncates the back — so `base + slots.len()` is always the next id to
/// fetch, and a recovery rewinds it just by truncating.
#[derive(Debug)]
pub(crate) struct Window {
    base: u64,
    slots: VecDeque<Slot>,
    dispatched: usize,
}

impl Window {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Window {
            base: 0,
            slots: VecDeque::with_capacity(capacity),
            dispatched: 0,
        }
    }

    /// Nothing fetched and not yet committed.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Reorder-buffer occupancy.
    pub(crate) fn rob_len(&self) -> usize {
        self.dispatched
    }

    pub(crate) fn fetch_queue_len(&self) -> usize {
        self.slots.len() - self.dispatched
    }

    /// The reorder buffer, oldest first.
    pub(crate) fn rob(&self) -> impl Iterator<Item = &Slot> {
        self.slots.range(..self.dispatched)
    }

    /// The id the next fetched instruction gets.
    pub(crate) fn next_id(&self) -> InstId {
        InstId(self.base + self.slots.len() as u64)
    }

    /// Appends a fetched instruction to the fetch queue; it gets
    /// [`next_id`](Self::next_id).
    pub(crate) fn push(&mut self, slot: Slot) {
        self.slots.push_back(slot);
    }

    /// The slot of a dispatched, not yet committed instruction. An id that
    /// was fetched but not dispatched is not in flight: an event naming it
    /// belongs to a squashed predecessor and is dead.
    pub(crate) fn get(&self, id: InstId) -> Option<&Slot> {
        let i = id.0.wrapping_sub(self.base);
        (i < self.dispatched as u64).then(|| &self.slots[i as usize])
    }

    pub(crate) fn get_mut(&mut self, id: InstId) -> Option<&mut Slot> {
        let i = id.0.wrapping_sub(self.base);
        (i < self.dispatched as u64).then(|| &mut self.slots[i as usize])
    }

    /// The oldest dispatched instruction and its id.
    pub(crate) fn head(&self) -> Option<(InstId, &Slot)> {
        (self.dispatched > 0).then(|| (InstId(self.base), &self.slots[0]))
    }

    /// Retires the [`head`](Self::head).
    pub(crate) fn commit_head(&mut self) {
        self.slots.pop_front();
        self.base += 1;
        self.dispatched -= 1;
    }

    /// The oldest fetched instruction not yet dispatched, and its id.
    pub(crate) fn next_to_dispatch(&self) -> Option<(InstId, &Slot)> {
        let id = InstId(self.base + self.dispatched as u64);
        self.slots.get(self.dispatched).map(|s| (id, s))
    }

    /// Moves the fetch queue's head into the ROB.
    pub(crate) fn dispatch_next(&mut self) -> &mut Slot {
        self.dispatched += 1;
        &mut self.slots[self.dispatched - 1]
    }

    /// Wrong-path squash: drops the whole fetch queue, then every
    /// dispatched slot with `id >= from`, youngest first, handing each to
    /// `unwind`. Returns the (fetch-queue, ROB) counts dropped. Everything
    /// at or after `from` was fetched past the mispredicted branch.
    pub(crate) fn squash_from(&mut self, from: InstId, unwind: impl FnMut(&Slot)) -> (u64, u64) {
        let keep = (from.0 - self.base) as usize;
        debug_assert!(
            self.slots.range(keep..).all(|s| s.wrong_path),
            "only wrong-path slots squash"
        );
        let dropped = (
            self.fetch_queue_len() as u64,
            (self.dispatched - keep) as u64,
        );
        self.slots
            .range(keep..self.dispatched)
            .rev()
            .for_each(unwind);
        self.slots.truncate(keep);
        self.dispatched = keep;
        dropped
    }
}
