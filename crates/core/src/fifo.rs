//! Palacharla-style FIFO issue queues (`IssueFIFO`), and the FIFO machinery
//! every FIFO side shares:
//!
//! * [`FifoQueues`] — ordered slot queues over one pooled [`EntryStore`]
//!   (push, heads, hold, pop, suffix squash). IssueFIFO's two sides,
//!   LatFIFO's two sides and MixBUFF's integer side are all one of these;
//! * [`FifoArray`] — the queues plus the paper's dependence-based
//!   [`Steering`] (IssueFIFO, and the integer side of LatFIFO and MixBUFF);
//! * [`issue_heads`] — the one head-selection pass all of them run. It
//!   tells its caller which queues its pops left empty, the one event the
//!   steering table needs from it.
//!
//! Entries carry their own ready bits, maintained by the store's per-tag
//! consumer lists: a result broadcast flips only the bits of entries
//! actually waiting for that tag, so head-readiness at issue is a bit test
//! instead of a scoreboard poll. The *energy* model is unchanged — heads
//! are still charged a `regs_ready` read per operand per cycle, exactly as
//! the physical design polls the scoreboard.

use crate::energy::{FifoEnergy, IdleCharge};
use crate::fu::FuTopology;
use crate::soa::EntryStore;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{ArchReg, Cycle, InstId, OpClass, PhysReg, ProcessorConfig};
use diq_power::{Component, EnergyMeter, TechParams};
use std::collections::VecDeque;

/// One queued instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub id: InstId,
    pub op: OpClass,
    pub srcs: [Option<PhysReg>; 2],
    pub ready: [bool; 2],
    /// Issued on a speculative operand and kept in its slot until the miss
    /// cancel returns it to waiting (load-hit speculation). A held head is
    /// invisible to selection.
    pub held: bool,
}

impl Entry {
    pub(crate) fn new(d: &DispatchInst) -> Self {
        let mut ready = [true, true];
        for (i, src) in d.srcs.iter().enumerate() {
            if src.is_some() {
                ready[i] = d.srcs_ready[i];
            }
        }
        Entry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            ready,
            held: false,
        }
    }

    pub(crate) fn all_ready(&self) -> bool {
        self.ready[0] && self.ready[1]
    }

    /// Number of operand reads a head check performs (present sources).
    pub(crate) fn nsrc(&self) -> u64 {
        self.srcs.iter().flatten().count() as u64
    }
}

/// Ordered FIFO queues of slots over one pooled [`EntryStore`]: the part
/// every FIFO side shares, however it places entries. Entries within a
/// queue are in dispatch (age) order; only a queue's head may issue.
#[derive(Clone, Debug)]
pub(crate) struct FifoQueues {
    store: EntryStore,
    queues: Vec<VecDeque<u32>>,
    capacity: usize,
}

impl FifoQueues {
    pub(crate) fn new(queues: usize, capacity: usize, regs: [usize; 2]) -> Self {
        assert!(queues > 0 && capacity > 0);
        FifoQueues {
            // Each queue holds at most `capacity` entries, so the store is
            // sized for the whole array up front.
            store: EntryStore::new(queues * capacity, regs),
            // Built per queue (not `vec![..; queues]`) so the cloned
            // VecDeques keep their reserved capacity.
            queues: (0..queues)
                .map(|_| VecDeque::with_capacity(capacity))
                .collect(),
            capacity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Number of queues.
    pub(crate) fn count(&self) -> usize {
        self.queues.len()
    }

    pub(crate) fn is_full(&self, q: usize) -> bool {
        self.queues[q].len() >= self.capacity
    }

    pub(crate) fn first_empty(&self) -> Option<usize> {
        self.queues.iter().position(VecDeque::is_empty)
    }

    /// The slot of queue `q`'s tail entry.
    pub(crate) fn tail(&self, q: usize) -> Option<u32> {
        self.queues[q].back().copied()
    }

    /// Appends `d` to queue `q` and returns its slot.
    pub(crate) fn push(&mut self, q: usize, d: &DispatchInst) -> u32 {
        let slot = self.store.insert(&Entry::new(d));
        self.queues[q].push_back(slot);
        slot
    }

    /// Head candidates: `(queue, entry)` for each non-empty queue whose
    /// head is not held after a speculative issue (a held head neither
    /// polls the scoreboard nor competes for selection — it already left
    /// through the issue port and is waiting for its load to be confirmed
    /// or cancelled).
    pub(crate) fn heads(&self) -> impl Iterator<Item = (usize, Entry)> + '_ {
        self.queues.iter().enumerate().filter_map(|(q, fifo)| {
            fifo.front()
                .filter(|&&slot| !self.store.is_held(slot))
                .map(|&slot| (q, self.store.snapshot(slot)))
        })
    }

    /// Marks the head of queue `q` as held after a speculative issue: it
    /// keeps its slot (dispatch still sees a full entry) but stops being a
    /// selection candidate until a cancel reverts it.
    pub(crate) fn hold_head(&mut self, q: usize) {
        let &slot = self.queues[q].front().expect("hold on empty FIFO");
        self.store.set_held(slot);
    }

    /// Removes the head of queue `q` after it issued; `true` when that
    /// leaves the queue empty.
    pub(crate) fn pop_head(&mut self, q: usize) -> bool {
        let slot = self.queues[q].pop_front().expect("pop from empty FIFO");
        self.store.remove(slot);
        self.queues[q].is_empty()
    }

    /// Wrong-path squash: the doomed entries are a suffix of each queue,
    /// so they are popped from the back.
    pub(crate) fn squash(&mut self, from: InstId) {
        for queue in &mut self.queues {
            while let Some(&back) = queue.back() {
                if self.store.id(back) < from {
                    break;
                }
                queue.pop_back();
                self.store.remove(back);
            }
        }
    }

    /// Delivers a produced tag to the entries waiting for it (any position
    /// in any queue — buried entries collect their ready bits while they
    /// wait their turn at the head).
    pub(crate) fn wake(&mut self, tag: PhysReg) {
        self.store.wake(tag);
    }

    /// Miss cancel for `tag` (see [`EntryStore::cancel`]).
    pub(crate) fn cancel(&mut self, tag: PhysReg) {
        self.store.cancel(tag);
    }
}

/// One cycle of FIFO head selection, the same for every FIFO side:
/// every head polls the scoreboard (charged whether ready or not), the
/// ready heads are offered to the sink oldest first, and each one it takes
/// is held in place if it issued on a speculative operand (the possible
/// replay needs it) or popped otherwise; both pay the FIFO read and the
/// operand mux. `sides` holds the integer and FP queues, `None` for a side
/// that is not a FIFO; `emptied(side, q)` hears of each queue a pop leaves
/// empty (dependence steering forgets that queue's tail).
pub(crate) fn issue_heads(
    mut sides: [Option<&mut FifoQueues>; 2],
    energy: &[FifoEnergy; 2],
    meter: &mut EnergyMeter,
    candidates: &mut Vec<(u64, Side, usize, Entry)>,
    sink: &mut dyn IssueSink,
    mut emptied: impl FnMut(Side, usize),
) {
    candidates.clear();
    for (side, fifo) in [Side::Int, Side::Fp].into_iter().zip(&sides) {
        let Some(fifo) = fifo else { continue };
        let em = energy[side.index()];
        for (q, e) in fifo.heads() {
            meter.add_events(Component::RegsReady, e.nsrc(), em.regs_ready_read);
            if e.all_ready() {
                candidates.push((e.id.0, side, q, e));
            }
        }
    }
    candidates.sort_unstable_by_key(|c| c.0);
    for &(_, side, q, e) in candidates.iter() {
        if sink.try_issue(e.id, e.op, Some((side, q))) {
            let fifo = sides[side.index()].as_deref_mut().expect("a FIFO side");
            if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                fifo.hold_head(q);
            } else if fifo.pop_head(q) {
                emptied(side, q);
            }
            let em = energy[side.index()];
            meter.add(Component::Fifo, em.fifo_read);
            let (mux, pj) = em.mux.event(e.op);
            meter.add(mux, pj);
        }
    }
}

/// The paper's dependence-based steering for one side's FIFOs:
///
/// 1. if a queue's **tail** produces the first operand, append there (stall
///    if it is full and the instruction has no second operand);
/// 2. else if a queue's tail produces the second operand, append there
///    (stall if full);
/// 3. else append to an empty queue (stall if none).
///
/// The steering table maps architectural registers to the queue whose tail
/// is their producer, exactly the structure the paper describes; it is
/// cleared on branch mispredictions.
#[derive(Clone, Debug)]
pub(crate) struct Steering {
    /// arch-reg flat index → (queue, producing instruction).
    table: Vec<Option<(usize, InstId)>>,
    /// Per queue: the architectural register produced by the tail.
    tail_reg: Vec<Option<ArchReg>>,
}

impl Steering {
    fn new(queues: usize) -> Self {
        Steering {
            table: vec![None; 2 * diq_isa::ARCH_REGS_PER_CLASS],
            tail_reg: vec![None; queues],
        }
    }

    /// The steering decision for `d` over `fifo`: `Ok(queue)` or a stall.
    fn choose(&self, fifo: &FifoQueues, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let at_tail = |q: usize, pid| fifo.tail(q).map(|slot| fifo.store.id(slot)) == Some(pid);
        let n_srcs = d.src_arch.iter().flatten().count();
        // Rule 1: first operand's producer at a tail.
        if let Some(r) = d.src_arch[0] {
            if let Some((q, pid)) = self.table[r.flat_index()] {
                if at_tail(q, pid) {
                    if !fifo.is_full(q) {
                        return Ok(q);
                    }
                    if n_srcs == 1 {
                        return Err(DispatchStall::QueueFull);
                    }
                    // Two operands: fall through to the second operand rule.
                }
            }
        }
        // Rule 2: second operand's producer at a tail.
        if let Some(r) = d.src_arch[1] {
            if let Some((q, pid)) = self.table[r.flat_index()] {
                if at_tail(q, pid) {
                    if !fifo.is_full(q) {
                        return Ok(q);
                    }
                    return Err(DispatchStall::QueueFull);
                }
            }
        }
        // Rule 3: an empty queue.
        fifo.first_empty().ok_or(DispatchStall::NoEmptyQueue)
    }

    /// Records `d` as the new tail of queue `q`.
    fn placed(&mut self, q: usize, d: &DispatchInst) {
        if let Some(old) = self.tail_reg[q].take() {
            self.table[old.flat_index()] = None;
        }
        if let Some(dst) = d.dst_arch {
            self.table[dst.flat_index()] = Some((q, d.id));
            self.tail_reg[q] = Some(dst);
        }
    }

    /// Queue `q` issued its last entry: its tail register's mapping goes.
    pub(crate) fn emptied(&mut self, q: usize) {
        if let Some(r) = self.tail_reg[q].take() {
            self.table[r.flat_index()] = None;
        }
    }

    /// Clears the steering table (mispredict recovery, as in the paper).
    pub(crate) fn clear(&mut self) {
        self.table.iter_mut().for_each(|s| *s = None);
        self.tail_reg.iter_mut().for_each(|s| *s = None);
    }
}

/// An array of FIFO queues for one side of the machine, placed by
/// [`Steering`].
#[derive(Clone, Debug)]
pub(crate) struct FifoArray {
    pub(crate) fifo: FifoQueues,
    pub(crate) steering: Steering,
}

impl FifoArray {
    pub(crate) fn new(queues: usize, capacity: usize, regs: [usize; 2]) -> Self {
        FifoArray {
            fifo: FifoQueues::new(queues, capacity, regs),
            steering: Steering::new(queues),
        }
    }

    /// Steers and places one instruction.
    pub(crate) fn try_dispatch(&mut self, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let q = self.steering.choose(&self.fifo, d)?;
        self.fifo.push(q, d);
        self.steering.placed(q, d);
        Ok(q)
    }

    /// Wrong-path squash of the queues. The steering table is wiped
    /// (recovery clears Qrename, as on any mispredict); each queue's tail
    /// is whatever entry survives.
    pub(crate) fn squash(&mut self, from: InstId) {
        self.fifo.squash(from);
        self.steering.clear();
    }
}

/// The `IssueFIFO` scheme: A×B integer FIFOs and C×D FP FIFOs, no wakeup
/// logic — FIFO heads check a 1-bit/register scoreboard every cycle.
///
/// With `distributed_fus`, functional units are attached per queue
/// (`IF_distr`).
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let sched = SchedulerConfig::issue_fifo(8, 8, 16, 16).build(&ProcessorConfig::hpca2004());
/// assert_eq!(sched.name(), "IssueFIFO_8x8_16x16");
/// ```
#[derive(Debug)]
pub struct IssueFifo {
    name: String,
    int: FifoArray,
    fp: FifoArray,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
    candidates: Vec<(u64, Side, usize, Entry)>,
    /// One quiescent cycle's adds: a head poll per FIFO, one rejected
    /// dispatch.
    idle: IdleCharge,
}

impl IssueFifo {
    /// Builds an IssueFIFO scheduler. Prefer
    /// [`SchedulerConfig`](crate::SchedulerConfig) in application code.
    #[must_use]
    pub fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        let regs = [cfg.phys_int_regs, cfg.phys_fp_regs];
        IssueFifo {
            name,
            int: FifoArray::new(int.0, int.1, regs),
            fp: FifoArray::new(fp.0, fp.1, regs),
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
            // At most one candidate per FIFO head: sized up front so a
            // late record of simultaneously ready heads never reallocates.
            candidates: Vec::with_capacity(int.0 + fp.0),
            idle: IdleCharge::new(&[
                (Component::RegsReady, int.0 + fp.0),
                (Component::Qrename, 1),
            ]),
        }
    }
}

impl Scheduler for IssueFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let em = self.energy_model[side.index()];
        // The steering table is consulted for both operands regardless of
        // the outcome (it is indexed during rename).
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
        .try_dispatch(d)?;
        self.meter.add(Component::Qrename, em.qrename_write);
        self.meter.add(Component::Fifo, em.fifo_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        issue_heads(
            [Some(&mut self.int.fifo), Some(&mut self.fp.fifo)],
            &self.energy_model,
            &mut self.meter,
            &mut self.candidates,
            sink,
            |side, q| match side {
                Side::Int => self.int.steering.emptied(q),
                Side::Fp => self.fp.steering.emptied(q),
            },
        );
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
        self.int.fifo.wake(dst);
        self.fp.fifo.wake(dst);
    }

    fn on_mispredict(&mut self) {
        self.int.steering.clear();
        self.fp.steering.clear();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.fifo.cancel(tag);
        self.fp.fifo.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.fifo.len(), self.fp.fifo.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }

    /// Nothing here reads the cycle number: an idle cycle repeats until
    /// something outside the queues changes. Each repeat polls every head's
    /// operands, then re-presents the stalled instruction, whose steering
    /// table reads are charged even though it is rejected again.
    fn idle_until(&mut self, now: Cycle, limit: Cycle, stalled: Option<&DispatchInst>) -> Cycle {
        self.idle.clear();
        for (fifo, em) in [&self.int.fifo, &self.fp.fifo]
            .into_iter()
            .zip(&self.energy_model)
        {
            self.idle.push_head_polls(fifo.heads(), em);
        }
        if let Some(d) = stalled {
            self.idle.push_steering_reads(d, &self.energy_model);
        }
        self.idle.replay(&mut self.meter, limit - now);
        limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{di, BoundedSink};

    fn arr() -> FifoArray {
        FifoArray::new(4, 2, [512, 512])
    }

    #[test]
    fn dependent_goes_behind_its_producer() {
        let mut a = arr();
        let p = di(1, OpClass::IntAlu, Some(3), [None, None]);
        let q1 = a.try_dispatch(&p).unwrap();
        // consumer reads r3 (produced by inst 1, at the tail of q1)
        let c = di(2, OpClass::IntAlu, Some(4), [Some(3), None]);
        let q2 = a.try_dispatch(&c).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(a.fifo.queues[q1].len(), 2);
    }

    #[test]
    fn independent_instruction_takes_empty_queue() {
        let mut a = arr();
        let q1 = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        let q2 = a
            .try_dispatch(&di(2, OpClass::IntAlu, Some(5), [None, None]))
            .unwrap();
        assert_ne!(q1, q2);
    }

    #[test]
    fn stalls_when_no_empty_queue_for_fresh_chain() {
        let mut a = arr();
        for i in 0..4 {
            a.try_dispatch(&di(i, OpClass::IntAlu, Some(i as u8 + 1), [None, None]))
                .unwrap();
        }
        let e = a
            .try_dispatch(&di(9, OpClass::IntAlu, Some(9), [None, None]))
            .unwrap_err();
        assert_eq!(e, DispatchStall::NoEmptyQueue);
    }

    #[test]
    fn one_source_full_queue_stalls_rather_than_spilling() {
        let mut a = arr(); // capacity 2
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(3), [Some(3), None]))
            .unwrap();
        // Queue holding r3's chain is now full; a single-source consumer of
        // r3 must stall (paper rule 1), not start a new chain.
        let e = a
            .try_dispatch(&di(3, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap_err();
        assert_eq!(e, DispatchStall::QueueFull);
    }

    #[test]
    fn two_source_full_queue_tries_second_operand() {
        let mut a = arr();
        // Chain A fills queue 0.
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(3), [Some(3), None]))
            .unwrap();
        // Chain B sits in queue 1 with space.
        a.try_dispatch(&di(3, OpClass::IntAlu, Some(5), [None, None]))
            .unwrap();
        // Consumer of r3 (full queue) and r5 (queue 1): goes behind r5.
        let q = a
            .try_dispatch(&di(4, OpClass::IntAlu, Some(6), [Some(3), Some(5)]))
            .unwrap();
        assert_eq!(q, 1);
    }

    #[test]
    fn steering_requires_producer_still_at_tail() {
        let mut a = arr();
        let q0 = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        // Producer issues and leaves; queue q0 becomes empty.
        assert!(a.fifo.pop_head(q0));
        a.steering.emptied(q0);
        // Consumer of r3 must now take an empty queue (possibly the same
        // one), via rule 3 — the steering entry is gone.
        assert!(a.steering.table[ArchReg::int(3).flat_index()].is_none());
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap();
    }

    #[test]
    fn appending_clears_previous_tail_mapping() {
        let mut a = arr();
        let q = a
            .try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap();
        // r3's producer is no longer the tail of q (inst 2 is): a new
        // consumer of r3 cannot join the chain mid-queue.
        assert!(a.steering.table[ArchReg::int(3).flat_index()].is_none());
        assert_eq!(a.steering.tail_reg[q], Some(ArchReg::int(4)));
    }

    #[test]
    fn mispredict_clears_steering_but_keeps_contents() {
        let mut a = arr();
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        a.steering.clear();
        assert_eq!(a.fifo.len(), 1);
        assert!(a.steering.table.iter().all(Option::is_none));
    }

    #[test]
    fn wake_reaches_buried_entries() {
        let mut a = arr();
        // Producer then dependent in one queue: the dependent (waiting on
        // p3) sits *behind* the head, and its ready bit must still flip.
        a.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]))
            .unwrap();
        let q = a
            .try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]))
            .unwrap();
        a.fifo.wake(PhysReg::new(diq_isa::RegClass::Int, 3));
        a.fifo.pop_head(q);
        let (_, head) = a.fifo.heads().next().unwrap();
        assert_eq!(head.id, InstId(2));
        assert!(head.all_ready(), "buried entry collected its wakeup");
    }

    #[test]
    fn held_head_blocks_its_queue_until_cancel_then_reissues() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::issue_fifo(4, 4, 4, 4).build(&cfg);
        let tag = PhysReg::new(diq_isa::RegClass::Int, 10);
        // A consumer of the speculating load, and its own dependent queued
        // behind it (same chain — steered to the same FIFO).
        let mut head = di(1, OpClass::IntAlu, Some(3), [Some(10), None]);
        head.srcs_ready = [false, true];
        s.try_dispatch(&head, 0).unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(3), None]), 0)
            .unwrap();
        // Speculative wakeup → the head issues and is held in place.
        s.on_result(tag, 1);
        let mut sink = BoundedSink::all_ready();
        sink.spec = vec![tag];
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy().0, 2, "held head keeps its slot");
        // While held, the queue is blocked: no candidate at all.
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(2, &mut sink);
        assert!(sink.issued.is_empty(), "held head is invisible");
        // Cancel, then the true fill: the head re-wakes and issues for
        // real, unblocking its dependent.
        s.cancel(tag);
        s.on_result(tag, 3);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(3, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        s.on_result(PhysReg::new(diq_isa::RegClass::Int, 3), 4);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(4, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn scheduler_issues_only_ready_heads_in_age_order() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::issue_fifo(4, 4, 4, 4).build(&cfg);
        // Two independent chains, both waiting; make only the second's head
        // ready by broadcasting its operand's tag.
        s.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [Some(10), None]), 0)
            .unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [Some(11), None]), 0)
            .unwrap();
        s.on_result(PhysReg::new(diq_isa::RegClass::Int, 11), 0);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy().0, 1);
    }
}
