//! The conventional CAM/RAM issue queue (the paper's baseline, `IQ_64_64`).
//!
//! Any entry whose operands are both ready may issue; selection picks the
//! oldest ready instructions up to the issue width. Readiness is maintained
//! by the classic wakeup: every produced result's tag is broadcast across
//! the queue's CAM cells. Two power optimizations from the literature are
//! applied, as the paper's evaluation assumes: comparators of *ready*
//! operands are disabled (Folegnani–González), and the queue is banked
//! (8 banks × 8 entries for `IQ_64_64`) so only occupied banks see the
//! broadcast; selection logic consumes nothing while the queue is empty.
//!
//! The *simulation* of that broadcast is event-driven: each array's entries
//! live in a bitset-backed [`EntryStore`], whose per-tag consumer lists
//! ([`WakeupMap`](crate::wakeup)) let a result touch only the entries
//! listening for it, and selection walks the `live & ready0 & ready1 &
//! !held` word mask instead of rescanning the queue. The *energy* charged per
//! broadcast is still the physical banked-CAM cost — occupied banks ×
//! tag-line drive plus enabled comparators × match-line — where the
//! comparator count is a popcount over the same bitsets ([`WakeupEvent`]
//! carries it), bit-identical to the frozen scan model in
//! [`reference`](crate::reference).
//!
//! The same queue is the adaptive-geometry scheme (`IQ_64_64_adapt`): each
//! side may carry a [`BankController`] that power-gates banks at runtime
//! (see [`adaptive`](crate::adaptive)). The controller limits the dispatch
//! capacity, charges retention for powered banks before selection, samples
//! occupancy at the end of every cycle, and counts squash and cancel
//! feedback. Without one, none of that code runs.

use crate::adaptive::{AdaptiveConfig, BankController};
use crate::energy::{CamEnergy, IdleCharge};
use crate::fifo::Entry;
use crate::fu::FuTopology;
use crate::soa::EntryStore;
use crate::wakeup::WakeupEvent;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{Cycle, InstId, PhysReg, ProcessorConfig, RegClass};
use diq_power::{Component, EnergyMeter, TechParams};

/// One banked CAM/RAM queue (integer or FP side).
#[derive(Clone, Debug)]
struct CamArray {
    store: EntryStore,
    capacity: usize,
    bank_entries: usize,
    /// Bank power-gating controller; `None` for the static geometry.
    ctrl: Option<BankController>,
}

impl CamArray {
    fn new(
        capacity: usize,
        banks: usize,
        regs: [usize; 2],
        adaptive: Option<AdaptiveConfig>,
    ) -> Self {
        assert!(capacity > 0 && banks > 0);
        CamArray {
            store: EntryStore::new(capacity, regs),
            capacity,
            bank_entries: capacity.div_ceil(banks),
            ctrl: adaptive.map(|a| BankController::new(a, capacity, banks)),
        }
    }

    /// Entries dispatch may use: the powered capacity under a controller.
    fn effective_capacity(&self) -> usize {
        self.ctrl
            .as_ref()
            .map_or(self.capacity, BankController::effective_capacity)
    }

    fn active_banks(&self) -> usize {
        self.store.len().div_ceil(self.bank_entries)
    }

    /// Miss cancel for `tag` (see [`EntryStore::cancel`]), counted as
    /// one feedback event by the bank controller.
    fn cancel(&mut self, tag: PhysReg) {
        self.store.cancel(tag);
        if let Some(ctrl) = &mut self.ctrl {
            ctrl.note_feedback(1);
        }
    }

    /// Removes every entry with `id >= from` (wrong-path squash); the bank
    /// controller counts each as a feedback event.
    fn squash(&mut self, from: InstId) {
        let doomed = self.store.remove_from(from);
        if let Some(ctrl) = &mut self.ctrl {
            ctrl.note_feedback(doomed as u64);
        }
    }

    /// Delivers `tag` to every listening comparator and reports the
    /// physical broadcast this models: the tag lines are driven across all
    /// occupied banks and every enabled comparator evaluates, whether or
    /// not it matches.
    fn wakeup(&mut self, tag: PhysReg) -> WakeupEvent {
        let event = WakeupEvent {
            banks: self.active_banks(),
            comparators: self.store.unready_operand_count(),
        };
        self.store.wake(tag);
        event
    }
}

/// Select-candidate key layout: `age << AGE_SHIFT | side | slot`. Sorting
/// the keys sorts by age (oldest first); ids stay far below 2^43 and one
/// side holds far fewer than 2^20 entries.
const AGE_SHIFT: u32 = 21;
const FP_BIT: u64 = 1 << 20;
const SLOT_MASK: u64 = FP_BIT - 1;

fn select_key(age: InstId, side: Side, slot: u32) -> u64 {
    debug_assert!(age.0 < 1 << (64 - AGE_SHIFT) && u64::from(slot) <= SLOT_MASK);
    (age.0 << AGE_SHIFT) | (side.index() as u64 * FP_BIT) | u64::from(slot)
}

/// The conventional out-of-order issue queue, optionally with adaptive
/// bank power-gating.
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let s = SchedulerConfig::iq_64_64().build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "IQ_64_64");
/// let s = SchedulerConfig::adaptive_iq_64_64().build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "IQ_64_64_adapt");
/// ```
#[derive(Debug)]
pub struct CamIssueQueue {
    name: String,
    int: CamArray,
    fp: CamArray,
    energy_model: CamEnergy,
    meter: EnergyMeter,
    topology: FuTopology,
    tech: TechParams,
    /// Per-cycle selection scratch, reused across cycles.
    candidates: Vec<u64>,
    /// One quiescent cycle's adds: a select charge per non-empty side.
    idle: IdleCharge,
}

impl CamIssueQueue {
    /// Builds a CAM issue queue with `int_entries`/`fp_entries` entries in
    /// `banks` banks each, whose sides each run a bank power-gating
    /// controller with the `adaptive` knobs if given (its `enabled` switch
    /// is not consulted). Prefer [`SchedulerConfig`](crate::SchedulerConfig)
    /// in application code.
    #[must_use]
    pub fn new(
        name: String,
        int_entries: usize,
        fp_entries: usize,
        banks: usize,
        adaptive: Option<AdaptiveConfig>,
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        let regs = [
            cfg.phys_regs(diq_isa::RegClass::Int),
            cfg.phys_regs(diq_isa::RegClass::Fp),
        ];
        CamIssueQueue {
            name,
            int: CamArray::new(int_entries, banks, regs, adaptive),
            fp: CamArray::new(fp_entries, banks, regs, adaptive),
            energy_model: CamEnergy::new(int_entries, banks, &topology, &tech),
            meter: EnergyMeter::new(),
            topology,
            tech,
            // Every entry may be a candidate at once.
            candidates: Vec::with_capacity(int_entries + fp_entries),
            idle: IdleCharge::new(&[(Component::BankIdle, 1), (Component::Select, 2)]),
        }
    }

    fn array(&mut self, side: Side) -> &mut CamArray {
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
    }
}

impl Scheduler for CamIssueQueue {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let array = self.array(side);
        if array.store.len() >= array.effective_capacity() {
            return Err(DispatchStall::Full);
        }
        array.store.insert(&Entry::new(d));
        self.meter
            .add(Component::Buff, self.energy_model.entry_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        // Oldest-first among all ready entries of both sides; the sink
        // enforces per-side width and functional-unit limits. The bitset
        // mask means selection work is proportional to the occupied words,
        // not the queue size.
        if let (Some(int), Some(fp)) = (&self.int.ctrl, &self.fp.ctrl) {
            // Retention of what is powered this cycle, before any selection
            // work — one meter event, mirrored exactly by the scan twin.
            self.meter.add(
                Component::BankIdle,
                (int.powered() + fp.powered()) as f64 * self.energy_model.bank_idle,
            );
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            let before = candidates.len();
            array.store.for_each_selectable(|slot| {
                candidates.push(select_key(array.store.id(slot), side, slot));
            });
            // Selection logic consumes energy whenever the queue has
            // anything to arbitrate. The candidate count just gathered IS
            // the selectable count — one bitset pass serves both.
            if array.store.len() > 0 {
                self.meter.add(
                    Component::Select,
                    self.energy_model
                        .select
                        .select_energy_pj(&self.tech, candidates.len() - before),
                );
            }
        }
        candidates.sort_unstable();
        for &key in &candidates {
            let slot = (key & SLOT_MASK) as u32;
            let array = if key & FP_BIT == 0 {
                &mut self.int
            } else {
                &mut self.fp
            };
            let e = array.store.snapshot(slot);
            if sink.try_issue(InstId(key >> AGE_SHIFT), e.op, None) {
                // Both passes of a speculative issue pay the entry read and
                // the operand muxing; only a confirmed issue frees the slot.
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    array.store.set_held(slot);
                } else {
                    array.store.remove(slot);
                }
                self.meter
                    .add(Component::Buff, self.energy_model.entry_read);
                let (mux, pj) = self.energy_model.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
        self.candidates = candidates;
        // End-of-cycle controller sample: post-issue occupancy per side.
        for array in [&mut self.int, &mut self.fp] {
            if let Some(ctrl) = &mut array.ctrl {
                ctrl.tick(array.store.len());
            }
        }
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        // The tag is broadcast on the networks that can carry its class:
        // integer results wake integer-side entries; FP results wake FP-side
        // entries *and* FP sources waiting on the integer side (FP stores,
        // and loads' FP destinations never appear as sources there, but FP
        // store data does).
        let mut banks = 0;
        let mut listening = 0;
        match dst.class() {
            RegClass::Int => {
                let ev = self.int.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
            }
            RegClass::Fp => {
                let ev = self.fp.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
                let ev = self.int.wakeup(dst);
                banks += ev.banks;
                listening += ev.comparators;
            }
        }
        self.meter.add(
            Component::Wakeup,
            banks as f64 * self.energy_model.bank_broadcast
                + listening as f64 * self.energy_model.matchline,
        );
    }

    fn on_mispredict(&mut self) {
        // The baseline has no steering tables.
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        // Mirror the broadcast routing of `on_result`: the cancel reaches
        // every array the speculative wakeup reached.
        match tag.class() {
            RegClass::Int => self.int.cancel(tag),
            RegClass::Fp => {
                self.fp.cancel(tag);
                self.int.cancel(tag);
            }
        }
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.store.len(), self.fp.store.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }

    fn adaptive_stats(&self) -> (u64, u64) {
        let (ri, gi) = self.int.ctrl.as_ref().map_or((0, 0), BankController::stats);
        let (rf, gf) = self.fp.ctrl.as_ref().map_or((0, 0), BankController::stats);
        (ri + rf, gi + gf)
    }

    /// Nothing in the CAM reads the cycle number, and a rejected dispatch
    /// charges nothing: an idle cycle repeats until something outside the
    /// queue changes. Each repeat pays the powered banks' retention (with
    /// bank controllers), then the selection pass — int side, then FP
    /// side — over the same candidates that could not issue.
    ///
    /// A bank controller samples occupancy every cycle, and at an epoch
    /// boundary may resize, which changes the retention charge and the
    /// dispatch capacity. So with controllers the skip stops short of the
    /// first cycle whose sample ends an epoch; that cycle runs normally.
    fn idle_until(&mut self, now: Cycle, limit: Cycle, _stalled: Option<&DispatchInst>) -> Cycle {
        let ticks = [&self.int, &self.fp]
            .iter()
            .filter_map(|array| array.ctrl.as_ref())
            .map(BankController::ticks_before_boundary)
            .min()
            .unwrap_or(u64::MAX);
        let wake = limit.min(now.saturating_add(ticks));
        if wake == now {
            return now;
        }
        self.idle.clear();
        if let (Some(int), Some(fp)) = (&self.int.ctrl, &self.fp.ctrl) {
            self.idle.push(
                Component::BankIdle,
                (int.powered() + fp.powered()) as f64 * self.energy_model.bank_idle,
            );
        }
        for array in [&self.int, &self.fp] {
            if array.store.len() > 0 {
                self.idle.push(
                    Component::Select,
                    self.energy_model
                        .select
                        .select_energy_pj(&self.tech, array.store.selectable_count()),
                );
            }
        }
        self.idle.replay(&mut self.meter, wake - now);
        for array in [&mut self.int, &mut self.fp] {
            if let Some(ctrl) = &mut array.ctrl {
                ctrl.tick_idle(array.store.len(), wake - now);
            }
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{di, fp_di, BoundedSink};
    use diq_isa::OpClass;

    fn queue() -> Box<dyn Scheduler> {
        crate::SchedulerConfig::iq_64_64().build(&ProcessorConfig::hpca2004())
    }

    #[test]
    fn issues_out_of_order_when_older_blocked() {
        let mut s = queue();
        // Older instruction waits on p40; younger is ready at dispatch.
        let mut older = di(1, OpClass::IntAlu, Some(3), [Some(40), None]);
        older.srcs_ready = [false, true];
        let mut younger = di(2, OpClass::IntAlu, Some(4), [Some(41), None]);
        younger.srcs_ready = [true, true];
        s.try_dispatch(&older, 0).unwrap();
        s.try_dispatch(&younger, 0).unwrap();
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)], "CAM issues around the block");
    }

    #[test]
    fn wakeup_enables_blocked_instruction() {
        let mut s = queue();
        let mut older = di(1, OpClass::IntAlu, Some(3), [Some(40), None]);
        older.srcs_ready = [false, true];
        s.try_dispatch(&older, 0).unwrap();
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert!(sink.issued.is_empty());
        // Result tag p40 arrives…
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 1);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
    }

    #[test]
    fn dispatch_stalls_when_full() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::cam(2, 2, 1).build(&cfg);
        s.try_dispatch(&di(1, OpClass::IntAlu, Some(1), [None, None]), 0)
            .unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(2), [None, None]), 0)
            .unwrap();
        let e = s
            .try_dispatch(&di(3, OpClass::IntAlu, Some(3), [None, None]), 0)
            .unwrap_err();
        assert_eq!(e, DispatchStall::Full);
    }

    #[test]
    fn fp_results_wake_fp_store_data_on_int_side() {
        let mut s = queue();
        // An FP store: integer-side entry with an FP data source.
        let mut store = di(1, OpClass::Store, None, [Some(2), None]);
        store.srcs[1] = Some(diq_isa::PhysReg::new(RegClass::Fp, 50));
        store.srcs_ready = [true, false];
        s.try_dispatch(&store, 0).unwrap();
        s.on_result(diq_isa::PhysReg::new(RegClass::Fp, 50), 1);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
    }

    #[test]
    fn wakeup_energy_counts_only_unready_comparators() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::cam(64, 64, 8).build(&cfg);
        // One entry with both operands ready: zero comparators listen.
        let mut inst = di(1, OpClass::IntAlu, Some(3), [Some(4), Some(5)]);
        inst.srcs_ready = [true, true];
        s.try_dispatch(&inst, 0).unwrap();
        let before = s.energy().get(Component::Wakeup);
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 9), 1);
        let after = s.energy().get(Component::Wakeup);
        // Only the tag-line broadcast across one active bank is charged.
        let fp_only = after - before;
        assert!(fp_only > 0.0);

        // Now an entry with two unready operands listens with two
        // comparators: strictly more energy per broadcast.
        let mut blocked = di(2, OpClass::IntAlu, Some(6), [Some(40), Some(41)]);
        blocked.srcs_ready = [false, false];
        s.try_dispatch(&blocked, 1).unwrap();
        let before = s.energy().get(Component::Wakeup);
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 9), 2);
        let after = s.energy().get(Component::Wakeup);
        assert!(after - before > fp_only);
    }

    #[test]
    fn select_energy_zero_when_empty() {
        let mut s = queue();
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(s.energy().get(Component::Select), 0.0);
        s.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert!(s.energy().get(Component::Select) > 0.0);
    }

    #[test]
    fn both_operands_waiting_on_one_tag_wake_together() {
        let mut s = queue();
        let mut inst = di(1, OpClass::IntAlu, Some(3), [Some(40), Some(40)]);
        inst.srcs_ready = [false, false];
        s.try_dispatch(&inst, 0).unwrap();
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 1);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
    }

    #[test]
    fn speculative_issue_holds_then_cancel_rewakes_and_reissues() {
        let mut s = queue();
        let tag = diq_isa::PhysReg::new(RegClass::Int, 40);
        let mut consumer = di(1, OpClass::IntAlu, Some(3), [Some(40), None]);
        consumer.srcs_ready = [false, true];
        s.try_dispatch(&consumer, 0).unwrap();
        // Speculative wakeup: the tag broadcasts, the consumer issues —
        // but the operand is flagged speculative, so the entry is held.
        s.on_result(tag, 1);
        let mut sink = BoundedSink::all_ready();
        sink.spec = vec![tag];
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy(), (1, 0), "held entry keeps its slot");
        // Miss cancel: the entry reverts to waiting; nothing selectable.
        s.cancel(tag);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(2, &mut sink);
        assert!(sink.issued.is_empty(), "cancelled consumer must re-listen");
        // True fill: the re-listening consumer wakes and issues for real.
        s.on_result(tag, 3);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(3, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy(), (0, 0), "confirmed issue frees the slot");
    }

    #[test]
    fn cancel_reverts_queued_consumers_that_never_issued() {
        // An entry whose operand looked ready at dispatch (spec window open
        // during rename) but which never issued must also revert on cancel.
        let mut s = queue();
        let tag = diq_isa::PhysReg::new(RegClass::Int, 41);
        let mut inst = di(1, OpClass::IntAlu, Some(3), [Some(41), None]);
        inst.srcs_ready = [true, true]; // dispatch saw spec readiness
        s.try_dispatch(&inst, 0).unwrap();
        s.cancel(tag);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert!(sink.issued.is_empty(), "spec-ready-at-dispatch reverted");
        s.on_result(tag, 2);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(2, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)], "real broadcast re-wakes");
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn failed_issue_keeps_entry_ready_for_next_cycle() {
        let mut s = queue();
        s.try_dispatch(&di(1, OpClass::IntAlu, Some(3), [None, None]), 0)
            .unwrap();
        s.try_dispatch(&di(2, OpClass::IntAlu, Some(4), [None, None]), 0)
            .unwrap();
        // Width 1: only the oldest issues; the other stays a candidate.
        let mut sink = BoundedSink::with_width(1);
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    // ---- adaptive geometry (a side with a bank controller) -----------

    /// An 8+8-entry, 4-bank queue routed the way `SchedulerConfig` routes
    /// an adaptive config: a disabled controller is no controller.
    fn tiny(adaptive: AdaptiveConfig) -> CamIssueQueue {
        let cfg = ProcessorConfig::hpca2004();
        CamIssueQueue::new(
            "test".into(),
            8,
            8,
            4,
            adaptive.enabled.then_some(adaptive),
            FuTopology::Shared { pool: cfg.fus },
            &cfg,
        )
    }

    /// Powered banks of a side; every bank is powered without a controller.
    fn powered(array: &CamArray) -> usize {
        array.ctrl.as_ref().map_or(
            array.capacity.div_ceil(array.bank_entries),
            BankController::powered,
        )
    }

    fn idle_cycles(s: &mut CamIssueQueue, n: u64) {
        for c in 0..n {
            let mut sink = BoundedSink::all_ready();
            s.issue_cycle(c, &mut sink);
        }
    }

    #[test]
    fn controller_gates_banks_on_an_empty_queue() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 8,
            hysteresis_epochs: 1,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        // 3 epochs of emptiness: each may shrink one bank, down to the
        // floor of 1 powered bank per side.
        idle_cycles(&mut s, 8 * 3);
        assert_eq!(powered(&s.int), 1);
        assert_eq!(s.int.effective_capacity(), 2);
        let (resizes, gated) = s.adaptive_stats();
        assert!(resizes >= 6, "both sides shrink: got {resizes}");
        assert!(gated > 0, "gated bank-cycles accumulate");
        assert!(
            s.energy().get(Component::BankIdle) > 0.0,
            "powered banks pay retention"
        );
    }

    #[test]
    fn gated_capacity_stalls_dispatch_and_pressure_grows_it_back() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 4,
            hysteresis_epochs: 1,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        idle_cycles(&mut s, 4 * 3); // shrink to 1 bank = 2 entries
        assert_eq!(s.int.effective_capacity(), 2);
        // Fill to the gated capacity with unready entries: the third
        // dispatch stalls even though physical capacity is 8.
        for id in 1..=2 {
            let mut d = di(id, OpClass::IntAlu, Some(id as u8), [Some(40), None]);
            d.srcs_ready = [false, true];
            s.try_dispatch(&d, 0).unwrap();
        }
        let mut d = di(3, OpClass::IntAlu, Some(3), [Some(40), None]);
        d.srcs_ready = [false, true];
        assert_eq!(s.try_dispatch(&d, 0).unwrap_err(), DispatchStall::Full);
        // Full-at-2-entries occupancy is 100% of powered capacity: the
        // controller must grow a bank back within an epoch or two.
        idle_cycles(&mut s, 4 * 2);
        assert!(powered(&s.int) >= 2, "pressure regrows banks");
        assert!(s.int.effective_capacity() >= 4);
        // The waiters listed while gated are intact: the wakeup still
        // reaches both entries and they issue.
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 99);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(99, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1), InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn shrink_defers_until_occupancy_fits() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 4,
            hysteresis_epochs: 1,
            // Shrink whenever below 60% so a half-full queue still votes
            // to shrink — but the resize must wait for occupancy to fit.
            shrink_occupancy_pct: 60,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let mut s = tiny(cfg);
        // 3 held-style unready entries occupy 3 of 8 entries (38% < 60%).
        for id in 1..=3 {
            let mut d = di(id, OpClass::IntAlu, Some(id as u8), [Some(40), None]);
            d.srcs_ready = [false, true];
            s.try_dispatch(&d, 0).unwrap();
        }
        idle_cycles(&mut s, 4 * 4);
        // 3 entries need ceil(3/2)=2 banks; the controller may shrink to 2
        // but never below — the occupancy-fit guard holds.
        assert!(
            s.int.effective_capacity() >= 3,
            "occupancy never exceeds powered capacity: cap {} for 3 live entries",
            s.int.effective_capacity()
        );
        assert_eq!(s.occupancy().0, 3, "no entry was displaced by shrinks");
        // All three still wake and drain.
        s.on_result(diq_isa::PhysReg::new(RegClass::Int, 40), 99);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(99, &mut sink);
        assert_eq!(sink.issued.len(), 3);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn disabled_controller_never_gates_or_charges_retention() {
        let mut s = tiny(AdaptiveConfig::disabled());
        idle_cycles(&mut s, 64);
        assert_eq!(powered(&s.int), 4);
        assert_eq!(s.int.effective_capacity(), 8);
        assert_eq!(s.adaptive_stats(), (0, 0));
        assert_eq!(s.energy().get(Component::BankIdle), 0.0);
    }

    #[test]
    fn idle_until_charges_controllers_up_to_the_epoch_boundary() {
        let cfg = AdaptiveConfig {
            epoch_cycles: 8,
            hysteresis_epochs: 1,
            min_banks: 1,
            ..AdaptiveConfig::default()
        };
        let [mut skipped, mut stepped] = [tiny(cfg), tiny(cfg)];
        for s in [&mut skipped, &mut stepped] {
            let mut d = di(1, OpClass::IntAlu, Some(1), [Some(40), None]);
            d.srcs_ready = [false, true];
            s.try_dispatch(&d, 0).unwrap();
            idle_cycles(s, 3);
        }
        // Three ticks into an 8-cycle epoch: cycles 3..7 repeat the idle
        // cycle, and cycle 7's sample ends the epoch, so it must run.
        assert_eq!(skipped.idle_until(3, 100, None), 7);
        for c in 3..7 {
            stepped.issue_cycle(c, &mut BoundedSink::all_ready());
        }
        let state = |s: &CamIssueQueue| format!("{:?} {:?}", s.int.ctrl, s.fp.ctrl);
        assert_eq!(state(&skipped), state(&stepped));
        for (c, pj) in stepped.energy().breakdown() {
            assert_eq!(skipped.energy().get(c).to_bits(), pj.to_bits(), "{c}");
        }
        // On the boundary itself nothing can be skipped.
        assert_eq!(skipped.idle_until(7, 100, None), 7);
        for s in [&mut skipped, &mut stepped] {
            for c in 7..40 {
                s.issue_cycle(c, &mut BoundedSink::all_ready());
            }
        }
        assert_eq!(state(&skipped), state(&stepped));
        assert_eq!(skipped.adaptive_stats(), stepped.adaptive_stats());
    }
}
