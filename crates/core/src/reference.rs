//! Frozen scan-based reference schedulers.
//!
//! These are the pre-event-driven implementations of the four schemes,
//! kept verbatim: every cycle they re-scan full entry vectors (readiness
//! polls through [`IssueSink::is_ready`], CAM wakeup walks every entry).
//! They exist for one purpose — proving the event-driven fast path in
//! `cam`/`fifo`/`latfifo`/`mixbuff` is *observationally identical*: the
//! golden test and the wakeup property test run the same trace through a
//! scan scheduler and an event scheduler and assert the resulting
//! `SimStats` (IPC, cycles, energy meters, occupancy histograms) are
//! bit-for-bit equal.
//!
//! Do not "improve" this module; its value is that it does not change.
//! (Two sanctioned extensions: when the `Scheduler` trait grew a
//! `squash(from)` operation for wrong-path speculation, each scan model
//! gained the straightforward scan-shaped implementation — remove every
//! entry with `id >= from`; and when it grew `cancel(tag)` for load-hit
//! speculation, each gained the scan-shaped cancel — walk every entry,
//! revert `tag`'s speculative readiness, and un-hold entries that issued
//! speculatively. The pre-existing cycle behaviour is untouched.)
//!
//! A third sanctioned extension folded the adaptive-geometry scheme
//! (`IQ_64_64_adapt`) into the scan CAM: each side of `ScanCam` carries an
//! optional `BankController`, the same code the event-driven queue runs. It gates the dispatch capacity,
//! charges bank retention before selection, samples occupancy after issue,
//! and counts squash and cancel feedback. With `None` — every static CAM —
//! the cycle behaviour is untouched.
//!
//! New *schemes* may add their own scan twins here, but existing twins stay
//! frozen.

use crate::adaptive::{AdaptiveConfig, BankController};
use crate::energy::{CamEnergy, FifoEnergy, MixEnergy};
use crate::estimate::IssueTimeEstimator;
use crate::fu::FuTopology;
use crate::select::{selection_key, LatencyCode};
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, SchedulerConfig, Side};
use diq_isa::{ArchReg, Cycle, InstId, LatencyConfig, OpClass, PhysReg, ProcessorConfig, RegClass};
use diq_power::{Component, EnergyMeter, TechParams};
use std::collections::VecDeque;

/// Builds the frozen scan-based implementation of `config` — the same
/// scheme the config's [`build`](SchedulerConfig::build) constructs, minus
/// the event-driven wakeup fast path. The returned scheduler produces
/// bit-identical `SimStats` to the fast one; it is just asymptotically
/// slower per simulated cycle.
#[must_use]
pub fn build_scan(config: &SchedulerConfig, cfg: &ProcessorConfig) -> Box<dyn Scheduler> {
    let name = config.label();
    let topology = config.fu_topology(cfg);
    match config {
        SchedulerConfig::Cam {
            int_entries,
            fp_entries,
            banks,
        } => Box::new(ScanCam::new(
            name,
            *int_entries,
            *fp_entries,
            *banks,
            None,
            topology,
        )),
        SchedulerConfig::AdaptiveCam {
            int_entries,
            fp_entries,
            banks,
            adaptive,
        } => Box::new(ScanCam::new(
            name,
            *int_entries,
            *fp_entries,
            *banks,
            adaptive.enabled.then_some(*adaptive),
            topology,
        )),
        SchedulerConfig::IssueFifo { int, fp, .. } => Box::new(ScanIssueFifo::new(
            name,
            (int.queues, int.entries),
            (fp.queues, fp.entries),
            topology,
            cfg,
        )),
        SchedulerConfig::LatFifo { int, fp, .. } => Box::new(ScanLatFifo::new(
            name,
            (int.queues, int.entries),
            (fp.queues, fp.entries),
            topology,
            cfg,
        )),
        SchedulerConfig::MixBuff {
            int,
            fp,
            chains_per_queue,
            fresh_priority,
            ..
        } => Box::new(ScanMixBuff::new(
            name,
            (int.queues, int.entries),
            (fp.queues, fp.entries),
            chains_per_queue.unwrap_or(fp.entries),
            *fresh_priority,
            topology,
            cfg,
        )),
    }
}

// ---- CAM baseline ----------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct CamEntry {
    id: InstId,
    op: OpClass,
    srcs: [Option<PhysReg>; 2],
    ready: [bool; 2],
    /// Issued on a speculative operand; waiting for the miss cancel.
    held: bool,
}

impl CamEntry {
    fn all_ready(&self) -> bool {
        self.ready[0] && self.ready[1]
    }

    fn listening(&self) -> usize {
        self.ready.iter().filter(|r| !**r).count()
    }
}

#[derive(Clone, Debug)]
struct CamArray {
    entries: Vec<CamEntry>,
    capacity: usize,
    bank_entries: usize,
    ctrl: Option<BankController>,
}

impl CamArray {
    fn new(capacity: usize, banks: usize, adaptive: Option<AdaptiveConfig>) -> Self {
        assert!(capacity > 0 && banks > 0);
        CamArray {
            entries: Vec::with_capacity(capacity),
            capacity,
            bank_entries: capacity.div_ceil(banks),
            ctrl: adaptive.map(|a| BankController::new(a, capacity, banks)),
        }
    }

    fn active_banks(&self) -> usize {
        self.entries.len().div_ceil(self.bank_entries)
    }

    fn wakeup(&mut self, tag: PhysReg) -> (usize, usize) {
        let banks = self.active_banks();
        let mut listening = 0;
        for e in &mut self.entries {
            listening += e.listening();
            for (i, src) in e.srcs.iter().enumerate() {
                if !e.ready[i] && *src == Some(tag) {
                    e.ready[i] = true;
                }
            }
        }
        (banks, listening)
    }

    /// Load-hit-speculation cancel, scan-shaped: revert `tag`'s ready bits
    /// and un-hold the entries that issued speculatively on it.
    fn cancel(&mut self, tag: PhysReg) {
        for e in &mut self.entries {
            let mut touched = false;
            for (i, src) in e.srcs.iter().enumerate() {
                if *src == Some(tag) {
                    touched = true;
                    e.ready[i] = false;
                }
            }
            if touched {
                e.held = false;
            }
        }
        if let Some(ctrl) = &mut self.ctrl {
            ctrl.note_feedback(1);
        }
    }

    fn squash(&mut self, from: InstId) {
        let before = self.entries.len();
        self.entries.retain(|e| e.id < from);
        if let Some(ctrl) = &mut self.ctrl {
            ctrl.note_feedback((before - self.entries.len()) as u64);
        }
    }
}

struct ScanCam {
    name: String,
    int: CamArray,
    fp: CamArray,
    energy_model: CamEnergy,
    meter: EnergyMeter,
    topology: FuTopology,
    tech: TechParams,
}

impl ScanCam {
    fn new(
        name: String,
        int_entries: usize,
        fp_entries: usize,
        banks: usize,
        adaptive: Option<AdaptiveConfig>,
        topology: FuTopology,
    ) -> Self {
        let tech = TechParams::um100();
        ScanCam {
            name,
            int: CamArray::new(int_entries, banks, adaptive),
            fp: CamArray::new(fp_entries, banks, adaptive),
            energy_model: CamEnergy::new(int_entries, banks, &topology, &tech),
            meter: EnergyMeter::new(),
            topology,
            tech,
        }
    }

    fn array(&mut self, side: Side) -> &mut CamArray {
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
    }
}

impl Scheduler for ScanCam {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let array = self.array(side);
        let capacity = array
            .ctrl
            .as_ref()
            .map_or(array.capacity, BankController::effective_capacity);
        if array.entries.len() >= capacity {
            return Err(DispatchStall::Full);
        }
        let mut ready = [true, true];
        for (i, src) in d.srcs.iter().enumerate() {
            if src.is_some() {
                ready[i] = d.srcs_ready[i];
            }
        }
        array.entries.push(CamEntry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            ready,
            held: false,
        });
        self.meter
            .add(Component::Buff, self.energy_model.entry_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        if let (Some(int), Some(fp)) = (&self.int.ctrl, &self.fp.ctrl) {
            self.meter.add(
                Component::BankIdle,
                (int.powered() + fp.powered()) as f64 * self.energy_model.bank_idle,
            );
        }
        let mut candidates: Vec<(u64, Side)> = Vec::new();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            for e in &array.entries {
                if e.all_ready() && !e.held {
                    candidates.push((e.id.0, side));
                }
            }
            if !array.entries.is_empty() {
                let active = array
                    .entries
                    .iter()
                    .filter(|e| e.all_ready() && !e.held)
                    .count();
                self.meter.add(
                    Component::Select,
                    self.energy_model
                        .select
                        .select_energy_pj(&self.tech, active),
                );
            }
        }
        candidates.sort_unstable_by_key(|c| c.0);
        for (age, side) in candidates {
            let id = InstId(age);
            let array = match side {
                Side::Int => &self.int,
                Side::Fp => &self.fp,
            };
            let Some(pos) = array.entries.iter().position(|e| e.id == id) else {
                continue;
            };
            let e = array.entries[pos];
            if sink.try_issue(id, e.op, None) {
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    self.array(side).entries[pos].held = true;
                } else {
                    self.array(side).entries.swap_remove(pos);
                }
                self.meter
                    .add(Component::Buff, self.energy_model.entry_read);
                let (mux, pj) = self.energy_model.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
        for array in [&mut self.int, &mut self.fp] {
            if let Some(ctrl) = &mut array.ctrl {
                ctrl.tick(array.entries.len());
            }
        }
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let mut banks = 0;
        let mut listening = 0;
        match dst.class() {
            RegClass::Int => {
                let (b, l) = self.int.wakeup(dst);
                banks += b;
                listening += l;
            }
            RegClass::Fp => {
                let (b, l) = self.fp.wakeup(dst);
                banks += b;
                listening += l;
                let (b, l) = self.int.wakeup(dst);
                banks += b;
                listening += l;
            }
        }
        self.meter.add(
            Component::Wakeup,
            banks as f64 * self.energy_model.bank_broadcast
                + listening as f64 * self.energy_model.matchline,
        );
    }

    fn on_mispredict(&mut self) {}

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        match tag.class() {
            RegClass::Int => self.int.cancel(tag),
            RegClass::Fp => {
                self.fp.cancel(tag);
                self.int.cancel(tag);
            }
        }
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.entries.len(), self.fp.entries.len())
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
}

// ---- shared FIFO machinery -------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Entry {
    id: InstId,
    op: OpClass,
    srcs: [Option<PhysReg>; 2],
    /// Issued on a speculative operand; waiting for the miss cancel. A
    /// held head is invisible to selection (and polls nothing).
    held: bool,
}

#[derive(Clone, Debug)]
struct FifoArray {
    queues: Vec<VecDeque<Entry>>,
    capacity: usize,
    steer: Vec<Option<(usize, InstId)>>,
    tail_reg: Vec<Option<ArchReg>>,
    tail_id: Vec<Option<InstId>>,
}

impl FifoArray {
    fn new(queues: usize, capacity: usize) -> Self {
        assert!(queues > 0 && capacity > 0);
        FifoArray {
            queues: vec![VecDeque::with_capacity(capacity); queues],
            capacity,
            steer: vec![None; 2 * diq_isa::ARCH_REGS_PER_CLASS],
            tail_reg: vec![None; queues],
            tail_id: vec![None; queues],
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn place(&mut self, q: usize, d: &DispatchInst) {
        if let Some(old) = self.tail_reg[q].take() {
            self.steer[old.flat_index()] = None;
        }
        self.queues[q].push_back(Entry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            held: false,
        });
        self.tail_id[q] = Some(d.id);
        if let Some(dst) = d.dst_arch {
            self.steer[dst.flat_index()] = Some((q, d.id));
            self.tail_reg[q] = Some(dst);
        } else {
            self.tail_reg[q] = None;
        }
    }

    fn steer_queue(&self, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let n_srcs = d.src_arch.iter().flatten().count();
        if let Some(r) = d.src_arch[0] {
            if let Some((q, pid)) = self.steer[r.flat_index()] {
                if self.tail_id[q] == Some(pid) {
                    if self.queues[q].len() < self.capacity {
                        return Ok(q);
                    }
                    if n_srcs == 1 {
                        return Err(DispatchStall::QueueFull);
                    }
                }
            }
        }
        if let Some(r) = d.src_arch[1] {
            if let Some((q, pid)) = self.steer[r.flat_index()] {
                if self.tail_id[q] == Some(pid) {
                    if self.queues[q].len() < self.capacity {
                        return Ok(q);
                    }
                    return Err(DispatchStall::QueueFull);
                }
            }
        }
        self.queues
            .iter()
            .position(VecDeque::is_empty)
            .ok_or(DispatchStall::NoEmptyQueue)
    }

    fn try_dispatch(&mut self, d: &DispatchInst) -> Result<usize, DispatchStall> {
        let q = self.steer_queue(d)?;
        self.place(q, d);
        Ok(q)
    }

    fn heads(&self) -> impl Iterator<Item = (usize, Entry)> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter_map(|(q, fifo)| fifo.front().filter(|e| !e.held).map(|e| (q, *e)))
    }

    fn pop_head(&mut self, q: usize) -> Entry {
        let e = self.queues[q].pop_front().expect("pop from empty FIFO");
        if self.tail_id[q] == Some(e.id) {
            if let Some(r) = self.tail_reg[q].take() {
                self.steer[r.flat_index()] = None;
            }
            self.tail_id[q] = None;
        }
        e
    }

    fn hold_head(&mut self, q: usize) {
        self.queues[q].front_mut().expect("hold on empty FIFO").held = true;
    }

    /// Load-hit-speculation cancel, scan-shaped: un-hold every entry with
    /// an operand on `tag` (readiness is polled through the sink, so there
    /// are no bits to revert here).
    fn cancel(&mut self, tag: PhysReg) {
        for fifo in &mut self.queues {
            for e in fifo.iter_mut() {
                if e.srcs.contains(&Some(tag)) {
                    e.held = false;
                }
            }
        }
    }

    fn clear_steering(&mut self) {
        self.steer.iter_mut().for_each(|s| *s = None);
        self.tail_reg.iter_mut().for_each(|s| *s = None);
    }

    /// Wrong-path squash: drop the doomed suffix of each (age-ordered)
    /// queue, re-anchor the tail identity, wipe the steering table.
    fn squash(&mut self, from: InstId) {
        for q in 0..self.queues.len() {
            while self.queues[q].back().is_some_and(|e| e.id >= from) {
                self.queues[q].pop_back();
            }
            self.tail_id[q] = self.queues[q].back().map(|e| e.id);
        }
        self.clear_steering();
    }
}

// ---- IssueFIFO --------------------------------------------------------

struct ScanIssueFifo {
    name: String,
    int: FifoArray,
    fp: FifoArray,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
}

impl ScanIssueFifo {
    fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        topology: FuTopology,
        _cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        ScanIssueFifo {
            name,
            int: FifoArray::new(int.0, int.1),
            fp: FifoArray::new(fp.0, fp.1),
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
        }
    }

    fn array(&mut self, side: Side) -> &mut FifoArray {
        match side {
            Side::Int => &mut self.int,
            Side::Fp => &mut self.fp,
        }
    }
}

impl Scheduler for ScanIssueFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, _now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let em = self.energy_model[side.index()];
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);
        self.array(side).try_dispatch(d)?;
        self.meter.add(Component::Qrename, em.qrename_write);
        self.meter.add(Component::Fifo, em.fifo_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        let mut candidates: Vec<(u64, Side, usize, Entry)> = Vec::new();
        for (side, array) in [(Side::Int, &self.int), (Side::Fp, &self.fp)] {
            let em = self.energy_model[side.index()];
            for (q, e) in array.heads() {
                let nsrc = e.srcs.iter().flatten().count() as u64;
                self.meter
                    .add_events(Component::RegsReady, nsrc, em.regs_ready_read);
                let ready = e.srcs.iter().flatten().all(|&r| sink.is_ready(r));
                if ready {
                    candidates.push((e.id.0, side, q, e));
                }
            }
        }
        candidates.sort_unstable_by_key(|c| c.0);
        for (_, side, q, e) in candidates {
            if sink.try_issue(e.id, e.op, Some((side, q))) {
                let em = self.energy_model[side.index()];
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    self.array(side).hold_head(q);
                } else {
                    self.array(side).pop_head(q);
                }
                self.meter.add(Component::Fifo, em.fifo_read);
                let (mux, pj) = em.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
    }

    fn on_mispredict(&mut self) {
        self.int.clear_steering();
        self.fp.clear_steering();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.cancel(tag);
        self.fp.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.len(), self.fp.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }
}

// ---- LatFIFO ----------------------------------------------------------

#[derive(Clone, Debug)]
struct LatQueues {
    queues: Vec<VecDeque<Entry>>,
    /// Per-entry issue estimates, parallel to `queues` (squash support:
    /// the surviving tail's estimate re-anchors `tail_est`).
    ests: Vec<VecDeque<Cycle>>,
    capacity: usize,
    tail_est: Vec<Option<Cycle>>,
}

impl LatQueues {
    fn new(queues: usize, capacity: usize) -> Self {
        assert!(queues > 0 && capacity > 0);
        LatQueues {
            queues: vec![VecDeque::with_capacity(capacity); queues],
            ests: vec![VecDeque::with_capacity(capacity); queues],
            capacity,
            tail_est: vec![None; queues],
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn try_dispatch(&mut self, d: &DispatchInst, est: Cycle) -> Result<usize, DispatchStall> {
        let q = self
            .queues
            .iter()
            .enumerate()
            .filter(|(i, q)| q.len() < self.capacity && self.tail_est[*i].is_some_and(|t| t < est))
            .max_by_key(|(i, _)| self.tail_est[*i])
            .map(|(i, _)| i)
            .or_else(|| self.queues.iter().position(VecDeque::is_empty));
        let q = q.ok_or(DispatchStall::NoEmptyQueue)?;
        self.queues[q].push_back(Entry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            held: false,
        });
        self.ests[q].push_back(est);
        self.tail_est[q] = Some(est);
        Ok(q)
    }

    fn pop_head(&mut self, q: usize) -> Entry {
        let e = self.queues[q].pop_front().expect("pop from empty queue");
        self.ests[q].pop_front();
        if self.queues[q].is_empty() {
            self.tail_est[q] = None;
        }
        e
    }

    fn squash(&mut self, from: InstId) {
        for q in 0..self.queues.len() {
            while self.queues[q].back().is_some_and(|e| e.id >= from) {
                self.queues[q].pop_back();
                self.ests[q].pop_back();
            }
            self.tail_est[q] = self.ests[q].back().copied();
        }
    }

    fn heads(&self) -> impl Iterator<Item = (usize, Entry)> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter_map(|(q, fifo)| fifo.front().filter(|e| !e.held).map(|e| (q, *e)))
    }

    fn hold_head(&mut self, q: usize) {
        self.queues[q]
            .front_mut()
            .expect("hold on empty queue")
            .held = true;
    }

    fn cancel(&mut self, tag: PhysReg) {
        for fifo in &mut self.queues {
            for e in fifo.iter_mut() {
                if e.srcs.contains(&Some(tag)) {
                    e.held = false;
                }
            }
        }
    }
}

struct ScanLatFifo {
    name: String,
    int: FifoArray,
    fp: LatQueues,
    estimator: IssueTimeEstimator,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
}

impl ScanLatFifo {
    fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        ScanLatFifo {
            name,
            int: FifoArray::new(int.0, int.1),
            fp: LatQueues::new(fp.0, fp.1),
            estimator: IssueTimeEstimator::new(cfg.lat, cfg.mem.dl1.latency),
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
        }
    }

    fn peek_estimate(&self, d: &DispatchInst, now: Cycle) -> Cycle {
        let mut issue = now + 1;
        for src in d.src_arch.into_iter().flatten() {
            issue = issue.max(self.estimator.operand_cycle(src));
        }
        issue
    }
}

impl Scheduler for ScanLatFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let em = self.energy_model[side.index()];
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);
        match side {
            Side::Int => {
                self.int.try_dispatch(d)?;
            }
            Side::Fp => {
                let est = self.peek_estimate(d, now);
                self.fp.try_dispatch(d, est)?;
            }
        }
        let _ = self
            .estimator
            .estimate_parts(d.op, d.src_arch, d.dst_arch, now);
        self.meter.add(Component::Qrename, em.qrename_write);
        self.meter.add(Component::Fifo, em.fifo_write);
        Ok(())
    }

    fn issue_cycle(&mut self, _now: Cycle, sink: &mut dyn IssueSink) {
        let mut candidates: Vec<(u64, Side, usize, Entry)> = Vec::new();
        {
            let em = self.energy_model[Side::Int.index()];
            for (q, e) in self.int.heads() {
                let nsrc = e.srcs.iter().flatten().count() as u64;
                self.meter
                    .add_events(Component::RegsReady, nsrc, em.regs_ready_read);
                if e.srcs.iter().flatten().all(|&r| sink.is_ready(r)) {
                    candidates.push((e.id.0, Side::Int, q, e));
                }
            }
        }
        {
            let em = self.energy_model[Side::Fp.index()];
            for (q, e) in self.fp.heads() {
                let nsrc = e.srcs.iter().flatten().count() as u64;
                self.meter
                    .add_events(Component::RegsReady, nsrc, em.regs_ready_read);
                if e.srcs.iter().flatten().all(|&r| sink.is_ready(r)) {
                    candidates.push((e.id.0, Side::Fp, q, e));
                }
            }
        }
        candidates.sort_unstable_by_key(|c| c.0);
        for (_, side, q, e) in candidates {
            if sink.try_issue(e.id, e.op, Some((side, q))) {
                let spec = e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r));
                match (side, spec) {
                    (Side::Int, false) => {
                        self.int.pop_head(q);
                    }
                    (Side::Int, true) => self.int.hold_head(q),
                    (Side::Fp, false) => {
                        self.fp.pop_head(q);
                    }
                    (Side::Fp, true) => self.fp.hold_head(q),
                }
                let em = self.energy_model[side.index()];
                self.meter.add(Component::Fifo, em.fifo_read);
                let (mux, pj) = em.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
    }

    fn on_mispredict(&mut self) {
        self.int.clear_steering();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.cancel(tag);
        self.fp.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.len(), self.fp.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }
}

// ---- MixBUFF ----------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct BuffEntry {
    id: InstId,
    op: OpClass,
    srcs: [Option<PhysReg>; 2],
    chain: usize,
    /// Issued on a speculative operand; waiting for the miss cancel. A
    /// held entry blocks its chain (it is the chain's oldest member).
    held: bool,
}

#[derive(Clone, Copy, Debug)]
struct ChainState {
    last: Option<InstId>,
    count: usize,
    ready: Cycle,
}

impl ChainState {
    const IDLE: ChainState = ChainState {
        last: None,
        count: 0,
        ready: 0,
    };
}

#[derive(Clone, Debug)]
struct MixQueues {
    queues: Vec<Vec<BuffEntry>>,
    capacity: usize,
    chains_per_queue: usize,
    chains: Vec<Vec<ChainState>>,
    steer: Vec<Option<(usize, usize, InstId)>>,
    fresh_first: bool,
}

impl MixQueues {
    fn new(queues: usize, capacity: usize, chains_per_queue: usize, fresh_first: bool) -> Self {
        assert!(queues > 0 && capacity > 0 && chains_per_queue > 0);
        MixQueues {
            queues: vec![Vec::with_capacity(capacity); queues],
            capacity,
            chains_per_queue,
            chains: vec![vec![ChainState::IDLE; chains_per_queue]; queues],
            steer: vec![None; diq_isa::ARCH_REGS_PER_CLASS],
            fresh_first,
        }
    }

    fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    fn chain_free(&self, q: usize, c: usize, now: Cycle) -> bool {
        let ch = &self.chains[q][c];
        ch.count == 0 && ch.ready <= now
    }

    fn place(&mut self, q: usize, c: usize, d: &DispatchInst) {
        self.queues[q].push(BuffEntry {
            id: d.id,
            op: d.op,
            srcs: d.srcs,
            chain: c,
            held: false,
        });
        let ch = &mut self.chains[q][c];
        ch.last = Some(d.id);
        ch.count += 1;
        if let Some(dst) = d.dst_arch {
            self.steer[dst.index()] = Some((q, c, d.id));
        }
    }

    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<usize, DispatchStall> {
        for src in d.src_arch.into_iter().flatten() {
            if src.class() != RegClass::Fp {
                continue;
            }
            if let Some((q, c, pid)) = self.steer[src.index()] {
                if self.chains[q][c].last == Some(pid) && self.queues[q].len() < self.capacity {
                    self.place(q, c, d);
                    return Ok(q);
                }
            }
        }
        for c in 0..self.chains_per_queue {
            for q in 0..self.queues.len() {
                if self.queues[q].len() < self.capacity && self.chain_free(q, c, now) {
                    for s in self.steer.iter_mut() {
                        if matches!(s, Some((sq, sc, _)) if *sq == q && *sc == c) {
                            *s = None;
                        }
                    }
                    self.chains[q][c] = ChainState::IDLE;
                    self.place(q, c, d);
                    return Ok(q);
                }
            }
        }
        Err(DispatchStall::NoFreeChain)
    }

    fn select(&self, q: usize, now: Cycle) -> Option<(usize, BuffEntry)> {
        // Per chain, only the oldest buffered member can win (all members
        // share the chain's latency code), and a held oldest member blocks
        // its chain — mirroring the event model's front-of-chain rule.
        (0..self.chains_per_queue)
            .filter_map(|c| {
                let (i, e) = self.queues[q]
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.chain == c)
                    .min_by_key(|(_, e)| e.id.0)?;
                if e.held {
                    return None;
                }
                let code = LatencyCode::classify(self.chains[q][c].ready, now);
                code.selectable().then(|| {
                    let key = if self.fresh_first {
                        selection_key(code, e.id.0)
                    } else {
                        e.id.0
                    };
                    (key, i, *e)
                })
            })
            .min_by_key(|&(key, _, _)| key)
            .map(|(_, i, e)| (i, e))
    }

    fn issue_at(&mut self, q: usize, i: usize, now: Cycle, result_lat: u64) {
        let e = self.queues[q].swap_remove(i);
        let ch = &mut self.chains[q][e.chain];
        ch.count -= 1;
        ch.ready = now + result_lat;
    }

    fn hold_at(&mut self, q: usize, i: usize) {
        self.queues[q][i].held = true;
    }

    fn cancel(&mut self, tag: PhysReg) {
        for queue in &mut self.queues {
            for e in queue.iter_mut() {
                if e.srcs.contains(&Some(tag)) {
                    e.held = false;
                }
            }
        }
    }

    /// Wrong-path squash: drop doomed entries and re-anchor each touched
    /// chain's `last` on its newest surviving buffered member (matching the
    /// event-driven model's age-ordered chain suffix removal). Chain
    /// latency state (`ready`) survives, as in hardware.
    fn squash(&mut self, from: InstId) {
        for q in 0..self.queues.len() {
            let mut touched = vec![false; self.chains_per_queue];
            let entries = std::mem::take(&mut self.queues[q]);
            let mut kept = Vec::with_capacity(entries.len());
            for e in entries {
                if e.id >= from {
                    touched[e.chain] = true;
                    self.chains[q][e.chain].count -= 1;
                } else {
                    kept.push(e);
                }
            }
            self.queues[q] = kept;
            for (c, t) in touched.into_iter().enumerate() {
                if t {
                    self.chains[q][c].last = self.queues[q]
                        .iter()
                        .filter(|e| e.chain == c)
                        .map(|e| e.id)
                        .max();
                }
            }
        }
        self.clear_steering();
    }

    fn clear_steering(&mut self) {
        self.steer.iter_mut().for_each(|s| *s = None);
    }
}

struct ScanMixBuff {
    name: String,
    int: FifoArray,
    fp: MixQueues,
    lat: LatencyConfig,
    dl1_hit: u64,
    energy_model: [FifoEnergy; 2],
    mix_energy: MixEnergy,
    meter: EnergyMeter,
    topology: FuTopology,
}

impl ScanMixBuff {
    fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        chains_per_queue: usize,
        fresh_first: bool,
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        ScanMixBuff {
            name,
            int: FifoArray::new(int.0, int.1),
            fp: MixQueues::new(fp.0, fp.1, chains_per_queue, fresh_first),
            lat: cfg.lat,
            dl1_hit: cfg.mem.dl1.latency,
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            mix_energy: MixEnergy::new(fp.1, chains_per_queue, &tech),
            meter: EnergyMeter::new(),
            topology,
        }
    }

    fn result_latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::Load => self.lat.address + self.dl1_hit,
            op => self.lat.for_op(op),
        }
    }
}

impl Scheduler for ScanMixBuff {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        let side = d.side();
        let em = self.energy_model[side.index()];
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);
        match side {
            Side::Int => {
                self.int.try_dispatch(d)?;
                self.meter.add(Component::Fifo, em.fifo_write);
            }
            Side::Fp => {
                self.fp.try_dispatch(d, now)?;
                self.meter.add(Component::Buff, self.mix_energy.buff_write);
            }
        }
        self.meter.add(Component::Qrename, em.qrename_write);
        Ok(())
    }

    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink) {
        let mut candidates: Vec<(u64, usize, Entry)> = Vec::new();
        {
            let em = self.energy_model[Side::Int.index()];
            for (q, e) in self.int.heads() {
                let nsrc = e.srcs.iter().flatten().count() as u64;
                self.meter
                    .add_events(Component::RegsReady, nsrc, em.regs_ready_read);
                if e.srcs.iter().flatten().all(|&r| sink.is_ready(r)) {
                    candidates.push((e.id.0, q, e));
                }
            }
        }
        candidates.sort_unstable_by_key(|c| c.0);
        for (_, q, e) in candidates {
            if sink.try_issue(e.id, e.op, Some((Side::Int, q))) {
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    self.int.hold_head(q);
                } else {
                    self.int.pop_head(q);
                }
                let em = self.energy_model[Side::Int.index()];
                self.meter.add(Component::Fifo, em.fifo_read);
                let (mux, pj) = em.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }

        let em_fp = self.energy_model[Side::Fp.index()];
        let mut winners: Vec<(u64, usize, usize, BuffEntry)> = Vec::new();
        for q in 0..self.fp.queues.len() {
            let occupancy = self.fp.queues[q].len();
            if occupancy == 0 {
                continue;
            }
            self.meter
                .add(Component::Chains, self.mix_energy.chains_cycle);
            self.meter.add(
                Component::Select,
                self.mix_energy
                    .select
                    .select_energy_pj(&TechParams::um100(), occupancy),
            );
            if let Some((i, e)) = self.fp.select(q, now) {
                winners.push((e.id.0, q, i, e));
            }
        }
        winners.sort_unstable_by_key(|w| w.0);
        for (_, q, i, e) in winners {
            let nsrc = e.srcs.iter().flatten().count() as u64;
            self.meter
                .add_events(Component::RegsReady, nsrc, em_fp.regs_ready_read);
            if !e.srcs.iter().flatten().all(|&r| sink.is_ready(r)) {
                continue;
            }
            if sink.try_issue(e.id, e.op, Some((Side::Fp, q))) {
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    self.fp.hold_at(q, i);
                } else {
                    let lat = self.result_latency(e.op);
                    self.fp.issue_at(q, i, now, lat);
                }
                self.meter.add(Component::Buff, self.mix_energy.buff_read);
                self.meter.add(Component::Reg, self.mix_energy.reg_write);
                let (mux, pj) = em_fp.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
    }

    fn on_mispredict(&mut self) {
        self.int.clear_steering();
        self.fp.clear_steering();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.cancel(tag);
        self.fp.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.len(), self.fp.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }
}
