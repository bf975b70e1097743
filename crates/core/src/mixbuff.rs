//! The `MixBUFF` scheme — the paper's contribution (Section 3.2).
//!
//! The integer side reuses the `IssueFIFO` dependence-steered FIFOs and
//! their head-selection pass ([`issue_heads`](crate::fifo)). The FP
//! side replaces FIFOs with RAM **buffers** in which instructions sit in any
//! order, organized into **chains**:
//!
//! * a mapping table (`Qrename`) records, per FP architectural register,
//!   the (queue, chain) of its producer — valid only while the producer is
//!   the chain's last instruction;
//! * a dispatched instruction joins its producer's chain when possible;
//!   otherwise it gets the lowest free chain identifier, handed out in an
//!   order that balances busy chains across queues;
//! * each queue keeps a tiny chain latency table (one saturating counter per
//!   chain) tracking when the chain's last issued instruction finishes; it
//!   is read and written every cycle and compressed to the 2-bit code of
//!   [`select`](crate::select);
//! * every cycle each queue selects at most **one** instruction — the
//!   minimum of (2-bit code ∥ age) — and checks its operands in the
//!   1-bit/register scoreboard; no CAM wakeup exists anywhere.
//!
//! The simulation of that selection is event-driven: entries are grouped
//! per chain in age order, so a queue's selection scans its *chains* (the
//! hardware's latency table) instead of every buffered entry — within a
//! chain all entries share a code, so the chain's oldest member is the only
//! possible winner. Readiness is tracked by the entry store's per-tag
//! consumer lists, which also handle squash and cancel; energy is still
//! charged per the physical per-cycle structure accesses.

use crate::energy::{FifoEnergy, IdleCharge, MixEnergy};
use crate::fifo::{issue_heads, Entry, FifoArray};
use crate::fu::FuTopology;
use crate::select::{selection_key, LatencyCode};
use crate::soa::EntryStore;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{Cycle, InstId, LatencyConfig, OpClass, PhysReg, ProcessorConfig};
use diq_power::{Component, EnergyMeter, TechParams};
use std::collections::VecDeque;

/// Per-chain state within one queue.
#[derive(Clone, Debug, Default)]
struct ChainState {
    /// Last *dispatched* instruction of the chain (the joinable end).
    last: Option<InstId>,
    /// Absolute cycle when the last *issued* instruction's result is
    /// available (the latency-table counter, in absolute-time form).
    ready: Cycle,
    /// The chain's buffered instructions, oldest first (dispatch order).
    members: VecDeque<u32>,
}

/// The FP buffer array with chains.
#[derive(Clone, Debug)]
struct MixQueues {
    store: EntryStore,
    capacity: usize,
    chains_per_queue: usize,
    chains: Vec<Vec<ChainState>>,
    /// Entries currently buffered per queue (the RAM occupancy).
    queue_len: Vec<usize>,
    /// FP arch reg (class-local index) → (queue, chain, producer).
    steer: Vec<Option<(usize, usize, InstId)>>,
    /// The paper's priority heuristic: instructions whose chain finishes
    /// *this* cycle beat instructions that became ready earlier but were
    /// delayed. `false` selects purely oldest-first (the ablation).
    fresh_first: bool,
}

impl MixQueues {
    fn new(
        queues: usize,
        capacity: usize,
        chains_per_queue: usize,
        fresh_first: bool,
        regs: [usize; 2],
    ) -> Self {
        assert!(queues > 0 && capacity > 0 && chains_per_queue > 0);
        MixQueues {
            store: EntryStore::new(queues * capacity, regs),
            capacity,
            chains_per_queue,
            // Built chain by chain (not `vec![..; n]`, whose clones drop
            // capacity), each with room for a whole queue: a chain never
            // reallocates its member list.
            chains: (0..queues)
                .map(|_| {
                    (0..chains_per_queue)
                        .map(|_| ChainState {
                            members: VecDeque::with_capacity(capacity),
                            ..ChainState::default()
                        })
                        .collect()
                })
                .collect(),
            queue_len: vec![0; queues],
            steer: vec![None; diq_isa::ARCH_REGS_PER_CLASS],
            fresh_first,
        }
    }

    fn queues(&self) -> usize {
        self.queue_len.len()
    }

    /// A chain is reallocatable when nothing of it remains in the buffer and
    /// its last issued instruction has finished.
    fn chain_free(&self, q: usize, c: usize, now: Cycle) -> bool {
        let ch = &self.chains[q][c];
        ch.members.is_empty() && ch.ready <= now
    }

    fn place(&mut self, q: usize, c: usize, d: &DispatchInst) {
        let slot = self.store.insert(&Entry::new(d));
        let ch = &mut self.chains[q][c];
        ch.last = Some(d.id);
        ch.members.push_back(slot);
        self.queue_len[q] += 1;
        if let Some(dst) = d.dst_arch {
            self.steer[dst.index()] = Some((q, c, d.id));
        }
    }

    /// Dispatch per Section 3.2.1: join the producer's chain if the producer
    /// is still the chain's last instruction and the queue has room;
    /// otherwise take the lowest free chain identifier in queue-balancing
    /// order; otherwise stall.
    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<usize, DispatchStall> {
        for src in d.src_arch.into_iter().flatten() {
            if src.class() != diq_isa::RegClass::Fp {
                continue;
            }
            if let Some((q, c, pid)) = self.steer[src.index()] {
                if self.chains[q][c].last == Some(pid) && self.queue_len[q] < self.capacity {
                    self.place(q, c, d);
                    return Ok(q);
                }
            }
        }
        // Lowest free chain id, interleaved across queues: (chain 0, q0),
        // (chain 0, q1), …, (chain 1, q0), … — balances busy chains.
        for c in 0..self.chains_per_queue {
            for q in 0..self.queues() {
                if self.queue_len[q] < self.capacity && self.chain_free(q, c, now) {
                    // Reallocating the chain invalidates stale mappings
                    // still pointing at its previous life.
                    for s in self.steer.iter_mut() {
                        if matches!(s, Some((sq, sc, _)) if *sq == q && *sc == c) {
                            *s = None;
                        }
                    }
                    // Reset in place: a free chain has no members, and
                    // its member list keeps its capacity.
                    let ch = &mut self.chains[q][c];
                    ch.last = None;
                    ch.ready = 0;
                    self.place(q, c, d);
                    return Ok(q);
                }
            }
        }
        Err(DispatchStall::NoFreeChain)
    }

    /// This cycle's selection for queue `q`: the minimum (code ∥ age) among
    /// selectable entries, or `None`. With `fresh_first` disabled the code
    /// still gates eligibility (a `11` chain cannot issue) but ties are
    /// broken purely by age — the ablation of the paper's heuristic.
    ///
    /// Entries of one chain share its latency code, so only each chain's
    /// oldest member can hold the minimum key: the scan is over the latency
    /// table, not the buffer.
    fn select(&self, q: usize, now: Cycle) -> Option<(usize, Entry)> {
        self.chains[q]
            .iter()
            .enumerate()
            .filter_map(|(c, ch)| {
                let &front = ch.members.front()?;
                if self.store.is_held(front) {
                    // The chain's oldest member issued speculatively and
                    // awaits its load's confirmation or cancel; the chain
                    // cannot advance past it.
                    return None;
                }
                let code = LatencyCode::classify(ch.ready, now);
                code.selectable().then(|| {
                    let age = self.store.id(front).0;
                    let key = if self.fresh_first {
                        selection_key(code, age)
                    } else {
                        age
                    };
                    (key, c)
                })
            })
            .min_by_key(|&(key, _)| key)
            .map(|(_, c)| {
                let front = *self.chains[q][c]
                    .members
                    .front()
                    .expect("chain has a front");
                (c, self.store.snapshot(front))
            })
    }

    /// Marks the front of chain `c` in queue `q` as held after a
    /// speculative issue: the entry keeps its buffer slot and the chain
    /// latency table is *not* advanced — that happens at the confirmed
    /// (replayed) issue.
    fn hold(&mut self, q: usize, c: usize) {
        let &front = self.chains[q][c]
            .members
            .front()
            .expect("hold on empty chain");
        self.store.set_held(front);
    }

    /// Removes the oldest member of chain `c` in queue `q` after issue and
    /// updates the chain latency table with the instruction's result
    /// latency.
    fn issue_from(&mut self, q: usize, c: usize, now: Cycle, result_lat: u64) {
        let ch = &mut self.chains[q][c];
        let slot = ch.members.pop_front().expect("issue from empty chain");
        ch.ready = now + result_lat;
        self.queue_len[q] -= 1;
        self.store.remove(slot);
    }

    /// Wrong-path squash: chain members are kept in age order, so the
    /// doomed entries are a suffix of each chain. Chain latency state
    /// (`ready`) survives — an already-issued wrong-path instruction keeps
    /// its unit busy exactly as in hardware. The mapping table is wiped by
    /// the `on_mispredict` that recovery also performs.
    fn squash(&mut self, from: InstId) {
        for q in 0..self.queues() {
            for c in 0..self.chains_per_queue {
                let mut touched = false;
                while let Some(&back) = self.chains[q][c].members.back() {
                    if self.store.id(back) < from {
                        break;
                    }
                    self.chains[q][c].members.pop_back();
                    self.queue_len[q] -= 1;
                    touched = true;
                    self.store.remove(back);
                }
                if touched {
                    // The last *surviving* buffered member anchors the chain;
                    // with the mapping table wiped below, this only matters
                    // once a later dispatch re-targets the chain.
                    let last = self.chains[q][c].members.back().map(|&s| self.store.id(s));
                    self.chains[q][c].last = last;
                }
            }
        }
        self.clear_steering();
    }

    fn clear_steering(&mut self) {
        self.steer.iter_mut().for_each(|s| *s = None);
    }

    /// The first cycle `>= from` at which some chain's latency code or
    /// reallocatability changes: a chain's code moves from `11` to `00` at
    /// its `ready` cycle and to `01` one cycle later, and an empty chain
    /// becomes free at `ready`. `None` if every chain settled before `from`.
    fn next_code_change(&self, from: Cycle) -> Option<Cycle> {
        self.chains
            .iter()
            .flatten()
            .filter_map(|ch| [ch.ready, ch.ready + 1].into_iter().find(|&t| t >= from))
            .min()
    }
}

/// The `MixBUFF` scheduler (`MB_distr` when configured with distributed
/// functional units).
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let s = SchedulerConfig::mb_distr().build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "MB_distr");
/// ```
#[derive(Debug)]
pub struct MixBuff {
    name: String,
    int: FifoArray,
    fp: MixQueues,
    lat: LatencyConfig,
    dl1_hit: u64,
    energy_model: [FifoEnergy; 2],
    mix_energy: MixEnergy,
    meter: EnergyMeter,
    topology: FuTopology,
    candidates: Vec<(u64, Side, usize, Entry)>,
    winners: Vec<(u64, usize, usize, Entry)>,
    /// One quiescent cycle's adds: integer head polls, per live FP queue a
    /// chain-table access and a selection pass, the FP winners' polls, one
    /// rejected dispatch.
    idle: IdleCharge,
}

impl MixBuff {
    /// Builds a MixBUFF scheduler. Prefer
    /// [`SchedulerConfig`](crate::SchedulerConfig) in application code.
    #[must_use]
    pub fn new(
        name: String,
        int: (usize, usize),
        fp: (usize, usize),
        chains_per_queue: usize,
        fresh_first: bool,
        topology: FuTopology,
        cfg: &ProcessorConfig,
    ) -> Self {
        let tech = TechParams::um100();
        let regs = [cfg.phys_int_regs, cfg.phys_fp_regs];
        MixBuff {
            name,
            int: FifoArray::new(int.0, int.1, regs),
            fp: MixQueues::new(fp.0, fp.1, chains_per_queue, fresh_first, regs),
            lat: cfg.lat,
            dl1_hit: cfg.mem.dl1.latency,
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            mix_energy: MixEnergy::new(fp.1, chains_per_queue, &tech),
            meter: EnergyMeter::new(),
            topology,
            // One candidate per integer FIFO head, one winner per FP queue.
            candidates: Vec::with_capacity(int.0),
            winners: Vec::with_capacity(fp.0),
            idle: IdleCharge::new(&[
                (Component::RegsReady, int.0 + fp.0),
                (Component::Chains, fp.0),
                (Component::Select, fp.0),
                (Component::Qrename, 1),
            ]),
        }
    }

    /// When the chain's last issued instruction's *result* is available:
    /// the operation latency (L1 hit assumed for loads, though loads never
    /// reach the FP buffers).
    fn result_latency(&self, op: OpClass) -> u64 {
        match op {
            OpClass::Load => self.lat.address + self.dl1_hit,
            op => self.lat.for_op(op),
        }
    }
}

impl Scheduler for MixBuff {
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
        // Integer side: FIFO heads, as IssueFIFO.
        issue_heads(
            [Some(&mut self.int.fifo), None],
            &self.energy_model,
            &mut self.meter,
            &mut self.candidates,
            sink,
            |_, q| self.int.steering.emptied(q),
        );

        // FP side: one selection per queue per cycle.
        let em_fp = self.energy_model[Side::Fp.index()];
        let mut winners = std::mem::take(&mut self.winners);
        winners.clear();
        for q in 0..self.fp.queues() {
            let occupancy = self.fp.queue_len[q];
            if occupancy == 0 {
                // Empty queues power down their selection logic (the paper
                // assumes this for MB_distr and the baseline alike).
                continue;
            }
            // Chain table read+write and a selection pass happen every
            // cycle the queue is live.
            self.meter
                .add(Component::Chains, self.mix_energy.chains_cycle);
            self.meter.add(
                Component::Select,
                self.mix_energy
                    .select
                    .select_energy_pj(&TechParams::um100(), occupancy),
            );
            if let Some((c, e)) = self.fp.select(q, now) {
                winners.push((e.id.0, q, c, e));
            }
        }
        winners.sort_unstable_by_key(|w| w.0);
        for &(_, q, c, e) in &winners {
            // The selected instruction (one per queue) checks regs_ready.
            self.meter
                .add_events(Component::RegsReady, e.nsrc(), em_fp.regs_ready_read);
            if !e.all_ready() {
                continue; // delayed: retries with the 01 priority class
            }
            if sink.try_issue(e.id, e.op, Some((Side::Fp, q))) {
                if e.srcs.iter().flatten().any(|&r| sink.is_spec_ready(r)) {
                    self.fp.hold(q, c);
                } else {
                    let lat = self.result_latency(e.op);
                    self.fp.issue_from(q, c, now, lat);
                }
                self.meter.add(Component::Buff, self.mix_energy.buff_read);
                self.meter.add(Component::Reg, self.mix_energy.reg_write);
                let (mux, pj) = em_fp.mux.event(e.op);
                self.meter.add(mux, pj);
            }
        }
        self.winners = winners;
    }

    fn on_result(&mut self, dst: PhysReg, _now: Cycle) {
        let em = self.energy_model[dst.class().index()];
        self.meter.add(Component::RegsReady, em.regs_ready_write);
        self.int.fifo.wake(dst);
        self.fp.store.wake(dst);
    }

    fn on_mispredict(&mut self) {
        self.int.steering.clear();
        self.fp.clear_steering();
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.squash(from);
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.fifo.cancel(tag);
        self.fp.store.cancel(tag);
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.int.fifo.len(), self.fp.store.len())
    }

    fn energy(&self) -> &EnergyMeter {
        &self.meter
    }

    fn fu_topology(&self) -> &FuTopology {
        &self.topology
    }

    /// The FP side reads the cycle number through the chain latency codes
    /// (selection) and chain reallocation (dispatch), so an idle cycle
    /// repeats only until the next code change. Each repeat charges what
    /// `issue_cycle` charged — integer head polls, each live FP queue's
    /// chain table and selection pass, the FP winners' operand polls in
    /// age order — then the stalled instruction's steering-table reads.
    fn idle_until(&mut self, now: Cycle, limit: Cycle, stalled: Option<&DispatchInst>) -> Cycle {
        let wake = self
            .fp
            .next_code_change(now)
            .map_or(limit, |t| t.min(limit));
        if wake == now {
            return now;
        }
        self.idle.clear();
        self.idle
            .push_head_polls(self.int.fifo.heads(), &self.energy_model[Side::Int.index()]);
        let mut winners = std::mem::take(&mut self.winners);
        winners.clear();
        for q in 0..self.fp.queues() {
            let occupancy = self.fp.queue_len[q];
            if occupancy == 0 {
                continue;
            }
            self.idle
                .push(Component::Chains, self.mix_energy.chains_cycle);
            self.idle.push(
                Component::Select,
                self.mix_energy
                    .select
                    .select_energy_pj(&TechParams::um100(), occupancy),
            );
            if let Some((c, e)) = self.fp.select(q, now) {
                winners.push((e.id.0, q, c, e));
            }
        }
        winners.sort_unstable_by_key(|w| w.0);
        let em_fp = self.energy_model[Side::Fp.index()];
        for &(_, _, _, e) in &winners {
            self.idle
                .push_events(Component::RegsReady, e.nsrc(), em_fp.regs_ready_read);
        }
        self.winners = winners;
        if let Some(d) = stalled {
            self.idle.push_steering_reads(d, &self.energy_model);
        }
        self.idle.replay(&mut self.meter, wake - now);
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{fp_di, BoundedSink};

    fn mq() -> MixQueues {
        MixQueues::new(2, 4, 3, true, [512, 512])
    }

    /// The chain ids of every buffered entry, queue-major then age order.
    fn chain_ids(m: &MixQueues) -> Vec<usize> {
        let mut out = Vec::new();
        for q in 0..m.queues() {
            let mut members: Vec<(u64, usize)> = m.chains[q]
                .iter()
                .enumerate()
                .flat_map(|(c, ch)| ch.members.iter().map(move |&s| (s, c)))
                .map(|(s, c)| (m.store.id(s).0, c))
                .collect();
            members.sort_unstable();
            out.extend(members.iter().map(|&(_, c)| c));
        }
        out
    }

    #[test]
    fn chain_allocation_balances_queues() {
        // Paper: "chain 0 from queue 0, chain 0 from queue 1, chain 1 from
        // queue 0, chain 1 from queue 1, chain 2 from queue 0, chain 2 from
        // queue 1".
        let mut m = mq();
        let mut placements = Vec::new();
        for i in 0..6 {
            // Independent instructions (no joinable producers).
            let q = m
                .try_dispatch(
                    &fp_di(i, OpClass::FpAdd, Some(4 + i as u8), [None, None]),
                    0,
                )
                .unwrap();
            placements.push(q);
        }
        assert_eq!(placements, [0, 1, 0, 1, 0, 1]);
        // And the chains used were 0,0,1,1,2,2 in that order.
        assert_eq!(chain_ids(&m), [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn dependent_joins_producer_chain() {
        let mut m = mq();
        let q1 = m
            .try_dispatch(&fp_di(1, OpClass::FpMul, Some(4), [None, None]), 0)
            .unwrap();
        let q2 = m
            .try_dispatch(&fp_di(2, OpClass::FpAdd, Some(5), [Some(4), None]), 0)
            .unwrap();
        assert_eq!(q1, q2);
        assert_eq!(
            m.chains[q1][0].members.len(),
            2,
            "both instructions share chain 0"
        );
    }

    #[test]
    fn join_requires_producer_to_be_chain_last() {
        let mut m = mq();
        m.try_dispatch(&fp_di(1, OpClass::FpMul, Some(4), [None, None]), 0)
            .unwrap();
        // Inst 2 extends the chain; r4's producer is no longer last.
        m.try_dispatch(&fp_di(2, OpClass::FpAdd, Some(5), [Some(4), None]), 0)
            .unwrap();
        // A second consumer of r4 cannot join; it gets a fresh chain.
        m.try_dispatch(&fp_di(3, OpClass::FpAdd, Some(6), [Some(4), None]), 0)
            .unwrap();
        let chains = chain_ids(&m);
        // Two entries in chain 0 (queue 0) and one fresh chain 0 in queue 1.
        assert_eq!(chains.iter().filter(|&&c| c == 0).count(), 3);
        assert_eq!(m.queue_len[1], 1);
    }

    #[test]
    fn stalls_when_chains_exhausted() {
        let mut m = MixQueues::new(1, 8, 2, true, [512, 512]);
        m.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        m.try_dispatch(&fp_di(2, OpClass::FpAdd, Some(5), [None, None]), 0)
            .unwrap();
        let e = m
            .try_dispatch(&fp_di(3, OpClass::FpAdd, Some(6), [None, None]), 0)
            .unwrap_err();
        assert_eq!(e, DispatchStall::NoFreeChain);
    }

    #[test]
    fn chain_frees_after_drain_and_completion() {
        let mut m = MixQueues::new(1, 8, 1, true, [512, 512]);
        m.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        let (c, e) = m.select(0, 0).expect("selectable");
        assert_eq!(e.id, InstId(1));
        m.issue_from(0, c, 0, 2); // result at cycle 2
        assert!(!m.chain_free(0, 0, 1), "still in flight");
        assert!(m.chain_free(0, 0, 2), "finished");
    }

    #[test]
    fn selection_prefers_fresh_over_delayed() {
        let mut m = MixQueues::new(1, 8, 2, true, [512, 512]);
        // Chain 0: old delayed instruction (chain ready long ago).
        m.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        // Chain 1: young instruction whose chain finishes right now.
        m.try_dispatch(&fp_di(9, OpClass::FpAdd, Some(5), [None, None]), 0)
            .unwrap();
        m.chains[0][0].ready = 0; // finished earlier (code 01 at now=5)
        m.chains[0][1].ready = 5; // finishing now (code 00 at now=5)
        let (_, e) = m.select(0, 5).expect("winner");
        assert_eq!(e.id, InstId(9), "fresh (00) beats delayed (01)");
    }

    #[test]
    fn code_changes_wake_at_ready_and_one_cycle_later() {
        // The young chain wins at its `ready` (code 00) but loses to the
        // older one a cycle later, when both read 01: an idle cycle at
        // `ready` does not repeat at `ready + 1`, so the skip stops there.
        let mut m = MixQueues::new(1, 8, 2, true, [512, 512]);
        m.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        m.try_dispatch(&fp_di(9, OpClass::FpAdd, Some(5), [None, None]), 0)
            .unwrap();
        m.chains[0][0].ready = 0;
        m.chains[0][1].ready = 5;
        assert_eq!(m.select(0, 5).expect("winner").1.id, InstId(9));
        assert_eq!(m.select(0, 6).expect("winner").1.id, InstId(1));
        assert_eq!(m.next_code_change(3), Some(5));
        assert_eq!(m.next_code_change(6), Some(6));
        assert_eq!(m.next_code_change(7), None);
    }

    #[test]
    fn blocked_chains_are_not_selected() {
        let mut m = MixQueues::new(1, 8, 1, true, [512, 512]);
        m.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [None, None]), 0)
            .unwrap();
        m.chains[0][0].ready = 10;
        assert!(m.select(0, 5).is_none(), "code 11 is never selected");
        assert!(m.select(0, 10).is_some(), "selectable when finishing");
    }

    #[test]
    fn full_scheduler_issues_one_per_fp_queue_per_cycle() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::mix_buff(4, 8, 2, 8, None).build(&cfg);
        // Six independent FP instructions spread over 2 queues.
        for i in 0..6 {
            s.try_dispatch(
                &fp_di(i, OpClass::FpAdd, Some(4 + i as u8), [None, None]),
                0,
            )
            .unwrap();
        }
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(
            sink.issued.len(),
            2,
            "exactly one instruction per FP queue per cycle"
        );
    }

    #[test]
    fn held_chain_front_blocks_chain_and_skips_latency_table_update() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::mix_buff(4, 8, 1, 8, None).build(&cfg);
        let tag = PhysReg::new(diq_isa::RegClass::Fp, 40);
        // An FP consumer of a (missing) FP load, plus its chain successor.
        let mut head = fp_di(1, OpClass::FpAdd, Some(4), [Some(40), None]);
        head.srcs_ready = [false, true];
        s.try_dispatch(&head, 0).unwrap();
        s.try_dispatch(&fp_di(2, OpClass::FpMul, Some(5), [Some(4), None]), 0)
            .unwrap();
        // Speculative wakeup → the chain front issues and is held; the
        // chain latency table must NOT advance (a cancelled pass produced
        // nothing), so after the real issue the chain's code reflects only
        // the confirmed pass.
        s.on_result(tag, 1);
        let mut sink = BoundedSink::all_ready();
        sink.spec = vec![tag];
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy().1, 2, "held front keeps its buffer slot");
        // Held front blocks its chain entirely.
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(2, &mut sink);
        assert!(sink.issued.is_empty(), "held chain front is unselectable");
        // Cancel + true fill: the front issues for real this time.
        s.cancel(tag);
        s.on_result(tag, 3);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(3, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
        assert_eq!(s.occupancy().1, 1);
        // The successor waits on its producer's 2-cycle FpAdd (charged at
        // the *confirmed* issue, cycle 3 → chain ready at 5, not at the
        // cancelled pass's 1+2=3): selectable no earlier than cycle 4
        // (code 10/01 gating aside, its operand arrives at 5).
        s.on_result(PhysReg::new(diq_isa::RegClass::Fp, 4), 5);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(5, &mut sink);
        assert_eq!(sink.issued, vec![InstId(2)]);
        assert_eq!(s.occupancy(), (0, 0));
    }

    #[test]
    fn not_ready_winner_blocks_its_queue_this_cycle() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::mix_buff(4, 8, 1, 8, None).build(&cfg);
        // Winner (oldest) reads pf40 which is not ready; the younger one is
        // ready but loses selection — nothing issues this cycle.
        s.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(4), [Some(40), None]), 0)
            .unwrap();
        s.try_dispatch(&fp_di(2, OpClass::FpAdd, Some(5), [None, None]), 0)
            .unwrap();
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert!(sink.issued.is_empty());
        assert_eq!(s.occupancy().1, 2);

        // Once pf40 arrives, the winner issues.
        s.on_result(PhysReg::new(diq_isa::RegClass::Fp, 40), 1);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(1, &mut sink);
        assert_eq!(sink.issued, vec![InstId(1)]);
    }
}
