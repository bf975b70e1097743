//! The `LatFIFO` scheme: latency-based placement into FP FIFOs.
//!
//! Integer instructions use the same dependence-steered FIFOs as
//! `IssueFIFO`. FP instructions are placed by *estimated issue time*
//! (Section 3.1): among the non-full queues whose tail is expected to issue
//! at least one cycle before this instruction, pick the one whose tail
//! issues latest; otherwise an empty queue; otherwise stall. That placement
//! is the only thing LatFIFO adds: its FP queues are the shared
//! [`FifoQueues`] plus each entry's estimate, and issue is the shared
//! [`issue_heads`] pass over both sides — each queue's head, checking the
//! ready-bit scoreboard, modelled event-driven (entries carry ready bits
//! flipped by per-tag wakeup, while the energy model still charges the
//! per-cycle scoreboard polls).

use crate::energy::{FifoEnergy, IdleCharge};
use crate::estimate::IssueTimeEstimator;
use crate::fifo::{issue_heads, Entry, FifoArray, FifoQueues};
use crate::fu::FuTopology;
use crate::{DispatchInst, DispatchStall, IssueSink, Scheduler, Side};
use diq_isa::{Cycle, InstId, PhysReg, ProcessorConfig};
use diq_power::{Component, EnergyMeter, TechParams};

/// FP FIFOs placed by estimated issue time: the shared FIFO queues plus
/// each entry's issue estimate.
#[derive(Clone, Debug)]
struct LatQueues {
    fifo: FifoQueues,
    /// Each entry's issue estimate, by slot. Placement only needs the
    /// tails', but after a pop or a wrong-path squash the new tail's must
    /// still be there.
    est: Box<[Cycle]>,
}

impl LatQueues {
    fn new(queues: usize, capacity: usize, regs: [usize; 2]) -> Self {
        LatQueues {
            fifo: FifoQueues::new(queues, capacity, regs),
            est: vec![0; queues * capacity].into_boxed_slice(),
        }
    }

    /// Estimated issue cycle of queue `q`'s tail (`None` when empty).
    fn tail_est(&self, q: usize) -> Option<Cycle> {
        self.fifo.tail(q).map(|slot| self.est[slot as usize])
    }

    fn try_dispatch(&mut self, d: &DispatchInst, est: Cycle) -> Result<usize, DispatchStall> {
        // Non-full queues whose tail is expected to issue ≥1 cycle earlier;
        // among them, the latest tail ("leaves more opportunities for
        // younger instructions").
        let q = (0..self.fifo.count())
            .filter(|&q| !self.fifo.is_full(q) && self.tail_est(q).is_some_and(|t| t < est))
            .max_by_key(|&q| self.tail_est(q))
            .or_else(|| self.fifo.first_empty())
            .ok_or(DispatchStall::NoEmptyQueue)?;
        let slot = self.fifo.push(q, d);
        self.est[slot as usize] = est;
        Ok(q)
    }

    /// The first cycle at which an FP instruction rejected at dispatch can
    /// be placed, if nothing else changes. It was rejected because no
    /// queue is empty and every non-full queue's tail is estimated to
    /// issue no earlier than the instruction itself; its own estimate is
    /// at least `now + 1`, so the first non-full tail estimate `t` is
    /// overtaken at cycle `t`. `None` when every queue is full.
    fn next_placement(&self) -> Option<Cycle> {
        (0..self.fifo.count())
            .filter(|&q| !self.fifo.is_full(q))
            .filter_map(|q| self.tail_est(q))
            .min()
    }
}

/// The `LatFIFO` scheduler.
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
/// use diq_isa::ProcessorConfig;
///
/// let s = SchedulerConfig::lat_fifo(16, 16, 8, 16).build(&ProcessorConfig::hpca2004());
/// assert_eq!(s.name(), "LatFIFO_16x16_8x16");
/// ```
#[derive(Debug)]
pub struct LatFifo {
    name: String,
    int: FifoArray,
    fp: LatQueues,
    estimator: IssueTimeEstimator,
    energy_model: [FifoEnergy; 2],
    meter: EnergyMeter,
    topology: FuTopology,
    candidates: Vec<(u64, Side, usize, Entry)>,
    /// One quiescent cycle's adds: a head poll per FIFO, one rejected
    /// dispatch.
    idle: IdleCharge,
}

impl LatFifo {
    /// Builds a LatFIFO scheduler. Prefer
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
        LatFifo {
            name,
            int: FifoArray::new(int.0, int.1, regs),
            fp: LatQueues::new(fp.0, fp.1, regs),
            estimator: IssueTimeEstimator::new(cfg.lat, cfg.mem.dl1.latency),
            energy_model: [
                FifoEnergy::new(int.1, int.0, &topology, &tech),
                FifoEnergy::new(fp.1, fp.0, &topology, &tech),
            ],
            meter: EnergyMeter::new(),
            topology,
            // At most one candidate per FIFO head (see `IssueFifo`).
            candidates: Vec::with_capacity(int.0 + fp.0),
            idle: IdleCharge::new(&[
                (Component::RegsReady, int.0 + fp.0),
                (Component::Qrename, 1),
            ]),
        }
    }
}

impl Scheduler for LatFifo {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, d: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        // The estimator runs for *every* dispatched instruction — integer
        // results feed FP estimates (loads especially).
        let side = d.side();
        let em = self.energy_model[side.index()];
        let reads = d.src_arch.iter().flatten().count() as u64;
        self.meter
            .add_events(Component::Qrename, reads, em.qrename_read);

        // Tentative placement first: the estimator must only advance when
        // the instruction actually dispatches (otherwise a stalled
        // instruction would be re-estimated with doubled latency).
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
        issue_heads(
            [Some(&mut self.int.fifo), Some(&mut self.fp.fifo)],
            &self.energy_model,
            &mut self.meter,
            &mut self.candidates,
            sink,
            |side, q| {
                if side == Side::Int {
                    self.int.steering.emptied(q);
                }
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
        // FP placement uses estimates, not register steering; nothing to
        // clear there (estimates are heuristic and survive mispredictions).
    }

    fn squash(&mut self, from: InstId) {
        self.int.squash(from);
        self.fp.fifo.squash(from);
        // The issue-time estimator keeps whatever the wrong path taught it:
        // it is a heuristic table indexed by architectural register, exactly
        // like a real latency predictor polluted by squashed work.
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.int.fifo.cancel(tag);
        self.fp.fifo.cancel(tag);
        // The estimator likewise keeps its hit-assuming estimate — it is
        // exactly the predictor whose misprediction the replay pays for.
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

    /// As in `IssueFifo`, an idle cycle repeats: integer head polls, FP
    /// head polls, then the stalled instruction's steering-table reads.
    /// The one decision that reads the cycle number is the placement of a
    /// rejected FP instruction, whose issue estimate grows with `now`: it
    /// succeeds at the first non-full queue's tail estimate, which is
    /// therefore the wake.
    fn idle_until(&mut self, now: Cycle, limit: Cycle, stalled: Option<&DispatchInst>) -> Cycle {
        let wake = match stalled {
            Some(d) if d.side() == Side::Fp => self
                .fp
                .next_placement()
                .map_or(limit, |t| t.clamp(now, limit)),
            _ => limit,
        };
        self.idle.clear();
        for (fifo, em) in [&self.int.fifo, &self.fp.fifo]
            .into_iter()
            .zip(&self.energy_model)
        {
            self.idle.push_head_polls(fifo, em);
        }
        if let Some(d) = stalled {
            self.idle.push_steering_reads(d, &self.energy_model);
        }
        self.idle.replay(&mut self.meter, wake - now);
        wake
    }
}

#[cfg(any(test, feature = "check"))]
impl crate::check::Bookkeeping for LatFifo {
    fn check_bookkeeping(&self) -> Result<(), String> {
        self.int.fifo.check_bookkeeping()?;
        self.fp.fifo.check_bookkeeping()
    }
}

impl LatFifo {
    /// Computes the issue estimate *without* committing estimator state
    /// (used to test queue eligibility before placement succeeds).
    fn peek_estimate(&self, d: &DispatchInst, now: Cycle) -> Cycle {
        let mut issue = now + 1;
        for src in d.src_arch.into_iter().flatten() {
            issue = issue.max(self.estimator.operand_cycle(src));
        }
        issue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{fp_di, BoundedSink};
    use diq_isa::OpClass;

    fn queues() -> LatQueues {
        LatQueues::new(2, 4, [512, 512])
    }

    fn entry(id: u64) -> DispatchInst {
        fp_di(id, OpClass::FpAdd, Some(4), [None, None])
    }

    #[test]
    fn interleaves_chains_by_estimate() {
        let mut q = queues();
        // Tail of queue 0 estimated to issue at cycle 5.
        q.try_dispatch(&entry(1), 5).unwrap();
        // An instruction estimated at 6 can go behind it (5 + 1 <= 6).
        let placed = q.try_dispatch(&entry(2), 6).unwrap();
        assert_eq!(placed, 0);
        // An instruction estimated at 6 cannot go behind the new tail
        // (6 + 1 > 6) and takes the empty queue.
        let placed = q.try_dispatch(&entry(3), 6).unwrap();
        assert_eq!(placed, 1);
    }

    #[test]
    fn prefers_latest_eligible_tail() {
        let mut q = LatQueues::new(3, 4, [512, 512]);
        // Queue 0's tail estimated at 3, queue 1's at 7 (placed via the
        // est-ordering: 3 first, then 7 goes behind it — so seed queue 1
        // directly with a fresh dispatch at est 7 after filling queue 0 to
        // make it ineligible is fiddly; instead set the tails explicitly).
        q.try_dispatch(&entry(1), 3).unwrap(); // queue 0, tail est 3
        q.try_dispatch(&entry(2), 2).unwrap(); // queue 1 (2 < 3+1), tail est 2
        let tail = q.fifo.tail(1).unwrap();
        q.est[tail as usize] = 7;
        // est 9: both queues eligible; the later tail (7) wins.
        let placed = q.try_dispatch(&entry(3), 9).unwrap();
        assert_eq!(placed, 1);
    }

    #[test]
    fn stalls_when_nothing_eligible_and_no_empty() {
        let mut q = LatQueues::new(1, 1, [512, 512]);
        q.try_dispatch(&entry(1), 5).unwrap();
        let err = q.try_dispatch(&entry(2), 6).unwrap_err();
        assert_eq!(err, DispatchStall::NoEmptyQueue);
    }

    #[test]
    fn empty_queue_resets_estimate() {
        let mut q = queues();
        q.try_dispatch(&entry(1), 5).unwrap();
        q.fifo.pop_head(0);
        assert_eq!(q.tail_est(0), None);
    }

    #[test]
    fn wake_flips_fp_ready_bits() {
        let mut q = queues();
        q.try_dispatch(&fp_di(1, OpClass::FpAdd, Some(5), [Some(4), None]), 3)
            .unwrap();
        let (_, head) = q.fifo.head_entries()[0];
        assert!(!head.all_ready());
        q.fifo.wake(PhysReg::new(diq_isa::RegClass::Fp, 4));
        let (_, head) = q.fifo.head_entries()[0];
        assert!(head.all_ready());
    }

    #[test]
    fn scheduler_end_to_end_fp_flow() {
        let cfg = ProcessorConfig::hpca2004();
        let mut s = crate::SchedulerConfig::lat_fifo(4, 8, 4, 8).build(&cfg);
        // Four independent multiplies fill the four queues (they all want to
        // issue in the same cycle, so none can sit behind another)…
        for i in 0..4 {
            s.try_dispatch(
                &fp_di(i, OpClass::FpMul, Some(4 + i as u8), [None, None]),
                0,
            )
            .unwrap();
        }
        // …a fifth independent one must stall (estimated issue cycle equals
        // every tail's — an in-order queue could not issue both on time)…
        let err = s
            .try_dispatch(&fp_di(4, OpClass::FpMul, Some(8), [None, None]), 0)
            .unwrap_err();
        assert_eq!(err, DispatchStall::NoEmptyQueue);
        // …but a *dependent* of f4 interleaves fine behind some tail.
        s.try_dispatch(&fp_di(5, OpClass::FpAdd, Some(9), [Some(4), None]), 0)
            .unwrap();
        assert_eq!(s.occupancy().1, 5);
        let mut sink = BoundedSink::all_ready();
        s.issue_cycle(0, &mut sink);
        assert_eq!(sink.issued.len(), 4, "one issue per queue head");
    }

    #[test]
    fn idle_until_wakes_when_a_stalled_fp_estimate_passes_a_tail() {
        let cfg = ProcessorConfig::hpca2004();
        // One FP queue: a divide, then its dependent, whose estimate lies
        // a divide latency ahead.
        let mut s = crate::SchedulerConfig::lat_fifo(4, 8, 1, 4).build(&cfg);
        s.try_dispatch(&fp_di(1, OpClass::FpDiv, Some(4), [None, None]), 0)
            .unwrap();
        s.try_dispatch(&fp_di(2, OpClass::FpAdd, Some(5), [Some(4), None]), 0)
            .unwrap();
        // An independent instruction cannot go behind that tail, and there
        // is no empty queue.
        let stalled = fp_di(3, OpClass::FpAdd, Some(6), [None, None]);
        assert!(s.try_dispatch(&stalled, 1).is_err());
        let wake = s.idle_until(2, 1_000, Some(&stalled));
        assert!(wake > 2 && wake < 1_000, "wake {wake}");
        assert!(s.try_dispatch(&stalled, wake - 1).is_err());
        assert!(s.try_dispatch(&stalled, wake).is_ok());
        // An integer stall does not depend on the cycle: skip to the limit.
        let int = crate::test_util::di(4, OpClass::IntAlu, Some(3), [None, None]);
        assert_eq!(s.idle_until(wake + 1, 1_000, Some(&int)), 1_000);
    }
}
