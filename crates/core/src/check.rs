//! Bookkeeping checks, for tests. The event-driven schemes keep state that
//! summarizes other state — the wakeup lists summarize the unready
//! operands, the FIFO head table and masks summarize the queues, MixBUFF's
//! per-queue occupancy and live mask summarize its chains — so a missed
//! update at push, pop, hold, cancel, squash or wakeup drifts silently
//! until it changes a result. [`Checked`] re-derives every summary from
//! the state it summarizes after each scheduler call and panics at the
//! first disagreement, naming the call. It is built by
//! [`SchedulerConfig::build_checked`](crate::SchedulerConfig::build_checked)
//! (the `check` feature) and costs a walk of the whole scheduler per call.

use crate::{DispatchInst, DispatchStall, FuTopology, IssueSink, Scheduler};
use diq_isa::{Cycle, InstId, PhysReg};
use diq_power::EnergyMeter;

/// A structure whose redundant bookkeeping can be checked against the
/// state it summarizes.
pub(crate) trait Bookkeeping {
    /// `Err` describes the first disagreement found.
    fn check_bookkeeping(&self) -> Result<(), String>;
}

/// `Ok` when `holds`, else the error `what()` describes.
pub(crate) fn ensure(holds: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(what())
    }
}

/// A scheduler whose bookkeeping is checked after every call.
pub(crate) struct Checked<S> {
    inner: S,
}

impl<S: Scheduler + Bookkeeping> Checked<S> {
    pub(crate) fn new(inner: S) -> Self {
        let checked = Checked { inner };
        checked.check("construction");
        checked
    }

    fn check(&self, after: &str) {
        if let Err(e) = self.inner.check_bookkeeping() {
            panic!(
                "{}: bookkeeping broken after {after}: {e}",
                self.inner.name()
            );
        }
    }
}

impl<S: Scheduler + Bookkeeping> Scheduler for Checked<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_dispatch(&mut self, inst: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        let r = self.inner.try_dispatch(inst, now);
        self.check("try_dispatch");
        r
    }

    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink) {
        self.inner.issue_cycle(now, sink);
        self.check("issue_cycle");
    }

    fn on_result(&mut self, dst: PhysReg, now: Cycle) {
        self.inner.on_result(dst, now);
        self.check("on_result");
    }

    fn on_mispredict(&mut self) {
        self.inner.on_mispredict();
        self.check("on_mispredict");
    }

    fn squash(&mut self, from: InstId) {
        self.inner.squash(from);
        self.check("squash");
    }

    fn cancel(&mut self, tag: PhysReg) {
        self.inner.cancel(tag);
        self.check("cancel");
    }

    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn energy(&self) -> &EnergyMeter {
        self.inner.energy()
    }

    fn fu_topology(&self) -> &FuTopology {
        self.inner.fu_topology()
    }

    fn adaptive_stats(&self) -> (u64, u64) {
        self.inner.adaptive_stats()
    }

    fn idle_until(&mut self, now: Cycle, limit: Cycle, stalled: Option<&DispatchInst>) -> Cycle {
        let wake = self.inner.idle_until(now, limit, stalled);
        self.check("idle_until");
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoQueues;
    use crate::test_util::{di, fp_di, BoundedSink};
    use crate::SchedulerConfig;
    use diq_isa::{OpClass, ProcessorConfig, RegClass};

    /// Dispatch, a speculative issue and its cancel, a squash and the
    /// broadcasts that drain the rest, through every registered scheme
    /// with its checks on.
    #[test]
    fn every_scheme_keeps_its_bookkeeping_through_speculation_and_squash() {
        let cfg = ProcessorConfig::hpca2004();
        let int_tag = PhysReg::new(RegClass::Int, 40);
        let fp_tag = PhysReg::new(RegClass::Fp, 40);
        for sc in SchedulerConfig::known() {
            let mut s = sc.build_checked(&cfg);
            for id in 0..12u64 {
                let reg = 3 + id as u8;
                let mut d = if id % 3 == 2 {
                    fp_di(id, OpClass::FpAdd, Some(reg), [Some(40), Some(reg - 1)])
                } else {
                    di(id, OpClass::IntAlu, Some(reg), [Some(40), Some(reg - 1)])
                };
                d.srcs_ready[1] = true;
                let _ = s.try_dispatch(&d, 0);
            }
            s.on_result(int_tag, 1);
            s.on_result(fp_tag, 1);
            let mut sink = BoundedSink::all_ready();
            sink.spec = vec![int_tag, fp_tag];
            s.issue_cycle(1, &mut sink);
            s.cancel(int_tag);
            s.cancel(fp_tag);
            s.squash(InstId(7));
            s.on_mispredict();
            s.on_result(int_tag, 2);
            s.on_result(fp_tag, 2);
            for now in 2..40 {
                s.issue_cycle(now, &mut BoundedSink::all_ready());
                let _ = s.idle_until(now + 1, now + 1, None);
            }
            assert!(s.is_empty(), "{} drains", sc.label());
        }
    }

    /// The checks see a missed update: a queue left out of the live mask,
    /// and a listener left behind for a removed entry.
    #[test]
    fn broken_bookkeeping_is_reported() {
        let mut f = FifoQueues::new(2, 4, [64, 64]);
        let mut d = di(1, OpClass::IntAlu, Some(3), [Some(40), None]);
        d.srcs_ready = [false, true];
        f.push(0, &d);
        assert_eq!(f.check_bookkeeping(), Ok(()));
        let mut broken = f.clone();
        broken.corrupt_live_mask(0);
        let err = broken.check_bookkeeping().unwrap_err();
        assert!(err.contains("queue 0"), "{err}");
        f.corrupt_listener(PhysReg::new(RegClass::Int, 41));
        let err = f.check_bookkeeping().unwrap_err();
        assert!(err.contains("listen"), "{err}");
    }
}
