//! Property test for `Scheduler::squash`: squashing at a random `InstId`
//! must remove exactly the younger entries and leave **no ghost wakeup
//! consumers** — after the squash, instruction ids are reused (as the
//! pipeline's recovery does) and every pending tag is broadcast; a stale
//! waiter would either wake a dead slab slot (debug panic) or flip a ready
//! bit on the entry that reused the slot, which diverges from the frozen
//! scan reference. The event-driven and scan models must issue the same
//! instructions in the same order and drain to empty, and the event-driven
//! one has its bookkeeping checked after every call
//! (`SchedulerConfig::build_checked`).

use diq::isa::{ArchReg, Cycle, InstId, OpClass, PhysReg, ProcessorConfig, RegClass};
use diq::sched::{DispatchInst, IssueSink, Scheduler, SchedulerConfig, Side};
use proptest::prelude::*;
use std::collections::HashSet;

/// Physical-register indices standing in for in-flight producers: sources
/// drawn from this pool are "not ready" until their tag is broadcast.
const PENDING_BASE: usize = 150;
const PENDING_TAGS: usize = 6;

fn pending_tag(class: RegClass, k: usize) -> PhysReg {
    PhysReg::new(class, (PENDING_BASE + k) as u16)
}

/// An [`IssueSink`] that accepts everything and records the issue order.
/// `is_ready` answers from the broadcast set, so the scan models (which
/// poll readiness through the sink) observe exactly the same world as the
/// event-driven models (which were woken by `on_result`).
struct RecordingSink {
    broadcast: HashSet<(usize, usize)>,
    issued: Vec<InstId>,
}

impl RecordingSink {
    fn new() -> Self {
        RecordingSink {
            broadcast: HashSet::new(),
            issued: Vec::new(),
        }
    }

    fn mark_ready(&mut self, r: PhysReg) {
        self.broadcast.insert((r.class().index(), r.index()));
    }
}

impl IssueSink for RecordingSink {
    fn is_ready(&self, r: PhysReg) -> bool {
        if (PENDING_BASE..PENDING_BASE + PENDING_TAGS).contains(&r.index()) {
            self.broadcast.contains(&(r.class().index(), r.index()))
        } else {
            true
        }
    }

    fn try_issue(&mut self, inst: InstId, _op: OpClass, _queue: Option<(Side, usize)>) -> bool {
        self.issued.push(inst);
        true
    }
}

/// One randomly-shaped instruction: FP or integer side, and up to two
/// sources drawn from the pending-tag pool.
#[derive(Clone, Debug)]
struct RandInst {
    fp: bool,
    src1: Option<usize>,
    src2: Option<usize>,
}

fn arb_inst() -> impl Strategy<Value = RandInst> {
    (
        any::<bool>(),
        any::<bool>(),
        0..PENDING_TAGS,
        any::<bool>(),
        0..PENDING_TAGS,
    )
        .prop_map(|(fp, has1, k1, has2, k2)| RandInst {
            fp,
            src1: has1.then_some(k1),
            src2: has2.then_some(k2),
        })
}

fn dispatch_inst(id: u64, seq: usize, r: &RandInst) -> DispatchInst {
    let class = if r.fp { RegClass::Fp } else { RegClass::Int };
    let op = if r.fp {
        OpClass::FpAdd
    } else {
        OpClass::IntAlu
    };
    let dst_arch = ArchReg::new(class, (8 + seq % 16) as u8);
    let mk = |t: Option<usize>| t.map(|k| pending_tag(class, k));
    let srcs = [mk(r.src1), mk(r.src2)];
    // Architectural sources alias the dst_arch space so the dependence
    // steering (FIFO tails, MixBUFF chains) really engages and squash has
    // steering state to clean up.
    let arch = |t: Option<usize>| t.map(|k| ArchReg::new(class, (8 + (k * 3) % 16) as u8));
    DispatchInst {
        id: InstId(id),
        op,
        dst: Some(PhysReg::new(class, (40 + seq % 100) as u16)),
        srcs,
        srcs_ready: [srcs[0].is_none(), srcs[1].is_none()],
        src_arch: [arch(r.src1), arch(r.src2)],
        dst_arch: Some(dst_arch),
    }
}

/// Runs the scenario on one scheduler; returns the dispatch-acceptance
/// bitmap and the issue order.
fn run_scenario(
    sched: &mut dyn Scheduler,
    first: &[RandInst],
    second: &[RandInst],
    squash_at: u64,
) -> (Vec<bool>, Vec<InstId>) {
    let mut accepted: Vec<bool> = Vec::new();
    // Phase A: dispatch the first batch (dispatch may legitimately stall;
    // both models must stall on the same instructions).
    for (i, r) in first.iter().enumerate() {
        let d = dispatch_inst(i as u64, i, r);
        accepted.push(sched.try_dispatch(&d, 0).is_ok());
    }
    // Phase B: wrong-path squash at a random point, then reuse the id
    // range for the "correct path", listening on the same tags — exactly
    // the aliasing pattern that exposes stale waiters.
    sched.squash(InstId(squash_at));
    sched.on_mispredict();
    for (j, r) in second.iter().enumerate() {
        let d = dispatch_inst(squash_at + j as u64, first.len() + j, r);
        accepted.push(sched.try_dispatch(&d, 1).is_ok());
    }
    // Phase C: broadcast every pending tag, then select until dry.
    let mut sink = RecordingSink::new();
    for class in [RegClass::Int, RegClass::Fp] {
        for k in 0..PENDING_TAGS {
            let tag = pending_tag(class, k);
            sink.mark_ready(tag);
            sched.on_result(tag, 2);
        }
    }
    for now in 2..300u64 {
        sched.issue_cycle(now as Cycle, &mut sink);
        let (i, f) = sched.occupancy();
        if i + f == 0 {
            break;
        }
    }
    let (i, f) = sched.occupancy();
    assert_eq!(
        (i, f),
        (0, 0),
        "{} did not drain after squash",
        sched.name()
    );
    (accepted, sink.issued)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// For every registered scheme: squash at a random id, reuse the id
    /// range, broadcast everything — the event-driven path must match the
    /// frozen scan reference exactly and drain to empty (no ghost wakeups,
    /// no stale ready state, no leaked occupancy).
    #[test]
    fn squash_leaves_no_ghost_wakeups(
        first in collection::vec(arb_inst(), 1..40),
        second in collection::vec(arb_inst(), 1..20),
        squash_frac in 0.0f64..1.0,
    ) {
        let cfg = ProcessorConfig::hpca2004();
        let squash_at = (first.len() as f64 * squash_frac) as u64;
        for sc in SchedulerConfig::known() {
            let mut fast = sc.build_checked(&cfg);
            let mut scan = sc.build_scan(&cfg);
            let (fast_acc, fast_issued) = run_scenario(fast.as_mut(), &first, &second, squash_at);
            let (scan_acc, scan_issued) = run_scenario(scan.as_mut(), &first, &second, squash_at);
            prop_assert_eq!(
                &fast_acc,
                &scan_acc,
                "{}: dispatch acceptance diverged",
                sc.label()
            );
            prop_assert_eq!(
                &fast_issued,
                &scan_issued,
                "{}: issue order diverged after squash",
                sc.label()
            );
            // Exactly the accepted survivors of the first batch plus the
            // accepted second batch issue — nothing squashed, nothing
            // leaked, nothing twice. (Every tag was broadcast and the sink
            // accepts everything, so every live entry must come out.)
            let mut expected: Vec<InstId> = (0..first.len())
                .filter(|&i| fast_acc[i] && (i as u64) < squash_at)
                .map(|i| InstId(i as u64))
                .chain(
                    (0..second.len())
                        .filter(|&j| fast_acc[first.len() + j])
                        .map(|j| InstId(squash_at + j as u64)),
                )
                .collect();
            expected.sort_unstable();
            let mut issued_sorted = fast_issued.clone();
            issued_sorted.sort_unstable();
            prop_assert_eq!(
                issued_sorted,
                expected,
                "{}: issued set is not exactly survivors + reused batch",
                sc.label()
            );
        }
    }
}
