//! The issue-queue schemes of *Low-Complexity Distributed Issue Queue*
//! (Abella & González, HPCA 2004) — the paper's contribution, plus the
//! baselines it is evaluated against.
//!
//! Four schemes implement the [`Scheduler`] trait:
//!
//! | Scheme | Paper name | Wakeup | Dispatch placement | Selection |
//! |--------|------------|--------|--------------------|-----------|
//! | [`CamIssueQueue`] | `IQ_64_64` / unbounded baseline | CAM broadcast (unready operands only, banked) | any free entry | N oldest ready |
//! | [`CamIssueQueue`] with a `BankController` | `IQ_64_64_adapt` (adaptive geometry) | CAM broadcast, banks power-gated at runtime | any free entry within powered capacity | N oldest ready |
//! | [`IssueFifo`] | `IssueFIFO` / `IF_distr` | none (ready-bit check at heads) | Palacharla dependence heuristics | FIFO heads, oldest first |
//! | [`LatFifo`] | `LatFIFO` | none | estimated issue time (§3.1 recurrence) | FIFO heads |
//! | [`MixBuff`] | `MixBUFF` / `MB_distr` | none | dependence chains in RAM buffers | 1/queue/cycle by 2-bit latency code ∥ age |
//!
//! All schemes plug into the same pipeline through [`Scheduler`]; the
//! pipeline provides readiness and functional-unit arbitration through
//! [`IssueSink`]. Functional units may be [shared or
//! distributed](FuTopology) across the queues (the `_distr` variants).
//!
//! # Example
//!
//! ```
//! use diq_core::SchedulerConfig;
//! use diq_isa::ProcessorConfig;
//!
//! let cfg = ProcessorConfig::hpca2004();
//! let mb = SchedulerConfig::mb_distr().build(&cfg);
//! assert_eq!(mb.name(), "MB_distr");
//! assert_eq!(mb.occupancy(), (0, 0));
//! ```

#![deny(missing_docs)]

mod adaptive;
mod cam;
#[cfg(any(test, feature = "check"))]
mod check;
mod config;
mod energy;
mod estimate;
mod fifo;
mod fu;
mod latfifo;
mod mixbuff;
pub mod reference;
pub mod select;
mod soa;
#[cfg(test)]
pub(crate) mod test_util;
mod wakeup;

pub use adaptive::AdaptiveConfig;
pub use cam::CamIssueQueue;
pub use config::{QueueArrayConfig, SchedulerConfig};
pub use estimate::IssueTimeEstimator;
pub use fifo::IssueFifo;
pub use fu::{FuInstance, FuTopology, UnitId};
pub use latfifo::LatFifo;
pub use mixbuff::MixBuff;

use diq_isa::{ArchReg, Cycle, InstId, OpClass, PhysReg};
use diq_power::EnergyMeter;

/// Which half of the machine an instruction issues from.
///
/// FP arithmetic uses the FP queues; everything else — including loads,
/// stores and branches, which schedule integer address/condition work —
/// uses the integer queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Integer queues.
    Int,
    /// Floating-point queues.
    Fp,
}

impl Side {
    /// The side an operation class issues from.
    #[must_use]
    pub fn of(op: OpClass) -> Side {
        if op.is_fp_side() {
            Side::Fp
        } else {
            Side::Int
        }
    }

    /// Dense index (0 = int, 1 = fp).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Side::Int => 0,
            Side::Fp => 1,
        }
    }
}

/// Everything a scheduler learns about an instruction at dispatch.
#[derive(Clone, Copy, Debug)]
pub struct DispatchInst {
    /// Dynamic instruction identity; doubles as the age tag (monotonic in
    /// program order, exactly what the paper's ROB-position + wrap-bit age
    /// encoding reconstructs).
    pub id: InstId,
    /// Operation class.
    pub op: OpClass,
    /// Renamed destination.
    pub dst: Option<PhysReg>,
    /// Renamed sources.
    pub srcs: [Option<PhysReg>; 2],
    /// Whether each source was already ready at dispatch.
    pub srcs_ready: [bool; 2],
    /// Architectural sources (for the queue-steering tables).
    pub src_arch: [Option<ArchReg>; 2],
    /// Architectural destination (for the queue-steering tables).
    pub dst_arch: Option<ArchReg>,
}

impl DispatchInst {
    /// The issue side of this instruction.
    #[must_use]
    pub fn side(&self) -> Side {
        Side::of(self.op)
    }
}

/// Why dispatch stalled this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DispatchStall {
    /// The scheme's target queue for this instruction is full.
    QueueFull,
    /// No empty FIFO was available for a fresh dependence chain.
    NoEmptyQueue,
    /// MixBUFF: no free chain (or all candidate queues full).
    NoFreeChain,
    /// The monolithic queue is full (baseline).
    Full,
}

/// The pipeline services issue requests through this interface: it owns the
/// scoreboard, functional-unit state and issue-width accounting.
///
/// `Scheduler::issue_cycle` calls [`try_issue`](IssueSink::try_issue) for
/// each candidate, oldest first; the sink says whether the machine can
/// actually execute it this cycle.
pub trait IssueSink {
    /// Whether physical register `r` holds its value this cycle (the
    /// `regs_ready` scoreboard of the paper).
    fn is_ready(&self, r: PhysReg) -> bool;

    /// Whether `r` is ready only *speculatively* — a missing load's tag
    /// broadcast at the predicted L1-hit latency
    /// (`ProcessorConfig::load_hit_speculation`). An instruction that
    /// issues while any operand is speculative must be **held** in its
    /// queue slot rather than removed: the pipeline will either confirm the
    /// hit (never, in the current protocol — only misses speculate) or run
    /// [`Scheduler::cancel`] so the entry re-listens and re-issues at the
    /// true fill. Defaults to `false` (no speculation).
    fn is_spec_ready(&self, _r: PhysReg) -> bool {
        false
    }

    /// Requests issue of `inst` (operation `op`) from queue `queue` (`None`
    /// for the monolithic baseline). Returns `false` when issue width or the
    /// required functional unit is exhausted; the instruction then stays
    /// queued.
    fn try_issue(&mut self, inst: InstId, op: OpClass, queue: Option<(Side, usize)>) -> bool;
}

/// A scheme-agnostic issue queue, as the pipeline sees it.
///
/// Call protocol, once per cycle, in pipeline order:
///
/// 1. [`on_result`](Scheduler::on_result) for every value produced this
///    cycle (writeback);
/// 2. [`issue_cycle`](Scheduler::issue_cycle) once (issue/select);
/// 3. [`try_dispatch`](Scheduler::try_dispatch) for each instruction leaving
///    rename, in program order, stopping at the first `Err` (dispatch);
/// 4. when a mispredicted branch resolves:
///    [`squash`](Scheduler::squash) to discard the wrong-path entries (a
///    no-op under the stall model, where wrong-path instructions are never
///    dispatched), then [`on_mispredict`](Scheduler::on_mispredict) to clear
///    the register-to-queue steering tables, as the paper prescribes;
/// 5. under load-hit speculation, when a speculated load turns out to
///    miss: [`cancel`](Scheduler::cancel) with the load's tag — entries
///    that consumed the speculative wakeup revert to waiting and held
///    entries return to queued state; the true fill later arrives through
///    the ordinary [`on_result`](Scheduler::on_result);
/// 6. after a cycle in which no pipeline stage changed state (nothing
///    committed, completed, started, issued, dispatched or fetched):
///    [`idle_until`](Scheduler::idle_until), so the pipeline can jump over
///    the following cycles that would repeat it exactly.
pub trait Scheduler {
    /// Short display name (`IQ_64_64`, `IF_distr`, `MB_distr`, …).
    fn name(&self) -> &str;

    /// Accepts one instruction into the queue, or reports why it cannot.
    ///
    /// # Errors
    ///
    /// Returns the stall reason; the pipeline must re-present the same
    /// instruction next cycle (in-order dispatch).
    fn try_dispatch(&mut self, inst: &DispatchInst, now: Cycle) -> Result<(), DispatchStall>;

    /// Performs this cycle's selection, requesting issue through `sink`.
    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink);

    /// Informs the scheme that `dst`'s value becomes available this cycle
    /// (CAM wakeup broadcast / `regs_ready` write).
    fn on_result(&mut self, dst: PhysReg, now: Cycle);

    /// A mispredicted branch resolved: clear the register-to-queue steering
    /// tables (they may be stale). Queue contents are unaffected; wrong-path
    /// entries are removed by the separate [`squash`](Scheduler::squash)
    /// call, which the pipeline issues first.
    fn on_mispredict(&mut self);

    /// Wrong-path squash: removes every queued entry with `id >= from` (the
    /// instructions fetched past a mispredicted branch) and forgets any
    /// wakeup consumers they registered — no ghost wakeup may fire for a
    /// squashed entry. Tail/steering metadata is reset so later dispatches
    /// cannot chain onto squashed producers.
    ///
    /// Recovery itself charges no issue-queue energy: the paper's activity
    /// model prices wakeup/selection/queue accesses, and the wrong-path
    /// entries already paid for theirs while they were live — which is
    /// exactly the speculative-work cost the wrong-path model surfaces.
    fn squash(&mut self, from: InstId);

    /// A speculative wakeup of `tag` turned out wrong (the load missed):
    /// every queued entry whose operand `tag` looked ready goes back to
    /// waiting — its ready state reverts and it re-listens for the tag's
    /// *real* broadcast — and entries **held** after a speculative issue
    /// (see [`IssueSink::is_spec_ready`]) return to normal queued state so
    /// the true fill can select and issue them a second time.
    ///
    /// The cancel itself charges no issue-queue energy: the paper's
    /// activity model prices broadcasts and selections, and both the
    /// speculative pass and the replay pass pay those in full through the
    /// ordinary [`on_result`](Scheduler::on_result)/selection paths —
    /// which is exactly the replay tax the load-hit-speculation model
    /// surfaces.
    fn cancel(&mut self, tag: PhysReg);

    /// Current (integer, FP) entry counts.
    fn occupancy(&self) -> (usize, usize);

    /// Whether both sides are empty.
    fn is_empty(&self) -> bool {
        self.occupancy() == (0, 0)
    }

    /// Accumulated energy, by component.
    fn energy(&self) -> &EnergyMeter;

    /// The functional-unit topology this scheme was configured with.
    fn fu_topology(&self) -> &FuTopology;

    /// Adaptive-geometry counters `(resize_events, gated_bank_cycles)`,
    /// summed over both sides: how often the autoscaling controller changed
    /// the powered-bank count, and how many bank-cycles were spent
    /// power-gated. Statically-partitioned schemes report zeros (the
    /// default).
    fn adaptive_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Quiescent-cycle fast-forward. The cycle `now - 1` just ran and
    /// changed no state: the scheduler selected nothing that issued, and
    /// `stalled`, if given, is the instruction it rejected at dispatch
    /// (`None` when dispatch stalled before reaching the scheduler, or had
    /// nothing to dispatch). Nothing outside the scheduler changes before
    /// `limit` — the pipeline's next event, fetch restart, unit release or
    /// deadlock check.
    ///
    /// Returns the first cycle `t` in `now..=limit` that must run
    /// normally: the scheme's own next timed change, or `limit`. Before
    /// returning, the scheme charges cycles `now..t` exactly as cycle
    /// `now - 1` was charged — the selection pass's adds, then the failed
    /// dispatch attempt's — replayed add by add, never multiplied out.
    ///
    /// Every event-driven scheme overrides this. A [`CamIssueQueue`] with
    /// bank controllers (`IQ_64_64_adapt`) charges the controllers' ticks
    /// in bulk and stops short of their next epoch boundary, whose cycle
    /// runs normally. [`LatFifo`] wakes at the first cycle a rejected FP
    /// instruction can be placed: the smallest tail estimate among its
    /// non-full FP queues (any other stall does not depend on the cycle).
    /// [`MixBuff`] wakes at its chains' next latency-code change.
    ///
    /// The default skips nothing (returns `now`). It is kept by the frozen
    /// scan twins in [`reference`](mod@reference), which are the golden
    /// proof's oracle and so must run every cycle, and by wrapping
    /// schedulers that do not forward this call, which therefore run every
    /// cycle as before.
    fn idle_until(&mut self, now: Cycle, _limit: Cycle, _stalled: Option<&DispatchInst>) -> Cycle {
        now
    }
}
