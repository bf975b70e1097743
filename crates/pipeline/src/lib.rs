//! The cycle-level out-of-order superscalar core (the SimpleScalar role).
//!
//! An 8-wide machine with the paper's Table 1 resources: hybrid branch
//! prediction, a 64-entry fetch queue, register renaming over 160+160
//! physical registers, a 256-entry reorder buffer, a load/store queue with
//! conservative disambiguation and store-forwarding, the Table 1 functional
//! units (shared or queue-distributed), and a two-level cache hierarchy.
//! The issue stage is pluggable: any [`diq_core::Scheduler`] — the CAM
//! baseline or any of the paper's schemes — runs on an otherwise identical
//! substrate.
//!
//! Every instruction from fetch to commit lives in one instruction window,
//! a ring indexed by instruction id: its dispatched prefix is the reorder
//! buffer and the rest is the fetch queue. Fetch writes an instruction's
//! slot once, dispatch fills in the renamed registers in place, commit pops
//! the front, and a wrong-path squash truncates the back. The load/store
//! queue is addressed by the sequence number [`Lsq::push`] returns, which
//! the slot keeps, so no per-instruction update searches.
//!
//! Stages execute in reverse pipeline order each cycle (commit, writeback,
//! memory, issue, dispatch/rename, fetch) so that a value produced with
//! latency *L* by an instruction issued at cycle *T* can feed a dependent
//! issuing at cycle *T + L* — a full bypass network.
//!
//! Mispredicted branches are handled by one of two models, selected by
//! [`ProcessorConfig::wrong_path`]:
//!
//! * **stall** (legacy, the default): fetch stalls until the branch
//!   resolves, then redirects after the configured penalty — the issue
//!   queues only ever see correct-path work;
//! * **wrong-path speculation** (a [`Workload::speculative`] source under
//!   [`Simulator::run_workload`]): fetch follows
//!   the predicted path into the PC-addressable synthetic program
//!   ([`diq_workload::TraceGenerator`]), wrong-path instructions rename,
//!   dispatch, issue and pay energy like any others, and resolution
//!   checkpoint-restores the front end (generator, GHR/RAS) while the
//!   window, rename map, LSQ and scheduler squash every younger entry. See
//!   DESIGN.md "Wrong-path speculation".
//!
//! Orthogonally, [`ProcessorConfig::load_hit_speculation`] closes the
//! load-latency fidelity gap: instead of waking a load's dependents at the
//! oracle latency, the machine broadcasts the load's tag at the predicted
//! L1-hit latency, detects a miss at D-cache tag match one cycle later,
//! and **selectively replays** the dependents that issued in the window —
//! they are un-issued by a token bump, re-listen in their queues, and
//! re-issue at the true fill, paying wakeup/selection energy on both
//! passes. See DESIGN.md "Load-hit speculation and selective replay".
//!
//! # Example
//!
//! ```
//! use diq_core::SchedulerConfig;
//! use diq_isa::ProcessorConfig;
//! use diq_pipeline::{Simulator, TraceSource};
//! use diq_workload::kernels;
//!
//! let cfg = ProcessorConfig::hpca2004();
//! let spec = kernels::parallel_fp_chains(12, 4);
//! let trace = spec.generate(2_000);
//! let mut sim = Simulator::new(&cfg, &SchedulerConfig::mb_distr());
//! let stats = sim.run_workload(&mut TraceSource::new(trace), 2_000);
//! assert_eq!(stats.committed, 2_000);
//! assert_eq!(stats.checker_violations, 0);
//! assert!(stats.ipc() > 0.5);
//! ```

#![deny(missing_docs)]

mod exec;
mod lsq;
mod profile;
mod rename;
mod stats;
mod window;
mod workload;

pub use lsq::{LoadAction, Lsq};
pub use profile::{stage, StageProfile};
pub use rename::RenameState;
pub use stats::SimStats;
pub use workload::{SourceCheckpoint, TraceSource, Workload};

use profile::StageTimer;
use window::{Slot, Window, NO_LSQ};

use diq_branch::{BranchCheckpoint, BranchUnit};
use diq_core::{DispatchInst, FuTopology, Scheduler, SchedulerConfig};
use diq_isa::{Cycle, Inst, InstId, OpClass, PhysReg, ProcessorConfig};
use diq_mem::MemoryHierarchy;
use exec::{CycleSink, EventKind, EventQueue, FuState, Issued};
use std::collections::VecDeque;

/// One load in its speculative-wakeup window: the tag was broadcast at the
/// predicted hit latency and the miss cancel has not run yet. Consumers
/// that issue on the speculative tag are recorded here for selective
/// replay.
struct SpecLoad {
    load: InstId,
    token: u64,
    dst: PhysReg,
    consumers: Vec<(InstId, u64)>,
}

/// Cycles without a commit after which the simulator declares deadlock
/// (always indicates a scheme/pipeline bug; surfaced loudly for tests).
const DEADLOCK_LIMIT: u64 = 100_000;

/// Front-end checkpoint for the single outstanding correct-path
/// misprediction: once fetch turns down the wrong path, every younger
/// instruction is wrong-path too, so at most one recovery point exists at a
/// time.
struct Recovery {
    branch: InstId,
    gen: SourceCheckpoint,
    bp: BranchCheckpoint,
}

/// The out-of-order core.
pub struct Simulator {
    cfg: ProcessorConfig,
    sched: Box<dyn Scheduler>,
    topology: FuTopology,
    bp: BranchUnit,
    mem: MemoryHierarchy,
    rename: RenameState,
    lsq: Lsq,
    fu: FuState,
    events: EventQueue,
    window: Window,
    /// Stores whose address generation finished but whose data register is
    /// still pending.
    stores_waiting_data: Vec<(InstId, PhysReg)>,
    now: Cycle,
    fetch_stalled_until: Cycle,
    waiting_mispredict: bool,
    last_fetch_line: u64,
    /// Instruction whose I-cache line is still in flight.
    pending_fetch: Option<Inst>,
    last_commit_at: Cycle,
    /// Fetch is currently on the wrong path (speculation mode).
    wrong_path_mode: bool,
    /// The outstanding misprediction's recovery point, if any.
    recovery: Option<Recovery>,
    /// Retired recovery point kept for its buffers: the next mispredict
    /// checkpoints into it instead of allocating (mispredicts recur every
    /// few dozen instructions on branchy codes).
    spare_recovery: Option<Recovery>,
    /// Monotone dispatch counter feeding [`Slot::token`]; never reset.
    /// Replays draw fresh tokens from the same counter.
    dispatch_seq: u64,
    /// Loads currently in their speculative-wakeup window (tag broadcast,
    /// miss cancel pending). Small: one entry per in-flight speculated
    /// miss.
    spec_loads: Vec<SpecLoad>,
    /// Retired consumer lists, kept for their buffers (misses recur; the
    /// steady-state window allocates nothing).
    spec_consumer_pool: Vec<Vec<(InstId, u64)>>,
    /// Correct-path instructions pulled from a speculative source; fetch
    /// stops at [`Self::fetch_budget`] so a speculative workload drains
    /// like a finite trace.
    correct_fetched: u64,
    fetch_budget: u64,
    /// The fetch micro-batch: instructions pulled from the workload a
    /// fetch-width group at a time ([`Workload::fill`]) and drained by the
    /// fetch stage. Cleared on recovery — see `workload` module docs for
    /// why that is exact.
    batch: VecDeque<Inst>,
    /// Per-stage wall-clock ticks (all zeros unless the `profile` cargo
    /// feature is enabled).
    profile: StageProfile,
    stats: SimStats,
    // Per-cycle scratch buffers, reused so the steady-state cycle loop
    // allocates nothing.
    due_scratch: Vec<(InstId, u64, EventKind)>,
    accepted_scratch: Vec<Issued>,
    stores_done_scratch: Vec<InstId>,
    pending_loads_scratch: Vec<(InstId, LoadAction)>,
    /// Dispatch-stall counters, indexed by [`STALL_LABELS`]; folded into
    /// `SimStats::stall_reasons` at the end of a run (a `BTreeMap` string
    /// bump per stalled cycle is an allocation the hot loop can't afford).
    stall_counts: [u64; STALL_LABELS.len()],
    /// The last cycle's dispatch stall: its [`STALL_LABELS`] index, plus
    /// the instruction the scheduler rejected (`None` for ROB and register
    /// stalls, which never reach the scheduler). A skipped cycle repeats it.
    dispatch_stall: Option<(usize, Option<DispatchInst>)>,
    /// Cycles jumped over by the quiescent-cycle fast-forward, over the
    /// simulator's life (kept out of `SimStats`: results do not depend on
    /// whether cycles were skipped).
    fast_forwarded: u64,
}

/// Stall-reason display labels, in counter-index order.
pub(crate) const STALL_LABELS: [&str; 6] = [
    "rob_full",
    "no_phys_reg",
    "queue_full",
    "no_empty_queue",
    "no_free_chain",
    "iq_full",
];

impl Simulator {
    /// Builds a fresh machine with the given processor configuration and
    /// issue scheme.
    #[must_use]
    pub fn new(cfg: &ProcessorConfig, sched_cfg: &SchedulerConfig) -> Self {
        Self::with_scheduler(cfg, sched_cfg.build(cfg))
    }

    /// Builds a fresh machine around an already-constructed scheduler —
    /// how the golden tests run the frozen scan reference
    /// ([`diq_core::reference`]) on the identical pipeline substrate.
    #[must_use]
    pub fn with_scheduler(cfg: &ProcessorConfig, sched: Box<dyn Scheduler>) -> Self {
        let topology = sched.fu_topology().clone();
        let fu = FuState::new(&topology);
        let stats = SimStats::new(sched.name(), "");
        Simulator {
            cfg: *cfg,
            sched,
            topology,
            bp: BranchUnit::new(&cfg.branch),
            mem: MemoryHierarchy::new(&cfg.mem),
            rename: RenameState::new(cfg),
            lsq: Lsq::with_capacity(cfg.rob_entries),
            fu,
            events: EventQueue::with_capacity(2 * cfg.rob_entries),
            window: Window::with_capacity(cfg.rob_entries + cfg.fetch_queue),
            stores_waiting_data: Vec::with_capacity(cfg.rob_entries),
            now: 0,
            fetch_stalled_until: 0,
            waiting_mispredict: false,
            last_fetch_line: u64::MAX,
            pending_fetch: None,
            last_commit_at: 0,
            wrong_path_mode: false,
            recovery: None,
            spare_recovery: None,
            dispatch_seq: 0,
            spec_loads: Vec::with_capacity(cfg.rob_entries),
            spec_consumer_pool: Vec::with_capacity(cfg.rob_entries),
            correct_fetched: 0,
            fetch_budget: u64::MAX,
            batch: VecDeque::with_capacity(cfg.fetch_width),
            profile: StageProfile::default(),
            stats,
            // Scratch peaks are bounded by the in-flight window (each
            // in-flight instruction contributes at most a few pending
            // events), so reserving against the ROB keeps the cycle loop
            // allocation-free (asserted by tests/alloc_steady_state.rs).
            due_scratch: Vec::with_capacity(4 * cfg.rob_entries),
            accepted_scratch: Vec::with_capacity(cfg.rob_entries),
            stores_done_scratch: Vec::with_capacity(cfg.rob_entries),
            pending_loads_scratch: Vec::with_capacity(cfg.rob_entries),
            stall_counts: [0; STALL_LABELS.len()],
            dispatch_stall: None,
            fast_forwarded: 0,
        }
    }

    /// Runs until `commit_target` instructions commit (or the workload
    /// drains, whichever comes first) and returns the statistics.
    ///
    /// This is the single drive loop behind every entry point. The workload
    /// is pulled in fetch-width micro-batches ([`Workload::fill`]); for a
    /// [speculative](Workload::speculative) source with
    /// [`ProcessorConfig::wrong_path`] on, fetch follows predicted paths —
    /// on a misprediction the source is checkpointed and entered at the
    /// predicted target, wrong-path instructions flow through
    /// rename/dispatch/issue (occupying queues and paying wakeup/selection
    /// energy), and resolution restores the checkpoint and squashes every
    /// younger entry. A speculative workload fetches exactly
    /// `commit_target` correct-path instructions, so the machine drains at
    /// the end just as it does on a finite trace.
    ///
    /// The returned `SimStats` are *moved* out (the simulator's own counters
    /// reset to zero) rather than cloned — a run's statistics are consumed
    /// exactly once, and the histograms need not be copied.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops committing for 100 000 cycles — a
    /// scheduling deadlock, which is always a bug worth failing loudly on.
    pub fn run_workload<W>(&mut self, workload: &mut W, commit_target: u64) -> SimStats
    where
        W: Workload + ?Sized,
    {
        if workload.speculative() {
            // A speculative source is an infinite program: the budget of
            // correct-path instructions plays the role a finite trace's end
            // plays, so the machine drains.
            self.correct_fetched = 0;
            self.fetch_budget = commit_target;
        } else {
            self.fetch_budget = u64::MAX; // the iterator bounds itself
        }
        self.batch.clear();
        let mut trace_done = false;
        while self.stats.committed < commit_target {
            let progress = self.cycle(workload, &mut trace_done);
            if trace_done && self.window.is_empty() && self.pending_fetch.is_none() {
                break;
            }
            if !progress {
                self.fast_forward();
            }
            assert!(
                self.now - self.last_commit_at < DEADLOCK_LIMIT,
                "deadlock: no commit since cycle {} (now {}, scheme {}, rob {}, iq {:?}, next event {:?})",
                self.last_commit_at,
                self.now,
                self.sched.name(),
                self.window.rob_len(),
                self.sched.occupancy(),
                self.events.next_at(),
            );
        }
        debug_assert!(
            self.spec_loads.is_empty(),
            "speculative-wakeup windows must drain with the machine"
        );
        self.finalize_stats();
        self.stall_counts = [0; STALL_LABELS.len()];
        let fresh = SimStats::new(&self.stats.scheme, &self.stats.benchmark);
        std::mem::replace(&mut self.stats, fresh)
    }

    /// Cycles the quiescent-cycle fast-forward has jumped over since this
    /// simulator was built — charged exactly, so no statistic depends on
    /// it; tests use it to prove the skip actually happens.
    #[must_use]
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// Takes (and resets) the per-stage wall-clock profile accumulated by
    /// [`run_workload`](Self::run_workload). All zeros unless the crate was
    /// built with the `profile` feature ([`StageProfile::ENABLED`]).
    pub fn take_stage_profile(&mut self) -> StageProfile {
        std::mem::take(&mut self.profile)
    }

    /// Names the workload in the produced statistics.
    pub fn set_benchmark(&mut self, name: &str) {
        self.stats.benchmark = name.to_string();
    }

    /// Current (integer, FP) scheduler occupancy — after a drained run both
    /// must be zero, wrong-path squashes included (tests assert this).
    #[must_use]
    pub fn queue_occupancy(&self) -> (usize, usize) {
        self.sched.occupancy()
    }

    fn finalize_stats(&mut self) {
        // The label set was pre-interned at reset, so a label whose first
        // stall happens late in a long run costs no allocation here (the
        // steady-state-alloc test counts this path). Zero entries are
        // dropped afterwards to keep the reported map's shape unchanged.
        for (label, &n) in STALL_LABELS.iter().zip(&self.stall_counts) {
            *self
                .stats
                .stall_reasons
                .get_mut(*label)
                .expect("pre-interned stall label") = n;
        }
        self.stats.stall_reasons.retain(|_, &mut n| n > 0);
        self.stats.cycles = self.now;
        self.stats.branch = self.bp.stats();
        self.stats.il1 = self.mem.il1_stats();
        self.stats.dl1 = self.mem.dl1_stats();
        self.stats.l2 = self.mem.l2_stats();
        self.stats.energy = self.sched.energy().clone();
        self.stats.lsq_forwards = self.lsq.forwards;
        let (resizes, gated) = self.sched.adaptive_stats();
        self.stats.resize_events = resizes;
        self.stats.gated_bank_cycles = gated;
    }

    /// Runs one cycle and reports whether any stage changed state. Each
    /// stage reports its own progress: a cycle can drain one event and
    /// schedule another, so no before/after counter comparison can tell.
    fn cycle<W>(&mut self, src: &mut W, trace_done: &mut bool) -> bool
    where
        W: Workload + ?Sized,
    {
        let mut t = StageTimer::start();
        let mut progress = self.commit_stage();
        t.lap(&mut self.profile, stage::COMMIT);
        progress |= self.writeback_stage(src);
        t.lap(&mut self.profile, stage::WRITEBACK);
        progress |= self.memory_stage();
        t.lap(&mut self.profile, stage::MEMORY);
        progress |= self.issue_stage();
        t.lap(&mut self.profile, stage::ISSUE);
        progress |= self.dispatch_stage();
        t.lap(&mut self.profile, stage::RENAME_DISPATCH);
        progress |= self.fetch_stage(src, trace_done);
        t.lap(&mut self.profile, stage::FETCH);
        self.profile.cycles += 1;
        let (oi, of) = self.sched.occupancy();
        self.stats.occupancy_int.record(oi as u64);
        self.stats.occupancy_fp.record(of as u64);
        self.now += 1;
        progress
    }

    // ---- quiescent-cycle fast-forward ----------------------------------

    /// After a cycle that changed no state, every following cycle repeats
    /// it exactly until something timed happens: a completion event, the
    /// end of a fetch stall, an unpipelined unit freeing, a change the
    /// scheduler times itself (MixBUFF's chain codes), or the deadlock
    /// check. Jumps `now` to the earliest of those, charging the skipped
    /// cycles what the idle cycle charged: its occupancy samples, its
    /// dispatch stall, and (through [`Scheduler::idle_until`]) its
    /// scheduler energy.
    fn fast_forward(&mut self) {
        let now = self.now;
        let mut limit = self.last_commit_at + DEADLOCK_LIMIT;
        if let Some(t) = self.events.next_at() {
            limit = limit.min(t);
        }
        if self.fetch_stalled_until >= now {
            limit = limit.min(self.fetch_stalled_until);
        }
        if let Some(t) = self.fu.next_free(now) {
            limit = limit.min(t);
        }
        if limit <= now {
            return;
        }
        let stalled = self.dispatch_stall.and_then(|(_, d)| d);
        let wake = self.sched.idle_until(now, limit, stalled.as_ref());
        debug_assert!((now..=limit).contains(&wake), "idle_until out of range");
        let skipped = wake - now;
        if skipped == 0 {
            return;
        }
        let (oi, of) = self.sched.occupancy();
        self.stats.occupancy_int.record_n(oi as u64, skipped);
        self.stats.occupancy_fp.record_n(of as u64, skipped);
        if let Some((reason, _)) = self.dispatch_stall {
            self.stall_counts[reason] += skipped;
            self.stats.dispatch_stall_cycles += skipped;
        }
        self.profile.cycles += skipped;
        self.events.advance_to(wake);
        self.fast_forwarded += skipped;
        self.now = wake;
    }

    // ---- commit ------------------------------------------------------

    fn commit_stage(&mut self) -> bool {
        let before = self.stats.committed;
        for _ in 0..self.cfg.commit_width {
            let Some((id, head)) = self.window.head() else {
                break;
            };
            if !head.completed {
                break;
            }
            let op = head.inst.op;
            if op.is_mem() {
                if op == OpClass::Store {
                    self.mem
                        .store(head.inst.mem.expect("store has address").addr);
                }
                self.lsq.pop(id);
            }
            if let Some(prev) = head.prev_mapping {
                self.rename.release(prev);
            }
            self.window.commit_head();
            self.stats.committed += 1;
            if op.is_fp_side() {
                self.stats.committed_fp += 1;
            }
            self.last_commit_at = self.now;
        }
        self.stats.committed != before
    }

    // ---- writeback ----------------------------------------------------

    fn writeback_stage<W>(&mut self, src: &mut W) -> bool
    where
        W: Workload + ?Sized,
    {
        let mut due = std::mem::take(&mut self.due_scratch);
        self.events.drain_due(self.now, &mut due);
        // Even a dead event's drain counts: it is cheap to be conservative.
        let mut progress = !due.is_empty();
        for &(id, token, kind) in &due {
            // A token mismatch means the instruction this event belonged to
            // was squashed (and its id possibly reissued on the correct
            // path): the event is dead. Without speculation every token
            // matches.
            let Some(slot) = self.window.get_mut(id).filter(|s| s.token == token) else {
                continue;
            };
            match kind {
                EventKind::Complete => {
                    if let Some(dst) = slot.dst {
                        self.rename.set_ready(dst, self.now);
                        self.sched.on_result(dst, self.now);
                    }
                    if slot.inst.op == OpClass::Store {
                        // Address generation done; completion additionally
                        // needs the data value — the *real* value: a
                        // speculatively woken register holds nothing to
                        // write into the store buffer.
                        self.lsq.store_addr_done(slot.lsq);
                        let data = slot.store_data.expect("store has data source");
                        if self.rename.is_ready_real(data, self.now) {
                            self.lsq.store_data_ready(slot.lsq);
                            slot.completed = true;
                        } else {
                            self.stores_waiting_data.push((id, data));
                        }
                    } else {
                        slot.completed = true;
                    }
                }
                EventKind::BranchResolve => {
                    // A wrong-path branch has no architectural outcome: it
                    // neither trains the predictor nor redirects fetch; it
                    // completes and waits to be squashed.
                    slot.completed = true;
                    if slot.wrong_path {
                        continue;
                    }
                    let pc = slot.inst.pc;
                    let actual = slot.inst.branch.expect("branch info present");
                    let pred = slot.pred.expect("branch predicted");
                    let mispredicted = slot.mispredicted;
                    if mispredicted {
                        if let Some(rec) = self.recovery.take() {
                            debug_assert_eq!(rec.branch, id, "one outstanding recovery");
                            // Restore the front end to the state right after
                            // this branch's prediction, then squash
                            // everything younger.
                            self.bp.restore(&rec.bp);
                            src.restore(&rec.gen);
                            self.recover(id);
                            // Keep the buffers for the next mispredict.
                            self.spare_recovery = Some(rec);
                        }
                    }
                    self.bp.resolve(pc, &pred, &actual);
                    if mispredicted {
                        self.sched.on_mispredict();
                        self.stats.mispredict_redirects += 1;
                        self.fetch_stalled_until = self
                            .fetch_stalled_until
                            .max(self.now + 1 + self.cfg.mispredict_redirect);
                        self.waiting_mispredict = false;
                    }
                }
                EventKind::LoadAddrDone => {
                    self.lsq.load_addr_done(slot.lsq);
                }
                EventKind::SpecWakeup => {
                    // The predicted-hit broadcast: dependents wake (and may
                    // issue this cycle) exactly as they would on a hit. The
                    // load itself is *not* complete.
                    let dst = slot.dst.expect("speculating load has a destination");
                    self.rename.set_ready_spec(dst, self.now);
                    self.sched.on_result(dst, self.now);
                    let consumers = self.spec_consumer_pool.pop().unwrap_or_default();
                    self.spec_loads.push(SpecLoad {
                        load: id,
                        token,
                        dst,
                        consumers,
                    });
                }
                EventKind::SpecMiss => {
                    // Tag match failed: revert the speculative readiness,
                    // return queued consumers to listening, and un-issue
                    // (replay) everything that slipped into the window.
                    // Stale completion events of the replayed pass die by
                    // the token bump, exactly as squashed work's do.
                    let idx = self
                        .spec_loads
                        .iter()
                        .position(|r| r.load == id && r.token == token)
                        .expect("speculated miss has a live record");
                    let mut rec = self.spec_loads.swap_remove(idx);
                    self.rename.cancel_spec(rec.dst);
                    self.sched.cancel(rec.dst);
                    let mut depth = 0u64;
                    for &(cid, ctok) in &rec.consumers {
                        // Squashed since it issued, squashed-and-reused, or
                        // already replayed.
                        let Some(e) = self.window.get_mut(cid).filter(|e| e.token == ctok) else {
                            continue;
                        };
                        e.token = self.dispatch_seq;
                        self.dispatch_seq += 1;
                        e.issued = false;
                        e.spec_held = false;
                        e.replay_pending = true;
                        depth += 1;
                    }
                    self.stats.replayed += depth;
                    self.stats.replay_depth.record(depth);
                    rec.consumers.clear();
                    self.spec_consumer_pool.push(rec.consumers);
                }
            }
        }
        self.due_scratch = due;
        // Stores whose data arrived this cycle (or earlier) complete now.
        if !self.stores_waiting_data.is_empty() {
            let now = self.now;
            let mut done = std::mem::take(&mut self.stores_done_scratch);
            done.clear();
            self.stores_waiting_data.retain(|&(id, data)| {
                if self.rename.is_ready_real(data, now) {
                    done.push(id);
                    false
                } else {
                    true
                }
            });
            for &id in &done {
                let slot = self.window.get_mut(id).expect("waiting store in flight");
                self.lsq.store_data_ready(slot.lsq);
                slot.completed = true;
            }
            progress |= !done.is_empty();
            self.stores_done_scratch = done;
        }
        progress
    }

    // ---- mispredict recovery ------------------------------------------

    /// Squashes everything younger than the resolving mispredicted
    /// `branch`: the window drops its fetch-queue part (all wrong-path by
    /// construction) and the ROB suffix, unwinding the rename map
    /// youngest first; then the LSQ and the scheduler's queues squash.
    /// Truncating the window rewinds the next instruction id, so the
    /// refetched correct path reuses the squashed id range; stale
    /// completion events die by token mismatch.
    fn recover(&mut self, branch: InstId) {
        let from = InstId(branch.0 + 1);
        // The batch buffer holds only wrong-path pulls (fills stop after
        // every branch, so nothing was buffered past the mispredicted one
        // when fetch turned down the wrong path) — none were counted
        // against the correct-path budget; the restored source re-emits
        // the correct path from the checkpoint.
        self.batch.clear();
        // Abandon any wrong-path I-line in flight, and with it the fetch
        // stall it imposed (the caller applies the redirect penalty).
        self.pending_fetch = None;
        self.fetch_stalled_until = self.fetch_stalled_until.min(self.now);
        let rename = &mut self.rename;
        let (flushed, rob_squashed) = self.window.squash_from(from, |e| {
            if let Some(arch) = e.inst.dst {
                let new = e.dst.expect("renamed destination");
                let prev = e.prev_mapping.expect("previous mapping recorded");
                rename.unallocate(arch, new, prev);
            }
        });
        debug_assert_eq!(self.window.next_id(), from, "ids rewind to the branch");
        self.lsq.squash(from);
        self.stores_waiting_data.retain(|&(id, _)| id < from);
        self.sched.squash(from);
        // Squashed loads' speculative windows die with them: their SpecMiss
        // events are dead (the instruction left the window), so
        // revert the register state here. Surviving loads keep their
        // records; their squashed consumers are filtered at the cancel by
        // the same contains/token test every stale event faces.
        if !self.spec_loads.is_empty() {
            let rename = &mut self.rename;
            let pool = &mut self.spec_consumer_pool;
            self.spec_loads.retain_mut(|r| {
                if r.load >= from {
                    rename.cancel_spec(r.dst);
                    r.consumers.clear();
                    pool.push(std::mem::take(&mut r.consumers));
                    false
                } else {
                    true
                }
            });
        }
        self.wrong_path_mode = false;
        self.waiting_mispredict = false;
        self.stats.wrong_path_squashed += flushed + rob_squashed;
        self.stats.squash_depth.record(rob_squashed);
        // Post-recovery invariant: the scheduler holds exactly the
        // surviving dispatched-but-unissued instructions — where a
        // speculatively issued (held) instruction still occupies its slot.
        debug_assert_eq!(
            {
                let (int, fp) = self.sched.occupancy();
                int + fp
            },
            self.window
                .rob()
                .filter(|e| !e.issued || e.spec_held)
                .count(),
            "scheduler occupancy diverged from ROB after squash ({})",
            self.sched.name()
        );
    }

    // ---- memory -------------------------------------------------------

    fn memory_stage(&mut self) -> bool {
        let mut pending = std::mem::take(&mut self.pending_loads_scratch);
        self.lsq.pending_load_actions_into(&mut pending);
        // Only waiting loads is quiescent; the first access of a cycle
        // always gets a port, so any other action starts a load.
        let progress = pending.iter().any(|&(_, a)| a != LoadAction::Wait);
        for &(id, action) in &pending {
            match action {
                LoadAction::Wait => {}
                LoadAction::Forward => {
                    let load = self.window.get(id).expect("pending load in flight");
                    self.lsq.load_started(load.lsq, true);
                    self.events
                        .schedule(self.now + 1, id, load.token, EventKind::Complete);
                }
                LoadAction::Access => {
                    if self.mem.try_reserve_dl1_port(self.now) {
                        let load = self.window.get(id).expect("pending load in flight");
                        let addr = load.inst.mem.expect("load has address").addr;
                        let token = load.token;
                        let has_dst = load.dst.is_some();
                        let lat = self.mem.load_latency(addr);
                        self.lsq.load_started(load.lsq, false);
                        let hit = self.cfg.mem.dl1.latency;
                        if self.cfg.load_hit_speculation && lat > hit && has_dst {
                            // The scheduler believed this load would hit:
                            // broadcast its tag at the predicted hit
                            // latency, detect the miss one cycle later
                            // (tag-match time), and deliver the real value
                            // at the true fill. Dependents that slip into
                            // the window are selectively replayed by the
                            // SpecMiss handler.
                            self.events
                                .schedule(self.now + hit, id, token, EventKind::SpecWakeup);
                            self.events.schedule(
                                self.now + hit + 1,
                                id,
                                token,
                                EventKind::SpecMiss,
                            );
                        }
                        self.events
                            .schedule(self.now + lat, id, token, EventKind::Complete);
                    }
                }
            }
        }
        self.pending_loads_scratch = pending;
        progress
    }

    // ---- issue --------------------------------------------------------

    fn issue_stage(&mut self) -> bool {
        let mut accepted = std::mem::take(&mut self.accepted_scratch);
        {
            let mut sink = CycleSink::new(
                self.now,
                &self.rename,
                &self.topology,
                &mut self.fu,
                (self.cfg.issue_width_int, self.cfg.issue_width_fp),
                self.cfg.lat,
                &mut accepted,
            );
            self.sched.issue_cycle(self.now, &mut sink);
        }
        for &issued in &accepted {
            let slot = self.window.get_mut(issued.id).expect("issued in flight");
            slot.issued = true;
            // Dataflow checker: every source value must be available now.
            // A *speculatively* ready source is part of the load-hit
            // protocol, not a violation — the issue is recorded as a
            // consumer of the speculating load and will be replayed when
            // the miss is detected. Wrong-path instructions obey the same
            // physical readiness rules; architectural correctness is only
            // ever judged against the correct path, which is all that
            // survives to commit.
            let mut consumed_spec = false;
            for src in slot.srcs.into_iter().flatten() {
                if self.rename.is_ready_real(src, self.now) {
                    continue;
                }
                if self.rename.is_spec(src) {
                    consumed_spec = true;
                    let rec = self
                        .spec_loads
                        .iter_mut()
                        .find(|r| r.dst == src)
                        .expect("spec-ready register has a live record");
                    rec.consumers.push((issued.id, slot.token));
                } else {
                    self.stats.checker_violations += 1;
                }
            }
            if slot.replay_pending {
                // The confirmed re-issue of a replayed instruction: charge
                // the cycles between the cancelled pass and this one.
                self.stats.replay_cycles_lost += self.now - slot.spec_issued_at;
                slot.replay_pending = false;
            }
            if consumed_spec {
                slot.spec_held = true;
                slot.spec_issued_at = self.now;
            }
            self.stats.issued += 1;
            if slot.wrong_path {
                self.stats.wrong_path_issued += 1;
            }
            let lat = self.cfg.lat.for_op(issued.op);
            match issued.op {
                OpClass::Branch => {
                    self.events.schedule(
                        self.now + lat,
                        issued.id,
                        slot.token,
                        EventKind::BranchResolve,
                    );
                }
                OpClass::Load => {
                    self.events.schedule(
                        self.now + lat,
                        issued.id,
                        slot.token,
                        EventKind::LoadAddrDone,
                    );
                }
                _ => {
                    // Stores complete after address generation (data was
                    // ready at issue); arithmetic completes after its unit
                    // latency.
                    self.events.schedule(
                        self.now + lat,
                        issued.id,
                        slot.token,
                        EventKind::Complete,
                    );
                }
            }
        }
        let progress = !accepted.is_empty();
        self.accepted_scratch = accepted;
        progress
    }

    // ---- dispatch / rename ---------------------------------------------

    fn dispatch_stage(&mut self) -> bool {
        let mut stall = None;
        let mut dispatched = false;
        for _ in 0..self.cfg.decode_width {
            let Some((id, fetched)) = self.window.next_to_dispatch() else {
                break;
            };
            if self.window.rob_len() >= self.cfg.rob_entries {
                stall = Some((0, None)); // rob_full
                break;
            }
            let inst = &fetched.inst;
            if let Some(dst) = inst.dst {
                if self.rename.peek_allocate(dst.class()).is_none() {
                    stall = Some((1, None)); // no_phys_reg
                    break;
                }
            }
            // Sources are renamed against the *current* map (before the
            // destination is remapped — `r3 = r3 + 1` reads the old r3).
            let renamed = [
                inst.src1.map(|r| self.rename.lookup(r)),
                inst.src2.map(|r| self.rename.lookup(r)),
            ];
            // Stores issue on their *address* operand alone (src1); the data
            // value (src2) is only needed for completion. The scheduler
            // therefore never sees a store's data source.
            let is_store = inst.op == OpClass::Store;
            let srcs = if is_store {
                [renamed[0], None]
            } else {
                renamed
            };
            let src_arch = if is_store {
                [inst.src1, None]
            } else {
                [inst.src1, inst.src2]
            };
            let srcs_ready = [
                srcs[0].is_none_or(|r| self.rename.is_ready(r, self.now)),
                srcs[1].is_none_or(|r| self.rename.is_ready(r, self.now)),
            ];
            let dst_peek = inst
                .dst
                .map(|d| self.rename.peek_allocate(d.class()).expect("checked"));
            let di = DispatchInst {
                id,
                op: inst.op,
                dst: dst_peek,
                srcs,
                srcs_ready,
                src_arch,
                dst_arch: inst.dst,
            };
            if let Err(reason) = self.sched.try_dispatch(&di, self.now) {
                let index = match reason {
                    diq_core::DispatchStall::QueueFull => 2,
                    diq_core::DispatchStall::NoEmptyQueue => 3,
                    diq_core::DispatchStall::NoFreeChain => 4,
                    diq_core::DispatchStall::Full => 5,
                };
                stall = Some((index, Some(di)));
                break;
            }
            // Commit the dispatch.
            dispatched = true;
            let prev_mapping = inst.dst.map(|d| {
                let (new, prev) = self.rename.allocate(d);
                debug_assert_eq!(Some(new), dst_peek);
                prev
            });
            let lsq = if inst.op.is_mem() {
                let addr = inst.mem.expect("memory op has address").addr;
                self.lsq.push(id, is_store, addr)
            } else {
                NO_LSQ
            };
            if fetched.wrong_path {
                self.stats.wrong_path_dispatched += 1;
            }
            let slot = self.window.dispatch_next();
            slot.dst = dst_peek;
            slot.srcs = srcs;
            slot.store_data = if is_store { renamed[1] } else { None };
            slot.prev_mapping = prev_mapping;
            slot.token = self.dispatch_seq;
            slot.lsq = lsq;
            self.dispatch_seq += 1;
        }
        if let Some((index, _)) = stall {
            self.stall_counts[index] += 1;
            self.stats.dispatch_stall_cycles += 1;
        }
        self.dispatch_stall = stall;
        dispatched
    }

    // ---- fetch ----------------------------------------------------------

    /// Refills the micro-batch buffer with up to a fetch-width group from
    /// the workload and returns how many instructions it pulled — `None`
    /// without asking the source when, for a speculative source on the
    /// correct path, the fetch budget is exhausted (wrong-path pulls are
    /// free: they are replayed from the checkpoint, not consumed).
    fn refill_batch<W>(&mut self, src: &mut W) -> Option<usize>
    where
        W: Workload + ?Sized,
    {
        debug_assert!(self.batch.is_empty(), "refill only on an empty batch");
        let counted = src.speculative() && !self.wrong_path_mode;
        let max = if counted {
            let left = self.fetch_budget - self.correct_fetched;
            left.min(self.cfg.fetch_width as u64) as usize
        } else {
            self.cfg.fetch_width
        };
        if max == 0 {
            return None;
        }
        let n = src.fill(&mut self.batch, max);
        if counted {
            self.correct_fetched += n as u64;
        }
        Some(n)
    }

    fn fetch_stage<W>(&mut self, src: &mut W, trace_done: &mut bool) -> bool
    where
        W: Workload + ?Sized,
    {
        if self.waiting_mispredict || self.now < self.fetch_stalled_until {
            return false;
        }
        let mut progress = false;
        let speculating = self.cfg.wrong_path && src.speculative();
        let line_shift = self.cfg.mem.il1.line_bytes.trailing_zeros();
        for _ in 0..self.cfg.fetch_width {
            if self.window.fetch_queue_len() >= self.cfg.fetch_queue {
                break;
            }
            let inst = match self.pending_fetch.take() {
                Some(i) => i,
                None => match self.batch.pop_front() {
                    Some(i) => i,
                    None => match self.refill_batch(src) {
                        Some(n) if n > 0 => self.batch.pop_front().expect("refill delivered"),
                        pulled => {
                            // Asking a drained source again is a call the
                            // source sees (a plain iterator need not be
                            // fused), so only a budget-bound source that
                            // already ran dry is quiet.
                            progress |= pulled.is_some() || !*trace_done;
                            *trace_done = true;
                            break;
                        }
                    },
                },
            };
            progress = true;
            // Instruction cache: one probe per new line touched.
            let line = inst.pc >> line_shift;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let lat = self.mem.fetch_latency(inst.pc);
                if lat > self.cfg.mem.il1.latency {
                    // Miss: the instruction arrives when its line does.
                    self.fetch_stalled_until = self.now + lat;
                    self.pending_fetch = Some(inst);
                    break;
                }
            }
            let id = self.window.next_id();
            let mut fetched = Slot::fetched(inst, self.wrong_path_mode);
            let mut taken = false;
            if let Some(actual) = inst.branch {
                taken = actual.taken;
                if self.wrong_path_mode {
                    // A wrong-path branch has no architectural outcome to
                    // be wrong about; fetch keeps following the synthetic
                    // program's own path, and the lookup stays out of the
                    // accuracy statistics (it can never resolve).
                    fetched.pred = Some(self.bp.predict_wrong_path(inst.pc, actual.kind));
                } else {
                    let pred = self.bp.predict(inst.pc, actual.kind);
                    fetched.pred = Some(pred);
                    let correct = pred.taken == actual.taken
                        && (!actual.taken || pred.target == Some(actual.target));
                    fetched.mispredicted = !correct;
                }
            }
            let mispredicted = fetched.mispredicted;
            let pred = fetched.pred;
            if fetched.wrong_path {
                self.stats.wrong_path_fetched += 1;
            }
            self.window.push(fetched);
            if mispredicted {
                if speculating {
                    let pred = pred.expect("branch predicted");
                    // Where the machine *believes* execution continues.
                    let wrong_pc = if pred.taken {
                        pred.target
                    } else {
                        Some(inst.pc + 4)
                    };
                    if let Some(pc) = wrong_pc {
                        // Reuse the previous recovery point's buffers when
                        // one exists (steady state allocates nothing).
                        let rec = match self.spare_recovery.take() {
                            Some(mut rec) => {
                                rec.branch = id;
                                src.checkpoint_into(&mut rec.gen);
                                self.bp.checkpoint_into(&mut rec.bp);
                                rec
                            }
                            None => Recovery {
                                branch: id,
                                gen: src.checkpoint().expect("speculative source"),
                                bp: self.bp.checkpoint(),
                            },
                        };
                        self.recovery = Some(rec);
                        src.enter_wrong_path(pc);
                        self.wrong_path_mode = true;
                        // The redirect ends this cycle's fetch group.
                        break;
                    }
                    // Predicted taken with no BTB/RAS target: the front end
                    // has no address to speculate to — stall, as hardware
                    // would.
                }
                // Fetch has no correct-path instructions until resolution.
                self.waiting_mispredict = true;
                break;
            }
            if taken || self.now < self.fetch_stalled_until {
                // Cannot fetch past a taken branch in the same cycle, and an
                // I-cache miss ends the fetch group.
                break;
            }
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_isa::ArchReg;

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::hpca2004()
    }

    fn run_insts(sched: &SchedulerConfig, insts: Vec<Inst>) -> SimStats {
        let n = insts.len() as u64;
        let mut sim = Simulator::new(&cfg(), sched);
        sim.set_benchmark("unit");
        sim.run_workload(&mut TraceSource::new(insts), n)
    }

    /// Loop-like PCs so the I-cache warms up after one block (the synthetic
    /// workloads loop the same way; linear never-repeating PCs would make
    /// every test I-cache-bound).
    fn loop_pc(i: u64) -> u64 {
        0x400_000 + (i % 16) * 4
    }

    /// A serial chain of N dependent adds takes ~N cycles on any scheme.
    #[test]
    fn serial_chain_is_latency_bound() {
        let r = ArchReg::int(8);
        for sc in [
            SchedulerConfig::unbounded_baseline(),
            SchedulerConfig::iq_64_64(),
            SchedulerConfig::issue_fifo(8, 8, 8, 16),
            SchedulerConfig::mb_distr(),
        ] {
            let insts: Vec<Inst> = (0..200)
                .map(|i| Inst::int_alu(r, r, r).at(loop_pc(i)))
                .collect();
            let stats = run_insts(&sc, insts);
            assert_eq!(stats.committed, 200, "{}", sc.label());
            assert_eq!(stats.checker_violations, 0);
            assert!(
                stats.cycles >= 200,
                "{}: serial chain finished impossibly fast ({} cycles)",
                sc.label(),
                stats.cycles
            );
            // ~200 chain cycles + one cold I-cache line + pipeline fill.
            assert!(
                stats.cycles < 200 + 160,
                "{}: serial chain should sustain ~1 IPC, took {}",
                sc.label(),
                stats.cycles
            );
        }
    }

    /// Independent instructions reach the issue width on the wide baseline.
    #[test]
    fn independent_instructions_run_wide() {
        let insts: Vec<Inst> = (0..4000)
            .map(|i| {
                let r = ArchReg::int(8 + (i % 8) as u8);
                Inst::int_alu(r, ArchReg::int(0), ArchReg::int(7)).at(loop_pc(i))
            })
            .collect();
        let stats = run_insts(&SchedulerConfig::unbounded_baseline(), insts);
        assert_eq!(stats.committed, 4000);
        assert!(
            stats.ipc() > 5.0,
            "independent ALU ops should flow near fetch width, got {}",
            stats.ipc()
        );
    }

    /// FP dependent pairs issue back-to-back: a chain of fp_mul (latency 4)
    /// runs at one instruction per 4 cycles.
    #[test]
    fn fp_chain_runs_at_unit_latency() {
        let f = ArchReg::fp(4);
        let insts: Vec<Inst> = (0..100)
            .map(|i| Inst::fp_mul(f, f, f).at(loop_pc(i)))
            .collect();
        let stats = run_insts(&SchedulerConfig::unbounded_baseline(), insts);
        assert_eq!(stats.committed, 100);
        let expected = 4 * 100;
        let slack = 160; // cold I-line + pipeline fill
        assert!(
            stats.cycles >= expected as u64 && stats.cycles < expected as u64 + slack,
            "100 chained multiplies should take ~{expected} cycles, took {}",
            stats.cycles
        );
    }

    /// Loads see the cache: a second pass over a small array is faster.
    #[test]
    fn warm_loads_outrun_cold_loads() {
        let make = |rounds: usize| -> Vec<Inst> {
            let mut v = Vec::new();
            for r in 0..rounds {
                for i in 0..64u64 {
                    v.push(
                        Inst::load(ArchReg::fp(4 + (i % 8) as u8), ArchReg::int(1), i * 32, 8)
                            .at(loop_pc(r as u64 * 64 + i)),
                    );
                }
            }
            v
        };
        let cold = run_insts(&SchedulerConfig::unbounded_baseline(), make(1));
        let warm = run_insts(&SchedulerConfig::unbounded_baseline(), make(4));
        // Per-load cost should drop sharply once lines are resident.
        let cold_per = cold.cycles as f64 / 64.0;
        let warm_per = warm.cycles as f64 / (4.0 * 64.0);
        assert!(
            warm_per < cold_per / 1.5,
            "warm {warm_per} vs cold {cold_per} cycles/load"
        );
    }

    /// Store→load forwarding works and beats a cache miss.
    #[test]
    fn store_load_forwarding() {
        // store f4 -> [A]; load f5 <- [A] (same dword)
        let insts = vec![
            Inst::store(ArchReg::fp(4), ArchReg::int(1), 0x5000, 8).at(loop_pc(0)),
            Inst::load(ArchReg::fp(5), ArchReg::int(2), 0x5000, 8).at(loop_pc(1)),
        ];
        let stats = run_insts(&SchedulerConfig::unbounded_baseline(), insts);
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.lsq_forwards, 1);
    }

    /// Unpredictable branches cost cycles.
    #[test]
    fn mispredicts_redirect_fetch() {
        // Alternate taken/not-taken from one site with random noise — some
        // mispredictions must occur and be charged.
        let mut insts = Vec::new();
        for i in 0..500u64 {
            insts.push(
                Inst::branch(ArchReg::int(5), i % 3 == 0, 0x400_100).at(0x400_000 + (i % 7) * 4),
            );
        }
        let stats = run_insts(&SchedulerConfig::unbounded_baseline(), insts);
        assert_eq!(stats.committed, 500);
        assert!(stats.mispredict_redirects > 0);
        assert!(stats.branch.lookups == 500);
    }

    /// The machine drains cleanly when the trace is shorter than the target.
    #[test]
    fn drains_short_trace() {
        let r = ArchReg::int(8);
        let insts = vec![Inst::int_alu(r, r, r).at(0x400_000); 10];
        let mut sim = Simulator::new(&cfg(), &SchedulerConfig::mb_distr());
        let stats = sim.run_workload(&mut TraceSource::new(insts), 1_000_000);
        assert_eq!(stats.committed, 10);
    }

    /// All schemes agree on committed-instruction dataflow (checker clean)
    /// across a mixed workload.
    #[test]
    fn all_schemes_pass_dataflow_checker_on_mixed_workload() {
        let spec = diq_workload::suite::by_name("equake").unwrap();
        let trace = spec.generate(4_000);
        for sc in [
            SchedulerConfig::unbounded_baseline(),
            SchedulerConfig::iq_64_64(),
            SchedulerConfig::issue_fifo(8, 8, 8, 16),
            SchedulerConfig::lat_fifo(8, 8, 8, 16),
            SchedulerConfig::mb_distr(),
            SchedulerConfig::if_distr(),
        ] {
            let mut sim = Simulator::new(&cfg(), &sc);
            let stats = sim.run_workload(&mut TraceSource::new(trace.clone()), 4_000);
            assert_eq!(stats.committed, 4_000, "{}", sc.label());
            assert_eq!(stats.checker_violations, 0, "{}", sc.label());
        }
    }
}
