//! The traced half of the diq benchmark (`perfbench/run.py --trace 1`).
//!
//! Every number here comes from wrapping calls into the simulator's public
//! API; no simulator code is instrumented:
//!
//! * the workload source: `Workload::fill` and `Workload::restore`, through
//!   [`TracedWorkload`];
//! * the issue queue: every `Scheduler` call, plus the results of
//!   `IssueSink::try_issue` inside `issue_cycle`, through
//!   [`TracedScheduler`], installed with `Simulator::with_scheduler`;
//! * `Simulator::run_workload` as a whole;
//! * the sweep orchestration: `ExperimentSpec::expand`, `Point::key`,
//!   `ResultStore::load`, `Point::execute`, `PointResult::from_stats`,
//!   `StoreWriter::append` and `ResultStore::write_manifest`, called in the
//!   order `diq_exp::sweep_as` calls them, in both commands: `sim` runs
//!   each point with its scheduler and source wrapped, `sweep` runs
//!   `Point::execute` itself.
//!
//! Wrappers take no lock and allocate nothing: counters are `Cell`s behind
//! one `Rc` made before the run, and times are timestamp-counter ticks,
//! converted to nanoseconds once per report.
//!
//! ```text
//! perfbench-traced sim <spec.json> <store-dir>             one JSON line per point
//! perfbench-traced sweep <spec.json> <store-dir>           one JSON line
//! ```

use diq_core::{DispatchInst, DispatchStall, FuTopology, IssueSink, Scheduler};
use diq_exp::{
    fnv1a64, ExperimentSpec, ManifestEntry, Point, PointRecord, PointResult, ResultStore,
    RunManifest,
};
use diq_isa::{Cycle, Inst, InstId, OpClass, PhysReg};
use diq_pipeline::{SimStats, Simulator, SourceCheckpoint, StageProfile, TraceSource, Workload};
use diq_power::EnergyMeter;
use diq_workload::{TraceGenerator, TraceReader, WorkloadSource};
use serde::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// Counts heap allocations of the calling thread.
///
/// The counter is a `const`-initialised thread local without a destructor:
/// bumping it never allocates, and allocations made by other threads (the
/// sweep workers, or anything else running concurrently) never land in a
/// simulation's count.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter update neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A timestamp: the time-stamp counter on x86-64 (a few ns, no system
/// call), a monotonic clock in ns elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: rdtsc is unprivileged and side-effect-free.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static BASE: OnceLock<Instant> = OnceLock::new();
        BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Converts ticks to nanoseconds, calibrated against `Instant` over the
/// process lifetime so far.
struct Clock {
    started: Instant,
    ticks0: u64,
}

impl Clock {
    fn start() -> Self {
        Clock {
            started: Instant::now(),
            ticks0: ticks(),
        }
    }

    fn ns_per_tick(&self) -> f64 {
        let ns = self.started.elapsed().as_nanos() as f64;
        let t = ticks().wrapping_sub(self.ticks0).max(1) as f64;
        ns / t
    }
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

/// Times one call: adds its ticks to `time` and one to `calls`.
#[inline]
fn timed<R>(time: &Cell<u64>, calls: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let t0 = ticks();
    let r = f();
    add(time, ticks().wrapping_sub(t0));
    add(calls, 1);
    r
}

/// Per-layer counters of one simulated point. Times are in ticks.
#[derive(Default)]
struct Tally {
    run: Cell<u64>,
    fill: Cell<u64>,
    fill_calls: Cell<u64>,
    fill_insts: Cell<u64>,
    restore: Cell<u64>,
    restore_calls: Cell<u64>,
    dispatch: Cell<u64>,
    dispatch_calls: Cell<u64>,
    dispatch_errs: Cell<u64>,
    issue: Cell<u64>,
    issue_calls: Cell<u64>,
    idle_issue_calls: Cell<u64>,
    issued: Cell<u64>,
    wakeup: Cell<u64>,
    wakeup_calls: Cell<u64>,
    squash: Cell<u64>,
    squash_calls: Cell<u64>,
    cancel: Cell<u64>,
    cancel_calls: Cell<u64>,
}

/// Counts the issue requests the pipeline accepts during one
/// `issue_cycle`.
struct CountingSink<'a> {
    inner: &'a mut dyn IssueSink,
    accepted: u64,
}

impl IssueSink for CountingSink<'_> {
    fn is_ready(&self, r: PhysReg) -> bool {
        self.inner.is_ready(r)
    }

    fn is_spec_ready(&self, r: PhysReg) -> bool {
        self.inner.is_spec_ready(r)
    }

    fn try_issue(
        &mut self,
        inst: InstId,
        op: OpClass,
        queue: Option<(diq_core::Side, usize)>,
    ) -> bool {
        let ok = self.inner.try_issue(inst, op, queue);
        self.accepted += u64::from(ok);
        ok
    }
}

/// A scheduler that times and counts every call into the one it wraps.
/// Methods with default bodies are forwarded too, so the wrapped scheme's
/// own overrides (and hence the statistics) are unchanged.
struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    tally: Rc<Tally>,
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_dispatch(&mut self, inst: &DispatchInst, now: Cycle) -> Result<(), DispatchStall> {
        let t = &self.tally;
        let r = timed(&t.dispatch, &t.dispatch_calls, || {
            self.inner.try_dispatch(inst, now)
        });
        add(&t.dispatch_errs, u64::from(r.is_err()));
        r
    }

    fn issue_cycle(&mut self, now: Cycle, sink: &mut dyn IssueSink) {
        let t = &self.tally;
        let mut sink = CountingSink {
            inner: sink,
            accepted: 0,
        };
        timed(&t.issue, &t.issue_calls, || {
            self.inner.issue_cycle(now, &mut sink);
        });
        add(&t.issued, sink.accepted);
        add(&t.idle_issue_calls, u64::from(sink.accepted == 0));
    }

    fn on_result(&mut self, dst: PhysReg, now: Cycle) {
        let t = &self.tally;
        timed(&t.wakeup, &t.wakeup_calls, || {
            self.inner.on_result(dst, now)
        });
    }

    fn on_mispredict(&mut self) {
        self.inner.on_mispredict();
    }

    fn squash(&mut self, from: InstId) {
        let t = &self.tally;
        timed(&t.squash, &t.squash_calls, || self.inner.squash(from));
    }

    fn cancel(&mut self, tag: PhysReg) {
        let t = &self.tally;
        timed(&t.cancel, &t.cancel_calls, || self.inner.cancel(tag));
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
}

/// A workload source that times `fill` and `restore` of the one it wraps.
struct TracedWorkload<'a, W> {
    inner: &'a mut W,
    tally: &'a Tally,
}

impl<W: Workload> Workload for TracedWorkload<'_, W> {
    fn fill(&mut self, out: &mut VecDeque<Inst>, max: usize) -> usize {
        let t = self.tally;
        let n = timed(&t.fill, &t.fill_calls, || self.inner.fill(out, max));
        add(&t.fill_insts, n as u64);
        n
    }

    fn speculative(&self) -> bool {
        self.inner.speculative()
    }

    fn checkpoint(&self) -> Option<SourceCheckpoint> {
        self.inner.checkpoint()
    }

    fn checkpoint_into(&self, cp: &mut SourceCheckpoint) {
        self.inner.checkpoint_into(cp);
    }

    fn restore(&mut self, cp: &SourceCheckpoint) {
        let t = self.tally;
        timed(&t.restore, &t.restore_calls, || self.inner.restore(cp));
    }

    fn enter_wrong_path(&mut self, pc: u64) {
        self.inner.enter_wrong_path(pc);
    }
}

/// Runs `source` to `target` committed instructions and returns the stats
/// with the allocations made meanwhile on this thread.
fn run_traced<W: Workload>(
    sim: &mut Simulator,
    source: &mut W,
    target: u64,
    tally: &Tally,
) -> (SimStats, u64) {
    let mut source = TracedWorkload {
        inner: source,
        tally,
    };
    let allocs0 = allocs();
    let t0 = ticks();
    let stats = sim.run_workload(&mut source, target);
    add(&tally.run, ticks().wrapping_sub(t0));
    (stats, allocs() - allocs0)
}

/// `Point::execute` with the scheduler and the workload source wrapped.
/// It must stay in step with `diq_exp::Point::execute`: the benchmark's
/// fingerprint check fails when the two give different results.
fn execute_traced(point: &Point, tally: &Rc<Tally>) -> Result<(SimStats, u64), String> {
    let sched = TracedScheduler {
        inner: point.scheme.build(&point.machine),
        tally: Rc::clone(tally),
    };
    let mut sim = Simulator::with_scheduler(&point.machine, Box::new(sched));
    sim.set_benchmark(point.benchmark());
    let n = point.instructions;
    match &point.source {
        WorkloadSource::Spec(spec) => {
            if point.machine.wrong_path {
                Ok(run_traced(
                    &mut sim,
                    &mut TraceGenerator::new(spec),
                    n,
                    tally,
                ))
            } else {
                let trace = TraceGenerator::new(spec).take(n as usize);
                Ok(run_traced(&mut sim, &mut TraceSource::new(trace), n, tally))
            }
        }
        WorkloadSource::Trace(t) => {
            let mut reader =
                TraceReader::open(&t.path).map_err(|e| format!("trace {}: {e}", t.path))?;
            if reader.meta().content != t.content {
                return Err(format!("trace {} changed since resolution", t.path));
            }
            reader.set_speculative(point.machine.wrong_path);
            reader.set_limit(n);
            let out = run_traced(&mut sim, &mut reader, n, tally);
            match reader.error() {
                Some(e) => Err(format!("trace {} failed mid-replay: {e}", t.path)),
                None => Ok(out),
            }
        }
    }
}

/// The result fingerprint the benchmark checks: FNV-1a over the record's
/// compact JSON, exactly the `result` object `diq sweep` stores.
fn fingerprint(result: &PointResult) -> String {
    let json = serde_json::to_string(result).expect("results serialize");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Nanoseconds one timed call adds (two timestamps and a counter update),
/// and the nanoseconds this measurement took, which the benchmark takes off
/// the traced process's wall time.
fn timer_cost_ns(ns_per_tick: f64) -> (f64, f64) {
    const N: u64 = 10_000;
    let time = Cell::new(0);
    let calls = Cell::new(0);
    let t0 = ticks();
    for i in 0..N {
        timed(&time, &calls, || std::hint::black_box(i));
    }
    let total = ticks().wrapping_sub(t0) as f64 * ns_per_tick;
    (total / N as f64, total)
}

fn json_line(fields: Vec<(&str, Value)>) -> String {
    let map = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    serde_json::to_string(&Value::Map(map)).expect("values serialize")
}

fn read_spec(path: &str) -> Result<ExperimentSpec, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read `{path}`: {e}"))?;
    ExperimentSpec::from_json(&json).map_err(|e| format!("`{path}`: {e}"))
}

/// One traced pass over a fresh store, with each point's scheduler and
/// source wrapped: the same store, key and manifest work as the untraced
/// `diq sweep` pass the benchmark compares it with.
fn cmd_sim(spec_path: &str, store_dir: &str) -> Result<(), String> {
    let clock = Clock::start();
    let spec = read_spec(spec_path)?;
    let store =
        ResultStore::open(store_dir).map_err(|e| format!("open store `{store_dir}`: {e}"))?;
    let mut runs = Vec::new();
    let pass = traced_sweep(&spec, &store, &mut |point| {
        let tally = Rc::new(Tally::default());
        let (stats, allocs) = execute_traced(point, &tally)?;
        runs.push((tally, allocs, stats.clone()));
        Ok(stats)
    })?;
    if pass.computed != pass.records.len() || runs.len() != pass.records.len() {
        return Err(format!(
            "store `{store_dir}` was not fresh: {} of {} points computed",
            pass.computed,
            pass.records.len()
        ));
    }
    let k = clock.ns_per_tick();
    let (timer_ns, calibration_ns) = timer_cost_ns(k);
    for (record, (tally, allocs, stats)) in pass.records.iter().zip(runs) {
        let ns = |c: &Cell<u64>| Value::Float(c.get() as f64 * k);
        let n = |c: &Cell<u64>| Value::UInt(c.get());
        let t = &*tally;
        println!(
            "{}",
            json_line(vec![
                ("key", Value::Str(record.key.clone())),
                ("fingerprint", Value::Str(fingerprint(&record.result))),
                ("target", Value::UInt(record.result.instructions)),
                ("committed", Value::UInt(stats.committed)),
                ("checker_violations", Value::UInt(stats.checker_violations)),
                ("cycles", Value::UInt(stats.cycles)),
                (
                    "mispredict_redirects",
                    Value::UInt(stats.mispredict_redirects)
                ),
                (
                    "wrong_path_squashed",
                    Value::UInt(stats.wrong_path_squashed)
                ),
                ("replayed", Value::UInt(stats.replayed)),
                (
                    "dispatch_stall_cycles",
                    Value::UInt(stats.dispatch_stall_cycles)
                ),
                ("dl1_accesses", Value::UInt(stats.dl1.accesses)),
                ("dl1_misses", Value::UInt(stats.dl1.misses())),
                ("allocs", Value::UInt(allocs)),
                ("run_ns", ns(&t.run)),
                ("fill_ns", ns(&t.fill)),
                ("fill_calls", n(&t.fill_calls)),
                ("fill_insts", n(&t.fill_insts)),
                ("restore_ns", ns(&t.restore)),
                ("restore_calls", n(&t.restore_calls)),
                ("dispatch_ns", ns(&t.dispatch)),
                ("dispatch_calls", n(&t.dispatch_calls)),
                ("dispatch_errs", n(&t.dispatch_errs)),
                ("issue_cycle_ns", ns(&t.issue)),
                ("issue_cycle_calls", n(&t.issue_calls)),
                ("idle_issue_cycles", n(&t.idle_issue_calls)),
                ("issued", n(&t.issued)),
                ("wakeup_ns", ns(&t.wakeup)),
                ("wakeup_calls", n(&t.wakeup_calls)),
                ("squash_ns", ns(&t.squash)),
                ("squash_calls", n(&t.squash_calls)),
                ("cancel_ns", ns(&t.cancel)),
                ("cancel_calls", n(&t.cancel_calls)),
                ("timer_ns", Value::Float(timer_ns)),
                ("calibration_s", Value::Float(calibration_ns / 1e9)),
                ("profile_feature", Value::Bool(StageProfile::ENABLED)),
            ])
        );
    }
    Ok(())
}

/// Ticks spent in each orchestration call of one traced sweep pass.
#[derive(Default)]
struct SweepTrace {
    wall: u64,
    expand: u64,
    key: u64,
    load: u64,
    execute: Vec<u64>,
    record: u64,
    append: u64,
    manifest: u64,
    computed: usize,
    records: Vec<PointRecord>,
}

/// One pass of `diq_exp::sweep_as` with one worker (`diq sweep --threads
/// 1`, as the benchmark runs it), step for step, with each call timed.
/// `execute` stands where `sweep_as` calls `Point::execute`.
fn traced_sweep(
    spec: &ExperimentSpec,
    store: &ResultStore,
    execute: &mut dyn FnMut(&Point) -> Result<SimStats, String>,
) -> Result<SweepTrace, String> {
    let mut tr = SweepTrace::default();
    let start = ticks();
    let lap = |since: &mut u64| {
        let now = ticks();
        let d = now.wrapping_sub(*since);
        *since = now;
        d
    };
    let mut t = ticks();
    let points = spec.expand()?;
    tr.expand = lap(&mut t);
    let keys: Vec<String> = points.iter().map(Point::key).collect();
    tr.key = lap(&mut t);
    let index = store.load().map_err(|e| format!("store load: {e}"))?;
    tr.load = lap(&mut t);

    let mut claimed = HashSet::new();
    let missing: Vec<usize> = (0..points.len())
        .filter(|&i| !index.contains_key(&keys[i]) && claimed.insert(keys[i].as_str()))
        .collect();
    let mut computed: Vec<PointRecord> = Vec::with_capacity(missing.len());
    // `sweep_as` appends after every chunk of 4 × threads points.
    for chunk in missing.chunks(4) {
        let mut records = Vec::with_capacity(chunk.len());
        for &i in chunk {
            lap(&mut t);
            let stats = execute(&points[i])?;
            tr.execute.push(lap(&mut t));
            let result = PointResult::from_stats(&points[i], &stats);
            tr.record += lap(&mut t);
            records.push(PointRecord {
                key: keys[i].clone(),
                result,
            });
        }
        lap(&mut t);
        store
            .writer()
            .and_then(|mut w| w.append(&records))
            .map_err(|e| format!("store append: {e}"))?;
        tr.append += lap(&mut t);
        computed.extend(records);
    }

    let fresh: HashMap<&str, &PointRecord> = computed.iter().map(|r| (r.key.as_str(), r)).collect();
    tr.computed = keys
        .iter()
        .filter(|k| fresh.contains_key(k.as_str()))
        .count();
    tr.records = points
        .iter()
        .zip(&keys)
        .map(|(point, k)| {
            let mut rec = fresh
                .get(k.as_str())
                .map(|r| (*r).clone())
                .or_else(|| index.get(k).cloned())
                .expect("every key is stored or freshly computed");
            rec.result.machine.clone_from(&point.machine_label);
            rec
        })
        .collect();
    let manifest = RunManifest {
        name: spec.name.clone(),
        description: spec.description.clone(),
        points: tr
            .records
            .iter()
            .map(|r| ManifestEntry {
                key: r.key.clone(),
                scheme: r.result.scheme.clone(),
                benchmark: r.result.benchmark.clone(),
                instructions: r.result.instructions,
                machine: r.result.machine.clone(),
            })
            .collect(),
    };
    lap(&mut t);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("write manifest: {e}"))?;
    tr.manifest = lap(&mut t);
    tr.wall = ticks().wrapping_sub(start);
    Ok(tr)
}

fn percentile_ms(sorted_ticks: &[u64], q: f64, ns_per_tick: f64) -> f64 {
    if sorted_ticks.is_empty() {
        return 0.0;
    }
    let i = ((sorted_ticks.len() - 1) as f64 * q).round() as usize;
    sorted_ticks[i] as f64 * ns_per_tick / 1e6
}

fn cmd_sweep(spec_path: &str, store_dir: &str) -> Result<(), String> {
    let clock = Clock::start();
    let spec = read_spec(spec_path)?;
    let store =
        ResultStore::open(store_dir).map_err(|e| format!("open store `{store_dir}`: {e}"))?;
    let cold = traced_sweep(&spec, &store, &mut |p| Ok(p.execute()))?;
    let resume = traced_sweep(&spec, &store, &mut |p| Ok(p.execute()))?;
    let k = clock.ns_per_tick();
    let (timer_ns, calibration_ns) = timer_cost_ns(k);
    let s = |t: u64| Value::Float(t as f64 * k / 1e9);
    let mut exec = cold.execute.clone();
    exec.sort_unstable();
    let fingerprints = cold
        .records
        .iter()
        .map(|r| (r.key.clone(), Value::Str(fingerprint(&r.result))))
        .collect();
    let valid = cold
        .records
        .iter()
        .filter(|r| r.result.committed == r.result.instructions && r.result.checker_violations == 0)
        .count();
    println!(
        "{}",
        json_line(vec![
            ("points", Value::UInt(cold.records.len() as u64)),
            ("computed", Value::UInt(cold.computed as u64)),
            ("valid", Value::UInt(valid as u64)),
            ("cold_s", s(cold.wall)),
            ("expand_s", s(cold.expand)),
            ("key_s", s(cold.key)),
            ("store_load_s", s(cold.load)),
            ("execute_s", s(cold.execute.iter().sum())),
            (
                "execute_ms_p50",
                Value::Float(percentile_ms(&exec, 0.50, k))
            ),
            (
                "execute_ms_p95",
                Value::Float(percentile_ms(&exec, 0.95, k))
            ),
            ("record_s", s(cold.record)),
            ("store_append_s", s(cold.append)),
            ("manifest_s", s(cold.manifest)),
            ("resume_s", s(resume.wall)),
            ("resume_computed", Value::UInt(resume.computed as u64)),
            (
                "resume_matches",
                Value::Bool(resume.records == cold.records)
            ),
            ("resume_store_load_s", s(resume.load)),
            ("resume_key_s", s(resume.key)),
            ("timer_ns", Value::Float(timer_ns)),
            ("calibration_s", Value::Float(calibration_ns / 1e9)),
            ("fingerprints", Value::Map(fingerprints)),
            ("profile_feature", Value::Bool(StageProfile::ENABLED)),
        ])
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["sim", spec, store] => cmd_sim(spec, store),
        ["sweep", spec, store] => cmd_sweep(spec, store),
        _ => Err("usage: perfbench-traced sim <spec.json> <store-dir> | \
                  sweep <spec.json> <store-dir>"
            .into()),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
