//! The batched cycle loop allocates nothing in steady state: every
//! per-cycle structure (the fetch micro-batch, scheduler candidate
//! scratch, wakeup consumer lists, recovery scratch) is either sized at
//! construction or reuses its capacity across cycles.
//!
//! Proof shape: run the same workload for a short and a 4× longer budget
//! on fresh simulators and count heap allocations during each run with a
//! counting global allocator. Warm-up growth (first-touch capacity of the
//! scratch vectors) is identical in both runs, so if the long run
//! allocates *at all* after warm-up the counts differ. This is an
//! integration test on purpose: `#[global_allocator]` is per-binary, so
//! the counter cannot interfere with any other test binary. Within this
//! binary the tests run on parallel threads, so the counter is per thread:
//! one test's allocations (a 1M-instruction trace recording, say) never
//! land in another test's window.

use diq::isa::ProcessorConfig;
use diq::pipeline::{Simulator, TraceSource, Workload};
use diq::sched::SchedulerConfig;
use diq::workload::{suite, trace, TraceGenerator, TraceReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const`-initialised: no lazy initialisation, so counting from inside
    // the allocator never allocates (or recurses) itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed while running `instructions` of `trace` on a
/// fresh simulator (simulator construction is outside the count — it
/// allocates the fixed-capacity stores by design).
fn allocations_during_run(
    cfg: &ProcessorConfig,
    sched: &SchedulerConfig,
    trace: &[diq::isa::Inst],
    instructions: u64,
) -> u64 {
    let mut sim = Simulator::new(cfg, sched);
    let mut source = TraceSource::new(trace.iter().copied().take(instructions as usize));
    let before = allocations();
    let stats = sim.run_workload(&mut source, instructions);
    let after = allocations();
    assert_eq!(stats.committed, instructions);
    after - before
}

/// Allocations while replaying `instructions` from an opened trace reader
/// (reader + simulator construction excluded: the reader's two block
/// buffers are preallocated from the footer maxima at open).
fn allocations_during_replay(
    cfg: &ProcessorConfig,
    sched: &SchedulerConfig,
    reader: &mut TraceReader,
    instructions: u64,
    speculative: bool,
) -> u64 {
    let mut sim = Simulator::new(cfg, sched);
    reader.set_speculative(speculative);
    reader.set_limit(instructions);
    let before = allocations();
    let stats = sim.run_workload(reader, instructions);
    let after = allocations();
    assert_eq!(reader.error(), None);
    assert_eq!(stats.committed, instructions);
    after - before
}

/// Allocations while running `instructions` drawn straight from a
/// streaming workload (generator construction excluded).
fn allocations_during_generation<W: Workload>(
    cfg: &ProcessorConfig,
    sched: &SchedulerConfig,
    mut workload: W,
    instructions: u64,
) -> u64 {
    let mut sim = Simulator::new(cfg, sched);
    let before = allocations();
    let stats = sim.run_workload(&mut workload, instructions);
    let after = allocations();
    assert_eq!(stats.committed, instructions);
    after - before
}

/// Replaying a 1M-instruction trace allocates no more than replaying a
/// short prefix of it: reader memory is a function of the block geometry,
/// never of trace length. The same holds in wrong-path mode, for the
/// replay and for the generator: a `Copy` trace-position checkpoint, the
/// generator's buffer-reusing checkpoints and the pipeline's recovery
/// machinery allocate nothing per mispredict.
#[test]
fn trace_replay_allocates_nothing_in_steady_state() {
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name("gzip").expect("suite benchmark");
    let path = std::env::temp_dir().join(format!("diqt-alloc-{}.diqt", std::process::id()));
    let total = 1_000_000u64;
    trace::record(
        &path,
        &spec.name,
        spec.seed,
        "alloc-test",
        TraceGenerator::new(&spec),
        total,
    )
    .unwrap();
    let short = 5_000u64;
    let long = 20_000u64;
    for sched in SchedulerConfig::known() {
        let mut reader = TraceReader::open(&path).unwrap();
        let warm = allocations_during_replay(&cfg, &sched, &mut reader, short, false);
        let mut reader = TraceReader::open(&path).unwrap();
        let sustained = allocations_during_replay(&cfg, &sched, &mut reader, long, false);
        assert_eq!(
            warm,
            sustained,
            "{}: {} allocations for {short} instrs but {} for {long} — \
             trace replay allocates in steady state",
            sched.label(),
            warm,
            sustained
        );
    }

    let mut wp_cfg = cfg;
    wp_cfg.wrong_path = true;
    for sched in [SchedulerConfig::mb_distr(), SchedulerConfig::iq_64_64()] {
        let from_generator = [short, long]
            .map(|n| allocations_during_generation(&wp_cfg, &sched, TraceGenerator::new(&spec), n));
        let from_replay = [short, long].map(|n| {
            let mut reader = TraceReader::open(&path).unwrap();
            allocations_during_replay(&wp_cfg, &sched, &mut reader, n, true)
        });
        for (source, [warm, sustained]) in [("generator", from_generator), ("replay", from_replay)]
        {
            assert_eq!(
                warm,
                sustained,
                "{}: wrong-path {source} made {warm} allocations for {short} instrs \
                 but {sustained} for {long} — recovery allocates per mispredict",
                sched.label()
            );
        }
    }
    let _ = std::fs::remove_file(path);
}

/// gzip keeps the scheduler busy every cycle; `kernel:mcf` idles on
/// memory most of the time, so its runs also hold the quiescent-cycle
/// fast-forward's skip windows to zero steady-state allocation; swim is
/// FP code, the only kind that reaches the FP queues (MixBUFF's chains,
/// LatFIFO's estimate-placed FIFOs).
#[test]
fn batched_loop_allocates_nothing_in_steady_state() {
    let cfg = ProcessorConfig::hpca2004();
    let short = 5_000u64;
    let long = 20_000u64;
    for bench in ["gzip", "mcf", "swim"] {
        let spec = suite::by_name(bench).expect("suite benchmark");
        let trace = spec.generate(long as usize);
        for sched in SchedulerConfig::known() {
            let warm = allocations_during_run(&cfg, &sched, &trace, short);
            let sustained = allocations_during_run(&cfg, &sched, &trace, long);
            assert_eq!(
                warm,
                sustained,
                "{}/{bench}: {} allocations for {short} instrs but {} for {long} — \
                 the cycle loop allocates in steady state",
                sched.label(),
                warm,
                sustained
            );
        }
    }
}

/// The generator streams its instructions without allocating per pick:
/// run straight from it, under the stall model (through `TraceSource`)
/// and as a speculative wrong-path source, a 4× longer run allocates
/// exactly as much as a short one.
#[test]
fn streaming_generator_allocates_nothing_in_steady_state() {
    let cfg = ProcessorConfig::hpca2004();
    let mut wp_cfg = cfg;
    wp_cfg.wrong_path = true;
    let short = 5_000u64;
    let long = 20_000u64;
    for bench in ["gzip", "mcf", "swim"] {
        let spec = suite::by_name(bench).expect("suite benchmark");
        for sched in SchedulerConfig::known() {
            let stall = [short, long].map(|n| {
                let source = TraceSource::new(TraceGenerator::new(&spec).take(n as usize));
                allocations_during_generation(&cfg, &sched, source, n)
            });
            let wrong_path = [short, long].map(|n| {
                allocations_during_generation(&wp_cfg, &sched, TraceGenerator::new(&spec), n)
            });
            for (model, [warm, sustained]) in [("stall", stall), ("wrong-path", wrong_path)] {
                assert_eq!(
                    warm,
                    sustained,
                    "{}/{bench} ({model}): {warm} allocations for {short} instrs but \
                     {sustained} for {long} — the generator allocates in steady state",
                    sched.label()
                );
            }
        }
    }
}

/// Building a simulator is a fixed cost of every sweep point, so it is
/// pinned: the cache and BTB tag arrays are one allocation each, not one
/// per set (that was about 3,900 allocations per simulator).
#[test]
fn simulator_construction_allocates_a_bounded_amount() {
    const MAX_ALLOCATIONS: u64 = 256;
    let cfg = ProcessorConfig::hpca2004();
    for sched in SchedulerConfig::known() {
        let before = allocations();
        drop(Simulator::new(&cfg, &sched));
        let made = allocations() - before;
        assert!(
            made <= MAX_ALLOCATIONS,
            "{}: Simulator::new made {made} allocations (at most {MAX_ALLOCATIONS})",
            sched.label()
        );
    }
}
