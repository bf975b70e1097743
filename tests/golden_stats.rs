//! Golden equivalence test for the event-driven wakeup refactor.
//!
//! The schedulers in `diq-core` simulate wakeup/select event-driven
//! (per-tag consumer lists, ready lists, per-chain selection) while the
//! frozen scan implementations in `diq_core::reference` model the same
//! hardware by re-scanning full entry vectors every cycle. These tests run
//! the *same* trace through both on the identical pipeline substrate and
//! assert the complete `SimStats` — cycles, IPC numerators, stall
//! breakdowns, occupancy histograms, and every `f64` of the energy meters —
//! are **bit-for-bit identical**. Physical energy accounting is decoupled
//! from simulation work, not changed by it.

use diq::isa::ProcessorConfig;
use diq::pipeline::{SimStats, Simulator, TraceSource};
use diq::sched::{AdaptiveConfig, SchedulerConfig};
use diq::workload::{suite, TraceGenerator};

/// Runs the event-driven scheduler and the frozen scan reference on two
/// threads (the two models are independent over the same immutable trace —
/// the parallel harness the ROADMAP asked for) and returns both results.
fn run_both(sched: &SchedulerConfig, bench: &str, n: u64) -> (SimStats, SimStats) {
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name(bench).unwrap();
    let trace = spec.generate(n as usize);

    std::thread::scope(|s| {
        let fast = s.spawn(|| {
            let mut sim = Simulator::new(&cfg, sched);
            sim.set_benchmark(bench);
            sim.run_workload(&mut TraceSource::new(trace.iter().copied()), n)
        });
        let scan = s.spawn(|| {
            let mut sim = Simulator::with_scheduler(&cfg, sched.build_scan(&cfg));
            sim.set_benchmark(bench);
            sim.run_workload(&mut TraceSource::new(trace.iter().copied()), n)
        });
        (fast.join().unwrap(), scan.join().unwrap())
    })
}

/// Same two-thread comparison with wrong-path speculation enabled: both
/// sides run the PC-addressable program as a speculative [`Workload`], so
/// fetch follows predicted paths and every scheme's `squash` is exercised.
///
/// [`Workload`]: diq::pipeline::Workload
fn run_both_speculating(sched: &SchedulerConfig, bench: &str, n: u64) -> (SimStats, SimStats) {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = true;
    let spec = suite::by_name(bench).unwrap();

    std::thread::scope(|s| {
        let fast = s.spawn(|| {
            let mut sim = Simulator::new(&cfg, sched);
            sim.set_benchmark(bench);
            sim.run_workload(&mut TraceGenerator::new(&spec), n)
        });
        let scan = s.spawn(|| {
            let mut sim = Simulator::with_scheduler(&cfg, sched.build_scan(&cfg));
            sim.set_benchmark(bench);
            sim.run_workload(&mut TraceGenerator::new(&spec), n)
        });
        (fast.join().unwrap(), scan.join().unwrap())
    })
}

fn assert_identical(sched: &SchedulerConfig, bench: &str, n: u64) {
    let (fast, scan) = run_both(sched, bench, n);
    // Spot-check the load-bearing fields with readable failures before the
    // full struct equality (which covers everything, floats included).
    assert_eq!(
        fast.cycles,
        scan.cycles,
        "{}/{bench}: cycles",
        sched.label()
    );
    assert_eq!(
        fast.stall_reasons,
        scan.stall_reasons,
        "{}/{bench}: stall breakdown",
        sched.label()
    );
    for (c, pj) in fast.energy.breakdown() {
        assert!(
            scan.energy.get(c) == pj,
            "{}/{bench}: {c} energy {} (event) vs {} (scan)",
            sched.label(),
            pj,
            scan.energy.get(c)
        );
    }
    assert_eq!(
        fast,
        scan,
        "{}/{bench}: full SimStats must be bit-identical",
        sched.label()
    );
    assert_eq!(fast.checker_violations, 0, "{}/{bench}", sched.label());
}

/// Every registered scheme over the `ci_smoke` grid (gzip + swim at 2k
/// instructions) — the acceptance grid for the refactor.
#[test]
fn every_registered_scheme_is_bit_identical_on_the_ci_smoke_grid() {
    for sched in SchedulerConfig::known() {
        for bench in ["gzip", "swim"] {
            assert_identical(&sched, bench, 2_000);
        }
    }
}

/// Longer horizon on the headline schemes: mispredict steering-table
/// clears, chain reuse, FP store data on the integer side, cache misses —
/// the slow paths all get exercised at 20k instructions.
#[test]
fn headline_schemes_stay_identical_on_longer_mixed_runs() {
    for sched in [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
        SchedulerConfig::lat_fifo(16, 16, 8, 16),
    ] {
        for bench in ["mcf", "art", "equake"] {
            assert_identical(&sched, bench, 20_000);
        }
    }
}

/// Tiny geometries hit the stall paths (full queues, exhausted chains)
/// constantly; they must stall identically too.
#[test]
fn tiny_geometries_stall_identically() {
    for sched in [
        SchedulerConfig::cam(8, 8, 2),
        SchedulerConfig::issue_fifo(2, 2, 2, 2),
        SchedulerConfig::lat_fifo(2, 2, 2, 2),
        SchedulerConfig::mix_buff(2, 2, 2, 4, Some(2)),
    ] {
        for bench in ["gzip", "swim"] {
            assert_identical(&sched, bench, 3_000);
        }
    }
}

fn assert_identical_speculating(sched: &SchedulerConfig, bench: &str, n: u64) {
    let (fast, scan) = run_both_speculating(sched, bench, n);
    assert_eq!(
        fast.cycles,
        scan.cycles,
        "{}/{bench} (wrong-path): cycles",
        sched.label()
    );
    for (c, pj) in fast.energy.breakdown() {
        assert!(
            scan.energy.get(c) == pj,
            "{}/{bench} (wrong-path): {c} energy {} (event) vs {} (scan)",
            sched.label(),
            pj,
            scan.energy.get(c)
        );
    }
    assert_eq!(
        fast,
        scan,
        "{}/{bench} (wrong-path): full SimStats must be bit-identical",
        sched.label()
    );
    assert_eq!(fast.checker_violations, 0, "{}/{bench}", sched.label());
    assert_eq!(
        fast.committed,
        n,
        "{}/{bench}: commits the full budget",
        sched.label()
    );
}

/// The acceptance grid with speculation **enabled**: every registered
/// scheme's event-driven `squash` must be observationally identical to the
/// frozen scan reference's — cycles, stall breakdowns, wrong-path counters,
/// squash-depth histograms, and every energy `f64`, bit for bit.
#[test]
fn every_registered_scheme_is_bit_identical_with_speculation_on() {
    for sched in SchedulerConfig::known() {
        for bench in ["gzip", "swim"] {
            assert_identical_speculating(&sched, bench, 2_000);
        }
    }
}

/// Branchy SPECint at a longer horizon drives deep and frequent squashes
/// through the headline schemes.
#[test]
fn headline_schemes_stay_identical_speculating_on_branchy_runs() {
    for sched in [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
        SchedulerConfig::lat_fifo(16, 16, 8, 16),
    ] {
        for bench in ["gcc", "mcf"] {
            assert_identical_speculating(&sched, bench, 10_000);
        }
    }
}

/// Tiny geometries + speculation: wrong-path work collides with full-queue
/// stalls, and squash must leave the stall machinery consistent.
#[test]
fn tiny_geometries_squash_identically() {
    for sched in [
        SchedulerConfig::cam(8, 8, 2),
        SchedulerConfig::issue_fifo(2, 2, 2, 2),
        SchedulerConfig::lat_fifo(2, 2, 2, 2),
        SchedulerConfig::mix_buff(2, 2, 2, 4, Some(2)),
    ] {
        for bench in ["gzip", "gcc"] {
            assert_identical_speculating(&sched, bench, 3_000);
        }
    }
}

/// Scan-vs-event comparison with load-hit speculation enabled (and
/// optionally wrong-path speculation on top). `dl1_bytes` shrinks the L1
/// data cache so misses — and therefore speculative wakeups, cancels and
/// replays — are frequent even on small instruction budgets.
fn run_both_replaying(
    sched: &SchedulerConfig,
    bench: &str,
    n: u64,
    dl1_bytes: Option<usize>,
    wrong_path: bool,
) -> (SimStats, SimStats) {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.load_hit_speculation = true;
    cfg.wrong_path = wrong_path;
    if let Some(b) = dl1_bytes {
        cfg.mem.dl1.size_bytes = b;
    }
    let spec = suite::by_name(bench).unwrap();

    // The scheduler is built *inside* each thread (trait objects need not
    // be Send); the configs are shared by reference.
    let run = |scan: bool| -> SimStats {
        let scheduler = if scan {
            sched.build_scan(&cfg)
        } else {
            sched.build(&cfg)
        };
        let mut sim = Simulator::with_scheduler(&cfg, scheduler);
        sim.set_benchmark(bench);
        if wrong_path {
            sim.run_workload(&mut TraceGenerator::new(&spec), n)
        } else {
            sim.run_workload(&mut TraceSource::new(spec.generate(n as usize)), n)
        }
    };
    std::thread::scope(|s| {
        let fast = s.spawn(|| run(false));
        let scan = s.spawn(|| run(true));
        (fast.join().unwrap(), scan.join().unwrap())
    })
}

fn assert_identical_replaying(
    sched: &SchedulerConfig,
    bench: &str,
    n: u64,
    dl1_bytes: Option<usize>,
    wrong_path: bool,
) -> SimStats {
    let (fast, scan) = run_both_replaying(sched, bench, n, dl1_bytes, wrong_path);
    assert_eq!(
        fast.cycles,
        scan.cycles,
        "{}/{bench} (load-hit spec, wp={wrong_path}): cycles",
        sched.label()
    );
    for (c, pj) in fast.energy.breakdown() {
        assert!(
            scan.energy.get(c) == pj,
            "{}/{bench} (load-hit spec, wp={wrong_path}): {c} energy {} (event) vs {} (scan)",
            sched.label(),
            pj,
            scan.energy.get(c)
        );
    }
    assert_eq!(
        fast,
        scan,
        "{}/{bench} (load-hit spec, wp={wrong_path}): full SimStats must be bit-identical",
        sched.label()
    );
    assert_eq!(fast.checker_violations, 0, "{}/{bench}", sched.label());
    assert_eq!(
        fast.committed,
        n,
        "{}/{bench}: commits the full budget",
        sched.label()
    );
    fast
}

/// The acceptance grid with **load-hit speculation enabled**: every
/// registered scheme must produce bit-identical `SimStats` under the
/// event-driven hold/cancel/replay path and the frozen scan reference's.
/// The shrunken D-cache makes every workload miss-heavy, so the window is
/// exercised thousands of times.
#[test]
fn every_registered_scheme_is_bit_identical_with_load_hit_speculation_on() {
    for sched in SchedulerConfig::known() {
        for bench in ["gzip", "swim"] {
            assert_identical_replaying(&sched, bench, 2_000, Some(1024), false);
        }
    }
}

/// Load-hit speculation must actually speculate and replay: on a
/// miss-heavy run the protocol records misses, replays consumers, loses
/// cycles, and still retires the exact instruction budget with a clean
/// dataflow checker (every replayed instruction re-issued with real data).
#[test]
fn load_hit_speculation_produces_replays_and_stays_sound() {
    for sched in [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
        SchedulerConfig::lat_fifo(16, 16, 8, 16),
    ] {
        let stats = assert_identical_replaying(&sched, "mcf", 5_000, Some(1024), false);
        assert!(
            stats.replay_depth.count() > 0,
            "{}: no misses were speculated",
            sched.label()
        );
        assert!(stats.replayed > 0, "{}: no replays", sched.label());
        assert!(
            stats.replay_cycles_lost > 0,
            "{}: replays lost no cycles",
            sched.label()
        );
        // Every replay is one extra pass through the issue port.
        assert_eq!(
            stats.issued,
            stats.committed + stats.replayed,
            "{}: issued != committed + replayed",
            sched.label()
        );
    }
}

/// Load-hit speculation combined with wrong-path speculation: replayed
/// instructions get squashed, squashed loads abandon their windows, and
/// both models must still agree bit for bit.
#[test]
fn load_hit_and_wrong_path_speculation_combine_bit_identically() {
    for sched in SchedulerConfig::known() {
        for bench in ["gzip", "swim"] {
            assert_identical_replaying(&sched, bench, 2_000, Some(1024), true);
        }
    }
    // Branchy + miss-heavy at a longer horizon on the headline schemes.
    for sched in [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
    ] {
        let stats = assert_identical_replaying(&sched, "mcf", 5_000, Some(1024), true);
        assert!(stats.replayed > 0, "{}: no replays", sched.label());
        assert!(
            stats.wrong_path_squashed > 0,
            "{}: no squashes",
            sched.label()
        );
    }
}

/// Tiny queue geometries under load-hit speculation: held entries occupy
/// capacity, so the stall machinery collides with the replay window
/// constantly — and must do so identically in both models.
#[test]
fn tiny_geometries_replay_identically() {
    for sched in [
        SchedulerConfig::cam(8, 8, 2),
        SchedulerConfig::issue_fifo(2, 2, 2, 2),
        SchedulerConfig::lat_fifo(2, 2, 2, 2),
        SchedulerConfig::mix_buff(2, 2, 2, 4, Some(2)),
    ] {
        for bench in ["gzip", "mcf"] {
            assert_identical_replaying(&sched, bench, 3_000, Some(512), false);
        }
    }
}

/// The off position of the new knob is the default, and the stock Table 1
/// machine reproduces today's golden numbers byte for byte — pinned by
/// every stall-model and wrong-path test above, all of which run with
/// `load_hit_speculation == false`.
#[test]
fn load_hit_speculation_off_is_the_default_and_exact() {
    let cfg = ProcessorConfig::hpca2004();
    assert!(!cfg.load_hit_speculation, "oracle latency is the default");
    // An explicit `false` is the identical machine — not merely equivalent
    // statistics, the same configuration value the golden runs above used.
    let mut explicit = ProcessorConfig::hpca2004();
    explicit.load_hit_speculation = false;
    assert_eq!(explicit, cfg);
    // And with the knob off, a run must record zero speculation activity.
    let sched = SchedulerConfig::mb_distr();
    let spec = suite::by_name("mcf").unwrap();
    let mut sim = Simulator::new(&cfg, &sched);
    sim.set_benchmark("mcf");
    let stats = sim.run_workload(&mut TraceSource::new(spec.generate(3_000)), 3_000);
    assert_eq!(stats.replayed, 0);
    assert_eq!(stats.replay_cycles_lost, 0);
    assert_eq!(stats.replay_depth.count(), 0);
    assert_eq!(stats.issued, stats.committed);
}

/// A branchy workload must actually exercise the wrong path (nonzero
/// speculative work), and the legacy stall model must stay exactly what it
/// was — the off position of the knob reproduces the old golden numbers,
/// which the stall-model tests above pin.
#[test]
fn speculation_produces_wrong_path_work_and_the_off_switch_is_exact() {
    let sched = SchedulerConfig::mb_distr();
    let (fast, _) = run_both_speculating(&sched, "gcc", 5_000);
    assert!(fast.wrong_path_fetched > 0, "no wrong-path fetches on gcc");
    assert!(fast.wrong_path_dispatched > 0);
    assert!(fast.wrong_path_issued > 0, "no wrong-path issues on gcc");
    assert!(fast.wrong_path_squashed > 0);
    assert!(fast.squash_depth.count() > 0, "squash depths recorded");

    // Off position: a speculative workload with the knob off must equal
    // the legacy trace-driven run bit for bit (same machine, same stream —
    // neither the budget plumbing nor the branch-terminated micro-batch
    // fills may perturb the stall model by even one cycle).
    let cfg = ProcessorConfig::hpca2004();
    assert!(!cfg.wrong_path, "stall model is the default");
    let spec = suite::by_name("gcc").unwrap();
    let mut legacy = Simulator::new(&cfg, &sched);
    legacy.set_benchmark("gcc");
    let legacy_stats = legacy.run_workload(&mut TraceSource::new(spec.generate(5_000)), 5_000);
    assert_eq!(legacy_stats.wrong_path_fetched, 0);
    assert_eq!(legacy_stats.wrong_path_squashed, 0);
    assert_eq!(legacy_stats.squash_depth.count(), 0);

    let mut off = Simulator::new(&cfg, &sched);
    off.set_benchmark("gcc");
    let off_stats = off.run_workload(&mut TraceGenerator::new(&spec), 5_000);
    assert_eq!(
        off_stats, legacy_stats,
        "a generator workload with wrong_path off must be bit-identical to a trace workload"
    );
}

/// With the controller **disabled**, the adaptive CAM must reproduce its
/// static parent's numbers byte for byte — same cycles, same stall
/// breakdown, same energy `f64`s, zero adaptive counters — across every
/// machine mode (stall model, wrong path, load-hit speculation, both).
/// Only the scheme label may differ. It also fast-forwards exactly the
/// cycles the static parent does: a disabled controller is no controller.
#[test]
fn disabled_controller_reproduces_the_static_parent_byte_for_byte() {
    let parent = SchedulerConfig::iq_64_64();
    let off = SchedulerConfig::adaptive_cam(64, 64, 8, AdaptiveConfig::disabled());
    for (wrong_path, load_hit_speculation) in
        [(false, false), (true, false), (false, true), (true, true)]
    {
        let mut cfg = ProcessorConfig::hpca2004();
        cfg.wrong_path = wrong_path;
        cfg.load_hit_speculation = load_hit_speculation;
        cfg.mem.dl1.size_bytes = 1024; // miss-heavy: exercise cancel/replay
        let spec = suite::by_name("mcf").unwrap();
        let run = |sched: &SchedulerConfig| -> (SimStats, u64) {
            let mut sim = Simulator::new(&cfg, sched);
            sim.set_benchmark("mcf");
            let stats = if wrong_path {
                sim.run_workload(&mut TraceGenerator::new(&spec), 3_000)
            } else {
                sim.run_workload(&mut TraceSource::new(spec.generate(3_000)), 3_000)
            };
            (stats, sim.fast_forwarded_cycles())
        };
        let (want, want_skipped) = run(&parent);
        let (mut got, got_skipped) = run(&off);
        assert_eq!(
            got_skipped, want_skipped,
            "wp={wrong_path} lhs={load_hit_speculation}: IQ_64_64_adapt_off \
             must fast-forward the same cycles as IQ_64_64"
        );
        assert_eq!(got.resize_events, 0, "a disabled controller never resizes");
        assert_eq!(
            got.gated_bank_cycles, 0,
            "a disabled controller never gates"
        );
        assert_eq!(got.scheme, "IQ_64_64_adapt_off");
        got.scheme.clone_from(&want.scheme);
        assert_eq!(
            got, want,
            "wp={wrong_path} lhs={load_hit_speculation}: IQ_64_64_adapt_off \
             must equal IQ_64_64 byte for byte"
        );
    }
}

/// An **enabled** controller on a long miss-heavy run actually resizes and
/// gates banks, reports it through `SimStats`, charges bank-idle retention
/// energy — and stays bit-identical to its scan twin while doing so, with
/// wrong-path and load-hit speculation both on.
#[test]
fn enabled_controller_resizes_gates_and_stays_bit_identical() {
    let aggressive = AdaptiveConfig {
        epoch_cycles: 64,
        hysteresis_epochs: 1,
        ..AdaptiveConfig::default()
    };
    let sched = SchedulerConfig::adaptive_cam(64, 64, 8, aggressive);
    let stats = assert_identical_replaying(&sched, "mcf", 5_000, Some(1024), true);
    assert!(stats.resize_events > 0, "controller never resized");
    assert!(stats.gated_bank_cycles > 0, "controller never gated a bank");
    let idle = stats
        .energy
        .breakdown()
        .find(|(c, _)| c.paper_label() == "bank_idle");
    let (_, idle_pj) = idle.expect("an enabled controller meters bank-idle energy");
    assert!(idle_pj > 0.0, "bank-idle retention energy must accrue");
}

/// `run_workload` is the one entry point (the PR 6 shims are gone): a
/// re-run through a fresh simulator must be bit-identical on both the
/// trace-source and PC-addressable-program paths.
#[test]
fn run_workload_is_deterministic_on_both_workload_shapes() {
    let sched = SchedulerConfig::if_distr();
    let spec = suite::by_name("gzip").unwrap();

    // Trace path.
    let cfg = ProcessorConfig::hpca2004();
    let trace = spec.generate(3_000);
    let mut a = Simulator::new(&cfg, &sched);
    a.set_benchmark("gzip");
    let first = a.run_workload(&mut TraceSource::new(trace.clone()), 3_000);
    let mut b = Simulator::new(&cfg, &sched);
    b.set_benchmark("gzip");
    let second = b.run_workload(&mut TraceSource::new(trace), 3_000);
    assert_eq!(first, second, "trace path diverged");

    // Program path, with speculation on so the checkpoint machinery runs.
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = true;
    let mut a = Simulator::new(&cfg, &sched);
    a.set_benchmark("gzip");
    let first = a.run_workload(&mut TraceGenerator::new(&spec), 3_000);
    let mut b = Simulator::new(&cfg, &sched);
    b.set_benchmark("gzip");
    let second = b.run_workload(&mut TraceGenerator::new(&spec), 3_000);
    assert_eq!(first, second, "program path diverged");
}

/// The quiescent-cycle fast-forward's exactness proof: the event-driven
/// scheduler (which lets the pipeline skip idle cycles) against its scan
/// twin (which never does), on the miss-bound workloads where most cycles
/// are idle, under all four speculation modes. Returns the event run's
/// statistics and the number of cycles it skipped.
fn assert_identical_fast_forwarding(
    sched: &SchedulerConfig,
    bench: &str,
    n: u64,
    wrong_path: bool,
    load_hit_speculation: bool,
) -> (SimStats, u64) {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = wrong_path;
    cfg.load_hit_speculation = load_hit_speculation;
    let spec = suite::by_name(bench).unwrap();
    let run = |scan: bool| -> (SimStats, u64) {
        let scheduler = if scan {
            sched.build_scan(&cfg)
        } else {
            sched.build(&cfg)
        };
        let mut sim = Simulator::with_scheduler(&cfg, scheduler);
        sim.set_benchmark(bench);
        let stats = if wrong_path {
            sim.run_workload(&mut TraceGenerator::new(&spec), n)
        } else {
            sim.run_workload(&mut TraceSource::new(spec.generate(n as usize)), n)
        };
        (stats, sim.fast_forwarded_cycles())
    };
    let ((fast, skipped), (scan, scan_skipped)) = std::thread::scope(|s| {
        let fast = s.spawn(|| run(false));
        let scan = s.spawn(|| run(true));
        (fast.join().unwrap(), scan.join().unwrap())
    });
    let mode = format!("wp={wrong_path} lhs={load_hit_speculation}");
    assert_eq!(
        scan_skipped,
        0,
        "{}/{bench} ({mode}): a scan twin skipped",
        sched.label()
    );
    assert_eq!(
        fast.cycles,
        scan.cycles,
        "{}/{bench} ({mode}): cycles",
        sched.label()
    );
    for (c, pj) in fast.energy.breakdown() {
        assert!(
            scan.energy.get(c) == pj,
            "{}/{bench} ({mode}): {c} energy {} (fast-forwarding) vs {} (scan)",
            sched.label(),
            pj,
            scan.energy.get(c)
        );
    }
    assert_eq!(
        fast,
        scan,
        "{}/{bench} ({mode}): full SimStats must be bit-identical",
        sched.label()
    );
    assert_eq!(fast.committed, n, "{}/{bench} ({mode})", sched.label());
    (fast, skipped)
}

/// Every registered scheme × the miss-bound workloads × the four
/// speculation modes: skipping idle cycles changes no statistic, bit for
/// bit. And the skip must actually run — on mcf, the headline CAM and
/// MixBUFF machines, the adaptive CAM (whose bank controllers are charged
/// in bulk up to their next epoch boundary) and LatFIFO (which wakes when
/// a stalled FP instruction's estimate passes a tail) spend most of their
/// cycles idle waiting on memory, and at least half of those cycles must
/// be jumped over, or the equality above would prove nothing.
#[test]
fn fast_forward_is_bit_identical_and_engages_on_miss_bound_runs() {
    let n = 10_000;
    for sched in SchedulerConfig::known() {
        for bench in ["mcf", "misschase", "art"] {
            for (wrong_path, lhs) in [(false, false), (true, false), (false, true), (true, true)] {
                let (stats, skipped) =
                    assert_identical_fast_forwarding(&sched, bench, n, wrong_path, lhs);
                let engaged = [
                    "IQ_64_64",
                    "MB_distr",
                    "IQ_64_64_adapt",
                    "LatFIFO_16x16_8x16",
                ]
                .contains(&sched.label().as_str());
                if engaged && bench == "mcf" && !wrong_path && !lhs {
                    assert!(
                        2 * skipped >= stats.cycles,
                        "{}/mcf: only {skipped} of {} cycles fast-forwarded",
                        sched.label(),
                        stats.cycles
                    );
                }
            }
        }
    }
}

/// A scheduler that accepts work but never issues it — a deadlock by
/// construction — optionally forwarding the fast-forward hook to the CAM
/// it wraps.
struct NeverIssues {
    inner: Box<dyn diq::sched::Scheduler>,
    forward_idle: bool,
}

impl diq::sched::Scheduler for NeverIssues {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn try_dispatch(
        &mut self,
        inst: &diq::sched::DispatchInst,
        now: u64,
    ) -> Result<(), diq::sched::DispatchStall> {
        self.inner.try_dispatch(inst, now)
    }
    fn issue_cycle(&mut self, _now: u64, _sink: &mut dyn diq::sched::IssueSink) {}
    fn on_result(&mut self, dst: diq::isa::PhysReg, now: u64) {
        self.inner.on_result(dst, now);
    }
    fn on_mispredict(&mut self) {
        self.inner.on_mispredict();
    }
    fn squash(&mut self, from: diq::isa::InstId) {
        self.inner.squash(from);
    }
    fn cancel(&mut self, tag: diq::isa::PhysReg) {
        self.inner.cancel(tag);
    }
    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }
    fn energy(&self) -> &diq::power::EnergyMeter {
        self.inner.energy()
    }
    fn fu_topology(&self) -> &diq::sched::FuTopology {
        self.inner.fu_topology()
    }
    fn idle_until(
        &mut self,
        now: u64,
        limit: u64,
        stalled: Option<&diq::sched::DispatchInst>,
    ) -> u64 {
        if self.forward_idle {
            self.inner.idle_until(now, limit, stalled)
        } else {
            now
        }
    }
}

/// The skip never passes the deadlock check: a machine that stops
/// committing panics at the same cycle, with the same diagnostics, whether
/// its idle cycles are skipped or run one by one.
#[test]
fn deadlock_fires_at_the_same_cycle_when_fast_forwarding() {
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name("gzip").unwrap();
    let trace = spec.generate(2_000);
    let deadlock = |forward_idle: bool| -> (String, u64) {
        let sched = NeverIssues {
            inner: SchedulerConfig::iq_64_64().build(&cfg),
            forward_idle,
        };
        let mut sim = Simulator::with_scheduler(&cfg, Box::new(sched));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_workload(&mut TraceSource::new(trace.iter().copied()), 2_000)
        }));
        let payload = result.expect_err("a machine that never issues must deadlock");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message");
        (message, sim.fast_forwarded_cycles())
    };
    let (stepped, stepped_skips) = deadlock(false);
    let (skipped, skips) = deadlock(true);
    assert!(
        stepped.starts_with("deadlock: no commit since cycle"),
        "{stepped}"
    );
    assert_eq!(stepped_skips, 0);
    assert!(skips > 0, "the forwarding machine never fast-forwarded");
    assert_eq!(skipped, stepped, "the deadlock must fire at the same cycle");
}
