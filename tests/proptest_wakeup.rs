//! Property test for the event-driven wakeup refactor: random instruction
//! traces must produce **identical `SimStats`** under the frozen scan
//! wakeup (`diq_core::reference`) and the event-driven wakeup, for every
//! registered scheme. The golden test pins the shipped grids; this hunts
//! the corners — random dependence shapes, FP/INT mixes, branch noise and
//! memory behaviour. The event-driven side runs with its bookkeeping
//! checked after every scheduler call (`SchedulerConfig::build_checked`).

use diq::isa::ProcessorConfig;
use diq::pipeline::{Simulator, TraceSource};
use diq::sched::SchedulerConfig;
use diq::workload::{BenchClass, BranchPattern, MemPattern, OpMix, TraceGenerator, WorkloadSpec};
use proptest::prelude::*;

/// A random but always-valid workload spec (the shape used by the scheme
/// soundness property test, tuned to keep both sides of the machine busy).
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..=24,  // live chains
        1usize..=6,   // min chain len
        0usize..=6,   // extra chain len
        0.0f64..0.35, // load frac
        0.0f64..0.15, // store frac
        0.0f64..0.25, // branch frac
        0.5f64..0.98, // taken bias
        0.0f64..0.3,  // noise
        0.0f64..1.0,  // fp-ness of the mix
        any::<u64>(), // seed
    )
        .prop_map(
            |(chains, len_lo, len_extra, loads, stores, branches, bias, noise, fpness, seed)| {
                WorkloadSpec {
                    name: "prop".into(),
                    class: if fpness > 0.5 {
                        BenchClass::Fp
                    } else {
                        BenchClass::Int
                    },
                    live_chains: chains,
                    chain_len: (len_lo, len_lo + len_extra),
                    chain_starts_with_load: 0.5,
                    chain_ends_with_store: 0.3,
                    cross_dep_prob: 0.1,
                    mix: OpMix {
                        int_alu: 1.0 - fpness,
                        int_mul: 0.02,
                        int_div: 0.002,
                        fp_add: fpness,
                        fp_mul: fpness * 0.8,
                        fp_div: fpness * 0.02,
                    },
                    mem: MemPattern {
                        load_frac: loads,
                        store_frac: stores,
                        footprint_bytes: 1 << 18,
                        stride: 8,
                        random_frac: 0.2,
                        pointer_chase_frac: 0.05,
                    },
                    branch: BranchPattern {
                        branch_frac: branches,
                        taken_bias: bias,
                        noise,
                        sites: 64,
                        code_bytes: 4096,
                        call_frac: 0.03,
                    },
                    seed,
                }
            },
        )
        .prop_filter("fractions must leave room for arithmetic", |s| {
            s.validate().is_ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Scan and event-driven wakeup agree bit-for-bit on every registered
    /// scheme, for arbitrary workload shapes.
    #[test]
    fn scan_and_event_wakeup_agree_on_random_traces(spec in arb_workload()) {
        let cfg = ProcessorConfig::hpca2004();
        let n = 600u64;
        let trace = spec.generate(n as usize);
        for sched in SchedulerConfig::known() {
            let mut fast = Simulator::with_scheduler(&cfg, sched.build_checked(&cfg));
            fast.set_benchmark(&spec.name);
            let fast_stats = fast.run_workload(&mut TraceSource::new(trace.clone()), n);

            let mut scan = Simulator::with_scheduler(&cfg, sched.build_scan(&cfg));
            scan.set_benchmark(&spec.name);
            let scan_stats = scan.run_workload(&mut TraceSource::new(trace.clone()), n);

            prop_assert_eq!(
                &fast_stats,
                &scan_stats,
                "{}: SimStats diverge between event and scan wakeup",
                sched.label()
            );
            prop_assert_eq!(fast_stats.checker_violations, 0, "{}", sched.label());
        }
    }

    /// The same property with wrong-path speculation enabled. The workload
    /// shapes draw branch noise up to 0.3, so mispredicts (and therefore
    /// squashes at effectively random instruction ids) are frequent; every
    /// scheme must stay bit-identical to its scan reference, commit the
    /// full budget, and drain its queues to empty.
    #[test]
    fn scan_and_event_wakeup_agree_with_speculation_on(spec in arb_workload()) {
        let mut cfg = ProcessorConfig::hpca2004();
        cfg.wrong_path = true;
        let n = 600u64;
        for sched in SchedulerConfig::known() {
            let mut fast = Simulator::with_scheduler(&cfg, sched.build_checked(&cfg));
            fast.set_benchmark(&spec.name);
            let mut program = TraceGenerator::new(&spec);
            let fast_stats = fast.run_workload(&mut program, n);

            let mut scan = Simulator::with_scheduler(&cfg, sched.build_scan(&cfg));
            scan.set_benchmark(&spec.name);
            let mut program = TraceGenerator::new(&spec);
            let scan_stats = scan.run_workload(&mut program, n);

            prop_assert_eq!(
                &fast_stats,
                &scan_stats,
                "{}: SimStats diverge with speculation on",
                sched.label()
            );
            prop_assert_eq!(fast_stats.checker_violations, 0, "{}", sched.label());
            prop_assert_eq!(fast_stats.committed, n, "{}", sched.label());
            prop_assert_eq!(
                fast.queue_occupancy(),
                (0, 0),
                "{}: queues failed to drain after squashes",
                sched.label()
            );
            prop_assert_eq!(
                scan.queue_occupancy(),
                (0, 0),
                "{}: scan queues failed to drain",
                sched.label()
            );
        }
    }
}
