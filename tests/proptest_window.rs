//! Property test for the instruction window's capacity edges. The fetch
//! queue and the reorder buffer share one ring, so a full ROB, a full
//! fetch queue, a width of one and a wrong-path squash that empties either
//! part are the cases most likely to go wrong.
//!
//! Each case draws a small machine (a ROB of 1–16 entries, a fetch queue of
//! 1–8, fetch/decode/commit widths of 1–8) with wrong-path and load-hit
//! speculation on, and runs several schemes on gzip and mcf. Every run must
//! retire its exact budget with a clean dataflow checker and drain its
//! queues, and the event-driven model must equal its frozen scan twin in
//! the full `SimStats`.

use diq::isa::ProcessorConfig;
use diq::pipeline::Simulator;
use diq::sched::SchedulerConfig;
use diq::workload::{suite, TraceGenerator};
use proptest::prelude::*;

/// A small machine with both speculations on.
fn arb_machine() -> impl Strategy<Value = ProcessorConfig> {
    (1usize..=16, 1usize..=8, 1usize..=8, 1usize..=8, 1usize..=8).prop_map(
        |(rob, fq, fetch, decode, commit)| {
            let mut cfg = ProcessorConfig::hpca2004();
            cfg.rob_entries = rob;
            cfg.fetch_queue = fq;
            cfg.fetch_width = fetch;
            cfg.decode_width = decode;
            cfg.commit_width = commit;
            cfg.wrong_path = true;
            cfg.load_hit_speculation = true;
            // A small L1 keeps speculative wakeups and replays frequent.
            cfg.mem.dl1.size_bytes = 1024;
            cfg
        },
    )
}

fn schemes() -> [SchedulerConfig; 4] {
    [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::issue_fifo(2, 2, 2, 2),
        SchedulerConfig::lat_fifo(16, 16, 8, 16),
        SchedulerConfig::mb_distr(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn small_windows_drain_and_match_the_scan_twin(cfg in arb_machine()) {
        let n = 1_200u64;
        let mut squashed = 0;
        for bench in ["gzip", "mcf"] {
            let spec = suite::by_name(bench).unwrap();
            for sched in schemes() {
                let what = format!(
                    "{} on {bench}, rob {} fq {} widths {}/{}/{}",
                    sched.label(),
                    cfg.rob_entries,
                    cfg.fetch_queue,
                    cfg.fetch_width,
                    cfg.decode_width,
                    cfg.commit_width
                );
                let mut fast = Simulator::new(&cfg, &sched);
                fast.set_benchmark(bench);
                let fast_stats = fast.run_workload(&mut TraceGenerator::new(&spec), n);

                let mut scan = Simulator::with_scheduler(&cfg, sched.build_scan(&cfg));
                scan.set_benchmark(bench);
                let scan_stats = scan.run_workload(&mut TraceGenerator::new(&spec), n);

                prop_assert_eq!(fast_stats.committed, n, "{}", what);
                prop_assert_eq!(fast_stats.checker_violations, 0, "{}", what);
                prop_assert_eq!(fast.queue_occupancy(), (0, 0), "{}", what);
                prop_assert_eq!(scan.queue_occupancy(), (0, 0), "{}", what);
                prop_assert_eq!(&fast_stats, &scan_stats, "{}: SimStats diverge", what);
                squashed += fast_stats.wrong_path_squashed;
            }
        }
        prop_assert!(squashed > 0, "no wrong-path squash exercised the window");
    }
}
