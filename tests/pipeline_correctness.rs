//! End-to-end correctness: every scheme must run every kind of workload to
//! completion with a clean dataflow checker — plus direct LSQ edge-case
//! tests (forwarding granularity, unknown-store-address stalls, and
//! disambiguation state across a wrong-path truncation).

use diq::isa::{InstId, ProcessorConfig};
use diq::pipeline::{LoadAction, Lsq, Simulator, TraceSource};
use diq::sched::SchedulerConfig;
use diq::workload::{kernels, suite, TraceGenerator};

fn all_schemes() -> Vec<SchedulerConfig> {
    vec![
        SchedulerConfig::unbounded_baseline(),
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::issue_fifo(8, 8, 8, 16),
        SchedulerConfig::lat_fifo(8, 8, 8, 16),
        SchedulerConfig::mix_buff(8, 8, 8, 16, Some(8)),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
    ]
}

#[test]
fn every_scheme_commits_exactly_the_trace_on_mixed_workloads() {
    let cfg = ProcessorConfig::hpca2004();
    let n = 3_000u64;
    for bench in ["swim", "gcc", "eon", "art"] {
        let spec = suite::by_name(bench).unwrap();
        let trace = spec.generate(n as usize);
        for sched in all_schemes() {
            let mut sim = Simulator::new(&cfg, &sched);
            sim.set_benchmark(bench);
            let stats = sim.run_workload(&mut TraceSource::new(trace.clone()), n);
            assert_eq!(stats.committed, n, "{bench} under {}", sched.label());
            assert_eq!(
                stats.checker_violations,
                0,
                "{bench} under {}: issued before ready",
                sched.label()
            );
            assert_eq!(
                stats.issued,
                stats.committed,
                "{bench} under {}: drained runs issue each instruction once",
                sched.label()
            );
        }
    }
}

#[test]
fn every_scheme_survives_stress_kernels() {
    let cfg = ProcessorConfig::hpca2004();
    let n = 2_000u64;
    for spec in [
        kernels::parallel_fp_chains(24, 8),
        kernels::serial_int_chain(),
        kernels::streaming(1 << 22),
        kernels::pointer_chase(1 << 24),
        kernels::branch_torture(0.3),
    ] {
        for sched in all_schemes() {
            let mut sim = Simulator::new(&cfg, &sched);
            sim.set_benchmark(&spec.name);
            let stats = sim.run_workload(&mut TraceSource::new(spec.generate(n as usize)), n);
            assert_eq!(stats.committed, n, "{} under {}", spec.name, sched.label());
            assert_eq!(stats.checker_violations, 0);
        }
    }
}

#[test]
fn identical_trace_identical_schemes_identical_results() {
    // Determinism end to end: same spec, same scheme => same cycle count.
    let cfg = ProcessorConfig::hpca2004();
    let spec = suite::by_name("fma3d").unwrap();
    let run = || {
        let mut sim = Simulator::new(&cfg, &SchedulerConfig::mb_distr());
        sim.run_workload(&mut TraceSource::new(spec.generate(2_000)), 2_000)
            .cycles
    };
    assert_eq!(run(), run());
}

/// Squash invariants under real wrong-path speculation. Tests run with
/// debug assertions on, which arms the pipeline's post-recovery invariant:
/// after **every** mispredict recovery, scheduler occupancy equals the
/// ROB's surviving dispatched-but-unissued entries (`recover()` in
/// diq-pipeline). On top of that, this asserts end-state invariants per
/// scheme: the full budget commits, the dataflow checker is clean (it
/// verifies issue-time readiness on both paths; architectural state is
/// only ever judged against the correct path, which is all that commits),
/// wrong-path work really happened and was all squashed, and the queues
/// drain to empty.
#[test]
fn speculation_squash_invariants_hold_for_every_scheme() {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.wrong_path = true;
    let n = 3_000u64;
    for bench in ["gcc", "eon", "art"] {
        let spec = suite::by_name(bench).unwrap();
        for sched in all_schemes() {
            let mut sim = Simulator::new(&cfg, &sched);
            sim.set_benchmark(bench);
            let mut program = TraceGenerator::new(&spec);
            let stats = sim.run_workload(&mut program, n);
            assert_eq!(stats.committed, n, "{bench} under {}", sched.label());
            assert_eq!(
                stats.checker_violations,
                0,
                "{bench} under {}: issued before ready",
                sched.label()
            );
            // Every wrong-path instruction fetched is eventually squashed;
            // none commits.
            assert_eq!(
                stats.wrong_path_fetched,
                stats.wrong_path_squashed,
                "{bench} under {}: wrong-path accounting must balance",
                sched.label()
            );
            assert_eq!(
                stats.issued,
                stats.committed + stats.wrong_path_issued,
                "{bench} under {}: issues split into committed + squashed",
                sched.label()
            );
            assert_eq!(
                sim.queue_occupancy(),
                (0, 0),
                "{bench} under {}: queues must drain",
                sched.label()
            );
            // One squash-depth sample per wrong-path recovery. Mispredicted
            // branches without a known target stall instead of speculating,
            // so recoveries are a subset of redirects.
            assert!(
                stats.squash_depth.count() <= stats.mispredict_redirects,
                "{bench} under {}: more recoveries than redirects",
                sched.label()
            );
            if stats.wrong_path_fetched > 0 {
                assert!(
                    stats.squash_depth.count() > 0,
                    "{bench} under {}: wrong-path work implies recoveries",
                    sched.label()
                );
            }
        }
    }
}

/// Load-hit speculation end-state invariants on every scheme: the budget
/// commits, the checker is clean (replayed consumers re-issued with real
/// data), replay work really happened on a miss-heavy profile, and every
/// replay is exactly one extra pass through the issue port.
#[test]
fn replay_invariants_hold_for_every_scheme() {
    let mut cfg = ProcessorConfig::hpca2004();
    cfg.load_hit_speculation = true;
    let n = 3_000u64;
    for bench in ["misschase", "mcf", "art"] {
        let spec = suite::by_name(bench).unwrap();
        let trace = spec.generate(n as usize);
        for sched in all_schemes() {
            let mut sim = Simulator::new(&cfg, &sched);
            sim.set_benchmark(bench);
            let stats = sim.run_workload(&mut TraceSource::new(trace.clone()), n);
            assert_eq!(stats.committed, n, "{bench} under {}", sched.label());
            assert_eq!(
                stats.checker_violations,
                0,
                "{bench} under {}: issued before (really) ready",
                sched.label()
            );
            assert_eq!(
                stats.issued,
                stats.committed + stats.replayed,
                "{bench} under {}: issues split into committed + replayed",
                sched.label()
            );
            assert_eq!(
                sim.queue_occupancy(),
                (0, 0),
                "{bench} under {}: queues must drain",
                sched.label()
            );
            // A speculated miss records one replay-depth sample; replays
            // can never outnumber window slots (issue width per miss).
            assert!(
                stats.replay_depth.count() <= stats.dl1.misses(),
                "{bench} under {}: more speculated misses than misses",
                sched.label()
            );
            if bench == "misschase" {
                assert!(
                    stats.replayed > 0,
                    "{bench} under {}: the miss-heavy profile must replay",
                    sched.label()
                );
                assert!(
                    stats.replay_cycles_lost >= stats.replayed,
                    "{bench} under {}: each replay loses at least one cycle",
                    sched.label()
                );
            }
        }
    }
}

// ---- LSQ edge cases ----------------------------------------------------
//
// `Lsq` is public API; these pin the disambiguation rules the simulator
// relies on, at the exact granularities where they flip.

/// Same-dword store→load forwarding vs. adjacent-dword non-aliasing: the
/// LSQ matches on 8-byte-aligned dwords, so a load one dword past a store
/// must access the cache while any address inside the store's dword
/// forwards.
#[test]
fn lsq_forwards_same_dword_and_ignores_adjacent_dwords() {
    let mut lsq = Lsq::new();
    let store = lsq.push(InstId(1), true, 0x1000);
    let loads = [
        lsq.push(InstId(2), false, 0x1007), // last byte of the store's dword
        lsq.push(InstId(3), false, 0x1008), // first byte of the next dword
        lsq.push(InstId(4), false, 0x0ff8), // dword just below
    ];
    lsq.store_addr_done(store);
    lsq.store_data_ready(store);
    for seq in loads {
        lsq.load_addr_done(seq);
    }
    assert_eq!(lsq.load_action(InstId(2)), LoadAction::Forward);
    assert_eq!(lsq.load_action(InstId(3)), LoadAction::Access);
    assert_eq!(lsq.load_action(InstId(4)), LoadAction::Access);
    // The batched per-cycle walk agrees with the per-load reference.
    let mut actions = Vec::new();
    lsq.pending_load_actions_into(&mut actions);
    assert_eq!(
        actions,
        vec![
            (InstId(2), LoadAction::Forward),
            (InstId(3), LoadAction::Access),
            (InstId(4), LoadAction::Access),
        ]
    );
}

/// A load with its address in hand still waits while *any* older store's
/// address is unknown — even a store to what will turn out to be a
/// different dword — and proceeds the cycle the address resolves.
#[test]
fn lsq_load_stalls_on_unknown_older_store_address() {
    let mut lsq = Lsq::new();
    let store1 = lsq.push(InstId(1), true, 0x2000); // address not yet generated
    let store2 = lsq.push(InstId(2), true, 0x3000); // second unknown store
    let load = lsq.push(InstId(3), false, 0x4000); // independent load
    lsq.load_addr_done(load);
    assert_eq!(lsq.load_action(InstId(3)), LoadAction::Wait);
    let mut actions = Vec::new();
    lsq.pending_load_actions_into(&mut actions);
    assert!(actions.is_empty(), "blocked loads must not surface");
    // First store resolves (different dword) — the second still blocks.
    lsq.store_addr_done(store1);
    assert_eq!(lsq.load_action(InstId(3)), LoadAction::Wait);
    // Both resolved, no alias: the load may access.
    lsq.store_addr_done(store2);
    assert_eq!(lsq.load_action(InstId(3)), LoadAction::Access);
    lsq.pending_load_actions_into(&mut actions);
    assert_eq!(actions, vec![(InstId(3), LoadAction::Access)]);
}

/// Disambiguation state after a wrong-path truncation: squashing a suffix
/// removes doomed stores from the disambiguation window (a load that
/// waited on a wrong-path store's unknown address runs free), removes
/// doomed pending loads, and keeps older state intact — including across
/// id reuse by the refetched correct path.
#[test]
fn lsq_disambiguation_survives_wrong_path_truncation() {
    let mut lsq = Lsq::new();
    let store = lsq.push(InstId(1), true, 0x1000); // correct-path store
    let load = lsq.push(InstId(2), false, 0x1004); // correct-path load, same dword
    lsq.push(InstId(3), true, 0x9000); // wrong-path store, addr unknown
    let doomed = lsq.push(InstId(4), false, 0x9008); // wrong-path load
    lsq.store_addr_done(store);
    lsq.store_data_ready(store);
    lsq.load_addr_done(load);
    lsq.load_addr_done(doomed);
    // The wrong-path store's unknown address blocks nothing older than it,
    // but does block the younger wrong-path load.
    assert_eq!(lsq.load_action(InstId(2)), LoadAction::Forward);
    assert_eq!(lsq.load_action(InstId(4)), LoadAction::Wait);
    // Mispredict resolves: everything from id 3 is squashed.
    lsq.squash(InstId(3));
    assert_eq!(lsq.len(), 2);
    let mut actions = Vec::new();
    lsq.pending_load_actions_into(&mut actions);
    assert_eq!(
        actions,
        vec![(InstId(2), LoadAction::Forward)],
        "squashed entries must leave the pending set and the store mirror"
    );
    // The correct path reuses id 3 for a load to the store's dword: it
    // must see the surviving store, not any ghost of the squashed one.
    let reused = lsq.push(InstId(3), false, 0x1000);
    lsq.load_addr_done(reused);
    assert_eq!(lsq.load_action(InstId(3)), LoadAction::Forward);
    lsq.pending_load_actions_into(&mut actions);
    assert_eq!(
        actions,
        vec![
            (InstId(2), LoadAction::Forward),
            (InstId(3), LoadAction::Forward),
        ]
    );
    // Commit order still holds after the truncation.
    lsq.load_started(load, true);
    lsq.load_started(reused, true);
    lsq.pop(InstId(1));
    lsq.pop(InstId(2));
    lsq.pop(InstId(3));
    assert!(lsq.is_empty());
    assert_eq!(lsq.forwards, 2, "both surviving loads forwarded");
}

#[test]
fn serial_dependences_bound_every_scheme_equally() {
    // A fully serial FP-multiply chain must take >= 4 cycles per
    // instruction on every scheme — no scheme may break true dependences.
    use diq::isa::{ArchReg, Inst};
    let cfg = ProcessorConfig::hpca2004();
    let f = ArchReg::fp(4);
    let insts: Vec<Inst> = (0..300)
        .map(|i| Inst::fp_mul(f, f, f).at(0x40_0000 + (i % 8) * 4))
        .collect();
    for sched in all_schemes() {
        let mut sim = Simulator::new(&cfg, &sched);
        let stats = sim.run_workload(&mut TraceSource::new(insts.clone()), 300);
        assert!(
            stats.cycles >= 4 * 300,
            "{}: serial fp_mul chain finished in {} cycles (< 4/instr)",
            sched.label(),
            stats.cycles
        );
    }
}
