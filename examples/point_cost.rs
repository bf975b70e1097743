//! Host cost of each point of an experiment spec, measured in-process:
//! the best-of-N wall time of building the simulator and running the
//! point, nanoseconds per simulated instruction, and how many of the run's
//! cycles were stepped one by one versus jumped over by the quiescent-cycle
//! fast-forward. A fingerprint of the point's `SimStats` is printed too, so
//! two builds can be checked for identical results while their costs are
//! compared.
//!
//! Run with:
//! `cargo run --release --example point_cost -- SPEC [--reps N]`
//! (or `just point-cost SPEC`). Points run one after another on one
//! thread; nothing is written to a result store.

use diq::exp::{fnv1a64, ExperimentSpec};
use diq::pipeline::Simulator;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: point_cost SPEC [--reps N]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut spec_path = None;
    let mut reps = 5usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            _ if spec_path.is_none() => spec_path = Some(arg),
            _ => usage(),
        }
    }
    let spec_path = spec_path.unwrap_or_else(|| usage());
    let fail = |e: String| -> ! {
        eprintln!("point_cost: {spec_path}: {e}");
        std::process::exit(1);
    };
    let json = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| fail(e.to_string()));
    let points = ExperimentSpec::from_json(&json)
        .and_then(|spec| spec.expand())
        .unwrap_or_else(|e| fail(e));

    println!(
        "{:<22} {:<10} {:<10} {:>9} {:>10} {:>8} {:>10} {:>10}  fingerprint",
        "scheme", "workload", "machine", "insts", "best_ms", "ns/inst", "stepped", "skipped"
    );
    for point in &points {
        let mut best = Duration::MAX;
        let mut last = None;
        for _ in 0..reps {
            let start = Instant::now();
            let mut sim = Simulator::new(&point.machine, &point.scheme);
            let stats = point.run_on(&mut sim);
            best = best.min(start.elapsed());
            last = Some((stats, sim.fast_forwarded_cycles()));
        }
        let (stats, skipped) = last.expect("at least one repetition");
        println!(
            "{:<22} {:<10} {:<10} {:>9} {:>10.2} {:>8.1} {:>10} {:>10}  {:016x}",
            stats.scheme,
            point.benchmark(),
            point.machine_label,
            point.instructions,
            best.as_secs_f64() * 1e3,
            best.as_secs_f64() * 1e9 / point.instructions as f64,
            stats.cycles - skipped,
            skipped,
            fnv1a64(format!("{stats:?}").as_bytes()),
        );
    }
}
