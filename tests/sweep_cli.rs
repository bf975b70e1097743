//! End-to-end tests of the experiment subcommands (`diq sweep` / `compare` /
//! `export`) against the compiled binary, plus validation of every spec
//! shipped under `experiments/`.

use diq::exp::ExperimentSpec;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diq-sweep-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn diq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(args)
        .output()
        .expect("run diq")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "diq failed: {:?}\nstderr: {}",
        out,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn shipped_experiment_specs_parse_and_expand() {
    // trace_smoke.json replays a trace that CI (and `just trace-smoke`)
    // records to traces/gzip-50k.diqt before sweeping. Record the same
    // trace into a temp dir instead — tests never write into the source
    // tree — and point the spec there: point keys hash the trace content,
    // never the path, so the expansion is unchanged.
    let scratch = tmp_dir("specs");
    let trace = scratch.join("gzip-50k.diqt");
    let spec = diq::workload::suite::by_name("gzip").unwrap();
    diq::workload::trace::record(
        &trace,
        &spec.name,
        spec.seed,
        "test setup",
        diq::workload::TraceGenerator::new(&spec),
        50_000,
    )
    .unwrap();
    let trace_source = format!("trace:{}", trace.display());
    let dir = repo_file("experiments");
    let mut seen = 0;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let json = fs::read_to_string(&path)
            .unwrap()
            .replace("trace:traces/gzip-50k.diqt", &trace_source);
        let spec =
            ExperimentSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let points = spec
            .expand()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!points.is_empty(), "{} expands to nothing", path.display());
        seen += 1;
    }
    assert!(seen >= 4, "expected the shipped specs, found {seen}");
    let _ = fs::remove_dir_all(scratch);
}

#[test]
fn paper_matrix_covers_the_full_evaluation() {
    let json = fs::read_to_string(repo_file("experiments/paper_matrix.json")).unwrap();
    let points = ExperimentSpec::from_json(&json).unwrap().expand().unwrap();
    // 8 schemes x 26 benchmarks x 1 count x 1 machine.
    assert_eq!(points.len(), 208);
    assert!(points.iter().all(|p| p.instructions == 100_000));
}

/// The parsed shape of `--summary-json` output (what CI asserts on).
fn summary_fields(json: &str) -> (usize, usize, usize, f64) {
    let s = diq::exp::SweepSummary::from_json(json).expect("valid summary JSON");
    (s.total, s.computed, s.cached, s.cache_hit_pct)
}

#[test]
fn sweep_resumes_from_store_and_exports() {
    let store = tmp_dir("resume");
    let store_arg = store.to_str().unwrap();
    let spec = repo_file("experiments/ci_smoke.json");
    let spec_arg = spec.to_str().unwrap();
    let summary_path = store.join("sweep-summary.json");
    let summary_arg = summary_path.to_str().unwrap();

    let first = stdout_of(&diq(&[
        "sweep",
        spec_arg,
        "--store",
        store_arg,
        "--summary-json",
        summary_arg,
    ]));
    assert!(first.contains("computed"), "{first}");
    // Counts are asserted on the machine-readable summary, not the prose —
    // the spec can grow grid points without breaking this test or CI.
    let (total, computed, cached, _) = summary_fields(&fs::read_to_string(&summary_path).unwrap());
    assert_eq!((computed, cached), (total, 0), "cold store computes all");

    let second = stdout_of(&diq(&[
        "sweep",
        spec_arg,
        "--store",
        store_arg,
        "--summary-json",
        summary_arg,
    ]));
    assert!(
        second.contains("100.0% cache hits"),
        "second invocation must do zero simulation work: {second}"
    );
    let (total2, computed2, cached2, pct) =
        summary_fields(&fs::read_to_string(&summary_path).unwrap());
    assert_eq!(total2, total);
    assert_eq!((computed2, cached2), (0, total), "warm store computes none");
    assert!((pct - 100.0).abs() < 1e-9);

    let export = stdout_of(&diq(&["export", "ci-smoke", "--store", store_arg]));
    assert!(export.contains("BENCH_ci-smoke.json"), "{export}");
    let summary = fs::read_to_string(store.join("BENCH_ci-smoke.json")).unwrap();
    assert!(summary.contains("\"harmonic_mean_ipc\""), "{summary}");
    assert!(summary.contains("\"energy_breakdown\""), "{summary}");

    // The exported file stands in for a stored run on either compare side
    // (CI gates a PR's store against the baseline artifact from `main`).
    let gate = diq(&[
        "compare",
        store.join("BENCH_ci-smoke.json").to_str().unwrap(),
        "ci-smoke",
        "--store",
        store_arg,
        "--threshold",
        "0.5",
    ]);
    assert_eq!(
        gate.status.code(),
        Some(0),
        "a run gated against its own export cannot regress: {}",
        String::from_utf8_lossy(&gate.stdout)
    );

    let _ = fs::remove_dir_all(store);
}

#[test]
fn compare_gates_on_ipc_regression() {
    let store = tmp_dir("compare");
    let store_arg = store.to_str().unwrap();
    // A deliberately crippled scheme (one 4-entry FIFO per side) against the
    // unbounded baseline: a large, reliable IPC regression.
    let fast = store.join("fast.json");
    fs::write(
        &fast,
        r#"{"name":"fast","instructions":[2000],"schemes":["IQ_unbounded"],"workloads":["gzip"]}"#,
    )
    .unwrap();
    let slow = store.join("slow.json");
    fs::write(
        &slow,
        r#"{"name":"slow","instructions":[2000],
            "schemes":[{"IssueFifo":{"int":{"queues":1,"entries":4},
                                     "fp":{"queues":1,"entries":4},
                                     "distributed_fus":false}}],
            "workloads":["gzip"]}"#,
    )
    .unwrap();
    stdout_of(&diq(&[
        "sweep",
        fast.to_str().unwrap(),
        "--store",
        store_arg,
    ]));
    stdout_of(&diq(&[
        "sweep",
        slow.to_str().unwrap(),
        "--store",
        store_arg,
    ]));

    let gate = diq(&["compare", "fast", "slow", "--store", store_arg]);
    assert_eq!(
        gate.status.code(),
        Some(1),
        "default 2% threshold must trip: {}",
        String::from_utf8_lossy(&gate.stdout)
    );
    assert!(String::from_utf8_lossy(&gate.stdout).contains("REGRESSION"));

    let lax = diq(&[
        "compare",
        "fast",
        "slow",
        "--store",
        store_arg,
        "--threshold",
        "99",
    ]);
    assert_eq!(lax.status.code(), Some(0));

    // The other direction is an improvement, not a regression.
    let improve = diq(&["compare", "slow", "fast", "--store", store_arg]);
    assert_eq!(improve.status.code(), Some(0));

    let _ = fs::remove_dir_all(store);
}

#[test]
fn run_accepts_suffixed_instruction_counts() {
    let out = diq(&["run", "MB_distr", "gzip", "2k"]);
    let text = stdout_of(&out);
    assert!(text.contains("2000 instrs"), "{text}");
    assert!(text.contains("energy breakdown"), "{text}");

    let bad = diq(&["run", "MB_distr", "gzip", "2.5k"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad instruction count"));
}

#[test]
fn usage_lists_experiment_subcommands() {
    let out = diq(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr).to_string();
    for needle in ["sweep", "compare", "export", "100k"] {
        assert!(
            usage.contains(needle),
            "usage is missing `{needle}`: {usage}"
        );
    }
}

#[test]
fn zero_machine_knob_fails_validation_instead_of_deadlocking() {
    let dir = tmp_dir("zero-knob");
    let spec = dir.join("zero.json");
    fs::write(
        &spec,
        r#"{"name":"zero","instructions":["1k"],"schemes":["MB_distr"],
            "workloads":["gzip"],"machines":[{"commit_width":0}]}"#,
    )
    .unwrap();
    let store = dir.join("store");
    let out = diq(&[
        "sweep",
        spec.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "validation error, not a panic: {stderr}"
    );
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(
        stderr.contains("`commit_width` must be at least 1"),
        "{stderr}"
    );
    assert!(!stderr.contains("deadlock"), "{stderr}");
    let _ = fs::remove_dir_all(dir);
}
