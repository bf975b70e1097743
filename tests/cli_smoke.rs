//! Smoke tests of the `diq` binary and its scheme registry: every label the
//! CLI advertises must round-trip through `scheme_by_name`, and the compiled
//! binary itself must list exactly those labels (so `cargo test` exercises
//! the bin target, not just the library).

use diq::cli::{known_schemes, scheme_by_name, SCHEME_LABELS};
use std::process::Command;

#[test]
fn every_advertised_label_round_trips() {
    for label in SCHEME_LABELS {
        let scheme = scheme_by_name(label)
            .unwrap_or_else(|| panic!("`{label}` is advertised but not resolvable"));
        assert_eq!(scheme.label(), label, "label must round-trip");
    }
}

#[test]
fn labels_match_known_schemes_in_order() {
    let labels: Vec<String> = known_schemes().iter().map(|s| s.label()).collect();
    assert_eq!(labels, SCHEME_LABELS);
}

#[test]
fn unknown_scheme_is_rejected() {
    assert!(scheme_by_name("IQ_9000").is_none());
    assert!(scheme_by_name("").is_none());
}

#[test]
fn diq_list_prints_every_scheme_and_benchmark() {
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .arg("list")
        .output()
        .expect("run `diq list`");
    assert!(out.status.success(), "`diq list` failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for label in SCHEME_LABELS {
        assert!(stdout.contains(label), "`diq list` is missing `{label}`");
        // And what the binary prints must be resolvable right back.
        assert!(scheme_by_name(label).is_some());
    }
    for bench in diq::workload::suite::all() {
        assert!(
            stdout.contains(&bench.name),
            "`diq list` is missing benchmark `{}`",
            bench.name
        );
    }
}

#[test]
fn diq_without_arguments_exits_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .output()
        .expect("run `diq`");
    assert_eq!(out.status.code(), Some(2), "usage exit code");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("usage"), "stderr should show usage");
}

#[test]
fn diq_trace_record_info_run_round_trip() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("diqt-cli-{}.diqt", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args([
            "trace",
            "record",
            "profile:gzip/adversarial@5",
            "-n",
            "2k",
            "-o",
        ])
        .arg(&trace_path)
        .output()
        .expect("run `diq trace record`");
    assert!(out.status.success(), "record failed: {out:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "info"])
        .arg(&trace_path)
        .arg("--json")
        .output()
        .expect("run `diq trace info`");
    assert!(out.status.success(), "info failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"instructions\":2000"), "{stdout}");
    assert!(
        stdout.contains("\"name\":\"gzip/adversarial@5\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"content\":\""), "{stdout}");

    // The recorded trace replays through `diq run` by URI.
    let uri = format!("trace:{}", trace_path.display());
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["run", "MB_distr", &uri, "2000"])
        .output()
        .expect("run `diq run trace:`");
    assert!(out.status.success(), "replay failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("gzip/adversarial@5"), "{stdout}");

    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn diq_trace_ingest_accepts_csv() {
    let dir = std::env::temp_dir();
    let csv_path = dir.join(format!("diqt-cli-in-{}.csv", std::process::id()));
    let trace_path = dir.join(format!("diqt-cli-in-{}.diqt", std::process::id()));
    std::fs::write(
        &csv_path,
        "pc,op,dst,src1,src2,addr,size,taken,target\n\
         0x1000,alu,r1,r2,r3,,,,\n\
         0x1004,load,r4,r1,,0x2000,8,,\n\
         0x1008,br,,r4,,,,1,0x1000\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "ingest"])
        .arg(&csv_path)
        .arg("-o")
        .arg(&trace_path)
        .output()
        .expect("run `diq trace ingest`");
    assert!(out.status.success(), "ingest failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ingested 3 instrs"), "{stdout}");
    let _ = std::fs::remove_file(csv_path);
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn diq_run_resolves_workload_uris() {
    for uri in ["kernel:gzip", "profile:swim/stress", "gzip/expected@2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_diq"))
            .args(["run", "MB_distr", uri, "500"])
            .output()
            .expect("run `diq run`");
        assert!(out.status.success(), "`diq run {uri}` failed: {out:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["run", "MB_distr", "trace:/nonexistent.diqt", "500"])
        .output()
        .expect("run `diq run`");
    assert!(!out.status.success(), "missing trace must fail");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error"), "{stderr}");
}

/// A zero count would simulate nothing and report an IPC of 0; `diq run`
/// refuses it as it refuses any other bad count, as `diq sweep` does.
#[test]
fn diq_run_rejects_a_zero_instruction_count() {
    for count in ["0", "0k"] {
        let out = Command::new(env!("CARGO_BIN_EXE_diq"))
            .args(["run", "MB_distr", "kernel:gzip", count])
            .output()
            .expect("run `diq run`");
        assert_eq!(out.status.code(), Some(1), "`diq run … {count}`: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad instruction count `{count}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "`diq run … {count}` simulated");
    }
}

/// `DIQ_INSTRS=0` would run every grid at zero instructions: `diq figure`
/// must refuse it, and any other bad count, as every other bad CLI input
/// is refused — exit 1 with a named message, not a panic.
#[test]
fn diq_figure_rejects_a_zero_diq_instrs() {
    for value in ["0", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_diq"))
            .args(["figure", "tab1"])
            .env("DIQ_INSTRS", value)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("run `diq figure`");
        assert_eq!(
            out.status.code(),
            Some(1),
            "`DIQ_INSTRS={value} diq figure tab1`: {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "DIQ_INSTRS=`{value}` is not a valid instruction count"
            )),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "`diq figure tab1` printed at {value}"
        );
    }
}

/// `diq trace record -n 0` is refused like `diq run … 0`, and leaves no
/// file behind.
#[test]
fn diq_trace_record_rejects_a_zero_instruction_count() {
    let path = std::env::temp_dir().join(format!("diqt-cli-zero-{}.diqt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "record", "kernel:gzip", "-n", "0", "-o"])
        .arg(&path)
        .output()
        .expect("run `diq trace record`");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad instruction count `0`"), "{stderr}");
    assert!(!path.exists(), "`-n 0` wrote {}", path.display());
}

/// A trace with no instructions still reads (`diq trace info`), but a run
/// or sweep over it would report IPC 0 as a green result: both refuse it
/// by name.
#[test]
fn an_empty_trace_is_refused_as_a_workload() {
    let dir = std::env::temp_dir().join(format!("diqt-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.diqt");
    diq::workload::TraceWriter::create(&path, "empty", 0, "test")
        .unwrap()
        .finish()
        .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["trace", "info"])
        .arg(&path)
        .arg("--json")
        .output()
        .expect("run `diq trace info`");
    assert!(out.status.success(), "info failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"instructions\":0"), "{stdout}");

    let uri = format!("trace:{}", path.display());
    let named = format!("trace `{}` holds no instructions", path.display());
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(["run", "MB_distr", &uri, "100"])
        .output()
        .expect("run `diq run`");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&named),
        "{out:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "`diq run` over an empty trace printed"
    );

    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        format!(
            r#"{{"name":"empty-trace","instructions":[100],"schemes":["MB_distr"],"workloads":[{{"source":"{uri}"}}],"machines":[{{}}]}}"#
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .arg("sweep")
        .arg(&spec)
        .arg("--store")
        .arg(dir.join("store"))
        .output()
        .expect("run `diq sweep`");
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&named),
        "{out:?}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("[computed]"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `diq run … | head -1`: a reader that goes away must end `diq` quietly,
/// not with a `println!` panic and a backtrace. Two shapes: the read end
/// closed before anything is written (every write fails, so this one
/// cannot pass by luck of timing), and closed after the first line.
#[test]
fn closed_stdout_ends_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let run = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_diq"));
        cmd.args(["run", "IQ_64_64", "kernel:gzip", "2000"])
            .stderr(Stdio::piped());
        cmd
    };
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let closed_first = run().stdout(writer).output().expect("run `diq run`");

    let mut child = run()
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn `diq run`");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.contains("IQ_64_64"), "first line: {first:?}");
    let closed_after_one_line = child.wait_with_output().expect("wait for `diq run`");

    for (shape, out) in [
        ("closed before output", closed_first),
        ("closed after one line", closed_after_one_line),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("panicked"),
            "{shape}: `diq run` panicked: {stderr}"
        );
        assert_ne!(out.status.code(), Some(101), "{shape}: panic exit status");
    }
}

/// `diq sweep … | head`: the per-point report goes through one buffered
/// writer, and a reader that is already gone must still end the sweep
/// without a panic.
#[test]
fn closed_stdout_ends_a_sweep_quietly() {
    let dir = std::env::temp_dir().join(format!("diq-cli-sweep-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"pipe","instructions":[200],"schemes":["MB_distr","IQ_64_64"],"workloads":["gzip"]}"#,
    )
    .expect("write spec");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .arg("sweep")
        .arg(&spec)
        .arg("--store")
        .arg(dir.join("store"))
        .stdout(writer)
        .output()
        .expect("run `diq sweep`");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "`diq sweep` panicked: {stderr}"
    );
    assert_ne!(out.status.code(), Some(101), "panic exit status");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `diq` with `args` and asserts it exits 2 with the usage text and
/// prints nothing on stdout (the subcommand did not run).
fn assert_rejected_as_usage(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_diq"))
        .args(args)
        .output()
        .expect("run diq");
    assert_eq!(out.status.code(), Some(2), "{args:?}: usage exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: the subcommand ran");
}

#[test]
fn diq_list_rejects_extra_arguments() {
    assert_rejected_as_usage(&["list", "extra"]);
}

#[test]
fn diq_run_rejects_extra_arguments() {
    assert_rejected_as_usage(&["run", "IQ_64_64", "kernel:gzip", "1000", "extra"]);
}

#[test]
fn diq_figure_rejects_extra_arguments() {
    assert_rejected_as_usage(&["figure", "tab1", "extra"]);
}

#[test]
fn diq_figures_rejects_extra_arguments() {
    assert_rejected_as_usage(&["figures", "sec3"]);
}

#[test]
fn diq_bench_is_an_unknown_subcommand() {
    assert_rejected_as_usage(&["bench", "experiments/ci_smoke.json"]);
}

/// `diq figure` reads the one figure table: every id in it builds, and an
/// unknown id is answered with exactly that table's ids.
#[test]
fn diq_figure_accepts_every_table_id_and_lists_them_on_a_miss() {
    let figure = |id: &str| {
        Command::new(env!("CARGO_BIN_EXE_diq"))
            .args(["figure", id])
            .env("DIQ_INSTRS", "100")
            .output()
            .expect("run `diq figure`")
    };
    for (id, _) in diq::sim::figures::ALL {
        let out = figure(id);
        assert!(out.status.success(), "`diq figure {id}` failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(id), "`diq figure {id}` printed {stdout}");
    }
    let out = figure("fig5");
    assert_eq!(out.status.code(), Some(1), "unknown figure exit code");
    let ids: Vec<&str> = diq::sim::figures::ALL.iter().map(|(id, _)| *id).collect();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown figure `fig5` ({})", ids.join(", "))),
        "{stderr}"
    );
}
