//! `diq` — command-line front end for the HPCA 2004 distributed issue
//! queue reproduction.
//!
//! ```text
//! diq list                          benchmarks and schemes
//! diq run <scheme> <workload> [n]   one simulation, full statistics
//! diq trace record|info|ingest      record, inspect, ingest .diqt traces
//! diq figure <id>                   regenerate one paper artifact (ids in
//!                                   diq_sim::figures::ALL)
//! diq figures                       regenerate everything
//! diq sweep <spec.json>             run an experiment grid, resumably
//! diq compare <run-a> <run-b>       per-point deltas + regression gate
//! diq export <run>                  write a BENCH_<run>.json summary
//! diq serve                         sweep-as-a-service server
//! diq worker --connect HOST:PORT    join a server as an execution worker
//! diq submit <spec.json>            send a spec to a server
//! ```

use diq::cli::{parse_count, scheme_by_name, SCHEME_LABELS};
use diq::exp::{
    sweep_as, Comparison, ExperimentSpec, Point, ResultStore, RunSummary, SweepOutcome,
};
use diq::pipeline::StageProfile;
use diq::serve::{run_worker, Client, ServeConfig, WorkerOptions};
use diq::sim::{figures, Harness};
use diq::workload::{suite, trace, TraceGenerator, WorkloadSource};
use std::io::Write;
use std::time::Duration;

/// Default `diq serve` endpoint, shared by server, worker and submit.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7457";

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         diq list\n  \
         diq run <scheme> <workload> [instructions]\n  \
         diq trace record <workload> [-n COUNT] [-o FILE.diqt]\n  \
         diq trace info <FILE.diqt> [--json]\n  \
         diq trace ingest <FILE.csv|-> -o FILE.diqt [-n NAME]\n  \
         diq figure <id>\n  \
         diq figures\n  \
         diq sweep <spec.json> [--store DIR] [--threads N] [--name RUN] [--summary-json FILE|-]\n  \
         diq compare <run-a> <run-b> [--store DIR] [--threshold PCT]\n  \
         diq export <run> [--store DIR] [--out FILE]\n  \
         diq serve [--addr HOST:PORT] [--store DIR] [--lease SECS]\n  \
         diq worker --connect HOST:PORT [--name NAME]\n  \
         diq submit <spec.json> [--connect HOST:PORT] [--name RUN] [--watch]\n  \
         \x20         [--summary-json FILE|-]\n  \
         diq submit --shutdown [--connect HOST:PORT]\n\n\
         Workloads are URIs anywhere a workload is named: kernel:gzip,\n\
         profile:gzip/adversarial@7 (expected|stress|adversarial variants,\n\
         seeded), trace:path/to/f.diqt (recorded streams), group:all, or a\n\
         bare name. `diq trace record` replays bit-identically via trace:.\n\
         Instruction counts accept 100k/5M/1G suffixes, here and in DIQ_INSTRS\n\
         (the per-benchmark count for figures). The result store defaults to\n\
         ./results; `diq compare` exits 1 when run-b's geomean IPC regresses\n\
         more than the threshold (default 2%) against run-a. Either compare\n\
         side may be a stored run name or a path to an exported BENCH_*.json.\n\
         `diq serve` keeps the sweep machinery resident: submitted specs are\n\
         deduped against the store and against points other jobs are already\n\
         computing, points go to idle workers under leases (crashed workers'\n\
         points are reassigned), and the store bytes stay identical to a\n\
         single-process sweep. Default endpoint {DEFAULT_SERVE_ADDR}."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Splits `args` into positionals and recognised `--flag value` options.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
) -> (Vec<String>, std::collections::HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !allowed.contains(&name) {
                fail(format!("unknown option `--{name}`"));
            }
            let Some(v) = it.next() else {
                fail(format!("option `--{name}` needs a value"));
            };
            flags.insert(name.to_string(), v.clone());
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

fn open_store(flags: &std::collections::HashMap<String, String>) -> ResultStore {
    let dir = flags.get("store").map_or("results", String::as_str);
    ResultStore::open(dir).unwrap_or_else(|e| fail(format!("open store `{dir}`: {e}")))
}

fn cmd_run(args: &[String]) {
    let [scheme_name, workload_uri, rest @ ..] = args else {
        usage();
    };
    if rest.len() > 1 {
        usage();
    }
    let Some(scheme) = scheme_by_name(scheme_name) else {
        fail(format!("unknown scheme `{scheme_name}` (see `diq list`)"));
    };
    // One resolution path with `diq sweep` and `diq serve`: any workload
    // URI (kernel:, profile:, trace:, or a bare name) runs here.
    let source = WorkloadSource::resolve_one(workload_uri).unwrap_or_else(|e| fail(e));
    let n: u64 = match rest.first() {
        // Zero is rejected as `diq sweep` rejects it: a run must simulate.
        Some(s) => parse_count(s)
            .filter(|&n| n > 0)
            .unwrap_or_else(|| fail(format!("bad instruction count `{s}` (try 250000 or 100k)"))),
        None => diq::exp::DEFAULT_INSTRUCTIONS,
    };
    // One execution path with the harness and `diq sweep`: a Point streams
    // its workload, so memory stays O(1) in the instruction count.
    let cfg = diq::isa::ProcessorConfig::hpca2004();
    let (stats, profile) = Point::from_source(cfg, scheme, source, n).execute_profiled();
    println!("{stats}");
    if StageProfile::ENABLED {
        eprintln!("stage profile (share of sampled wall-clock ticks):");
        for (stage, share) in profile.named_shares() {
            eprintln!("  {stage:16} {:5.1}%", 100.0 * share);
        }
    }
    println!("energy breakdown:");
    for (c, pj) in stats.energy.breakdown() {
        println!(
            "  {:12} {:8.1} nJ ({:4.1}%)",
            c.paper_label(),
            pj / 1e3,
            100.0 * stats.energy.fraction(c)
        );
    }
}

fn cmd_sweep(args: &[String]) {
    let (positional, flags) = parse_flags(args, &["store", "threads", "name", "summary-json"]);
    let [spec_path] = positional.as_slice() else {
        usage();
    };
    let json = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format!("read `{spec_path}`: {e}")));
    let spec =
        ExperimentSpec::from_json(&json).unwrap_or_else(|e| fail(format!("`{spec_path}`: {e}")));
    let run_name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| spec.name.clone());
    let threads = match flags.get("threads") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&t| t > 0)
            .unwrap_or_else(|| fail(format!("bad thread count `{s}`"))),
        None => diq::exp::default_threads(),
    };
    let store = open_store(&flags);
    let outcome = sweep_as(&spec, run_name, &store, threads).unwrap_or_else(|e| fail(e));
    let summary_json = flags.get("summary-json");
    // One buffered writer for the whole report: a grid's lines leave in a
    // few writes instead of one each.
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    write_sweep_report(
        &mut out,
        &outcome,
        &store,
        summary_json.is_some_and(|p| p == "-"),
    )
    .and_then(|()| out.flush())
    .unwrap_or_else(|e| fail(format!("write stdout: {e}")));
    // Machine-readable counters: CI asserts on parsed fields, not on the
    // human report (which may change shape as grids grow).
    if let Some(path) = summary_json.filter(|p| *p != "-") {
        std::fs::write(path, outcome.summary(&store).to_json())
            .unwrap_or_else(|e| fail(format!("write `{path}`: {e}")));
    }
}

/// `diq sweep`'s stdout: one line per grid point, the totals, and the
/// summary JSON when it goes to stdout (`--summary-json -`).
fn write_sweep_report(
    out: &mut impl Write,
    outcome: &SweepOutcome,
    store: &ResultStore,
    summary_json: bool,
) -> std::io::Result<()> {
    for (rec, fresh) in outcome.records.iter().zip(&outcome.fresh) {
        let r = &rec.result;
        writeln!(
            out,
            "  [{}] {} on {} @ {} ({} instrs): IPC {:.3}, energy {:.1} nJ",
            if *fresh { "computed" } else { "cached" },
            r.scheme,
            r.benchmark,
            r.machine,
            r.instructions,
            r.ipc,
            r.energy_pj / 1e3,
        )?;
    }
    writeln!(
        out,
        "sweep `{}`: {} points, {} computed, {} cached ({:.1}% cache hits), store {}",
        outcome.run,
        outcome.total(),
        outcome.computed,
        outcome.cached,
        outcome.cache_hit_pct(),
        store.root().display(),
    )?;
    if summary_json {
        out.write_all(outcome.summary(store).to_json().as_bytes())?;
    }
    Ok(())
}

/// `diq trace record|info|ingest` — the on-disk `.diqt` trace pipeline.
fn cmd_trace(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("record") => cmd_trace_record(&args[1..]),
        Some("info") => cmd_trace_info(&args[1..]),
        Some("ingest") => cmd_trace_ingest(&args[1..]),
        _ => usage(),
    }
}

/// Parses trace-subcommand args: positionals plus `-n/--instructions` and
/// `-o/--out` style options (short or long, both taking a value).
fn parse_trace_flags(
    args: &[String],
    allowed: &[(&str, &str)],
    switches: &[&str],
) -> (
    Vec<String>,
    std::collections::HashMap<String, String>,
    Vec<String>,
) {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut on = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if switches.contains(&a.as_str()) {
            on.push(a.trim_start_matches('-').to_string());
            continue;
        }
        if let Some((_, long)) = allowed
            .iter()
            .find(|(short, long)| a == short || a.trim_start_matches("--") == *long)
            .filter(|_| a.starts_with('-'))
        {
            let Some(v) = it.next() else {
                fail(format!("option `{a}` needs a value"));
            };
            flags.insert((*long).to_string(), v.clone());
        } else if a.starts_with('-') && a != "-" {
            fail(format!("unknown option `{a}`"));
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags, on)
}

fn cmd_trace_record(args: &[String]) {
    let (positional, flags, _) =
        parse_trace_flags(args, &[("-n", "instructions"), ("-o", "out")], &[]);
    let [uri] = positional.as_slice() else {
        usage();
    };
    let source = WorkloadSource::resolve_one(uri).unwrap_or_else(|e| fail(e));
    let Some(spec) = source.spec() else {
        fail(format!(
            "`{uri}` is already a trace; record needs a generated workload"
        ));
    };
    // Zero is rejected as `diq run` rejects it: an empty trace would
    // replay as a run that simulates nothing.
    let n: u64 = match flags.get("instructions") {
        Some(s) => parse_count(s)
            .filter(|&n| n > 0)
            .unwrap_or_else(|| fail(format!("bad instruction count `{s}` (try 250000 or 100k)"))),
        None => diq::exp::DEFAULT_INSTRUCTIONS,
    };
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{}.diqt", spec.name.replace(['/', '@'], "-")));
    let meta = trace::record(
        &out,
        &spec.name,
        spec.seed,
        &format!("diq trace record {uri}"),
        TraceGenerator::new(spec),
        n,
    )
    .unwrap_or_else(|e| fail(format!("record `{out}`: {e}")));
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "recorded {} instrs of `{}` to {out}: {} blocks, {} bytes \
         ({:.2} bytes/instr), content {:016x}",
        meta.instructions,
        meta.name,
        meta.blocks,
        bytes,
        bytes as f64 / meta.instructions.max(1) as f64,
        meta.content,
    );
}

fn cmd_trace_info(args: &[String]) {
    let (positional, _, switches) = parse_trace_flags(args, &[], &["--json"]);
    let [path] = positional.as_slice() else {
        usage();
    };
    let meta = trace::read_meta(path).unwrap_or_else(|e| fail(format!("`{path}`: {e}")));
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if switches.iter().any(|s| s == "json") {
        // Hand-rolled object: `content` renders as a hex string (jq-safe;
        // u64 does not fit in a double).
        println!(
            "{{\"name\":{},\"seed\":{},\"source\":{},\"instructions\":{},\
             \"blocks\":{},\"block_instrs\":{},\"content\":\"{:016x}\",\
             \"file_bytes\":{}}}",
            json_str(&meta.name),
            meta.seed,
            json_str(&meta.source),
            meta.instructions,
            meta.blocks,
            meta.block_instrs,
            meta.content,
            bytes,
        );
    } else {
        println!("name:         {}", meta.name);
        println!("seed:         {}", meta.seed);
        println!("source:       {}", meta.source);
        println!("instructions: {}", meta.instructions);
        println!(
            "blocks:       {} x {} instrs",
            meta.blocks, meta.block_instrs
        );
        println!("content:      {:016x}", meta.content);
        println!(
            "file:         {bytes} bytes ({:.2} bytes/instr)",
            bytes as f64 / meta.instructions.max(1) as f64
        );
    }
}

/// JSON string literal (quotes + escapes) for `diq trace info --json`.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_trace_ingest(args: &[String]) {
    let (positional, flags, _) = parse_trace_flags(args, &[("-o", "out"), ("-n", "name")], &[]);
    let [input] = positional.as_slice() else {
        usage();
    };
    let Some(out) = flags.get("out") else {
        fail("ingest needs -o/--out <file.diqt>");
    };
    let default_name = || {
        if input == "-" {
            return "stdin".to_string();
        }
        std::path::Path::new(input).file_stem().map_or_else(
            || "ingested".to_string(),
            |s| s.to_string_lossy().into_owned(),
        )
    };
    let name = flags.get("name").cloned().unwrap_or_else(default_name);
    let report = if input == "-" {
        let stdin = std::io::stdin();
        trace::ingest_text(stdin.lock(), out, &name, 0, "diq trace ingest -")
    } else {
        let file =
            std::fs::File::open(input).unwrap_or_else(|e| fail(format!("open `{input}`: {e}")));
        trace::ingest_text(
            std::io::BufReader::new(file),
            out,
            &name,
            0,
            &format!("diq trace ingest {input}"),
        )
    }
    .unwrap_or_else(|e| {
        // A failed ingest must not leave a truncated .diqt behind.
        let _ = std::fs::remove_file(out);
        fail(format!("ingest `{input}`: {e}"))
    });
    println!(
        "ingested {} instrs ({} lines skipped) to {out}: content {:016x}",
        report.instructions, report.skipped, report.meta.content
    );
}

fn cmd_compare(args: &[String]) {
    let (positional, flags) = parse_flags(args, &["store", "threshold"]);
    let [run_a, run_b] = positional.as_slice() else {
        usage();
    };
    let threshold: f64 = match flags.get("threshold") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .unwrap_or_else(|| fail(format!("bad threshold `{s}`"))),
        None => 2.0,
    };
    let store = open_store(&flags);
    // A side can be a stored run name or a path to an exported
    // `BENCH_<run>.json` (how CI gates against the artifact of the latest
    // `main` run without sharing a store).
    let load = |name: &str| -> RunSummary {
        if std::path::Path::new(name).is_file() {
            let json = std::fs::read_to_string(name)
                .unwrap_or_else(|e| fail(format!("read `{name}`: {e}")));
            RunSummary::from_json(&json).unwrap_or_else(|e| fail(format!("`{name}`: {e}")))
        } else {
            RunSummary::build(&store, name).unwrap_or_else(|e| fail(e))
        }
    };
    let a = load(run_a);
    let b = load(run_b);
    let cmp = Comparison::between(&a, &b).unwrap_or_else(|e| fail(e));
    println!(
        "{} -> {} ({} matched points)",
        run_a,
        run_b,
        cmp.points.len()
    );
    print!("{}", cmp.render());
    println!(
        "geomean IPC ratio {:.4}, geomean energy ratio {:.4}",
        cmp.geomean_ipc_ratio, cmp.geomean_energy_ratio
    );
    if cmp.is_regression(threshold) {
        println!(
            "REGRESSION: `{}` is {:.2}% slower than `{}` (threshold {:.2}%)",
            run_b,
            cmp.ipc_regression_pct(),
            run_a,
            threshold
        );
        std::process::exit(1);
    }
    println!(
        "ok: IPC regression {:.2}% within threshold {:.2}%",
        cmp.ipc_regression_pct(),
        threshold
    );
}

fn cmd_export(args: &[String]) {
    let (positional, flags) = parse_flags(args, &["store", "out"]);
    let [run] = positional.as_slice() else {
        usage();
    };
    let store = open_store(&flags);
    let summary = RunSummary::build(&store, run).unwrap_or_else(|e| fail(e));
    let json = summary.to_json();
    match flags.get("out").map(String::as_str) {
        Some("-") => print!("{json}"),
        out => {
            let path = out.map_or_else(
                || store.root().join(format!("BENCH_{run}.json")),
                std::path::PathBuf::from,
            );
            std::fs::write(&path, &json)
                .unwrap_or_else(|e| fail(format!("write `{}`: {e}", path.display())));
            println!(
                "exported `{}`: {} points, harmonic-mean IPC {}, geomean IPC {}, {:.1} nJ -> {}",
                run,
                summary.points.len(),
                summary
                    .harmonic_mean_ipc
                    .map_or("n/a".into(), |v| format!("{v:.3}")),
                summary
                    .geometric_mean_ipc
                    .map_or("n/a".into(), |v| format!("{v:.3}")),
                summary.total_energy_pj / 1e3,
                path.display(),
            );
        }
    }
}

/// Strips recognised boolean `--flag`s (flags without a value) out of
/// `args` before [`parse_flags`] sees them.
fn take_bool_flags(
    args: &[String],
    names: &[&str],
) -> (Vec<String>, std::collections::HashSet<String>) {
    let mut rest = Vec::new();
    let mut found = std::collections::HashSet::new();
    for a in args {
        match a.strip_prefix("--") {
            Some(n) if names.contains(&n) => {
                found.insert(n.to_string());
            }
            _ => rest.push(a.clone()),
        }
    }
    (rest, found)
}

fn cmd_serve(args: &[String]) {
    let (positional, flags) = parse_flags(args, &["addr", "store", "lease"]);
    if !positional.is_empty() {
        usage();
    }
    let lease_secs: u64 = match flags.get("lease") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&l| l > 0)
            .unwrap_or_else(|| fail(format!("bad lease `{s}` (whole seconds)"))),
        None => 30,
    };
    let cfg = ServeConfig {
        addr: flags
            .get("addr")
            .map_or(DEFAULT_SERVE_ADDR, String::as_str)
            .to_string(),
        store_dir: flags.get("store").map_or("results", String::as_str).into(),
        lease: Duration::from_secs(lease_secs),
        ..ServeConfig::default()
    };
    let handle = cfg.spawn().unwrap_or_else(|e| fail(format!("serve: {e}")));
    println!("diq serve listening on {}", handle.addr());
    // Blocks until a client sends Shutdown (`diq submit --shutdown`).
    handle
        .wait()
        .unwrap_or_else(|e| fail(format!("serve shutdown: {e}")));
}

fn cmd_worker(args: &[String]) {
    let (positional, flags) = parse_flags(args, &["connect", "name"]);
    if !positional.is_empty() {
        usage();
    }
    let addr = flags
        .get("connect")
        .map_or(DEFAULT_SERVE_ADDR, String::as_str);
    let mut opts = WorkerOptions::default();
    if let Some(name) = flags.get("name") {
        opts.name.clone_from(name);
    }
    println!("worker `{}` connecting to {addr}", opts.name);
    let report = run_worker(addr, &opts).unwrap_or_else(|e| fail(format!("worker on {addr}: {e}")));
    println!(
        "worker `{}` done: {} points executed",
        opts.name, report.executed
    );
}

fn cmd_submit(args: &[String]) {
    let (args, bools) = take_bool_flags(args, &["watch", "shutdown"]);
    let (positional, flags) = parse_flags(&args, &["connect", "name", "summary-json"]);
    let addr = flags
        .get("connect")
        .map_or(DEFAULT_SERVE_ADDR, String::as_str);
    let mut client = Client::connect(addr).unwrap_or_else(|e| fail(format!("connect {addr}: {e}")));

    if bools.contains("shutdown") {
        if !positional.is_empty() {
            usage();
        }
        client
            .shutdown_server()
            .unwrap_or_else(|e| fail(format!("shutdown {addr}: {e}")));
        println!("server at {addr} shutting down");
        return;
    }

    let [spec_path] = positional.as_slice() else {
        usage();
    };
    let json = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format!("read `{spec_path}`: {e}")));
    let (job, view) = client
        .submit(&json, flags.get("name").map(String::as_str))
        .unwrap_or_else(|e| fail(format!("submit `{spec_path}`: {e}")));
    println!(
        "job {job} `{}` accepted: {} points, {} to compute, {} cached/shared",
        view.run, view.total, view.computed, view.cached
    );
    if !bools.contains("watch") {
        if view.done {
            println!("job {job} `{}` already complete", view.run);
        }
        return;
    }
    let summary = client
        .watch(job, Duration::from_millis(200))
        .unwrap_or_else(|e| fail(format!("watch job {job}: {e}")));
    println!(
        "job {job} `{}` done: {} points, {} computed, {} cached ({:.1}% cache hits), store {}",
        summary.run,
        summary.total,
        summary.computed,
        summary.cached,
        summary.cache_hit_pct,
        summary.store,
    );
    // Same machine-readable counters as `diq sweep --summary-json`, so CI
    // can assert that served sweeps match in-process ones field-for-field.
    if let Some(path) = flags.get("summary-json") {
        let json = summary.to_json();
        match path.as_str() {
            "-" => print!("{json}"),
            path => {
                std::fs::write(path, &json).unwrap_or_else(|e| fail(format!("write `{path}`: {e}")))
            }
        }
    }
}

/// Lets a closed stdout end the process quietly, as it ends any Unix
/// filter (`diq run … | head -1`), instead of `println!` panicking on
/// EPIPE. Rust starts programs with SIGPIPE ignored; this restores the
/// default disposition. Sockets are unaffected: the standard library
/// writes to them without raising SIGPIPE (`MSG_NOSIGNAL`, or
/// `SO_NOSIGPIPE` on Apple targets), so `serve` and `worker` still see a
/// vanished peer as an error.
#[cfg(unix)]
fn die_quietly_on_closed_stdout() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` is async-signal-safe and called before any other
    // thread exists; SIG_DFL installs no Rust code as a handler.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn die_quietly_on_closed_stdout() {}

fn main() {
    die_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                usage();
            }
            println!("benchmarks (synthetic SPEC2000 models):");
            for s in suite::all() {
                println!(
                    "  {:10} ({:?}, {} live chains)",
                    s.name, s.class, s.live_chains
                );
            }
            println!("\nschemes:");
            for label in SCHEME_LABELS {
                println!("  {label}");
            }
            println!(
                "\nevery benchmark also takes profile variants \
                 (profile:<name>/expected|stress|adversarial[@seed])\nand \
                 recorded traces replay with trace:<file.diqt> — see `diq trace`"
            );
        }
        Some("run") => cmd_run(&args[1..]),
        Some("figure") => {
            let [_, id] = args.as_slice() else { usage() };
            let Some(&(_, build)) = figures::ALL.iter().find(|(known, _)| known == id) else {
                let ids: Vec<&str> = figures::ALL.iter().map(|(known, _)| *known).collect();
                fail(format!("unknown figure `{id}` ({})", ids.join(", ")));
            };
            let h = Harness::from_env().unwrap_or_else(|e| fail(e));
            println!("{}", build(&h));
        }
        Some("figures") => {
            if args.len() > 1 {
                usage();
            }
            let h = Harness::from_env().unwrap_or_else(|e| fail(e));
            for fig in figures::all(&h) {
                println!("{fig}");
            }
        }
        Some("trace") => cmd_trace(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        _ => usage(),
    }
}
