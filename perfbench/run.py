#!/usr/bin/env python3
"""The diq benchmark: four workloads, timed from outside.

    python3 perfbench/run.py --workload ilp-steady --seed 1 --seconds 20 --trace 0

Run it from the root of a diq checkout. It builds the release `diq` binary
(and, for `--trace 1`, the traced mirror in perfbench/traced) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload for --seconds,
checks every simulated point against the fingerprints in
perfbench/expected.json, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on the plain
release binary; with --trace 1 they are the per-layer ones from the traced
mirror. perfbench/README.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACED_MANIFEST = os.path.join(BENCH_DIR, "traced", "Cargo.toml")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# A seed selects one of VARIANTS instruction streams per workload (the
# spec-level seed shift for generated sources, the profile seed for the
# recorded trace), so expected.json can hold every fingerprint a seed can
# produce.
VARIANTS = 4

# All-cache-hit passes after each cold pass.
RESUMES = 3
# No single process may take longer than this.
OP_TIMEOUT_S = 120
# Instructions of the one-point warm-up sweep made during set-up: enough to
# resolve the source and open a store, too few to time the simulator.
WARMUP_INSTRUCTIONS = 1

STOCK = {}
SPECULATIVE = {"label": "wp+replay", "wrong_path": True, "load_hit_speculation": True}
# The four speculation machines of experiments/ci_smoke.json.
SPECULATION_MACHINES = [
    STOCK,
    {"label": "wrongpath", "wrong_path": True},
    {"label": "replay", "load_hit_speculation": True},
    SPECULATIVE,
]
# diq_core::SchedulerConfig::KNOWN_LABELS, fixed here so that registering a
# new scheme does not silently change the benchmark.
REGISTERED_SCHEMES = [
    "IQ_unbounded",
    "IQ_64_64",
    "IQ_64_64_adapt",
    "IssueFIFO_16x16_8x16",
    "LatFIFO_16x16_8x16",
    "MixBUFF_16x16_8x16",
    "IF_distr",
    "MB_distr",
    "MB_distr_agesel",
]

# Why each workload exists is in README.md. `instructions` is per point;
# `quick` replaces it (and shrinks the sweep grid) under --quick.
WORKLOADS = {
    "ilp-steady": {
        "kind": "sim",
        "schemes": ["IQ_64_64", "MB_distr"],
        "source": "kernel:gzip",
        "machine": STOCK,
        "instructions": 500_000,
        "quick": 20_000,
    },
    "miss-bound": {
        "kind": "sim",
        "schemes": ["IQ_64_64", "MB_distr"],
        "source": "kernel:mcf",
        "machine": STOCK,
        "instructions": 250_000,
        "quick": 20_000,
    },
    "spec-replay": {
        "kind": "sim",
        "schemes": ["MB_distr", "IQ_64_64"],
        "source": "profile:gzip/stress@{}",
        "machine": SPECULATIVE,
        "instructions": 250_000,
        "quick": 20_000,
    },
    "sweep-grid": {
        "kind": "sweep",
        "schemes": REGISTERED_SCHEMES,
        "sources": ["kernel:gzip", "kernel:mcf", "kernel:swim", "kernel:gcc"],
        "machines": SPECULATION_MACHINES,
        "instructions": 2_000,
        "quick": 500,
        "quick_schemes": ["MB_distr", "IQ_64_64"],
        "quick_sources": ["kernel:gzip"],
    },
}

def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def fastest(xs):
    """The fastest of many runs of one operation. Load from other tenants
    of a shared machine only ever adds host time, in bursts lasting
    seconds; the minimum of many short runs tracks the program's own cost
    through those bursts, where a median moves with how much of the run
    they happen to cover."""
    return min(xs)


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


class Runner:
    """Starts one child process at a time through perfbench-launch, which
    times it and reports its own peak RSS (started from this process, a
    child would report at least this process's RSS), and always reaps it."""

    def __init__(self, root, launcher):
        self.root = root
        self.launcher = launcher
        self.child = None

    def run(self, cmd, out_path):
        """Runs `cmd` with stdout and stderr to `out_path`(.err); returns
        (exit code, wall seconds, peak RSS in KiB)."""
        self.child = subprocess.Popen([self.launcher, out_path, out_path + ".err", *cmd], cwd=self.root,
                                      stdout=subprocess.PIPE, start_new_session=True)
        try:
            report, _ = self.child.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            report = b""
        self.child = None
        fields = report.split()
        if len(fields) != 3:
            return -1, 0.0, 0
        code, wall_ns, rss_kib = map(int, fields)
        return code, wall_ns / 1e9, rss_kib

    def stop(self):
        """Kills the launcher and the command it started (one session)."""
        if self.child is not None and self.child.poll() is None:
            os.killpg(self.child.pid, signal.SIGKILL)
            self.child.wait()


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def store_records(store):
    """(key, fingerprint, result) per line of a store; the fingerprint is
    FNV-1a over the stored `result` object's bytes."""
    path = os.path.join(store, "store.jsonl")
    if not os.path.exists(path):
        return []
    prefix = '{"key":"'
    out = []
    for line in read_text(path).splitlines():
        if not line.startswith(prefix) or '","result":' not in line:
            raise ValueError(f"unexpected store line: {line[:80]}")
        raw = line[line.index('"result":') + len('"result":') : -1]
        out.append((line[len(prefix) : len(prefix) + 16], fnv1a64(raw.encode()), json.loads(raw)))
    return out


class Bench:
    def __init__(self, args, root, target_dir):
        self.args = args
        self.root = root
        self.quick = args.quick
        self.variant = args.seed % VARIANTS
        self.wl = WORKLOADS[args.workload] if args.workload else None
        self.diq = os.path.join(target_dir, "release", "diq")
        self.traced = os.path.join(target_dir, "release", "perfbench-traced")
        self.runner = Runner(root, os.path.join(target_dir, "release", "perfbench-launch"))
        self.attempted = 0
        self.failed = 0
        self.expected = {}
        self.seen = {}
        self.n = 0
        tmp_parent = os.path.join(target_dir, "perfbench-tmp")
        os.makedirs(tmp_parent, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
        self.cur = self.tmp

    def close(self):
        self.runner.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass

    def path(self, name):
        self.n += 1
        return os.path.join(self.cur, f"{self.n:05d}-{name}")

    def new_round(self):
        """A fresh directory for the next set-up and its operations."""
        self.cur = tempfile.mkdtemp(prefix="round-", dir=self.tmp)

    def end_round(self):
        shutil.rmtree(self.cur, ignore_errors=True)
        self.cur = self.tmp

    # ---- correctness -------------------------------------------------

    def check(self, what, key, fp, result, target):
        """Counts one operation; returns whether it was correct."""
        self.attempted += 1
        self.seen[key] = fp
        problems = []
        want = self.expected.get(key)
        if want is None and not self.args.rebaseline:
            problems.append(f"no expected fingerprint for point {key}")
        elif want is not None and want != fp:
            problems.append(f"fingerprint {fp} != expected {want}")
        if result.get("committed") != target:
            problems.append(f"committed {result.get('committed')} != target {target}")
        if result.get("checker_violations", 1) != 0:
            problems.append(f"{result.get('checker_violations')} checker violations")
        if problems:
            self.failed += 1
            log(f"FAILED {what} [{key}]: " + "; ".join(problems))
            return False
        return True

    def fail(self, what, n, why):
        self.attempted += n
        self.failed += n
        log(f"FAILED {what} ({n} points): {why}")

    # ---- workload preparation ----------------------------------------

    def instructions(self):
        return self.wl["quick"] if self.quick else self.wl["instructions"]

    def write_spec(self, name, schemes, sources, machines, instructions):
        path = self.path(name + ".json")
        spec = {
            "name": name,
            "seed": self.variant,
            "instructions": [instructions],
            "schemes": schemes,
            "workloads": [{"source": s} for s in sources],
            "machines": machines,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        return path

    def must(self, cmd, what):
        """One set-up step, started directly: set-up needs no peak RSS,
        and going through the launcher would add its start-up to
        `setup_s`. run() kills the step if it times out or we exit."""
        try:
            r = subprocess.run(cmd, cwd=self.root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                               timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die(f"set-up step `{what}` took longer than {OP_TIMEOUT_S} s", 1)
        if r.returncode != 0:
            die(f"set-up step `{what}` exited {r.returncode}: {r.stderr.decode(errors='replace')[-400:]}", 1)

    def prepare(self):
        """One set-up: specs (and the recorded trace), plus a one-point
        warm-up sweep of WARMUP_INSTRUCTIONS per spec, which resolves its
        source and opens a store. Returns the operations to measure: per
        operation, whether its cold pass counts towards `sim_mips`,
        `points_per_s` and `peak_rss_mb` (`cold`), how many resume passes
        follow it, all timed into `resume_s` (`resumes`), and whether the
        traced run mirrors it (`traced`)."""
        wl = self.wl
        n = self.instructions()
        if wl["kind"] == "sweep":
            op = self.grid_op(cold=True, traced=True)
            warm = self.write_spec("warmup", wl["schemes"][:1], wl["sources"][:1], wl["machines"][:1],
                                   WARMUP_INSTRUCTIONS)
            self.must([self.diq, "sweep", warm, "--store", self.path("store")], "warm-up")
            return [op]
        source = wl["source"]
        if "{}" in source:
            trace = self.path("replay.diqt")
            uri = source.format(1 + self.variant)
            self.must([self.diq, "trace", "record", uri, "-n", str(n), "-o", trace], "trace record")
            source = "trace:" + trace
        ops = []
        for scheme in wl["schemes"]:
            spec = self.write_spec(scheme, [scheme], [source], [wl["machine"]], n)
            warm = self.write_spec("warmup", [scheme], [source], [wl["machine"]], WARMUP_INSTRUCTIONS)
            self.must([self.diq, "sweep", warm, "--store", self.path("store")], "warm-up")
            ops.append({"name": scheme, "spec": spec, "points": 1, "target": n,
                        "cold": True, "resumes": 0, "traced": True})
        # The simulation workloads' own stores hold one record, whose resume
        # is process start-up alone; they take `resume_s` from the store
        # `sweep-grid` makes instead.
        ops.append(self.grid_op(cold=False, traced=False))
        return ops

    def grid_op(self, cold, traced):
        """The `sweep-grid` operation: its spec, swept cold into a fresh
        store and then resumed RESUMES times."""
        wl = WORKLOADS["sweep-grid"]
        n = wl["quick"] if self.quick else wl["instructions"]
        schemes = wl["quick_schemes"] if self.quick else wl["schemes"]
        sources = wl["quick_sources"] if self.quick else wl["sources"]
        spec = self.write_spec("sweep-grid", schemes, sources, wl["machines"], n)
        points = len(schemes) * len(sources) * len(wl["machines"])
        return {"name": "sweep-grid", "spec": spec, "points": points, "target": n,
                "cold": cold, "resumes": RESUMES, "traced": traced}

    # ---- one untraced operation --------------------------------------

    def sweep_pass(self, op, store, what):
        """One `diq sweep` process; returns (ok, wall, rss_kib, summary)."""
        out = self.path("sweep.out")
        summary = out + ".json"
        cmd = [self.diq, "sweep", op["spec"], "--store", store, "--threads", "1", "--summary-json", summary]
        code, wall, rss = self.runner.run(cmd, out)
        if code != 0:
            self.fail(what, op["points"], f"diq sweep exited {code}: {read_text(out + '.err')[-400:]}")
            return False, wall, rss, None
        with open(summary, encoding="utf-8") as f:
            return True, wall, rss, json.load(f)

    def untraced(self, op, resumes):
        """A cold pass into a fresh store, checked point by point, then
        `resumes` all-cache-hit passes over the same store, each checked to
        serve every point. Returns (cold wall, rss, [resume walls]), or
        None when a process failed; wrong results count as failed
        operations but keep their timings."""
        store = self.path("store")
        try:
            ok, cold, rss, summary = self.sweep_pass(op, store, f"{op['name']} cold pass")
            if not ok:
                return None
            records = store_records(store)
            if summary["computed"] != op["points"] or len(records) != op["points"]:
                self.fail(op["name"], op["points"], f"cold pass computed {summary['computed']}, stored {len(records)}")
                return None
            for key, fp, result in records:
                self.check(op["name"], key, fp, result, op["target"])
            keys = sorted(k for k, _, _ in records)
            resume_walls = []
            for _ in range(resumes):
                ok, wall, _, summary = self.sweep_pass(op, store, f"{op['name']} resume pass")
                if not ok:
                    return None
                manifest = os.path.join(store, "runs", summary["run"] + ".json")
                with open(manifest, encoding="utf-8") as f:
                    served = sorted(p["key"] for p in json.load(f)["points"])
                self.attempted += 1
                if summary["cached"] != op["points"] or served != keys:
                    self.failed += 1
                    log(f"FAILED {op['name']} resume pass: {summary}")
                resume_walls.append(wall)
            return cold, rss, resume_walls
        finally:
            shutil.rmtree(store, ignore_errors=True)

    # ---- one traced operation ----------------------------------------

    def traced_op(self, op):
        """The traced mirror over the same spec; returns (wall, parsed
        output) or None on failure."""
        out = self.path("traced.out")
        store = self.path("store")
        cmd = [self.traced, "sim" if op["points"] == 1 else "sweep", op["spec"], store]
        code, wall, _ = self.runner.run(cmd, out)
        shutil.rmtree(store, ignore_errors=True)
        if code != 0:
            self.fail(f"{op['name']} traced", op["points"], f"exited {code}: {read_text(out + '.err')[-400:]}")
            return None
        what = f"{op['name']} traced"
        lines = [json.loads(line) for line in read_text(out).splitlines() if line.strip()]
        if len(lines) != 1 or lines[0].get("profile_feature"):
            self.fail(what, op["points"], "not one line of output, or built with the `profile` feature")
            return None
        (line,) = lines
        # The timer calibration is tracing cost of its own, not the wrappers'.
        wall -= line["calibration_s"]
        if op["points"] == 1:
            self.check(what, line["key"], line["fingerprint"], line, op["target"])
            return wall, line
        # Committed counts and checker violations are checked in Rust
        # (`valid`); here only the fingerprints.
        for key, fp in line["fingerprints"].items():
            self.check(what, key, fp, {"committed": op["target"], "checker_violations": 0}, op["target"])
        if line["valid"] != op["points"] or line["resume_computed"] != 0 or not line["resume_matches"]:
            self.fail(what, op["points"], "invalid results or resume pass mismatch")
        return wall, line

    # ---- measurement loops -------------------------------------------

    def measure(self, traced):
        """Rounds until --seconds have passed (at least two): each round
        sets the workload up afresh (timed) and runs each of its
        operations once. Set-ups spread over the run, like the operations,
        so a burst of outside load cannot fall on all of them at once. With
        `traced`, each untraced operation is followed by its traced twin,
        so outside load falls on both alike. Returns the operations, their
        samples and the median set-up time."""
        samples = {}
        setups = []
        deadline = time.perf_counter() + self.args.seconds
        while len(setups) < 2 or time.perf_counter() < deadline:
            self.new_round()
            t0 = time.perf_counter()
            ops = self.prepare()
            setups.append(time.perf_counter() - t0)
            for op in ops:
                s = samples.setdefault(op["name"], {"cold": [], "rss": [], "resume": [], "traced": []})
                got = self.untraced(op, op["resumes"])
                if got is not None:
                    cold, rss, resume_walls = got
                    s["cold"].append(cold)
                    s["rss"].append(rss)
                    s["resume"].extend(resume_walls)
                if traced and op["traced"]:
                    got = self.traced_op(op)
                    if got is not None:
                        s["traced"].append(got)
            self.end_round()
        for op in ops:
            s = samples[op["name"]]
            if not s["cold"] or (traced and op["traced"] and not s["traced"]):
                die(f"{op['name']}: no successful operation to report", 1)
        return ops, samples, statistics.median(setups)

    def end_to_end(self, ops, samples, setup_s):
        timed = [op for op in ops if op["cold"]]
        cold = sum(fastest(samples[op["name"]]["cold"]) for op in timed)
        instructions = sum(op["points"] * op["target"] for op in timed)
        points = sum(op["points"] for op in timed)
        resume = fastest([w for op in ops for w in samples[op["name"]]["resume"]])
        rss = max(statistics.median(samples[op["name"]]["rss"]) for op in timed)
        return {
            "sim_mips": instructions / cold / 1e6,
            "points_per_s": points / cold,
            "resume_s": resume,
            "setup_s": setup_s,
            "peak_rss_mb": rss / 1024,
        }

    def per_layer(self, ops, samples, names):
        m = dict.fromkeys(names, 0.0)
        ops = [op for op in ops if op["traced"]]
        untraced = sum(fastest(samples[op["name"]]["cold"]) for op in ops)
        traced = sum(fastest([w for w, _ in samples[op["name"]]["traced"]]) for op in ops)
        # The traced sweep process makes the cold pass and one resume pass.
        resumed = sum(fastest(samples[op["name"]]["resume"]) for op in ops if op["resumes"])
        m["trace_overhead_pct"] = (traced / (untraced + resumed) - 1) * 100
        lines = [line for op in ops for _, line in samples[op["name"]]["traced"]]
        m["trace.timer_ns_per_call"] = statistics.median(line["timer_ns"] for line in lines)
        if self.wl["kind"] == "sweep":
            self.sweep_layers(m, lines)
        else:
            self.sim_layers(m, ops, samples, untraced)
        return m

    @staticmethod
    def sweep_layers(m, lines):
        med = lambda k: statistics.median(line[k] for line in lines)
        for name in ["expand_s", "key_s", "store_load_s", "execute_s", "execute_ms_p50",
                     "execute_ms_p95", "record_s", "store_append_s", "manifest_s",
                     "resume_store_load_s", "resume_key_s"]:
            m["exp." + name] = med(name)
        orchestration = ["expand_s", "key_s", "store_load_s", "record_s", "store_append_s", "manifest_s"]
        m["exp.overhead_share"] = statistics.median(
            sum(line[k] for k in orchestration) / line["cold_s"] for line in lines
        )

    @staticmethod
    def sim_layers(m, ops, samples, untraced_s):
        # Times: per point, the median over its traced runs; summed over
        # the workload's points. Counts repeat exactly, so any run's do.
        first = [samples[op["name"]]["traced"][0][1] for op in ops]
        total = lambda k: sum(line[k] for line in first)
        sec = lambda k: sum(
            statistics.median(line[k] for _, line in samples[op["name"]]["traced"]) for op in ops
        ) / 1e9
        run = sec("run_ns")
        fill, restore = sec("fill_ns"), sec("restore_ns")
        core = sum(sec(k) for k in ["dispatch_ns", "issue_cycle_ns", "wakeup_ns", "squash_ns", "cancel_ns"])
        cycles = total("cycles")
        m.update({
            "workload.fill_s": fill,
            "workload.fill_ns_per_inst": fill * 1e9 / max(1, total("fill_insts")),
            "workload.restore_calls": total("restore_calls"),
            "workload.restore_s": restore,
            "core.dispatch_calls": total("dispatch_calls"),
            "core.dispatch_s": sec("dispatch_ns"),
            "core.dispatch_stall_ratio": total("dispatch_errs") / max(1, total("dispatch_calls")),
            "core.issue_cycle_s": sec("issue_cycle_ns"),
            "core.issued": total("issued"),
            "core.wakeup_calls": total("wakeup_calls"),
            "core.wakeup_s": sec("wakeup_ns"),
            "core.share": core / run,
            "core.idle_issue_cycle_share": total("idle_issue_cycles") / max(1, total("issue_cycle_calls")),
            "core.squash_calls": total("squash_calls"),
            "core.squash_s": sec("squash_ns"),
            "core.cancel_calls": total("cancel_calls"),
            "core.cancel_s": sec("cancel_ns"),
            "pipeline.host_ns_per_cycle": untraced_s * 1e9 / cycles,
            "pipeline.run_s": run,
            "pipeline.self_share": 1 - core / run - (fill + restore) / run,
            "pipeline.allocs": total("allocs"),
            "pipeline.allocs_per_mispredict": total("allocs") / max(1, total("mispredict_redirects")),
            "pipeline.cycles": cycles,
            "pipeline.ipc": total("committed") / cycles,
            "pipeline.mispredict_redirects": total("mispredict_redirects"),
            "pipeline.wrong_path_squashed": total("wrong_path_squashed"),
            "pipeline.replayed": total("replayed"),
            "pipeline.dispatch_stall_cycles": total("dispatch_stall_cycles"),
            "pipeline.dl1_miss_rate": total("dl1_misses") / max(1, total("dl1_accesses")),
        })

    # ---- entry points -------------------------------------------------

    def run(self):
        """Measures the workload; returns the result object, with the
        metrics and units BENCHMARK.json names for this --trace value."""
        with open(self.args.expected, encoding="utf-8") as f:
            self.expected = json.load(f)["fingerprints"]
        with open(os.path.join(self.root, "BENCHMARK.json"), encoding="utf-8") as f:
            listed = json.load(f)["per_layer" if self.args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in listed}
        ops, samples, setup_s = self.measure(traced=self.args.trace == 1)
        if self.args.trace == 0:
            metrics = self.end_to_end(ops, samples, setup_s)
        else:
            metrics = self.per_layer(ops, samples, units)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }

    def rebaseline(self):
        """Records the fingerprint of every point any seed can produce,
        normal and --quick sizes, for every workload."""
        fingerprints = {}
        for name, wl in WORKLOADS.items():
            self.wl = wl
            for quick in (False, True):
                self.quick = quick
                for variant in range(VARIANTS):
                    self.variant = variant
                    self.seen = {}
                    self.new_round()
                    for op in self.prepare():
                        if self.untraced(op, 1) is None or self.failed:
                            die(f"{name}: rebaseline run failed; expected.json left unchanged", 1)
                    self.end_round()
                    fingerprints.update(self.seen)
                    log(f"{name} variant {variant}{' quick' if quick else ''}: {len(self.seen)} points")
        doc = {
            "about": "FNV-1a of each point's stored PointResult JSON, keyed by store key; "
                     "written by `python3 perfbench/run.py --rebaseline`.",
            "fingerprints": dict(sorted(fingerprints.items())),
        }
        with open(self.args.expected, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        return len(fingerprints)


def host_facts(root):
    """What a result depends on besides the code, printed with it."""
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
            return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    cpu = "unknown"
    try:
        for line in read_text("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            if "/target/" in p or "__pycache__" in p:
                continue
            digest.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "--version"]) or "unknown",
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "profile_feature": "off",
    }


def build(root, target_dir):
    """Builds the release `diq` binary and the traced mirror (a no-op when
    both are up to date)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in [
        ["cargo", "build", "--release", "--offline", "--bin", "diq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", TRACED_MANIFEST],
    ]:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"`{' '.join(cmd)}` failed with exit code {r.returncode}", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true", help="tiny instruction counts (self-test)")
    p.add_argument("--expected", default=EXPECTED_PATH, help="fingerprint file to check against")
    p.add_argument("--rebaseline", action="store_true", help="rewrite the expected fingerprints")
    args = p.parse_args()
    if not args.rebaseline and args.workload is None:
        p.error("--workload is required")

    root = os.getcwd()
    if not all(os.path.exists(os.path.join(root, p)) for p in ["Cargo.toml", "crates", "BENCHMARK.json"]):
        die("run from the root of a diq checkout (no Cargo.toml, crates/ and BENCHMARK.json here)")
    if not args.rebaseline and not os.path.isfile(args.expected):
        die(f"expected fingerprints `{args.expected}` not found")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build(root, target_dir)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args, root, target_dir)
    try:
        if args.rebaseline:
            n = bench.rebaseline()
            log(f"wrote {n} fingerprints to {args.expected}")
            return
        result = bench.run()
    finally:
        bench.close()
    print(json.dumps({"host": host_facts(root), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "quick": args.quick}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
