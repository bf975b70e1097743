#!/usr/bin/env python3
"""Self-test of the diq benchmark, in quick mode (tiny instruction counts).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:

* every workload runs with --quick, traced and untraced, with no failed
  operation;
* every metric BENCHMARK.json names is printed with its unit;
* a tampered fingerprint in a temporary copy of expected.json is reported
  as a failed operation;
* a run leaves the repository tree as it found it: traces and stores go to
  a temporary directory under the build directory, which is removed.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark itself)

ROOT = os.getcwd()
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def tree_state():
    """Path -> (size, mtime) of every file outside .git and the build
    directory."""
    state = {}
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if os.path.join(d, x) not in (TARGET, os.path.join(ROOT, ".git"))]
        for f in files:
            p = os.path.join(d, f)
            st = os.stat(p)
            state[p] = (st.st_size, st.st_mtime_ns)
    return state


def bench(workload, trace, expected=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--quick"]
    if expected:
        cmd += ["--expected", expected]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.exit(f"FAIL {workload} trace {trace}: exit {r.returncode}\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS), f"BENCHMARK.json workloads {names} != run.py {list(run.WORKLOADS)}"
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    before = tree_state()
    for workload in names:
        for trace in (0, 1):
            out = bench(workload, trace)
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            assert printed == units[trace], f"{workload} trace {trace}: metrics {sorted(printed)}"
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            print(f"ok   {workload} --trace {trace}: {out['attempted']} operations, "
                  f"{len(printed)} metrics with units")

    scratch = os.path.join(TARGET, "perfbench-selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        tampered = tempfile.mkdtemp(dir=scratch)
        copy = os.path.join(tampered, "expected.json")
        with open(run.EXPECTED_PATH, encoding="utf-8") as f:
            doc = json.load(f)
        for key, fp in doc["fingerprints"].items():
            doc["fingerprints"][key] = f"{int(fp, 16) ^ 1:016x}"
        with open(copy, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        for trace in (0, 1):
            out = bench("ilp-steady", trace, expected=copy)
            assert not out["correct"] and out["failed"] >= 1, f"tampered fingerprint not caught: {out}"
            print(f"ok   tampered fingerprint caught with --trace {trace}: "
                  f"{out['failed']} of {out['attempted']} operations failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    after = tree_state()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    assert not changed, f"runs changed the repository tree: {changed[:10]}"
    leftover = os.path.join(TARGET, "perfbench-tmp")
    assert not os.path.exists(leftover) or not os.listdir(leftover), f"{leftover} not cleaned up"
    print("ok   no file of the repository tree was written; temporary files removed")
    print("selftest passed")


if __name__ == "__main__":
    main()
