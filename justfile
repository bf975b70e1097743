# Developer entry points. Install `just`, or copy the recipes by hand —
# every recipe is plain cargo.

# The tier-1 gate: what CI and the roadmap treat as "the build is green".
verify:
    cargo build --release
    cargo test -q

# The property suites at ~16x their in-tree case counts — what CI's
# proptest-heavy workflow runs on main/schedule. Release speed with the
# debug_assert! invariant layer kept armed. Failures record their seed in
# proptest-regressions/ (commit it: every later run replays it first).
test-heavy cases="512":
    PROPTEST_CASES={{cases}} CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
        cargo test --release \
        --test proptest_replay --test proptest_squash \
        --test proptest_wakeup --test proptest_schemes \
        --test proptest_structures

# Everything CI runs, including workspace-wide tests and lints.
ci: verify
    cargo test -q --workspace
    cargo fmt --all --check
    cargo clippy --all-targets --workspace -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Regenerate every paper artifact (DIQ_INSTRS trades time for fidelity;
# 100k/5M-style suffixes accepted).
figures:
    cargo run --release -- figures

# Run an experiment grid, resumably (results land in ./results).
sweep spec="experiments/paper_matrix.json":
    cargo run --release -- sweep {{spec}}

# The CI resume check, locally: sweep a tiny grid twice, the second pass must
# be 100% cache hits (asserted on the machine-readable summary, as CI does)
# and leave the run manifest byte for byte as it was, then export the
# summary JSON.
sweep-smoke:
    cargo build --release
    ./target/release/diq sweep experiments/ci_smoke.json --store ci-results --summary-json ci-results/first.json
    cp ci-results/runs/ci-smoke.json ci-results/first-manifest.json
    ./target/release/diq sweep experiments/ci_smoke.json --store ci-results --summary-json ci-results/second.json
    jq -e '.computed == 0 and .cached == .total and .cache_hit_pct == 100' ci-results/second.json
    cmp ci-results/first-manifest.json ci-results/runs/ci-smoke.json
    ./target/release/diq export ci-smoke --store ci-results

# The CI trace check, locally: record a 50k-instruction trace twice (the
# two files must be identical), assert its metadata and content hash over
# `diq trace info --json`, check that `-n 0` is refused, then sweep a grid
# mixing the recorded trace with seeded profile variants twice — the
# resubmit must be 100% cache hits (trace content hashes and profile seeds
# dedup correctly).
trace-smoke:
    cargo build --release
    mkdir -p traces
    ./target/release/diq trace record kernel:gzip -n 50k -o traces/gzip-50k.diqt
    ./target/release/diq trace record kernel:gzip -n 50k -o traces/gzip-50k-again.diqt
    cmp traces/gzip-50k.diqt traces/gzip-50k-again.diqt
    ./target/release/diq trace info traces/gzip-50k.diqt --json > trace-info.json
    jq -e '.instructions == 50000 and .name == "gzip" and .content == "adc404aaea4234be"' trace-info.json
    ! ./target/release/diq trace record kernel:gzip -n 0 -o traces/empty.diqt
    ./target/release/diq sweep experiments/trace_smoke.json --store trace-results --summary-json trace-first.json
    jq -e '.computed + .cached == .total and .total > 0' trace-first.json
    ./target/release/diq sweep experiments/trace_smoke.json --store trace-results --summary-json trace-second.json
    jq -e '.computed == 0 and .cached == .total and .cache_hit_pct == 100' trace-second.json

# The CI serve check, locally: a server and one worker in the background,
# the smoke grid submitted twice (the second pass must be 100% dedup), the
# served store and run manifest compared byte-for-byte against an
# in-process sweep, then a clean protocol shutdown.
serve-smoke:
    cargo build --release
    rm -rf serve-results swept-results
    ./target/release/diq serve --store serve-results & \
    sleep 1; \
    ./target/release/diq worker & \
    ./target/release/diq submit experiments/ci_smoke.json --watch --summary-json served.json; \
    ./target/release/diq submit experiments/ci_smoke.json --watch --summary-json served2.json; \
    jq -e '.computed == 0 and .cached == .total and .cache_hit_pct == 100' served2.json; \
    ./target/release/diq sweep experiments/ci_smoke.json --store swept-results --threads 1 > /dev/null; \
    cmp serve-results/store.jsonl swept-results/store.jsonl; \
    cmp serve-results/runs/ci-smoke.json swept-results/runs/ci-smoke.json; \
    ./target/release/diq submit --shutdown; \
    wait

# Long-running sweep service on the default endpoint (stop it with
# `just serve-stop` from another terminal).
serve store="results":
    cargo run --release -- serve --store {{store}}

# Join a running server as an execution worker.
serve-worker addr="127.0.0.1:7457":
    cargo run --release -- worker --connect {{addr}}

# Submit a spec to a running server and watch it to completion.
serve-submit spec="experiments/ci_smoke.json" addr="127.0.0.1:7457":
    cargo run --release -- submit {{spec}} --connect {{addr}} --watch

# Ask a running server to shut down cleanly.
serve-stop addr="127.0.0.1:7457":
    cargo run --release -- submit --shutdown --connect {{addr}}

# Gate run B against baseline run A (exits 1 past the IPC threshold). Either
# side may be a stored run name or a path to an exported BENCH_*.json.
compare a b threshold="2":
    cargo run --release -- compare {{a}} {{b}} --threshold {{threshold}}

# Stall model vs. real wrong-path speculation: per-scheme IPC/energy and
# the wrong-path energy share on a branchy SPECint model (quick table via
# the example), plus the resumable two-machine sweep grid for the full
# comparison (results land in ./results; `diq export speculation` after).
bench-speculation bench="gcc":
    cargo run --release --example wrong_path {{bench}}
    cargo run --release -- sweep experiments/speculation.json

# Oracle load latency vs. load-hit speculative wakeup with selective
# replay: per-scheme IPC/energy and the replay counters on the miss-heavy
# pointer-chasing kernel (quick table via the example), plus the resumable
# sweep grid (results land in ./results; `diq export load-replay` after).
bench-replay bench="misschase":
    cargo run --release --example load_replay {{bench}}
    cargo run --release -- sweep experiments/load_replay.json

# Adaptive queue geometry vs the static CAM baseline: per-workload
# IPC-vs-gated-energy deltas, resize counts and gated bank-cycles under
# two controller aggressiveness settings (quick table via the example).
bench-adaptive:
    cargo run --release --example adaptive_geometry

# One fast end-to-end pass: regenerate the two headline paper artifacts
# and the chain-budget ablation at a tiny budget. Simulator throughput is
# perfbench (`python3 perfbench/run.py`).
bench-smoke:
    cargo build --release
    DIQ_INSTRS=2000 ./target/release/diq figure tab1
    DIQ_INSTRS=2000 ./target/release/diq figure headline
    DIQ_INSTRS=2000 ./target/release/diq figure ablation_chains

# Lines of code, the measure of "less code": per crate (`crates/*/src`)
# and the root `src/`, the lines that are neither blank nor `//` comments,
# up to the file's `#[cfg(test)] mod tests`. With a directory, per file.
# vendor/ and perfbench/ are not counted.
loc dir="":
    #!/bin/sh
    count() {
        find "$@" -name '*.rs' -exec awk '
            FNR == 1 { if (f != "") print n, f; f = FILENAME; n = 0; t = 0; held = 0 }
            t { next }
            held { held = 0; if (/^mod tests/) { t = 1; next } n++ }
            /^#\[cfg\(test\)\]$/ { held = 1; next }
            !/^[ \t]*(\/\/|$)/ { n++ }
            END { if (f != "") print n, f }' {} + | sort -k2
    }
    if [ -n "{{dir}}" ]; then
        count "{{dir}}" | awk '{ printf "%6d  %s\n", $1, $2; s += $1 } END { printf "%6d  total\n", s }'
    else
        for d in crates/*/src src; do
            count "$d" | awk -v d="$d" '{ s += $1 } END { printf "%6d  %s\n", s, d }'
        done
    fi

# Remove build output.
clean:
    cargo clean
