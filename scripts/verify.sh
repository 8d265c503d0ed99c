#!/usr/bin/env bash
# Tier-1 verification: release build, every workspace test under both
# background modes (crash sweeps included; a failing sweep's captured
# output names its LSM_SEED), the experiment registry at full scale
# (claims + freshness of the tracked tables), the benchmark package's own
# build and tests, and lint-clean clippy.
# CI runs exactly this script; run it locally before pushing.
# Every stage prints its wall time when it ends, and the run its total:
# the cost of the gate is measured like everything else.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_title=""
stage_started=$SECONDS
# Closes the running stage (printing its wall time) and opens the next.
stage() {
    if [ -n "$stage_title" ]; then
        echo "<== $((SECONDS - stage_started)) s: $stage_title"
    fi
    stage_title="$1"
    stage_started=$SECONDS
    if [ -n "$1" ]; then
        echo "==> $1"
    fi
}

stage "cargo build --release"
cargo build --release

stage "cargo test -q --workspace (inline background)"
cargo test -q --workspace

stage "LSM_BACKGROUND=threaded cargo test -q --workspace"
LSM_BACKGROUND=threaded cargo test -q --workspace

stage "allocation-regression battery (counting allocator + borrowed-vs-owned differential)"
cargo test -q -p lsm-core --release --test alloc_regression
LSM_BACKGROUND=threaded cargo test -q -p lsm-core --release --test alloc_regression

stage "experiment registry at full scale: every claim holds, results/experiments.txt is fresh"
# a PR that moves a curve shows the new table in its own diff:
#   cargo run -p lsm-bench --release --bin experiments > results/experiments.txt
regenerated=$(mktemp)
trap 'rm -f "$regenerated"' EXIT
# (wall-clock observations and per-experiment run times arrive on stderr)
if ! cargo run -q -p lsm-bench --release --bin experiments >"$regenerated"; then
    sed -n '/^== summary ==$/,$p' "$regenerated"
    exit 1
fi
diff -u results/experiments.txt "$regenerated"
echo "tutorial shapes this engine does not reproduce (registered gaps):"
grep -F ' [gap] ' "$regenerated" | cut -d';' -f1

stage "timed bins smoke run (threaded, wall-clock: awaiting the ledger, ROADMAP item 5)"
for bin in e19_parallel_compaction e22_replication e23_elastic e24_transactions e25_self_tuning; do
    if [ "$bin" = e25_self_tuning ]; then
        # e25 floors its own scale at DEFAULT_N (it asserts adaptive-beats-static,
        # which needs a real tree), so no LSM_BENCH_N shrink here
        cargo run -q -p lsm-bench --release --bin "$bin"
    else
        LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin "$bin"
    fi
done

stage "lsmbench (outside the workspace): compiles against the items it pins, unit + smoke tests, names vs BENCHMARK.json"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path lsmbench/Cargo.toml

stage "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

stage ""
echo "OK in $SECONDS s: build, workspace tests (both modes), crash sweeps, experiment claims, lsmbench, clippy all clean"
