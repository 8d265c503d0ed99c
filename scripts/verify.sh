#!/usr/bin/env bash
# Tier-1 verification: release build, every workspace test under both
# background modes, the seed-printing crash sweeps, the benchmark package's
# own build and tests, and lint-clean clippy.
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

stage "replication failover crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test replication_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test replication_crash -- --nocapture

stage "live-split migration crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test migration_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test migration_crash -- --nocapture

stage "transaction-commit crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test txn_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test txn_crash -- --nocapture

stage "retune crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test retune_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test retune_crash -- --nocapture

stage "allocation-regression battery (counting allocator + borrowed-vs-owned differential)"
cargo test -q -p lsm-core --release --test alloc_regression
LSM_BACKGROUND=threaded cargo test -q -p lsm-core --release --test alloc_regression

stage "bench smoke run with metrics artifact"
for bin in e18_write_stalls e19_parallel_compaction e20_server_throughput e21_hot_path \
    e22_replication e23_elastic e24_transactions e25_self_tuning; do
    if [ "$bin" = e25_self_tuning ]; then
        # e25 floors its own scale at DEFAULT_N (it asserts adaptive-beats-static,
        # which needs a real tree), so no LSM_BENCH_N shrink here
        cargo run -q -p lsm-bench --release --bin "$bin" -- --metrics
    else
        LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin "$bin" -- --metrics
    fi
    cargo run -q -p lsm-bench --release --bin metrics_lint "results/$bin.metrics.jsonl"
done

stage "lsmbench (outside the workspace): compiles against the items it pins, unit + smoke tests, names vs BENCHMARK.json"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path lsmbench/Cargo.toml

stage "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

stage ""
echo "OK in $SECONDS s: build, workspace tests (both modes), crash sweeps, metrics artifacts, lsmbench, clippy all clean"
