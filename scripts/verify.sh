#!/usr/bin/env bash
# Tier-1 verification: release build, every workspace test under both
# background modes, the seed-printing crash sweeps, the benchmark package's
# own build and tests, and lint-clean clippy.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (inline background)"
cargo test -q --workspace

echo "==> LSM_BACKGROUND=threaded cargo test -q --workspace"
LSM_BACKGROUND=threaded cargo test -q --workspace

echo "==> replication failover crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test replication_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test replication_crash -- --nocapture

echo "==> live-split migration crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test migration_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test migration_crash -- --nocapture

echo "==> transaction-commit crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test txn_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test txn_crash -- --nocapture

echo "==> retune crash sweep (both background modes, seed ${LSM_SEED:-default})"
cargo test -q --test retune_crash -- --nocapture
LSM_BACKGROUND=threaded cargo test -q --test retune_crash -- --nocapture

echo "==> allocation-regression battery (counting allocator + borrowed-vs-owned differential)"
cargo test -q -p lsm-core --release --test alloc_regression
LSM_BACKGROUND=threaded cargo test -q -p lsm-core --release --test alloc_regression

echo "==> bench smoke run with metrics artifact"
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e18_write_stalls -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e18_write_stalls.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e19_parallel_compaction -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e19_parallel_compaction.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e20_server_throughput -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e20_server_throughput.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e21_hot_path -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e21_hot_path.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e22_replication -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e22_replication.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e23_elastic -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e23_elastic.metrics.jsonl
LSM_BENCH_N=3000 cargo run -q -p lsm-bench --release --bin e24_transactions -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e24_transactions.metrics.jsonl
# e25 floors its own scale at DEFAULT_N (it asserts adaptive-beats-static,
# which needs a real tree), so no LSM_BENCH_N shrink here
cargo run -q -p lsm-bench --release --bin e25_self_tuning -- --metrics
cargo run -q -p lsm-bench --release --bin metrics_lint results/e25_self_tuning.metrics.jsonl

echo "==> lsmbench (outside the workspace): compiles against the items it pins, unit + smoke tests, names vs BENCHMARK.json"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path lsmbench/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "OK: build, workspace tests (both modes), crash sweeps, metrics artifacts, lsmbench, clippy all clean"
