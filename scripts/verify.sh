#!/usr/bin/env bash
# Tier-1 verification: release build, every workspace test under both
# background modes (crash sweeps included; a failing sweep's captured
# output names its LSM_SEED), the crash sweeps again at LSM_SEED=1 in
# both modes, the server's transaction and pipelining suites 5 times in
# both modes, the allocation-regression and heap-footprint tests in
# release in both modes, the experiment registry at full scale
# (claims + freshness of the tracked tables), the benchmark package's own
# build and tests, warning-free rustdoc, and lint-clean clippy.
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

stage "crash sweeps at LSM_SEED=1, both modes: every scenario under crash, torn write and bit flip, with separated-value bit flips, multi-block txn groups, a merge installed at its frontier and value-log GC at every step"
# the stages above ran the default seeds; another seed moves every bit
# flip and, in the server scenarios, the scripted workload itself
for mode in inline threaded; do
    LSM_SEED=1 LSM_BACKGROUND=$mode cargo test -q --test crash_recovery --test concurrent_crash \
        --test txn_crash --test retune_crash --test migration_crash --test replication_crash
done

stage "write-buffer handle/ceiling protocol: paused scan, snapshot and txn, 20 runs under each LSM_BACKGROUND mode"
# a race between a paused reader's chunk refills and the writers, flushes
# and compactions it overlaps fails the gate here instead of flaking once;
# readers overlap maintenance under both modes (Inline runs it on the
# writer after it drops the write guard), so both repeat
for mode in inline threaded; do
    for _ in $(seq 20); do
        LSM_BACKGROUND=$mode cargo test -q -p lsm-core --release --test paused_reads
    done
done

stage "one commit path: transaction commits interleaved with group-commit batches on one committer (transactions + pipelining suites), 5 runs under each LSM_BACKGROUND mode"
# PUT/DELETE and TXN_COMMIT share each shard's committer queue: a commit
# ends the batch it arrives behind and runs after it, so an ordering race
# between them fails the gate here instead of flaking once
for mode in inline threaded; do
    for _ in $(seq 5); do
        LSM_BACKGROUND=$mode cargo test -q -p lsm-server --release --test transactions --test pipelining
    done
done

stage "allocation-regression battery (counting allocator + borrowed-vs-owned differential) and heap footprint (load + compaction peak, a merge's bytes beyond its inputs, WAL bytes under one-record group commits, value-log GC's peak), both modes"
# the footprint tests: a device file costs its bytes plus one extent, a
# load + full compaction peaks at a small multiple of the device's bytes,
# a full merge holds at most a table per input run (plus the one being
# built) beyond its inputs, a WAL synced after every record holds its
# frames, not a block each, and value-log GC's heap grows by less than
# the log it retires
for mode in inline threaded; do
    LSM_BACKGROUND=$mode cargo test -q -p lsm-core --release --test alloc_regression --test heap_footprint
    LSM_BACKGROUND=$mode cargo test -q -p lsm-storage --release --test footprint
done

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

stage "RUSTDOCFLAGS=\"-D warnings\" cargo doc: no dead, private or redundant doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

stage "cargo clippy --workspace --all-targets -- -D warnings (tests too)"
cargo clippy --workspace --all-targets -- -D warnings

stage ""
echo "OK in $SECONDS s: build, workspace tests (both modes), crash sweeps, experiment claims, lsmbench, rustdoc, clippy all clean"
