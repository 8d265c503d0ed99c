#!/usr/bin/env bash
# The ledger's one command (see /BENCHMARK.json): builds lsmbench from
# source, release and offline, then runs one workload in its own process.
#
#   bash lsmbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The last line of stdout is the result
# object; the build talks on stderr only.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/lsmbench" "$@"
