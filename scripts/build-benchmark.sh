#!/usr/bin/env bash
# Builds the benchmark package (benchmark/, a package of its own, not a
# workspace member) in release, offline; extra arguments go to cargo.
# Its Cargo.lock is pinned with the package, and cargo rewrites it when a
# workspace crate it depends on gains or loses a dependency, so the
# pinned copy is put back whatever the build's outcome.
#
#   scripts/build-benchmark.sh [-q]
set -euo pipefail
cd "$(dirname "$0")/.."

pinned=$(mktemp /tmp/paratreet-benchlock-XXXXXX)
cp benchmark/Cargo.lock "$pinned"
status=0
cargo build --release --offline "$@" --manifest-path benchmark/Cargo.toml || status=$?
cp "$pinned" benchmark/Cargo.lock && rm -f "$pinned"
exit "$status"
