#!/usr/bin/env bash
# The benchmark package's own gate: tests, lints, formatting, and a
# smoke run of every workload at ~1/20 size (both passes, every metric
# name checked against BENCHMARK.json). Offline, like scripts/ci.sh —
# which is outside this package and does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --release --offline --manifest-path "$manifest"
cargo clippy --release --offline --all-targets --manifest-path "$manifest" -- -D warnings
cargo fmt --check --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke
