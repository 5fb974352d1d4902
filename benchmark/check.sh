#!/usr/bin/env bash
# Build the benchmark offline against vendor/, run its unit tests and the
# --quick smoke run of all four workloads, and validate BENCHMARK.json.
# Run from anywhere; takes a few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 -m json.tool BENCHMARK.json > /dev/null
python3 -m json.tool benchmark/api.json > /dev/null

cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Release, so the smoke test's quick windows see the optimized engine;
# one test thread, so two windows never share the two cores.
cargo test --release --offline --manifest-path benchmark/Cargo.toml -- --test-threads=1

echo "benchmark/check.sh: ok"
