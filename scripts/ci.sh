#!/usr/bin/env bash
# The full local CI gate: release build, the complete workspace test suite,
# the benchmark build check, and the static-analysis gate — everything a
# change must pass before merging.
#
#   scripts/ci.sh
#
# Runs every phase even when an earlier one fails, so one invocation
# reports every broken gate; exits non-zero if any phase failed.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== ci: cargo build --release =="
cargo build --release || status=$?

echo
echo "== ci: cargo test -q --workspace =="
# --workspace: a bare `cargo test` in this root-package workspace tests
# only the root package and skips every crate's unit tests.
cargo test -q --workspace || status=$?

echo
echo "== ci: benchmark build check =="
# The benchmark (perfbench/) is its own package linking the crates by
# path; a crate API change that breaks it must fail here, not at the
# next benchmark run. --locked keeps its Cargo.lock untouched.
cargo check --release --locked --offline --manifest-path perfbench/Cargo.toml \
    --target-dir .bench_build || status=$?

echo
echo "== ci: static-analysis gate =="
scripts/analyze.sh || status=$?

echo
echo "== ci: kernel bench smoke =="
# One fast iteration at shrunken shapes: proves the benchmark harness and
# the optimized-vs-reference kernel pairing still run; writes no snapshot.
scripts/bench.sh --smoke || status=$?

echo
echo "== ci: trace smoke =="
# One traced lesson under a seeded fault plan: the exported chrome-trace
# must be byte-identical across two replays and show all seven stages.
scripts/trace.sh || status=$?

echo
echo "== ci: kernel regression gate =="
# Re-measures the optimized kernels at the committed shapes and fails if
# the aggregate is >5% slower than BENCH_kernels.json — keeps telemetry
# (and everything else) off the numeric hot paths.
cargo build --release -q -p autolearn-bench --bin kernel_bench || status=$?
./target/release/kernel_bench --check BENCH_kernels.json || status=$?

echo
echo "== ci: analyzer baseline ratchet =="
# Fails on any finding count above the committed snapshot; when counts
# shrink, the snapshot is rewritten in place — commit the updated file.
cargo run -q -p autolearn-analyze -- --workspace \
    --baseline crates/analyze/analyze-baseline.json || status=$?

echo
if [ "$status" -eq 0 ]; then
    echo "ci: all gates green"
else
    echo "ci: FAILED (status $status)"
fi
exit "$status"
