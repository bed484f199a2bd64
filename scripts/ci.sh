#!/usr/bin/env bash
# The full local CI gate: formatting, release builds (libraries and binaries,
# then every target), the complete workspace test suite, the benchmark build
# check, the fleet, train_zoo and drive_hires smokes, and the static-analysis
# gate —
# everything a change must pass before merging.
#
#   scripts/ci.sh
#
# Runs every phase even when an earlier one fails, so one invocation
# reports every broken gate; exits non-zero if any phase failed.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== ci: cargo fmt --all --check =="
# Formatting is mechanical: any diff here fails, and `cargo fmt --all`
# fixes it. The benchmark under perfbench/ is its own workspace and is
# not covered.
cargo fmt --all --check || status=$?

echo
echo "== ci: cargo build --release =="
cargo build --release || status=$?

echo
echo "== ci: cargo build --release --all-targets =="
# Examples and tests in the release profile too, so a target that only
# breaks under release settings fails here rather than at the next run.
cargo build --release --all-targets || status=$?

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
echo "== ci: fleet benchmark smoke =="
# One short fleet through the benchmark harness. It exits 0 only when every
# fleet output check passed: each rollup equals the sessions run so far and
# live leases never exceed the pool's capacity.
python3 perfbench/run.py --workload fleet --seed 1 --seconds 2 --trace 0 || status=$?

echo
echo "== ci: train_zoo benchmark smoke =="
# A short rotation over all six zoo kinds in release, so both convolution
# ranks run forward and backward. Traced, so every fit runs twice, untraced
# and traced. It exits 0 only when every fit's losses stay finite, its
# training loss falls, and the traced twin ends on the same best-val-loss
# bits (training must not depend on timing or telemetry).
python3 perfbench/run.py --workload train_zoo --seed 1 --seconds 2 --trace 1 || status=$?

echo
echo "== ci: drive_hires benchmark smoke =="
# A short 160x120 RGB session on paper_oval: recorded and autonomous driving
# with the full camera, traced. It exits 0 only when every recorded frame
# is stored at full size, the autonomous pilot stays on track (autonomy
# >= 0.6), and a traced rerun of the autonomous session ends on the same
# tick count and autonomy bits (drive_hires.replay_matches). The traced run
# also times the render and track probes.
python3 perfbench/run.py --workload drive_hires --seed 1 --seconds 2 --trace 1 || status=$?

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
# Re-measures the optimized kernels at the committed shapes and fails if,
# timed against the reference kernels of the same run, they are >5% slower
# than in BENCH_kernels.json — keeps telemetry (and everything else) off
# the numeric hot paths without failing on a busy host.
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
