#!/usr/bin/env python3
"""Build the continuum benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <lesson|train_zoo|drive_hires|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
links the workspace crates by path. It is built in release mode, offline,
into $CARGO_TARGET_DIR (default: .bench_build at the repository root), and
then run with the arguments given here. Cargo's output goes to stderr, so
the last line on stdout is the benchmark's JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
