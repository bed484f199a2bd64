#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

    python3 perfbench/check.py spread <workload> [--runs 10] [--first-seed 1]
        Run a workload once per seed and report, for each end-to-end metric,
        the median and the quartile spread (q3 - q1) / median next to the
        metric's bound. A spread at or above a third of the bound is flagged.
        The wall-clock figures behind the relative metrics follow, unflagged.
        Raw results land in .bench_out/.
    python3 perfbench/check.py counts <workload> [--seconds 1]
        The exact per-unit count lines repeat for one seed and change for
        another (the unit seeds themselves aside).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, lines, wall


# The wall-clock figures behind the relative metrics.
WALL_CLOCK = ("op_p50_ms", "items_per_s", "reference_ms", "setup_wall_s")


def reports(lines):
    """The `report <name> = <value> <unit>` lines of a run, by name."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "report" and parts[2] == "=":
            out[parts[1]] = float(parts[3])
    return out


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def spread(spec, workload, runs, first_seed, seconds):
    seconds = seconds or spec["run_seconds"]
    results, walls, wall_clock = [], [], []
    for seed in range(first_seed, first_seed + runs):
        code, result, lines, wall = run_once(spec, workload, seed, seconds, 0)
        if result is None or not result["correct"]:
            print(f"seed {seed}: exit {code}", *lines[-5:], sep="\n  ")
            return 1
        results.append(result)
        walls.append(wall)
        wall_clock.append(reports(lines))
        print(f"seed {seed}: {wall:.1f} s", json.dumps(result["metrics"]), flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"spread-{workload}.json"), "w") as f:
        json.dump({"walls": walls, "results": results, "wall_clock": wall_clock}, f)
    worst = 0
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med, spr = quartile_spread(values)
        limit = m["bound"] / 3
        flag = "" if spr < limit else "  <-- over a third of the bound"
        worst += bool(flag)
        print(f"{m['name']:>14}: median {med:.6g} {m['unit']}, spread {spr:.4f}"
              f" (bound {m['bound']}, limit {limit:.4f}){flag}")
    for name in WALL_CLOCK:
        med, spr = quartile_spread([r[name] for r in wall_clock])
        print(f"{name:>14}: median {med:.6g}, spread {spr:.4f} (wall clock, not gated)")
    print(f"run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return 1 if worst else 0


def count_lines(lines):
    return [l for l in lines if l.startswith("count ")]


def without_seed(line):
    """A count line minus its unit seed, which always differs by seed."""
    return re.sub(r" seed=\d+", "", line)


def counts(spec, workload, seconds):
    runs = {}
    for tag, seed in (("a", 11), ("a2", 11), ("b", 12)):
        code, result, lines, _ = run_once(spec, workload, seed, seconds, 0)
        if result is None:
            print(f"seed {seed}: exit {code}")
            return 1
        runs[tag] = count_lines(lines)
    n = min(len(runs["a"]), len(runs["a2"]))
    same = n > 0 and runs["a"][:n] == runs["a2"][:n]
    differ = without_seed(runs["a"][0]) != without_seed(runs["b"][0])
    print("first unit, seed 11:", runs["a"][0])
    print("first unit, seed 12:", runs["b"][0])
    print(f"same seed repeats {n} unit(s) exactly: {same}; other seed differs: {differ}")
    return 0 if same and differ else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["spread", "counts"])
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    spec = load_spec()
    if args.mode == "spread":
        return spread(spec, args.workload, args.runs, args.first_seed, args.seconds)
    return counts(spec, args.workload, args.seconds or 1)


if __name__ == "__main__":
    sys.exit(main())
