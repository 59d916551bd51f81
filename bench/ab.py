#!/usr/bin/env python3
"""A/B comparison of two source trees on one perfbench workload.

Runs each tree's own perfbench/run.py alternately, flipping which side goes
first every pair, then prints every end-to-end metric's median and
quartiles per side, the change's win count on the claimed metric, and
whether the gain rule holds: at least ten pairs of full-length runs
(BENCHMARK.json run_seconds), the change wins at least nine tenths of them
(ties count for neither side) and the medians differ, in the change's
favour, by more than the parent's interquartile range. With fewer pairs
the verdict is "not enough data".

    python3 bench/ab.py --parent ../parent --change . \\
        --workload mid_paper --seed 5 --pairs 10

Each tree builds into its own .bench_build/; one untimed warm-up run per
side builds it and fills caches before the pairs start. Exits 1 when any
run fails or reports correct: false or failed > 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM = "cpu_ref_s"  # the metric a speed gain is claimed on
MIN_PAIRS = 10       # the gain rule needs at least this many pairs


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        sys.exit("ab.py: run failed in %s:\n%s" % (tree, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        sys.exit("ab.py: incorrect run in %s: %s" % (tree, json.dumps(result)))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("ab.py: --pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    for side, tree in trees.items():
        print("warm-up %s (%s)" % (side, tree), flush=True)
        run_once(tree, args.workload, args.seed, 1)

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            runs[side].append(
                run_once(trees[side], args.workload, args.seed, seconds))
        print("pair %2d (%s first): %s parent %.4f change %.4f" % (
            pair + 1, order[0], CLAIM, runs["parent"][-1][CLAIM],
            runs["change"][-1][CLAIM]), flush=True)

    print("\n%s seed %d, %d pairs, %d s runs" % (
        args.workload, args.seed, args.pairs, seconds))
    print("%-22s %-36s %-36s %s" % ("metric", "parent median [q1, q3]",
                                    "change median [q1, q3]", "delta"))
    for name in metrics:
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([r[name] for r in runs[side]])
            cells.append((q1, med, q3))
        delta = ((cells[1][1] - cells[0][1]) / cells[0][1] * 100
                 if cells[0][1] else 0.0)
        print("%-22s %-36s %-36s %+.2f%%" % (
            name,
            "%.6g [%.6g, %.6g]" % (cells[0][1], cells[0][0], cells[0][2]),
            "%.6g [%.6g, %.6g]" % (cells[1][1], cells[1][0], cells[1][2]),
            delta))

    lower = metrics[CLAIM]["better"] == "lower"
    wins = 0
    for p, c in zip(runs["parent"], runs["change"]):
        if c[CLAIM] != p[CLAIM] and (
                (c[CLAIM] < p[CLAIM]) == lower):
            wins += 1
    p_q1, p_med, p_q3 = quartiles([r[CLAIM] for r in runs["parent"]])
    _, c_med, _ = quartiles([r[CLAIM] for r in runs["change"]])
    gap = (p_med - c_med) if lower else (c_med - p_med)
    if args.pairs < MIN_PAIRS:
        verdict = "not enough data (%d pairs, need %d)" % (args.pairs,
                                                          MIN_PAIRS)
    elif wins * 10 >= 9 * args.pairs and gap > p_q3 - p_q1:
        verdict = "holds"
    else:
        verdict = "does not hold"
    print("\n%s: change wins %d/%d pairs; median gap %.4g vs parent IQR "
          "%.4g; gain rule %s" % (CLAIM, wins, args.pairs, gap,
                                  p_q3 - p_q1, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
