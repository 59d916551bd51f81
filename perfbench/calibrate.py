#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed, one run at a time,
and prints each end-to-end metric's median, quartiles and spread
(interquartile range over median, the rule the bounds in BENCHMARK.json
are set against).

Run from the repository root:

    python3 perfbench/calibrate.py --workloads tail_paper mid_paper \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out .bench_build/calibration.json
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect result (%s seed %d): %s" % (workload, seed, result))
    # The raw CPU time per pass and the reference kernel time behind
    # cpu_ref_s, from the run's log.
    raw = re.search(r"([\d.]+) s per pass, reference kernel ([\d.]+) ms",
                    out.stderr)
    if raw:
        result["raw"] = {"cpu_s": float(raw.group(1)),
                         "ref_kernel_ms": float(raw.group(2))}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"nproc": os.cpu_count(), "seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values = {}
        raw = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            raw.append(result.get("raw"))
            print("%s seed %d: %s raw %s" % (workload, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}),
                json.dumps(result.get("raw"))), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  " (bound %s, a third is %s)" % (
                      name, med, q1, q3, spread, bound,
                      None if bound is None else round(bound / 3, 4)),
                  flush=True)
        rows["raw_per_run"] = raw
        report["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
