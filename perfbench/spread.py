#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, checked against BENCHMARK.json.

    python3 perfbench/spread.py --workload table2 --seeds 1-10 [--trace 1]
    python3 perfbench/spread.py --all --seeds 1-10

Runs perfbench/run.py once per seed (from the root of the source tree) and
prints, for every metric, the median over the runs and the distance between
the first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)).  With --trace 0 each spread is compared
with a third of the metric's bound (setup_s excepted); with --trace 1 every
count metric must repeat exactly.  --save FILE appends every result as one
JSON line, --compare FILE checks the new medians against saved ones: no
metric may be worse than the saved median by more than its bound.  Exits 1
when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

TIME_UNITS = {"ns", "ms", "s", "%"}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace, faults=""):
    """One benchmark run; returns its result object.  `faults` arms
    HCG_FAULTS for the run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, HCG_FAULTS=faults) if faults else None
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, env=env, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} (faults '{faults}'): exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} cells failed", file=sys.stderr)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def worse_by(old, new, better):
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    saved = {}
    if args.compare:
        for line in open(args.compare):
            row = json.loads(line)
            saved.setdefault((row["workload"], row["trace"]), []).append(row["result"])
    ok = True
    for workload in workloads:
        results = []
        for seed in seeds(args.seeds):
            result = run(workload, seed, bench["run_seconds"], args.trace)
            results.append(result)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"workload": workload, "trace": args.trace,
                                        "seed": seed, "result": result}) + "\n")
        print(f"== {workload} (trace {args.trace}, {len(results)} runs)")
        old = saved.get((workload, args.trace), [])
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, iqr = spread(values)
            line = f"  {name:32s} median {med:14.6g} {unit:6s} spread {iqr:7.4f}"
            spec = specs[name]
            if args.trace == 0:
                bound = spec["bound"]
                line += f"  bound {bound:5.3f}"
                if name != "setup_s" and iqr >= bound / 3:
                    line += "  SPREAD>=BOUND/3"
                    ok = False
                if old:
                    old_med = statistics.median(r["metrics"][name]["value"] for r in old)
                    w = worse_by(old_med, med, spec["better"])
                    line += f"  vs saved {w:+.4f}"
                    if w > bound:
                        line += "  WORSE>BOUND"
                        ok = False
            elif unit not in TIME_UNITS and len(set(values)) > 1:
                line += "  COUNT-NOT-REPEATED"
                ok = False
            print(line)
        if not all(r["correct"] for r in results):
            print("  some runs were not correct")
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
