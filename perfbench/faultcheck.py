#!/usr/bin/env python3
"""Fault-probe self-check: prove the benchmark's bounds can fail a run.

    python3 perfbench/faultcheck.py [--workload NAME ...] [--seed N] [--seconds S]

Every timing the benchmark takes passes through bench::measured, whose
`bench.measure` fault probe inflates a reading 16x when armed.  For each
workload this runs the benchmark clean, then under HCG_FAULTS rules, and
checks that each timed end-to-end metric lands outside its bound:

  bench.measure=fail                  every time metric (step_ns, step_ns_p90,
                                      generate_ms, setup_s)
  bench.measure:step/hcg/*=fail       only the HCG cells' step samples: every
                                      speedup the workload measures
  bench.measure:generate/*chain1600*=fail
                                      (chain) the larger chain's generation:
                                      generate_scaling_x

Ratio metrics are immune to the first rule by design (both sides inflate),
which is why the keyed rules exist.  Exits 1 when a fault stays in bounds.
"""
import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spread import run, worse_by  # noqa: E402

TIME_UNITS = {"ns", "ms", "s"}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        clean = run(workload, args.seed, args.seconds, 0)["metrics"]
        measured_ratios = [n for n in ("speedup_vs_simulink", "speedup_vs_dfsynth",
                                       "speedup_vs_o1")
                           if clean[n]["value"] != 1.0]
        rules = {
            "bench.measure=fail":
                [n for n, m in clean.items() if m["unit"] in TIME_UNITS],
            "bench.measure:step/hcg/*=fail":
                ["step_ns", "step_ns_p90"] + measured_ratios,
        }
        if workload == "chain":
            rules["bench.measure:generate/*chain1600*=fail"] = ["generate_scaling_x"]
        for faults, expected in rules.items():
            faulted = run(workload, args.seed, args.seconds, 0, faults)["metrics"]
            for name in expected:
                spec = specs[name]
                old, new = clean[name]["value"], faulted[name]["value"]
                worse = worse_by(old, new, spec["better"])
                verdict = "out of bounds" if worse > spec["bound"] else "IN BOUNDS"
                ok &= worse > spec["bound"]
                print(f"{workload:13s} {faults:42s} {name:20s} "
                      f"{old:12.6g} -> {new:12.6g}  worse {worse:+8.3f} "
                      f"(bound {spec['bound']})  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
