#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Run from the root of the source tree.  Every call configures and builds
`hcgbench` (Release) under .perfbench/build; after the first, that only
rebuilds what changed.  Build output goes to stderr, so the last line of
stdout is the JSON result.  Compiled models and spans are written
under .perfbench/ as well, never outside the tree.  Exits non-zero, printing
no result, when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(WORK, "build")
SOURCE = os.path.dirname(os.path.abspath(__file__))


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Configuring every time is cheap once cached, and recovers a build tree
    # whose first configure failed.
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "hcgbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    args = sys.argv[1:]
    build()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        name = "spans"
        for flag in ("--workload", "--seed"):
            if flag in args and args.index(flag) + 1 < len(args):
                name += "-" + args[args.index(flag) + 1]
        args += ["--spans", os.path.join(WORK, "out", name + ".json")]
    program = os.path.join(BUILD, "bin", "hcgbench")
    sys.exit(subprocess.run([program] + args, env=env).returncode)


if __name__ == "__main__":
    main()
