#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tables|ladder|serve|race \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build (dune, into _build/) logs
to stderr; the benchmark's last stdout line is its JSON result.  A
failed build or a run past its time limit exits non-zero and prints
no result.
"""

import os
import subprocess
import sys

RUN_LIMIT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        # subprocess.run kills and reaps the child when the limit passes
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
