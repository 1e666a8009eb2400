#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload geant-cdn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke BENCHMARK.json

Build output goes to stderr, so the last line of stdout is the result
JSON printed by perfbench/main.exe. The exit code is the build's when the
build fails, else the benchmark's (non-zero when a correctness check
failed).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    # The dune cache lives in the home directory; keep every build
    # product inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
