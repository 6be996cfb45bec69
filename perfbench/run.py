#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark executable and praxd with dune (a no-op when they
are up to date; build output goes to stderr), then runs the executable,
whose last line of stdout is the JSON result.  Outside a full checkout (no
dune-project or lib/ next to perfbench/) it exits 2 without a result.
"""

import os
import subprocess
import sys

TARGETS = ["perfbench/main.exe", "bin/praxd.exe"]


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.stderr.write("perfbench: run from the root of a prax checkout (dune-project, lib/, bin/)\n")
        return 2
    build = subprocess.run(
        # no shared dune cache: the build reads and writes only the checkout
        ["dune", "build", "--root", root, "--display", "quiet", "--cache", "disabled"] + TARGETS,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
