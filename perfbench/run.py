#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload pga-edit --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to .bench_build/perfbench
(RelWithDebInfo, the repository's default build type); the first run
configures and compiles, later runs only check that the build is
current.  Build output goes to stderr, so the
driver's JSON verdict stays the last line of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perfbench_driver"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "deck.h")):
        print("perfbench: no msim sources beside perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    driver = os.path.join(BUILD, "perfbench_driver")
    cmd = [driver] + argv + ["--digest", os.path.join(HERE, "digest.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
