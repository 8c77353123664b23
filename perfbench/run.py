#!/usr/bin/env python3
"""Builds the DebugTuner benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rank_matrix --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR, or to .bench_build at the root of the
checkout when it is unset; its output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A failed build exits
with a non-zero code and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "dt-perfbench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
