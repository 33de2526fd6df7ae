#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload pipeline|serve_zoo|serve_fleet \
        --seed N --seconds S --trace 0|1

perfbench and the ceer libraries it links are compiled (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; a first build takes about half a minute on 4 cores,
later runs only check that the build is current. Build output goes to
standard error, so the last line of standard output is perfbench's
JSON result. The exit code is perfbench's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(ROOT, target, "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run([binary, *sys.argv[1:], "--workdir", workdir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
