#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run
prints exactly the end-to-end metrics and a traced run exactly the
per-layer metrics, all finite, with correct = true. It then flips one
byte of a profile CSV (pipeline) and of a reply (serve_zoo) and checks
that each run reports a failure. Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    """Runs one tiny workload; returns its JSON result line as a dict."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        failures += not ok

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                check(False, f"{label}: run failed")
                continue
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{label}: prints every {group} metric "
                                 "with its unit")
            check(all(math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{label}: every value is finite")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0, f"{label}: outputs correct")

    for workload, corrupt in (("pipeline", "profile"), ("serve_zoo", "reply")):
        result = run(workload, 0, "--corrupt", corrupt)
        check(result is not None and result["failed"] > 0 and
              not result["correct"],
              f"{workload}: one flipped {corrupt} byte is reported")

    print("selftest:", "ok" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
