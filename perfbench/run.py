#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/main.exe and bin/ppcache.exe (which serve-mix starts)
with dune, then runs the benchmark executable with the given arguments.
Its last stdout line is the result object.  --smoke runs the benchmark's
self-test and checks that BENCHMARK.json names exactly the workloads and
metrics the benchmark reports.
"""

import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def run(cmd, timeout, **kw):
    """Run cmd to completion in its own process group; on timeout kill the
    group (cmd and anything it started) and wait for cmd."""
    proc = subprocess.Popen(cmd, preexec_fn=os.setpgrp, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def check_catalog():
    """BENCHMARK.json must list exactly the workloads and metrics the
    benchmark reports."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    out = subprocess.run([EXE, "--catalog"], capture_output=True, text=True, check=True)
    catalog = json.loads(out.stdout)
    ok = True
    for section in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in catalog[section]]
        have = [(m["name"], m["unit"], m["better"]) for m in declared[section]]
        if want != have:
            fail(f"BENCHMARK.json {section} differs from the benchmark's catalogue")
            ok = False
    if declared["workloads"] != catalog["workloads"]:
        fail("BENCHMARK.json workloads differ from the benchmark's catalogue")
        ok = False
    return ok


def main():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            return fail(f"{need} is missing: run from the root of a source checkout")
    code = run(["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/ppcache.exe"],
               BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")
    args = sys.argv[1:]
    code = run([EXE] + args, RUN_TIMEOUT_S)
    if code is None:
        return fail("run timed out")
    if code == 0 and "--smoke" in args and not check_catalog():
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
