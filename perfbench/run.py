#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt) into .bench_build/; later
calls only re-check it. The binary's output is passed through, and its
last line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metric names and units are checked against BENCHMARK.json before
it is printed. Build output goes to stderr.

--self-test runs every workload at tiny sizes in both modes, checks
that each metric of BENCHMARK.json is emitted with its unit, and that
the correctness checks trip on a deliberately corrupted reference.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures on first use, then builds the benchmark target. The
    compiler's temporary files stay inside the build tree."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in spec()["end_to_end" if trace == 0 else "per_layer"]}


def run_binary(args):
    """Runs the binary; returns (exit code, stdout lines, parsed result)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def metric_errors(result, trace):
    """Names/units that differ from BENCHMARK.json (empty when they match)."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result object malformed"]
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    errs = ["missing " + n for n in want if n not in got]
    errs += ["unexpected " + n for n in got if n not in want]
    errs += ["unit of %s is %s, want %s" % (n, got[n], u)
             for n, u in want.items() if n in got and got[n] != u]
    return errs


def self_test():
    failures = []
    for w in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            rc, _, res = run_binary(["--workload", w, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"])
            errs = metric_errors(res, trace)
            if rc != 0 or errs or not res["correct"]:
                failures.append("%s trace %d: rc=%d %s" % (w, trace, rc,
                                                          "; ".join(errs)))
        rc, _, res = run_binary(["--workload", w, "--seed", "1", "--seconds",
                                 "1", "--trace", "0", "--smoke",
                                 "--corrupt-reference"])
        if rc == 0 or not res or res.get("correct") is not False:
            failures.append("%s: corrupted reference was not detected" % w)
        print("self-test %-16s %s" % (w, "ok" if not any(
            f.startswith(w) for f in failures) else "FAILED"))
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", os.path.join(
            BUILD, "trace_%s_%d.json" % (a.workload, a.seed))]
    rc, lines, result = run_binary(args)
    errs = metric_errors(result, a.trace)
    if rc not in (0, 1) or errs:
        sys.stderr.write("perfbench: no valid result (exit %d): %s\n"
                         % (rc, "; ".join(errs)))
        return rc or 1
    print("\n".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
