#!/usr/bin/env python3
"""Build and run the mdp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
perfbench driver (and the repository's libraries, from ../src) with CMake
into .bench_build/ (or $CARGO_TARGET_DIR when set); later calls only
rebuild what changed. The driver's last stdout line is the JSON result;
this script checks it against BENCHMARK.json before passing it on, and
exits non-zero without a result if the build, the run or that check fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_noisy_neighbor", "sim_flow_churn", "rt_loopback")
# A run must finish within 180 s of the call; leave room for the build
# check and process start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the driver; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    # A configure step that failed leaves a cache but no Makefile.
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are wrong"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            return f"{k} is not a whole number"
    if res["attempted"] < 1:
        return "nothing attempted"
    want = declared_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return ("metric names differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            return f"unit of {name} differs from BENCHMARK.json"
        if not isinstance(m.get("value"), (int, float)):
            return f"value of {name} is not a number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    exe = build()
    if exe is None:
        return 1
    if args.self_test:
        return subprocess.run([exe, "--self-test"]).returncode

    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--out-dir", trace_dir]
    # A call that only checked the build has RUN_TIMEOUT_S in total; one
    # that compiled (allowed far longer) gives the run all of it.
    build_s = time.monotonic() - started
    budget = RUN_TIMEOUT_S - build_s if build_s < 10 else RUN_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {budget:.0f} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1]:
        log(f"driver exited with {proc.returncode}")
        return 1
    err = check_result(lines[-1], bool(args.trace))
    if err:
        for ln in lines[:-1]:
            print(ln)
        log(f"bad result: {err}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
