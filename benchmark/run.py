#!/usr/bin/env python3
"""Builds and runs the served-system benchmark.

One run (what BENCHMARK.json's command does):

    python3 benchmark/run.py --workload serve_small --seed 1 --seconds 15 --trace 0

builds benchmark/ into .bench_build/, runs the workload in fresh processes
with fresh kernel caches, and prints as its last line one JSON object with
`correct`, `attempted`, `failed`, and the declared metrics: the end-to-end
ones with --trace 0, the per-layer ones with --trace 1. setup_s is the
median over three processes. Exits nonzero on any wrong answer or failed
gate.

The suite (no --workload) runs every workload, prints every metric with its
unit, and writes the results as JSON:

    python3 benchmark/run.py                     # all four workloads
    python3 benchmark/run.py --seconds 2         # smoke check
    python3 benchmark/run.py --sets 3            # spread of each metric vs its bound
    python3 benchmark/run.py --trace 1           # per-layer metrics
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "etch_serve_bench")
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark binary; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", os.path.join(BUILD, "cmake"),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", os.path.join(BUILD, "cmake"),
             "--target", "etch_serve_bench", "-j", str(os.cpu_count() or 1)],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
                sys.exit(1)


def run_binary(workload, seed, seconds, setup_only=False, trace_path=None):
    """Runs the binary once in a fresh scratch directory; returns
    (human-readable lines, result object)."""
    tmp = os.path.join(BUILD, "tmp", "%d-%d" % (os.getpid(), time.monotonic_ns()))
    os.makedirs(tmp)
    env = dict(os.environ)
    # The JIT's toolchain probe and cc's temporaries stay in the checkout.
    env["ETCH_JIT_CACHE"] = os.path.join(tmp, "probe")
    env["TMPDIR"] = tmp
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", os.path.join(tmp, "run")]
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s timed out after %d s\n" % (workload, CHILD_TIMEOUT_S))
        sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("%s exited %d without a result\n" % (workload, p.returncode))
        sys.exit(1)
    if p.returncode and result.get("correct", False):
        sys.stderr.write("%s exited %d\n" % (workload, p.returncode))
        sys.exit(1)
    return lines[:-1], result


def run_workload(workload, seed, seconds, trace):
    """One run of one workload: the contract's result object, plus every
    metric the binary measured, plus its human-readable report."""
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        trace_path = os.path.join(BUILD, "trace", workload + ".jsonl")
    report, main = run_binary(workload, seed, seconds, trace_path=trace_path)
    results = [main]
    if not trace:
        # Set-up time is the median over three processes, each with a
        # cold kernel cache; the main run's own set-up is the first.
        results += [run_binary(workload, seed, seconds, setup_only=True)[1]
                    for _ in range(SETUP_PROCESSES - 1)]
        main["metrics"]["setup_s"]["value"] = statistics.median(
            r["metrics"]["setup_s"]["value"] for r in results)
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": main["metrics"],
    }, report


def declared(s, trace):
    return s["per_layer"] if trace else s["end_to_end"]


def contract_result(result, s, trace):
    metrics = {}
    for m in declared(s, trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            sys.stderr.write("metric %s was not measured\n" % m["name"])
            sys.exit(1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {k: result[k] for k in ("correct", "attempted", "failed")} | {
        "metrics": metrics}


def host():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "system": platform.platform()}


def spread(values):
    """Interquartile range over the median, as the acceptance check takes it."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def suite(args, s):
    names = [w["name"] for w in s["workloads"]]
    sets = []
    correct = True
    for k in range(args.sets):
        seed = args.seed + k
        per_workload = {}
        for name in names:
            result, report = run_workload(name, seed, args.seconds, args.trace)
            correct &= result["correct"]
            per_workload[name] = result
            print("\n".join(report))
            print("%s (set %d, seed %d): %s" % (
                name, k + 1, seed, "correct" if result["correct"] else "WRONG ANSWERS"))
            if not args.trace:
                print("  %-34s %14.6g s" % ("setup_s, median of %d processes"
                                            % SETUP_PROCESSES,
                                            result["metrics"]["setup_s"]["value"]))
        sets.append({"seed": seed, "workloads": per_workload})

    if args.sets > 1:
        print("\nspread over %d sets (interquartile range / median) against "
              "each bound:" % args.sets)
        for name in names:
            for m in declared(s, args.trace):
                vals = [st["workloads"][name]["metrics"][m["name"]]["value"]
                        for st in sets]
                sp = spread(vals)
                bound = m.get("bound")
                verdict = "" if bound is None else (
                    "ok" if sp <= bound else "WIDER THAN BOUND")
                print("  %-13s %-26s median %12.6g %-9s spread %6.3f bound %s %s"
                      % (name, m["name"], statistics.median(vals), m["unit"],
                         sp, "-" if bound is None else "%.2f" % bound, verdict))

    out = args.out or os.path.join(
        BUILD, "results", time.strftime("suite-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"host": host(), "seconds": args.seconds,
                   "trace": bool(args.trace), "sets": sets}, f, indent=1)
    print("\nwrote %s" % out)
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one workload (the contract's form)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1,
                    help="suite: run every workload this many times")
    ap.add_argument("--out", help="suite: where to write the JSON results")
    args = ap.parse_args()
    s = spec()
    if args.seconds is None:
        args.seconds = s["run_seconds"]
    build()
    if args.workload:
        if args.workload not in [w["name"] for w in s["workloads"]]:
            sys.stderr.write("unknown workload %s\n" % args.workload)
            return 2
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(report))
        print(json.dumps(contract_result(result, s, args.trace)))
        return 0 if result["correct"] else 1
    return suite(args, s)


if __name__ == "__main__":
    sys.exit(main())
