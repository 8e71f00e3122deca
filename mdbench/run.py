#!/usr/bin/env python3
"""Build the mdsp benchmark from source and run it.

Run from the root of an mdsp checkout:

    python3 mdbench/run.py --workload lj4k --seed 1 --seconds 40 --trace 0
    python3 mdbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 mdbench/run.py --self-test

One workload: the last line of standard output is the result JSON printed
by mdbench/main.ml ({"correct", "attempted", "failed", "metrics"}), with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
The traced run also writes a Chrome trace-event file under .mdbench/.
"all" runs every workload in turn and prints one table. --self-test runs the
deliberately broken variants and succeeds only if their checks fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "mdbench", "main.exe")
TRACE_DIR = ".mdbench"
WORKLOADS = ["lj4k", "water6k_gse", "chain10k_tables"]
SELF_TESTS = ["gse16", "nomin"]
RUN_TIMEOUT_S = 175


def die(msg):
    sys.stderr.write("mdbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project and lib/ here: run from the root of an mdsp checkout")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--cache=disabled", "./mdbench/main.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        cmd = ["opam", "exec", "--"] + cmd
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_exe(args):
    """Run main.exe, echo its output, return its result JSON (or die)."""
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("main.exe %s exceeded %d s" % (" ".join(args), RUN_TIMEOUT_S))
    lines = p.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if p.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        die("main.exe exited with %d" % p.returncode)
    return lines[-1], json.loads(lines[-1])


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return sorted((m["name"], m["unit"]) for m in spec[key])


def check_declared(result, trace):
    declared = declared_metrics(trace)
    emitted = sorted((k, v["unit"]) for k, v in result["metrics"].items())
    if declared is not None and declared != emitted:
        die("emitted metrics differ from BENCHMARK.json: %s vs %s"
            % (emitted, declared))


def workload_args(name, args):
    out = ["--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(usable_cpus())]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        out += ["--trace-file", os.path.join(
            TRACE_DIR, "trace-%s-seed%d.json" % (name, args.seed))]
    return out


def run_all(args):
    results = {}
    for name in WORKLOADS:
        print("=== %s" % name, flush=True)
        _, results[name] = run_exe(workload_args(name, args))
        check_declared(results[name], args.trace)
    print("=== summary (seed %d, %g s windows)" % (args.seed, args.seconds))
    names = list(results[WORKLOADS[0]]["metrics"])
    print("%-30s %-7s" % ("metric", "unit")
          + "".join("%18s" % w for w in WORKLOADS))
    for m in names:
        unit = results[WORKLOADS[0]]["metrics"][m]["unit"]
        print("%-30s %-7s" % (m, unit) + "".join(
            "%18.6g" % results[w]["metrics"][m]["value"] for w in WORKLOADS))
    if not args.trace:
        print("%-30s %-7s" % ("check_fail_rate", "ratio") + "".join(
            "%18.6g" % (results[w]["failed"] / results[w]["attempted"])
            for w in WORKLOADS))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))


def run_self_tests(args):
    registered = {}
    for name in SELF_TESTS:
        print("=== self-test %s (its checks must fail)" % name, flush=True)
        _, r = run_exe(["--self-test", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--nproc", str(usable_cpus())])
        registered[name] = r["failed"] > 0
        print("self-test %s: %s (%d of %d checks failed)" % (
            name, "ok" if registered[name] else "NOT CAUGHT",
            r["failed"], r["attempted"]))
    print(json.dumps({"self_tests": registered}))
    sys.exit(0 if all(registered.values()) else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        die("--workload or --self-test is required")
    build()
    if args.self_test:
        run_self_tests(args)
    elif args.workload == "all":
        run_all(args)
    else:
        line, result = run_exe(workload_args(args.workload, args))
        check_declared(result, args.trace)
        print(line)


if __name__ == "__main__":
    main()
