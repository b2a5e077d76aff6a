#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, five workloads (bench/README.md).

    python bench/run.py                         every workload, tracing off
    python bench/run.py --trace                 the traced pass: per-layer metrics + span file
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                one run; the last line of stdout is one JSON
                                                object {correct, attempted, failed, metrics}
    python bench/run.py --quick                 every workload cut to ~1 s (not for comparison)
    python bench/run.py --repeat-check N        two sets of N runs against BENCHMARK.json's bounds

Needs NumPy and the standard library, no PYTHONPATH and no particular cwd.
Each workload runs in a child process of its own (``--worker``), one at a
time: its peak RSS is its own, the process executor forks from a process
without stale thread pools, and a crash or a hit of the wall-clock guard
fails that workload instead of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(REPO, ".bench_out")
#: the paper's tasks are sequential kernels; a threaded BLAS under two workers
#: measures the BLAS pool's scheduler, not B-Par (bench/README.md)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
QUICK_SECONDS = 1.0


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- the child: one workload ----------------------------------------------------------


def host_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 prints instead of returning
        blas = "unknown"
    return {
        "host_cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def worker(args) -> int:
    os.environ.update(PINNED_THREADS)  # before NumPy loads its BLAS
    sys.path.insert(0, SRC)
    import workloads

    out = workloads.run_workload(
        args.worker, args.seed, args.seconds, bool(args.trace), args.trace_out
    )
    print(json.dumps({
        "workload": args.worker,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "metrics": out.metrics,
        "info": out.info,
        "host": host_info(),
    }))
    return 0


# -- the parent: children, one at a time ----------------------------------------------


def spawn(name: str, args, seed: int) -> dict:
    """Run one workload in its own process group; never raises for the child's sake."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", name,
           "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out.replace("WORKLOAD", name)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    problem = None
    try:
        stdout, _ = proc.communicate(timeout=args.guard_seconds)
    except subprocess.TimeoutExpired:
        problem = f"wall-clock guard of {args.guard_seconds:g} s hit"
        stdout = ""
    finally:
        try:  # the executor's forked workers live in the child's group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if problem is None and proc.returncode != 0:
        problem = f"worker exited with code {proc.returncode}"
    if problem is None:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problem = "worker printed no result"
    return {"workload": name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "attempted": 1, "failed": 1, "failures": [problem], "metrics": {},
            "info": {}, "host": {}, "truncated": True}


def contract_object(result: dict, declared: list) -> dict:
    """The four-key object the contract asks for, with every declared metric in it."""
    # a per-layer metric that does not exist on this workload reads 0; an
    # end-to-end metric exists on every workload
    measured = dict(result["metrics"])
    if result["trace"]:
        for m in declared:
            measured.setdefault(m["name"], (0.0, 0))
    metrics = {}
    for m in declared:
        if m["name"] not in measured:
            raise ValueError(f"{result['workload']}: {m['name']} was not measured")
        value = measured[m["name"]][0]
        if not math.isfinite(value):
            raise ValueError(f"{result['workload']}: {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0 and not result.get("truncated", False),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_result(result: dict, declared: list, label: str) -> None:
    verdict = "truncated" if result.get("truncated") else \
        ("all checks passed" if result["failed"] == 0 else "CHECKS FAILED")
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s  "
          f"trace {'on' if result['trace'] else 'off'}{label}")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}: {verdict}")
    for why in result["failures"]:
        print(f"   ! {why}")
    for m in declared:
        value, n = result["metrics"].get(m["name"], (0.0, 0))
        if n or not result["trace"]:
            print(f"   {m['name']:<34}{value:>14.4f} {m['unit']:<12} n={n}")
    for name, share in result["info"].get("reconciliation", {}).items():
        print(f"   reconciliation  {name}: {share:.4f}")
    if "trace_out" in result["info"]:
        print(f"   {result['info']['spans']} spans written to {result['info']['trace_out']}")


def run_all(names: list, args, spec: dict, seed: int, quiet: bool = False) -> list:
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    label = "  [--quick: not for comparison]" if args.quick else ""
    results = []
    for name in names:
        result = spawn(name, args, seed)
        if not quiet:
            if not results and result["host"]:
                print("host: " + ", ".join(f"{k}={v}" for k, v in result["host"].items()))
            print_result(result, declared, label)
        results.append(result)
    return results


# -- --repeat-check: do two sets of runs of the same code agree? ----------------------


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median (the driver's own measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(names: list, args, spec: dict) -> int:
    n = args.repeat_check
    sets = []
    for s in range(2):
        runs = []
        for i in range(n):
            seed = args.seed + s * n + i
            print(f"-- set {s + 1}, run {i + 1} of {n} (seed {seed})", file=sys.stderr)
            runs.append(run_all(names, args, spec, seed, quiet=True))
        sets.append(runs)
    print(f"{'workload':<20}{'metric':<16}{'median 1':>12}{'median 2':>12}{'gap':>8}"
          f"{'spread 1':>10}{'spread 2':>10}{'bound':>7}  verdict")
    worst = 0
    for w, name in enumerate(names):
        for m in spec["end_to_end"]:
            columns = [[run[w]["metrics"][m["name"]][0] for run in runs
                        if m["name"] in run[w]["metrics"]] for runs in sets]
            if min(len(c) for c in columns) < n:
                print(f"{name:<20}{m['name']:<16}  missing from a failed run")
                worst = 1
                continue
            med = [statistics.median(c) for c in columns]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            spreads = [spread(c) if n >= 2 else 0.0 for c in columns]
            # under four values the "quartiles" are the extremes: shown, not judged
            steady = n < 4 or m["name"] == "setup_s" or max(spreads) <= m["bound"]
            ok = worse <= m["bound"] and steady
            worst |= not ok
            print(f"{name:<20}{m['name']:<16}{med[0]:>12.4f}{med[1]:>12.4f}{worse:>+8.3f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{m['bound']:>7.2f}  "
                  f"{'pass' if ok else 'FAIL'}")
    failed = sum(r["failed"] for runs in sets for run in runs for r in run)
    print(f"failed operations over all runs: {failed}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(sets, fh)
    return int(bool(worst or failed))


# -- entry ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable); the last stdout line is "
                             "then the result object of the last one named")
    parser.add_argument("--seed", type=int, default=0, help="generates every input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced pass that gives the per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="span file; WORKLOAD in it becomes the workload's name (default "
                             "with --trace and no --workload: .bench_out/spans-WORKLOAD.json.gz)")
    parser.add_argument("--out", metavar="FILE", help="write every run's full result as JSON")
    parser.add_argument("--quick", action="store_true",
                        help=f"--seconds {QUICK_SECONDS:g}: same code paths, not for comparison")
    parser.add_argument("--repeat-check", type=int, metavar="N", default=0,
                        help="two sets of N runs; medians, gap and spread against the bounds")
    parser.add_argument("--guard-seconds", type=float, default=90.0,
                        help="wall-clock limit per workload; a hit fails it as 'truncated'")
    parser.add_argument("--worker", metavar="NAME", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench/run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r} (BENCHMARK.json names {', '.join(known)})")
    if args.repeat_check:
        if args.trace:
            parser.error("--repeat-check compares end-to-end metrics: drop --trace")
        return repeat_check(names, args, spec)
    if args.trace and not args.workload and not args.trace_out:
        os.makedirs(OUT_DIR, exist_ok=True)
        args.trace_out = os.path.join(OUT_DIR, "spans-WORKLOAD.json.gz")

    results = run_all(names, args, spec, args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
    if any(r.get("truncated") for r in results):
        return 1  # no result object for a workload that gave none
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    objects = [contract_object(r, declared) for r in results]
    if args.workload:
        print(json.dumps(objects[-1]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in objects),
            "attempted": sum(o["attempted"] for o in objects),
            "failed": sum(o["failed"] for o in objects),
            "metrics": {f"{r['workload']}/{k}": v
                        for r, o in zip(results, objects) for k, v in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
