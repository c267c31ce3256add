#!/usr/bin/env python3
"""Command line of the wall-clock benchmark.

    python3 benchmarks/wall/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat K] [--json OUT]

With ``--workload`` the named workload runs in this process and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs,
timed and traced, each in its own child process, one after the other;
``--repeat K`` does that K times and prints the spread of every metric
against its bound.  The exit code is non-zero when a correctness check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 170

#: units of layer metrics that must repeat exactly for one seed
EXACT_UNITS = ("count", "B", "B/event", "rec/event")


def bootstrap() -> None:
    """Make ``benchmarks.wall`` and ``repro`` importable when run as a
    script, and keep this directory off ``sys.path`` (its ``trace.py``
    would shadow the standard library's)."""
    sys.path[:] = [p for p in sys.path
                   if os.path.abspath(p or os.getcwd()) != HERE]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="benchmarks.wall", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="the only input of the generator (default 7)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="wall seconds of timed passes per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run K full sets and print the spread")
    parser.add_argument("--json", metavar="OUT",
                        help="also write results and environment here")
    return parser.parse_args(argv)


def print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")


# -- one workload, in this process ----------------------------------------

def run_one(args, spec: dict) -> int:
    from benchmarks.wall import harness

    if args.trace:
        outcome = harness.traced(args.workload, args.seed)
    else:
        outcome = harness.end_to_end(args.workload, args.seed,
                                     args.seconds)
    result = harness.result_object(outcome, spec)
    mode = "traced run" if args.trace else \
        f"timed run, {args.seconds:g} s of passes"
    print(f"{args.workload} (seed {args.seed}; {mode})")
    print_metrics(result["metrics"])
    for failure in outcome.check.failures:
        print(f"  CHECK FAILED: {failure}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "environment": harness.environment(),
                       "info": outcome.info,
                       "check_failures": outcome.check.failures,
                       "result": result}, handle, indent=1)
    print("# info " + json.dumps(outcome.info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in a child process ------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One child run; returns ``{"result", "info"}`` (result None when
    the child printed none)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"result": None, "info": {"error": "timed out"}}
    lines = done.stdout.strip().splitlines()
    info = {}
    result = None
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if done.returncode != 0:
        info["exit_code"] = done.returncode
        info["failures"] = [line.strip() for line in lines
                            if "CHECK FAILED" in line]
    return {"result": result, "info": info}


def run_set(spec: dict, seed: int, seconds: float) -> tuple[dict, bool]:
    """Timed and traced run of every workload; returns per-workload
    ``{"end_to_end", "per_layer"}`` children and whether all were
    correct."""
    runs = {}
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        timed = run_child(workload, seed, seconds, 0)
        layers = run_child(workload, seed, seconds, 1)
        runs[workload] = {"end_to_end": timed, "per_layer": layers}
        for child in (timed, layers):
            ok = child["result"] is not None and child["result"]["correct"]
            correct = correct and ok
            if not ok:
                print(f"{workload}: FAILED {child['info']}")
    return runs, correct


def run_suite(args, spec: dict) -> int:
    from benchmarks.wall import harness

    runs, correct = run_set(spec, args.seed, args.seconds)
    attempted = failed = 0
    for workload, children in runs.items():
        print(f"{workload} (seed {args.seed})")
        for kind, child in children.items():
            print(f" {kind}: {child['info']}")
            if child["result"] is not None:
                print_metrics(child["result"]["metrics"])
                attempted += child["result"]["attempted"]
                failed += child["result"]["failed"]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "environment": harness.environment(),
                       "runs": runs}, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed}))
    return 0 if correct else 1


def run_repeat(args, spec: dict) -> int:
    """K full sets: every value, the median, the relative IQR and the
    bound of each end-to-end metric; counts must repeat exactly."""
    from benchmarks.wall import harness
    from benchmarks.wall.common import relative_iqr

    sets = []
    all_correct = True
    for index in range(args.repeat):
        print(f"# set {index + 1}/{args.repeat}", flush=True)
        runs, correct = run_set(spec, args.seed, args.seconds)
        sets.append(runs)
        all_correct = all_correct and correct

    def values(workload: str, kind: str, metric: str) -> list:
        return [runs[workload][kind]["result"]["metrics"][metric]["value"]
                for runs in sets
                if runs[workload][kind]["result"] is not None]

    environment = harness.environment()
    print(f"\nseed {args.seed}, {args.repeat} sets, "
          f"{args.seconds:g} s of passes per run, "
          f"python {environment['python']}, nproc {environment['nproc']}, "
          f"commit {environment['commit'][:12]}")
    outside = inexact = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"\n{workload}\n| metric | unit | values | median | rel. IQR "
              f"| bound | |\n|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            got = values(workload, "end_to_end", metric["name"])
            spread = relative_iqr(got)
            flag = "OUTSIDE" if spread > metric["bound"] else ""
            outside += bool(flag)
            print(f"| {metric['name']} | {metric['unit']} | "
                  f"{' '.join(f'{v:.5g}' for v in got)} | "
                  f"{median(got):.5g} | {spread:.2%} | "
                  f"{metric['bound']:.0%} | {flag} |")
        print("\n| layer metric | unit | median | rel. IQR |\n"
              "|---|---|---|---|")
        for metric in spec["per_layer"]:
            got = values(workload, "per_layer", metric["name"])
            if not any(got):
                continue  # a layer this workload never enters
            exact = metric["unit"] in EXACT_UNITS
            if exact and len(set(got)) > 1:
                inexact += 1
                spread = f"NOT EXACT {got}"
            else:
                spread = "exact" if exact else f"{relative_iqr(got):.2%}"
            print(f"| {metric['name']} | {metric['unit']} | "
                  f"{median(got):.5g} | {spread} |")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "environment": environment, "sets": sets},
                      handle, indent=1)
    print(f"\n{outside} end-to-end metrics outside their bound, "
          f"{inexact} counts not exact, all runs correct: {all_correct}")
    return 0 if all_correct and not inexact else 1


def main(argv=None) -> int:
    bootstrap()
    try:
        import repro  # noqa: F401  (the program under test)
        from benchmarks.wall.harness import load_spec
        spec = load_spec()
    except (ImportError, OSError) as err:
        print(f"benchmarks.wall: cannot run here: {err}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if args.workload:
        return run_one(args, spec)
    if args.repeat:
        return run_repeat(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
