#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage:

    python3 scripts/paired_passes.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seed S] [--in-process] [--json OUT]

Each pair runs both checkouts once, side by side, the first side alternating
from pair to pair (parent first in pair 1), because the host's speed drifts
over minutes.  By default a run is each checkout's own, unchanged
``python3 perfbench/run.py --workload W --trace 0`` and its end-to-end
metrics.  With ``--in-process`` a run is one fresh interpreter that imports
the checkout's ``plueckerfan`` and ``perfbench/workloads.py`` and times one
pass of the workload's command groups through ``plueckerfan.cli.main``:
``pass_s`` and one ``group.G.pass_s`` per group.  Children run with
``PYTHONDONTWRITEBYTECODE=1``, so neither side leaves cached bytecode.

For every metric it prints each side's median and quartiles, the median of
the paired ratios change / parent, and the number of pairs where the change
read lower (ties count for neither side).  ``--json OUT`` writes every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One timed pass in a fresh interpreter: argv is ROOT WORKLOAD SEED.
IN_PROCESS = r"""
import contextlib, io, json, sys, tempfile, time
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
from plueckerfan import cli
workload, seed = sys.argv[2], int(sys.argv[3])
metrics = {}
with tempfile.TemporaryDirectory(prefix=".paired_inputs-") as workdir:
    inputs = workloads.write_inputs(workload, Path(workdir))
    start = time.perf_counter()
    for group in workloads.WORKLOADS[workload]:
        group_start = time.perf_counter()
        for argv in workloads.commands(group, seed, inputs):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
        metrics[f"group.{group}.pass_s"] = time.perf_counter() - group_start
    metrics["pass_s"] = time.perf_counter() - start
print(json.dumps({"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
"""


def run_side(root, args):
    """One run of one checkout; returns the JSON object of its last stdout line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if args.in_process:
        cmd = [sys.executable, "-c", IN_PROCESS, str(root), args.workload, str(args.seed)]
    else:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run in {root} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values):
    values = list(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs):
    """Per metric: (parent quartiles, change quartiles, median paired ratio, change wins)."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        ratios = [c / p for p, c in zip(parent, change) if p]
        out[name] = (quartiles(parent), quartiles(change),
                     statistics.median(ratios) if ratios else None,
                     sum(c < p for p, c in zip(parent, change)))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--in-process", action="store_true",
                        help="time one pass per fresh interpreter instead of running run.py")
    parser.add_argument("--json", type=Path, default=None, help="write every run to this file")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(roots[side], args)
        pairs.append(pair)
        values = "  ".join(f"{side} {pair[side]['metrics']['pass_s']['value']:.4f}"
                           for side in ("parent", "change"))
        print(f"pair {i + 1:2d} ({order[0]} first)  pass_s  {values}", flush=True)
    print(f"{'metric':28s} {'parent q1 / median / q3':>30s} {'change q1 / median / q3':>30s}"
          f" {'ratio':>7s} {'wins':>6s}")
    for name, (parent, change, ratio, wins) in summarize(pairs).items():
        ratio_text = f"{ratio:7.3f}" if ratio is not None else "      -"
        print(f"{name:28s} {' / '.join(f'{v:.4g}' for v in parent):>30s}"
              f" {' / '.join(f'{v:.4g}' for v in change):>30s} {ratio_text} {wins:3d}/{len(pairs)}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "in_process": args.in_process, "pairs": pairs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
