"""Benchmark of the plueckerfan command line: time to a verified answer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Each pass runs one workload's command list through ``plueckerfan.cli.main`` in
a fresh interpreter (``worker.py``), so the library's caches start empty and
peak memory is per pass.  Passes repeat, one at a time, until ``--seconds``
have gone by.  ``pass_s`` is the lower quartile of the passes' times; the
other figures are medians.  With ``--trace 1`` plain and traced passes
alternate and the per-layer metrics of BENCHMARK.json are reported instead of
the end-to-end ones.

A human-readable summary goes to stderr.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every check passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS
from workloads import GROUPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_SETUPS = 7          # set-up samples per untraced run, topped up with set-up-only interpreters
MIN_TRACED = 2          # traced passes per traced run, compared counter for counter
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metric prefixes that name a method of PluckerLattice
LATTICE_METHODS = ("classify_pair", "diamond_pairs", "incomparable_pairs")
LATTICE_INIT = "plucker_lattices.PluckerLattice.__init__"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONINSPECT")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(workload, seed, mode, env):
    """Run one worker to completion and return its record."""
    cmd = [sys.executable, str(WORKER), str(ROOT), workload, str(seed), mode,
           repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} ran past {PASS_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:     # timed out, or this process is being stopped
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, env):
    """Passes until ``seconds`` have gone by; returns (plain passes, traced passes, set-up samples)."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        if trace and plain and len(traced) < len(plain) * MIN_TRACED:
            traced.append(spawn(workload, seed, "traced", env))
        else:
            plain.append(spawn(workload, seed, "plain", env))
        enough = plain and (not trace or len(traced) >= MIN_TRACED)
        if enough and time.monotonic() >= deadline:
            break
    setups = [p["setup_s"] for p in plain + traced]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", env)["setup_s"])
    return plain, traced, setups


def consistency_checks(plain, traced):
    """Deterministic outputs and counters must repeat exactly for one seed: [(ok, what)]."""
    prints = {json.dumps(p["fingerprint"], sort_keys=True) for p in plain + traced}
    counters = {json.dumps(counts(p), sort_keys=True) for p in traced}
    return [(len(prints) == 1, f"stdout fingerprints differ between passes: {sorted(prints)}"),
            (len(counters) <= 1, "call counters differ between traced passes")]


def counts(record):
    return {"calls": {name: stat[0] for name, stat in record["stats"].items()},
            "extra": record["extra"]}


def layer_metric(name, plain, traced):
    """Value of one per-layer metric named in BENCHMARK.json."""
    first = traced[0]
    med = statistics.median
    if name == "trace.overhead":
        return med(p["pass_s"] for p in traced) / med(p["pass_s"] for p in plain)
    group = name.removeprefix("group.").removesuffix(".pass_s")
    if group in GROUPS:
        return med(p["group_s"].get(group, 0.0) for p in plain)
    if name == "cli.stdout_bytes":
        return first["fingerprint"]["stdout_bytes"]
    if name == "plucker_lattices.lattice_builds":
        return first["stats"][LATTICE_INIT][0]
    if name == "plucker_lattices.build_s":
        return med(p["stats"][LATTICE_INIT][1] for p in traced)
    if name == "verify.sample_cone_points.accept_ratio":
        extra = first["extra"]["verify.sample_cone_points"]
        return extra["accepted"] / extra["attempts"] if extra else 0.0
    span, stat = name.rsplit(".", 1)
    if span in LAYERS and stat == "self_s":
        return med(p["layer_self_s"][span] for p in traced)
    layer, _, rest = span.partition(".")
    if layer == "plucker_lattices" and rest in LATTICE_METHODS:
        span = f"plucker_lattices.PluckerLattice.{rest}"
    if span not in first["stats"]:
        raise BenchError(f"per-layer metric {name}: no traced function {span}")
    if stat == "calls":
        return first["stats"][span][0]
    if stat == "self_s":
        return med(p["stats"][span][2] for p in traced)
    if span in first["extra"]:
        return first["extra"][span].get(stat, 0)
    raise BenchError(f"per-layer metric {name}: unknown statistic {stat!r}")


def lower_quartile(values):
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def end_to_end_metric(name, plain, setups):
    if name == "setup_s":
        return statistics.median(setups)
    if name == "pass_s":
        # a busy host only ever slows a pass down, so the fast end of the
        # run's passes is the steadier estimate of the program's own time
        return lower_quartile(p["pass_s"] for p in plain)
    return statistics.median(p[name] for p in plain)


def environment():
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "optimize": sys.flags.optimize, "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit}


def measure(workload, seed, seconds, trace, spec, env):
    plain, traced, setups = run_workload(workload, seed, seconds, trace, env)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"{workload}: {x}" for p in passes for x in p["problems"]]
    for ok, what in consistency_checks(plain, traced):
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"{workload}: {what}")
    if trace:
        metrics = {m["name"]: {"value": layer_metric(m["name"], plain, traced), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end_metric(m["name"], plain, setups), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    summary = {"workload": workload, "seed": seed, "plain_passes": len(plain),
               "traced_passes": len(traced), "setup_samples": len(setups),
               "pass_s_all": [round(p["pass_s"], 4) for p in plain]}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "summary": summary}


def report(result):
    s = result["summary"]
    print(f"workload {s['workload']}  seed {s['seed']}  plain passes {s['plain_passes']}"
          f"  traced passes {s['traced_passes']}  set-up samples {s['setup_samples']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'pass_s of each plain pass':48s} {s['pass_s_all']}", file=sys.stderr)
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':48s} {frac:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} checks failed)", file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if sys.flags.optimize:
            raise BenchError("refusing to run under python -O: the library's checks are asserts")
        if not (ROOT / "src" / "plueckerfan" / "__init__.py").is_file():
            raise BenchError(f"no plueckerfan sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        print(json.dumps({"environment": environment()}), file=sys.stderr)
        env = child_env()
        names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        results = [measure(w, args.seed, seconds, args.trace, spec, env) for w in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in zip(names, results) for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
