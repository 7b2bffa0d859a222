"""One cold pass of a workload, in a fresh interpreter started by ``run.py``.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED MODE STARTED

MODE is ``setup`` (import and write inputs only), ``plain`` or ``traced``.
STARTED is the CLOCK_MONOTONIC reading taken just before this interpreter was
started, so ``setup_s`` covers interpreter start, the ``plueckerfan`` import
from ROOT/src and writing the workload's input files.  The worker then runs
the command list through ``plueckerfan.cli.main`` with stdout captured,
checks the outputs and prints one JSON record.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import spans
import workloads

# Work counts read off a traced function's result.
OBSERVERS = {
    "cones.cone_hrep": lambda hrep: {"rows": len(hrep.inequalities)},
    "verify.sample_cone_points": lambda res: {"accepted": len(res[0]),
                                              "attempts": len(res[0]) + res[1]},
}


def import_package(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import plueckerfan
    import plueckerfan.cli

    if Path(plueckerfan.__file__).resolve().parent != (src / "plueckerfan").resolve():
        raise SystemExit(f"imported plueckerfan from {plueckerfan.__file__}, not from {src}")
    return plueckerfan


def run_pass(package, workload, seed, inputs):
    """Run every command of the workload; returns (pass_s, seconds per group, results)."""
    results = []
    group_s = {}
    start = perf_counter()
    for group in workloads.WORKLOADS[workload]:
        group_start = perf_counter()
        for argv in workloads.commands(group, seed, inputs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = package.cli.main(argv)
                except SystemExit as exc:     # argparse usage errors
                    code = exc.code
            results.append((argv, code, out.getvalue()))
        group_s[group] = perf_counter() - group_start
    return perf_counter() - start, group_s, results


def main(argv):
    root, workload, seed, mode = Path(argv[1]).resolve(), argv[2], int(argv[3]), argv[4]
    started = float(argv[5])
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: the library's checks are asserts")
    package = import_package(root)
    # inside the checkout, which is the only place the benchmark writes to
    with tempfile.TemporaryDirectory(prefix=".bench_inputs-", dir=root) as workdir:
        inputs = workloads.write_inputs(workload, Path(workdir))
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - started
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        tracer = None
        if mode == "traced":
            tracer = spans.Tracer(OBSERVERS)
            spans.install(tracer, package)
        pass_s, group_s, results = run_pass(package, workload, seed, inputs)
    tally, fingerprint = workloads.check(results)
    record = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "group_s": group_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        record["stats"] = tracer.stats
        record["extra"] = tracer.extra
        record["layer_self_s"] = tracer.layer_self_s()
    print(json.dumps(record), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
