"""The benchmark's workloads: their commands, their inputs and their output checks.

A workload is a sequence of command groups; a group is a list of
``plueckerfan`` command lines, run in-process through
``plueckerfan.cli.main(argv)``.  ``check`` returns the counts that make up
``fail_frac`` (the suites' own checks plus the benchmark's output checks) and a
fingerprint of the deterministic outputs, which must repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json

# relations: the redundant (straightening-expansion) cone of each lattice kind
RELATIONS_N = 6
# stdout SHA-256 and inequality count of each command; the output ignores --seed
RELATIONS_GOLDEN = {
    "SSYT_REDUNDANT": ("50a05f479e55824738069a142675c8bac287af9a6e5b9ec6c1ca80a7b25cf5ec", 927),
    "PBW_REDUNDANT": ("cc5b26e65bf6681907de33c5df569db24e03fc0e72426d45813f349263161e67", 927),
}

MEMBERSHIP_N = 5        # strlaws / pbwstrlaws
ASL_N = 3
COUNTS_N = 9
CONE_N = 5              # ssyt-cone / pbw-cone
MINKOWSKI_N = 6         # largest random poset of the minkowski suite
# The minkowski suite draws 50 posets of random size from its seed, and its
# work grows about 4**size, so from seed to seed its work varies 2.8-fold
# (seeds 101-110: 0.65 to 1.79 million box points).  It runs on one fixed
# seed, so that --seed changes the inputs of a geometry pass but not its size.
MINKOWSKI_SEED = 0

# polytopes: every chain-order partition of the join-irreducible grid poset
# of the n = GRID_N lattice; the t-dilation has the same number of integer
# points for every partition (partition independence)
GRID_N = 4
POINTS_T = 2
GRID_POINTS = 95

GROUPS = ("relations", "membership", "cones", "polytopes")
# Two workloads of two groups each: the host's speed drifts over tens of
# seconds, so a steady median needs long runs, and long runs allow few workloads.
WORKLOADS = {"algebra": ("relations", "membership"), "geometry": ("cones", "polytopes")}


def grid_poset(n):
    """Cells (i, j), 1 <= i < n, max(i, 2) <= j <= n, covered by (i, j + 1) and (i + 1, j)."""
    cells = [(i, j) for i in range(1, n) for j in range(max(i, 2), n + 1)]
    name = {c: f"c{c[0]}{c[1]}" for c in cells}
    covers = [[name[(i, j)], name[up]] for i, j in cells
              for up in ((i, j + 1), (i + 1, j)) if up in name]
    return [name[c] for c in cells], covers


def write_inputs(workload, workdir):
    """Write the input files a workload reads; returns their paths."""
    if "polytopes" not in WORKLOADS[workload]:
        return {}
    elements, covers = grid_poset(GRID_N)
    poset = workdir / "grid.json"
    poset.write_text(json.dumps({"elements": elements, "covers": covers}))
    partitions = []
    for mask in range(1 << len(elements)):
        order = [e for i, e in enumerate(elements) if mask >> i & 1]
        chain = [e for i, e in enumerate(elements) if not mask >> i & 1]
        path = workdir / f"part{mask:03d}.json"
        path.write_text(json.dumps({"order": order, "chain": chain}))
        partitions.append(path)
    return {"poset": poset, "partitions": partitions}


def commands(group, seed, inputs):
    """The group's command lines as argv lists."""
    s = str(seed)
    if group == "relations":
        return [["cone", "--target", target, "--n", str(RELATIONS_N)] for target in RELATIONS_GOLDEN]
    if group == "membership":
        return [["verify", "--suite", "strlaws", "--n", str(MEMBERSHIP_N), "--seed", s],
                ["verify", "--suite", "pbwstrlaws", "--n", str(MEMBERSHIP_N), "--seed", s],
                ["verify", "--suite", "asl", "--n", str(ASL_N), "--seed", s]]
    if group == "cones":
        return [["verify", "--suite", "counts", "--n", str(COUNTS_N), "--seed", s],
                ["verify", "--suite", "ssyt-cone", "--n", str(CONE_N), "--seed", s],
                ["verify", "--suite", "pbw-cone", "--n", str(CONE_N), "--seed", s]]
    if group == "polytopes":
        points = [["polytope", "--poset", str(inputs["poset"]), "--partition", str(part),
                   "--t", str(POINTS_T), "--action", "points"] for part in inputs["partitions"]]
        return [["verify", "--suite", "minkowski", "--n", str(MINKOWSKI_N), "--seed", str(MINKOWSKI_SEED)],
                *points]
    raise ValueError(f"unknown command group {group!r}; expected one of {GROUPS}")


class Tally:
    """Checks attempted and failed, with a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check(results):
    """Check ``[(argv, exit code, stdout)]``; returns (tally, fingerprint)."""
    tally = Tally()
    digest = hashlib.sha256()
    suite_checks = []
    point_counts = set()
    for argv, code, out in results:
        digest.update(out.encode() + b"\0")
        label = " ".join(argv)
        tally.check(code == 0, f"exit code {code}: {label}")
        if argv[0] == "cone":
            sha, rows = RELATIONS_GOLDEN[argv[2]]
            tally.check(hashlib.sha256(out.encode()).hexdigest() == sha, f"stdout digest: {label}")
            tally.check(_json_len(out, "inequalities") == rows, f"inequality count: {label}")
        elif argv[0] == "verify":
            report = _json(out) or {}
            # the suite's own checks count toward fail_frac as well
            suite_checks.append(report.get("checks", 0))
            tally.attempted += report.get("checks", 0)
            tally.failed += len(report.get("failures", []))
            tally.check(report.get("suite") == argv[2] and report.get("failures") == [],
                        f"suite report: {label}")
        elif argv[0] == "polytope":
            points = _json(out)
            point_counts.add(len(points) if isinstance(points, list) else None)
    if point_counts:
        tally.check(point_counts == {GRID_POINTS},
                    f"grid points at t={POINTS_T}: counts {sorted(point_counts, key=str)}, "
                    f"expected {GRID_POINTS} for every partition")
    fingerprint = {
        "stdout_sha256": digest.hexdigest(),
        "stdout_bytes": sum(len(out.encode()) for _, _, out in results),
        "suite_checks": suite_checks,
    }
    return tally, fingerprint


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _json_len(text, key):
    obj = _json(text)
    return len(obj[key]) if isinstance(obj, dict) and isinstance(obj.get(key), list) else None
