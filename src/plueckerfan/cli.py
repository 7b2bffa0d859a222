"""Command-line entry point.

Exit codes: 0 success, 1 verification failure (capped at 125 for ``verify``),
2 usage errors, 3 capacity guards, 4 a broken internal invariant
(``order_core.InvariantError``: a bug, not a failed check; stdout stays empty
and one ``invariant: ...`` line goes to stderr).  All output is deterministic
given the flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chain_order, cones, straightening, verify
from .chain_order import ChainOrderPartition
from .order_core import CapacityError, InvariantError, Poset, PosetError, json_ids, json_object
from .plucker_lattices import ComparablePairError, PluckerLattice

USAGE_ERROR = 2
CAPACITY_ERROR = 3
INVARIANT_ERROR = 4


def _emit(obj, args, json_text=None):
    """Print ``obj`` or write it to ``--out``: as indented JSON, or as ``str(obj)`` for text.

    ``json_text``, when given, is the JSON of ``obj`` already rendered.
    """
    if args.format == "json":
        text = json.dumps(obj, indent=2, sort_keys=True) if json_text is None else json_text
    else:
        text = str(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _lattice(args):
    return PluckerLattice(args.kind, args.n)


def cmd_lattice(args):
    lat = _lattice(args)
    if args.format == "text":
        lines = [f"{lat.kind}({lat.n}): {len(lat)} elements"]
        by_grade = {}
        for e in lat.elements:
            by_grade.setdefault(lat.grade(e), []).append(",".join(map(str, e)))
        for g in sorted(by_grade):
            lines.append(f"  grade {g}: " + "  ".join(by_grade[g]))
        lines.append("covers:")
        for a, b in lat.cover_pairs():
            lines.append(f"  {','.join(map(str, a))} -> {','.join(map(str, b))}")
        _emit("\n".join(lines), args)
    else:
        _emit(lat.hasse_json_obj(), args)
    return 0


def cmd_pairs(args):
    lat = _lattice(args)
    rows = []
    for a, b in lat.incomparable_pairs():
        cls = lat.classify_pair(a, b)
        row = {
            "pair": [",".join(map(str, a)), ",".join(map(str, b))],
            "class": cls.verdict,
        }
        if cls.below is not None:
            row["below"] = ",".join(map(str, cls.below))
        if cls.above is not None:
            row["above"] = ",".join(map(str, cls.above))
        if cls.companion is not None:
            row["companion"] = ",".join(map(str, cls.companion))
        rows.append(row)
    _emit(rows, args)
    return 0


def _parse_pair(lat, text):
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("pair must be two comma-joined tuples, e.g. '1,4 2,3'")
    out = []
    for part in parts:
        entries = tuple(int(x) for x in part.split(","))
        if lat.kind == "M":
            entries = tuple(sorted(entries))
        out.append(lat.check_element(entries))
    return out


def cmd_straighten(args):
    lat = _lattice(args)
    a, b = _parse_pair(lat, args.pair)
    rel = straightening.straighten_pair(lat, a, b)
    obj = straightening.relation_json_obj(rel)
    if args.oracle:
        verdict = straightening.ideal_membership(
            rel, args.n, mode=args.oracle, trials=args.trials, seed=args.seed)
        obj["oracle"] = {
            "member": verdict.member,
            "method": verdict.method,
            "failure_bound": str(verdict.failure_bound) if verdict.failure_bound is not None else None,
        }
    _emit(obj, args)
    return 0


def _cone(args):
    # the Hibi targets read the --kind lattice, the others build theirs from n
    return cones.cone_hrep(args.target, n=args.n, lattice=PluckerLattice(args.kind, args.n))


def cmd_cone(args):
    hrep = _cone(args)
    if args.format == "json":
        _emit(None, args, json_text=hrep.to_json())
    else:
        _emit(hrep.to_json_obj(), args)
    return 0


def cmd_check_point(args):
    hrep = _cone(args)
    with open(args.weights) as fh:
        obj = json.load(fh)
    keys = {k for ineq in hrep.inequalities for k, _ in ineq.form}
    weights = cones.weights_from_json_obj(obj, keys)
    member = cones.contains(hrep, weights)
    violated = [iq.provenance for iq in hrep.inequalities if not iq.holds(weights)]
    _emit({"target": hrep.label, "member": member,
           "violated": [[cones._key_name(x) for x in v] for v in violated[:20]]}, args)
    return 0 if member else 1


def cmd_facets(args):
    fc = cones.facet_count(args.n)
    _emit({"n": fc.n, "ssyt_total": fc.ssyt_total, "diamond": fc.diamond,
           "special": fc.special, "pbw_total": fc.pbw_total}, args)
    return 0


def _load_poset(path):
    with open(path) as fh:
        return Poset.from_json(fh.read())


def _load_partition(poset, path):
    if path is None:
        return ChainOrderPartition.order_polytope(poset)
    with open(path) as fh:
        obj = json_object(fh.read(), "partition")
    return ChainOrderPartition.from_sets(
        poset, json_ids(obj, "order", []), json_ids(obj, "chain", []))


def cmd_polytope(args):
    poset = _load_poset(args.poset)
    part = _load_partition(poset, args.partition)
    if args.action == "hrep":
        _emit(chain_order.interpolating_hrep(poset, part).to_json_obj(), args)
        return 0
    if args.action == "points":
        _emit_points(poset, chain_order.dilation_table(part, args.t), args)
        return 0
    if args.point is None:
        raise ValueError("decompose needs --point FILE")
    with open(args.point) as fh:
        point = chain_order.point_from_json_obj(json.load(fh), poset)
    pieces = chain_order.minkowski_decompose(part, point, args.t)
    _emit_points(poset, [[p[e] for e in poset.elements] for p in pieces], args)
    return 0


def _emit_points(poset, rows, args):
    """Emit integer points, given as rows over ``poset.elements``, as ``point_to_json_obj`` maps.

    The JSON is rendered straight from the rows; the text form prints the maps.
    """
    if args.format == "json":
        _emit(None, args, json_text=chain_order.points_to_json(poset, rows))
    else:
        _emit([chain_order.point_to_json_obj(dict(zip(poset.elements, row))) for row in rows], args)


def cmd_verify(args):
    report = verify.run_suite(args.suite, n=args.n, seed=args.seed)
    # wall time goes to stderr so repeated runs stay byte-identical on stdout
    _emit(report.to_json_obj(with_timing=False), args)
    print(f"{report.suite}: {report.checks} checks, {len(report.failures)} failures, "
          f"{report.elapsed_s:.1f}s", file=sys.stderr)
    return min(len(report.failures), 125)


@functools.cache
def build_parser():
    """The command-line parser, built on first use and kept for the process.

    ``parse_args`` only reads the parser and returns a new namespace on every
    call, so one parser serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="plueckerfan",
        description="Straightening relations, generalized Hibi ideals and Groebner cone descriptions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kind=False, n=True):
        if n:
            p.add_argument("--n", type=int, required=True)
        if kind:
            p.add_argument("--kind", choices=("M", "N"), default="M")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("lattice", help="emit a lattice's Hasse data")
    common(p, kind=True)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("pairs", help="classify all incomparable pairs")
    common(p, kind=True)
    p.set_defaults(fn=cmd_pairs)

    p = sub.add_parser("straighten", help="straightening relation of an incomparable pair")
    common(p, kind=True)
    p.add_argument("--pair", required=True, help="two comma-joined tuples, e.g. '1,4 2,3'")
    p.add_argument("--oracle", choices=("probabilistic", "symbolic"), default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_straighten)

    p = sub.add_parser("cone", help="H-representation of a cone target")
    common(p, kind=True)
    p.add_argument("--target", required=True, choices=cones.ALL_TARGETS)
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("check-point", help="test a weight vector against a cone")
    common(p, kind=True)
    p.add_argument("--target", required=True, choices=cones.ALL_TARGETS)
    p.add_argument("--weights", required=True, help="JSON file of weights keyed '1,4'")
    p.set_defaults(fn=cmd_check_point)

    p = sub.add_parser("facets", help="facet counts against the closed formulas")
    common(p)
    p.set_defaults(fn=cmd_facets)

    p = sub.add_parser("polytope", help="chain-order polytope operations on a poset file")
    p.add_argument("--poset", required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--action", choices=("hrep", "points", "decompose"), default="hrep")
    p.add_argument("--point", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except InvariantError as exc:
        print(f"invariant: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except (ComparablePairError, PosetError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
