"""Named verification suites bundling the library's invariants.

Each suite runs a block of exact checks with a fixed seed and returns a
``SuiteReport``; a failure record always carries a minimal reproducer.  Only
the checks and the brute-force box oracle ``integer_points`` live here; the
lattice-point checks use the batched int64 transfer maps of ``chain_order``,
which stay exact for the small bounded coordinates involved, and the cone
suites check all their samples at once through the batched twins in ``cones``.
A run of ``ehrhart`` or ``minkowski`` builds each box of side t+1 once per
poset size and t, and drops it when the run ends.  numpy is imported on first
use, by the box, the transfer checks and the cone suites, so the exact suites
(``strlaws``, ``pbwstrlaws``, ``tau``, ``convex``, ``counts``, ``asl``) never
load it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import cones, straightening
from .chain_order import (
    ChainOrderPartition,
    interpolating_hrep,
    k_matrix,
    zeta_matrix,
    zeta_prime_matrix,
)
from .order_core import CapacityError, InvariantError, Poset
from .plucker_lattices import (
    PluckerLattice,
    lazy_lattice,
    pbw_lattice,
    pbw_to_ssyt,
    pbw_two_column_leq,
    semistandard_lattice,
    semistandard_leq,
    ssyt_to_pbw,
)

EHRHART_MAX_ELEMENTS = 8
EHRHART_MAX_T = 3
RANDOM_POSETS = 50
PARTITION_SAMPLES = 20
CONE_SAMPLES = 1000


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    checks: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def record(self, ok, reproducer):
        self.checks += 1
        if not ok:
            self.failures.append(reproducer)

    @property
    def ok(self):
        return not self.failures

    def to_json_obj(self, with_timing=True):
        out = {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "checks": self.checks,
            "failures": [repr(f) for f in self.failures],
            "notes": {k: repr(v) for k, v in sorted(self.notes.items())},
        }
        if with_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out


def _size(n, default, least):
    """The size a suite runs at: ``default`` when ``n`` is None.

    ``least`` is the smallest size at which the suite builds its objects and
    makes at least one check; below it the size is a usage error.
    """
    n = default if n is None else n
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
    return n


def _timed(fn):
    def wrapper(n=None, seed=0):
        start = time.perf_counter()
        report = fn(n, seed)
        report.elapsed_s = time.perf_counter() - start
        return report
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# -- straightening suites ----------------------------------------------------

def _straightening_suite(name, kind, n, seed, trials=20):
    lat = PluckerLattice(kind, n)
    report = SuiteReport(name, n, seed)
    bound = Fraction(0)
    observed_m = {}
    for a, b in lat.incomparable_pairs():
        rel = straightening.straighten_pair(lat, a, b)
        rows = straightening.straightening_terms(lat, rel, a, b)
        observed_m[len(rows) - 1] = observed_m.get(len(rows) - 1, 0) + 1
        head = lat.meet_or_product(a, b)
        top, meet = lat.join(a, b), lat.meet(a, b)
        lo0, hi0, c0 = rows[0]
        report.record((lo0, hi0) == (head, top) and c0 == 1,
                      ("leading term", a, b, rows[0]))
        for lo, hi, _ in rows[1:]:
            if kind == "M":
                ok = lat.leq(lo, meet) and lo != meet and lat.leq(top, hi) and hi != top
            else:
                ok = lat.leq(lo, meet) and lat.leq(top, hi) and hi != top
            report.record(ok, ("tail dominance", a, b, (lo, hi)))
        verdict = straightening.ideal_membership(rel, n, trials=trials, seed=seed)
        bound += verdict.failure_bound
        report.record(verdict.member, ("membership", a, b))
    report.notes["aggregate_failure_bound"] = bound
    report.notes["aggregate_failure_bound_log2"] = _log2_str(bound)
    report.notes["observed_tail_counts"] = dict(sorted(observed_m.items()))
    return report


def _log2_str(bound):
    if bound == 0:
        return "-inf"
    return f"{(bound.numerator.bit_length() - bound.denominator.bit_length()):d}"


@_timed
def suite_strlaws(n, seed):
    """Straightening-law shape and membership over the semistandard order."""
    return _straightening_suite("strlaws", "M", _size(n, 5, 3), seed)


@_timed
def suite_pbwstrlaws(n, seed):
    """Straightening-law shape and membership over the PBW order."""
    return _straightening_suite("pbwstrlaws", "N", _size(n, 5, 3), seed)


# -- lattice isomorphism -------------------------------------------------------

@_timed
def suite_tau(n, seed):
    """Exhaustive bijectivity and order preservation of the relabelling map.

    Both lattices order their elements by cell-ideal masks, on which the map
    preserves the order by construction; the order check therefore compares
    the two column rules themselves, the semistandard rule on kind-M columns
    against the two-column PBW rule on their images.
    """
    n = _size(n, 7, 2)
    report = SuiteReport("tau", n, seed)
    mlat, nlat = semistandard_lattice(n), pbw_lattice(n)
    image = {a: ssyt_to_pbw(mlat, a) for a in mlat.elements}
    report.record(sorted(image.values()) == sorted(nlat.elements), ("bijectivity", n))
    for a in mlat.elements:
        report.record(pbw_to_ssyt(nlat, image[a]) == a, ("inverse", a))
    for a in mlat.elements:
        for b in mlat.elements:
            if semistandard_leq(a, b) != pbw_two_column_leq(image[b], image[a]):
                report.record(False, ("order", a, b))
    report.checks += len(mlat.elements) ** 2
    return report


# -- transfer / Ehrhart machinery ----------------------------------------------

def random_poset(rng, max_size=EHRHART_MAX_ELEMENTS):
    size = rng.randint(1, max_size)
    names = [f"p{i}" for i in range(size)]
    covers = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.35:
                covers.append((names[i], names[j]))
    return Poset.from_covers(names, covers)


def ehrhart_posets(n, seed):
    """Bounded-size posets: the irreducible grids up to the cutoff plus seeded random ones."""
    out = []
    for m in range(2, 6):
        grid = lazy_lattice("M", m).ji_poset
        if len(grid) <= n:
            out.append(("grid", m, grid))
    rng = random.Random(seed)
    for i in range(RANDOM_POSETS):
        out.append(("random", i, random_poset(rng, n)))
    return out


def partitions_of(poset, seed):
    size = len(poset)
    if size <= 5:
        return [ChainOrderPartition.from_masks(poset, mask) for mask in range(1 << size)]
    rng = random.Random(seed)
    masks = {0, (1 << size) - 1}
    while len(masks) < PARTITION_SAMPLES:
        masks.add(rng.getrandbits(size))
    return [ChainOrderPartition.from_masks(poset, mask) for mask in sorted(masks)]


def box_points(size, t):
    """The integer points of the box [0, t]^size, as an array of rows."""
    import numpy as np  # on first use, so the exact suites never load it
    return np.indices((t + 1,) * size).reshape(size, -1).T.astype(np.int64)


def integer_points(A, b, t, box):
    """Brute-force integer points of the t-dilation of {x : A x <= b}, as an array of rows.

    ``box`` is ``box_points(A.shape[1], t)``, which a suite run builds once per
    size and t.  Only the rows with a positive coefficient or a negative bound
    are tested: every other row holds on the whole box, whose coordinates are
    nonnegative.
    """
    binding = (A > 0).any(axis=1) | (b < 0)
    keep = (box @ A[binding].T <= t * b[binding]).all(axis=1)
    return box[keep]


def _ehrhart_combo(report, part, label, arrays, order_arrays, reference, t, box,
                   check_decomposition):
    """Checks of one partition at one t against the order polytope's points ``reference``.

    ``label`` is ``part.to_json_obj()``, the partition's part of every reproducer,
    and ``box`` is ``box_points(len(part.poset), t)``.
    """
    import numpy as np
    points = integer_points(*arrays, t, box)
    report.record(len(points) == len(reference),
                  ("point count", part.poset.elements, label, t, len(points), len(reference)))
    if len(part.poset) == 0 or t == 0:
        return
    # transfer round trips
    Y = zeta_prime_matrix(part, points)
    back = zeta_matrix(part, Y)
    report.record(bool((back == points).all()), ("zeta o zeta_prime", label, t))
    Z = zeta_matrix(part, reference)
    forward = zeta_prime_matrix(part, Z)
    report.record(bool((forward == reference).all()), ("zeta_prime o zeta", label, t))
    # zeta maps the order dilation into the chain-order dilation and back
    A, b = arrays
    report.record(bool((Z @ A.T <= t * b).all()), ("zeta image", label, t))
    Ao, bo = order_arrays
    report.record(bool((Y @ Ao.T <= t * bo).all()), ("zeta_prime image", label, t))
    if not check_decomposition:
        return
    lt = part.poset.strict_order_matrix
    total = np.zeros_like(points)
    for i in range(1, t + 1):
        J = (Y >= i).astype(np.int64)
        # (J @ lt.T)[x, q] counts elements of J_x strictly above q
        not_down_closed = ((J == 0) & ((J @ lt.T) > 0)).any()
        report.record(not bool(not_down_closed), ("level sets are ideals", label, t, i))
        piece = k_matrix(part, J)
        report.record(bool((piece @ A.T <= b).all()), ("piece membership", label, t, i))
        total += piece
    report.record(bool((total == points).all()), ("decomposition sum", label, t))


def _ehrhart_like(name, n, seed, check_decomposition):
    n = _size(n, EHRHART_MAX_ELEMENTS, 1)
    if n > EHRHART_MAX_ELEMENTS:
        raise CapacityError(
            f"suite {name} enumerates boxes of side t+1; poset size capped at {EHRHART_MAX_ELEMENTS}")
    report = SuiteReport(name, n, seed)
    boxes = {}  # size -> the boxes of t = 0..EHRHART_MAX_T, kept for this run only
    for label, idx, poset in ehrhart_posets(n, seed):
        if len(poset) not in boxes:
            boxes[len(poset)] = [box_points(len(poset), t) for t in range(EHRHART_MAX_T + 1)]
        box = boxes[len(poset)]
        order_arrays = interpolating_hrep(
            poset, ChainOrderPartition.order_polytope(poset)).arrays()
        references = [integer_points(*order_arrays, t, box[t]) for t in range(EHRHART_MAX_T + 1)]
        for part in partitions_of(poset, seed + idx):
            arrays = interpolating_hrep(poset, part).arrays()
            label = part.to_json_obj()
            for t, reference in enumerate(references):
                _ehrhart_combo(report, part, label, arrays, order_arrays, reference, t, box[t],
                               check_decomposition)
    return report


@_timed
def suite_ehrhart(n, seed):
    """Partition-independent point counts and mutually inverse transfer maps."""
    return _ehrhart_like("ehrhart", n, seed, check_decomposition=False)


@_timed
def suite_minkowski(n, seed):
    """Every dilation point decomposes into polytope lattice points, via level sets."""
    return _ehrhart_like("minkowski", n, seed, check_decomposition=True)


# -- cone suites ----------------------------------------------------------------

def sample_cone_points(hrep, center, count, seed, scale=16, spread=12):
    """Seeded integer points inside the cone: scaled center plus boxed noise.

    Rejection-samples against the exact H-representation; the rejection count
    is reported alongside the samples.  Candidates are drawn in blocks of at
    most the number still needed, and each block is tested at once by
    ``cones.contains_many`` on a samples-by-keys matrix built from the noise;
    the draws, and so the samples, are those of testing one candidate at a
    time.  Raises ``CapacityError`` when 100 attempts per requested sample do
    not fill the count.
    """
    import numpy as np
    rng = random.Random(seed)
    keys = sorted(center, key=cones._key_name)
    base = [scale * center[k] for k in keys]
    fits = all(type(v) is int and abs(v) + spread < cones._INT64_LIMIT for v in base)
    base_row = np.array(base, dtype=np.int64 if fits else object)
    width = len(keys)
    budget = 100 * count - 1  # the draws before the attempt that gives up
    points = []
    drawn = 0
    while len(points) < count:
        size = min(count - len(points), budget - drawn)
        if size <= 0:
            raise CapacityError(f"rejection sampling is not converging: {len(points)} of "
                                f"{count} samples accepted after {drawn + 1} attempts")
        noise = (rng.randint(-spread, spread) for _ in range(size * width))
        W = np.fromiter(noise, dtype=base_row.dtype, count=size * width).reshape(size, width)
        W += base_row
        drawn += size
        for i in np.flatnonzero(cones.contains_many(hrep, keys, W)).tolist():
            points.append(dict(zip(keys, W[i].tolist())))
    return points, drawn - len(points)


def _cone_suite(name, n, seed, kind, target, redundant_target, relations):
    """Soundness, initial forms (straightening ``relations`` or Hibi binomials) and witnesses."""
    import numpy as np
    n = _size(n, 6, 2)
    report = SuiteReport(name, n, seed)
    lat = PluckerLattice(kind, n)
    minimal = cones.cone_hrep(target, n=n, lattice=lat)
    redundant = cones.cone_hrep(redundant_target, n=n, lattice=lat)
    if minimal.partition is None:
        center = cones.interior_witness(lat)
    else:  # the generalized cones
        center = cones.generalized_interior_witness(lat)
    report.record(cones.contains(minimal, center), ("interior witness", target, n))
    points, rejected = sample_cone_points(minimal, center, CONE_SAMPLES, seed)
    report.notes["rejected_samples"] = rejected
    key = lat.weight_key
    # (kind, a, b, polynomial) whose initial form must be the monomial of (a, b) alone
    polys = []
    if relations:
        polys += [("initial form", a, b, straightening.straighten_pair(lat, a, b))
                  for a, b in lat.incomparable_pairs()]
    else:  # the Hibi binomials, generalized over the cone's partition if it has one
        for a, b in lat.incomparable_pairs():
            gen = straightening.hibi_generator(lat, a, b, minimal.partition)
            polys.append(("initial binomial", a, b,
                          {straightening.monomial(tuple(map(key, m))): c for m, c in gen.items()}))
    # every check runs over all samples at once; a failure's reproducer is
    # rebuilt by the scalar path, and failures keep the per-sample order
    keys = list(center)
    W = cones.weight_matrix(points, keys)
    failed = []
    for idx in np.flatnonzero(~cones.contains_many(redundant, keys, W)).tolist():
        bad = [iq.provenance for iq in redundant.inequalities if not iq.holds(points[idx])]
        failed.append((idx, 0, ("redundant description", idx, bad[:3])))
    for slot, (kind, a, b, poly) in enumerate(polys, 1):
        lead = straightening.monomial((key(a), key(b)))
        for idx in np.flatnonzero(~cones.lead_is_initial_many(poly, lead, keys, W)).tolist():
            if kind == "initial form":
                reproducer = (kind, idx, a, b, sorted(cones.initial_form(poly, points[idx])))
            else:
                reproducer = (kind, idx, a, b)
            failed.append((idx, slot, reproducer))
    report.checks += len(points) * (1 + len(polys))
    report.failures += [reproducer for _, _, reproducer in sorted(failed, key=lambda f: f[:2])]
    for fid in minimal.facet_ids():
        witness = cones.facet_witness(minimal, fid)
        own = minimal.inequality(fid)
        ok = not own.holds(witness) and all(
            iq.holds_nonstrict(witness)
            for j, iq in enumerate(minimal.inequalities) if j != fid)
        report.record(ok, ("facet witness", target, n, own.provenance))
    return report


@_timed
def suite_hibi_cone(n, seed):
    """Hibi cone: sampled soundness against the redundant description plus witnesses."""
    return _cone_suite("hibi-cone", n, seed, "M", "HIBI", "HIBI_REDUNDANT", False)


@_timed
def suite_genhibi_cone(n, seed):
    """Generalized Hibi cone over the PBW lattice with its diagonal partition."""
    return _cone_suite("genhibi-cone", n, seed, "N", "GENHIBI", "GENHIBI_REDUNDANT", False)


@_timed
def suite_ssyt_cone(n, seed):
    """Semistandard maximal cone: soundness, initial forms and facet witnesses."""
    return _cone_suite("ssyt-cone", n, seed, "M", "SSYT", "SSYT_REDUNDANT", True)


@_timed
def suite_pbw_cone(n, seed):
    """PBW maximal cone: soundness, initial forms and facet witnesses."""
    return _cone_suite("pbw-cone", n, seed, "N", "PBW", "PBW_REDUNDANT", True)


@_timed
def suite_convex(n, seed):
    """Facet pullbacks: every facet either contains the toric subcone or meets a facet of it."""
    n = _size(n, 6, 2)
    report = SuiteReport("convex", n, seed)
    for target in ("SSYT", "PBW"):
        hrep = cones.cone_hrep(target, n=n)
        for fid in hrep.facet_ids():
            iq = hrep.inequalities[fid]
            try:
                res = cones.classify_facet_vs_subcone(target, fid, n)
            except InvariantError as exc:
                report.record(False, ("pullback", target, iq.provenance, str(exc)))
                continue
            if iq.provenance[0] == "diamond":
                report.record(res.kind == "contains_subcone",
                              ("diamond facet", target, iq.provenance, res))
            else:
                report.record(res.kind == "meets_in_facet" and res.sign == 1,
                              ("special facet", target, iq.provenance, res))
    # instance checks of the parametrized toric points
    m = min(n, 5)
    rng = random.Random(seed)
    skipped = 0
    for trial in range(5):
        z = {(s, t): (t - s) ** 2 * 4 + (rng.randint(0, 1) if s < t else 0)
             for s in range(1, m + 1) for t in range(s, m + 1)}
        c = {k: rng.randint(-5, 5) for k in range(1, m)}
        xi = cones.XiPoint.build(m, z, c)
        if not cones.in_K(m, xi):
            skipped += 1
            continue
        report.record(cones.contains(cones.cone_hrep("TORIC_GT", n=m), cones.sigma_map(m, xi)),
                      ("sigma image", trial))
        report.record(cones.contains(cones.cone_hrep("TORIC_FFLV", n=m), cones.rho_map(m, xi)),
                      ("rho image", trial))
    if skipped:
        report.notes["skipped_toric_trials"] = f"{skipped} sampled points fell outside the parameter cone"
    return report


@_timed
def suite_counts(n, seed):
    """Enumerated facet counts against the closed formulas for 3..n."""
    n = _size(n, 10, 3)
    report = SuiteReport("counts", n, seed)
    for m in range(3, n + 1):
        try:
            fc = cones.facet_count(m)
        except InvariantError as exc:
            report.record(False, ("facet count", m, str(exc)))
            continue
        report.record(fc.pbw_total == fc.ssyt_total == fc.diamond + fc.special
                      and fc.diamond == cones._closed_form(m, m * m - m - 2)
                      and fc.ssyt_total == cones._closed_form(m, m * m + m - 4),
                      ("facet count split", m, fc))
    return report


@_timed
def suite_asl(n, seed):
    """Standard monomials span and are independent in every small multidegree.

    Per (kind, lam): the standard count equals the evaluation rank of every
    weight block at every seed, and the Weyl dimension of the degree-lam component.
    """
    n = _size(n, 5, 2)
    report = SuiteReport("asl", n, seed)
    lams = _multidegrees(n, 3)
    for kind in ("M", "N"):
        lat = PluckerLattice(kind, n)
        for lam in lams:
            report.record(straightening.standard_basis_check(lat, lam)
                          == straightening.weyl_dimension(lam),
                          ("standard basis", kind, lam))
    return report


def _multidegrees(n, max_total):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n - 1:
            if sum(prefix) >= 1:
                out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], max_total)
    return sorted(out)


SUITES = {
    "strlaws": suite_strlaws,
    "pbwstrlaws": suite_pbwstrlaws,
    "tau": suite_tau,
    "ehrhart": suite_ehrhart,
    "minkowski": suite_minkowski,
    "hibi-cone": suite_hibi_cone,
    "genhibi-cone": suite_genhibi_cone,
    "ssyt-cone": suite_ssyt_cone,
    "pbw-cone": suite_pbw_cone,
    "convex": suite_convex,
    "counts": suite_counts,
    "asl": suite_asl,
}


def run_suite(name, n=None, seed=0):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name](n=n, seed=seed)
