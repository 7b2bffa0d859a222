"""Named verification suites bundling the library's invariants.

Each suite runs a block of exact checks with a fixed seed and returns a
``SuiteReport``; a failure record always carries a minimal reproducer.  Only
the checks and the brute-force box oracle ``integer_points`` live here.

``ehrhart`` and ``minkowski`` check all the partitions of a poset together.
For each t, one product of the stacked inequality systems against the box
finds the points of a whole stack of partitions, and the stack goes through
the stacked transfer maps of ``chain_order`` at once.  The products run in
float32 (BLAS), exact for the small bounded coordinates involved, which a
check guards, and ``STACK_BYTES`` bounds every stacked temporary.  The
records keep the order of checking one partition at one t at a time.  A run
builds each box of side t+1 once per poset size and t, and drops it when the
run ends.  ``minkowski`` reads each level set's piece from tables over the
poset's ideals, built once per poset.  The cone suites check all their samples at once through
``cones.contains_many``, on the samples-by-keys matrix the sampler returns,
and check once per pair, exactly, that the redundant rows are its
polynomial's lead against each other term.  numpy is imported on first use, by the box, the transfer checks
and the cone suites, so the exact suites (``strlaws``, ``pbwstrlaws``,
``tau``, ``convex``, ``counts``, ``asl``) never load it.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import cones, straightening
from .chain_order import (
    ChainOrderPartition,
    chain_matrix,
    interpolating_hrep,
    k_vectors,
    zeta_matrix,
    zeta_prime_matrix,
)
from .order_core import CapacityError, InvariantError, Poset, check, ideal_masks, key_name
from .plucker_lattices import (
    PluckerLattice,
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
STACK_BYTES = 1 << 19  # bytes of the largest stacked float32 temporary of ehrhart/minkowski


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

    def to_json_obj(self):
        """The report without its wall time, so that equal runs give equal objects."""
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "checks": self.checks,
            "failures": [repr(f) for f in self.failures],
            "notes": {k: repr(v) for k, v in sorted(self.notes.items())},
        }


def _size(n, default, least):
    """The size a suite runs at: ``default`` when ``n`` is None.

    ``least`` is the smallest size at which the suite builds its objects and
    makes at least one check; below it the size is a usage error.
    """
    n = default if n is None else n
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
    return n


# -- straightening suites ----------------------------------------------------

def _straightening_suite(name, kind, n, seed, trials=20):
    lat = PluckerLattice(kind, n)
    report = SuiteReport(name, n, seed)
    bound = Fraction(0)
    observed_m = {}
    for a, b in lat.incomparable_pairs():
        rel = straightening.straighten_pair(lat, a, b)
        head = lat.meet_or_product(a, b), lat.join(a, b)
        rows = straightening.straightening_terms(lat, rel, a, b, head)
        observed_m[len(rows) - 1] = observed_m.get(len(rows) - 1, 0) + 1
        top = head[1]
        meet = head[0] if kind == "M" else lat.meet(a, b)
        lo0, hi0, c0 = rows[0]
        report.record((lo0, hi0) == head and c0 == 1,
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


def suite_strlaws(n, seed):
    """Straightening-law shape and membership over the semistandard order."""
    return _straightening_suite("strlaws", "M", _size(n, 5, 3), seed)


def suite_pbwstrlaws(n, seed):
    """Straightening-law shape and membership over the PBW order."""
    return _straightening_suite("pbwstrlaws", "N", _size(n, 5, 3), seed)


# -- lattice isomorphism -------------------------------------------------------

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
        grid = PluckerLattice("M", m).ji_poset
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
    """The integer points of the box [0, t]^size, one float32 column per point."""
    import numpy as np  # on first use, so the exact suites never load it
    return np.indices((t + 1,) * size, dtype=np.float32).reshape(size, -1)


def stack_systems(hreps):
    """The inequality systems of ``hreps``, all over one poset, as int64 arrays (A, b).

    ``A`` has shape (P, R, size) and ``b`` shape (P, R), with R the row count
    of the longest system; each system is its ``PolytopeHRep.arrays()``, and
    shorter systems are padded with zero rows (0 <= 0).
    """
    import numpy as np
    depth = max(len(hrep.rows) for hrep in hreps)
    A = np.zeros((len(hreps), depth, len(hreps[0].poset)), dtype=np.int64)
    b = np.zeros((len(hreps), depth), dtype=np.int64)
    for i, hrep in enumerate(hreps):
        rows, bounds = hrep.arrays()
        A[i, :len(bounds)] = rows
        b[i, :len(bounds)] = bounds
    return A, b


def binding_rows(A, b):
    """The rows of stacked systems that a box point can violate, laid out for ``integer_points``.

    ``A`` and ``b`` are as ``stack_systems`` returns them.  A row with no
    positive coefficient and a nonnegative bound holds on the whole box,
    whose coordinates are nonnegative, so the row positions where every
    system has such a row are left out.  Returns float32 arrays (rows,
    bounds) of shapes (D, P, size) and (D, P, 1), entry [r, p] the r-th kept
    row of system p.
    """
    import numpy as np
    kept = ((A > 0).any(axis=2) | (b < 0)).any(axis=0)
    return (A[:, kept].transpose(1, 0, 2).astype(np.float32, order="C"),
            b[:, kept].T[..., None].astype(np.float32))


def integer_points(rows, bounds, t, box):
    """Brute-force integer points of the t-dilation of each system of a stack, as (counts, points).

    ``rows`` and ``bounds`` come from ``binding_rows``, and ``box`` is
    ``box_points(size, t)``, which a suite run builds once per size and t.
    One product of the stacked rows against the box tests every point for a
    whole chunk of systems, and each point's test reduces over the leading
    (row) axis; a chunk holds as many systems as keep the product within
    ``STACK_BYTES``.  The product runs in float32, exact while every row's
    absolute sum times t and every bound times t stay below 2**24, which is
    checked.  ``counts`` lists each system's point count, and ``points``
    holds the points as int64 rows, system by system, each system's in box
    order.
    """
    import numpy as np
    depth, stack, size = rows.shape
    check(t * max(np.abs(rows).sum(axis=2).max(initial=0), np.abs(bounds).max(initial=0))
          < 2 ** 24, "rows too large for exact float32 box products")
    keep = np.empty((stack, box.shape[1]), dtype=bool)
    step = max(1, STACK_BYTES // (4 * depth * box.shape[1] or 1))
    for lo in range(0, stack, step):
        chunk = rows[:, lo:lo + step]
        tests = (chunk.reshape(-1, size) @ box <= t * bounds[:, lo:lo + step].reshape(-1, 1))
        tests.reshape(chunk.shape[:2] + box.shape[1:]).all(axis=0, out=keep[lo:lo + step])
    return keep.sum(axis=1).tolist(), box[:, np.nonzero(keep)[1]].T.astype(np.int64, order="C")


def _check_names(t, check_decomposition):
    """Name and extra reproducer fields of each transfer check at one t > 0, in record order."""
    names = [("zeta o zeta_prime",), ("zeta_prime o zeta",), ("zeta image",),
             ("zeta_prime image",)]
    if check_decomposition:
        for i in range(1, t + 1):
            names += [("level sets are ideals", i), ("piece membership", i)]
        names.append(("decomposition sum",))
    return names


def _transfer_checks(poset, chain, At, b, order_at, order_b, X, reference, t, pieces):
    """The transfer checks of a stack of partitions at one t > 0, as a bool array.

    ``X`` holds each partition's points, as many for every partition of the
    stack.  ``At`` and ``b`` are the partitions' inequality systems,
    transposed and padded with zero rows (0 <= 0), and ``order_at``,
    ``order_b`` the order polytope's; ``reference`` holds the order
    polytope's points, shared by all partitions.  The result has a row per
    partition and a column per check, in ``_check_names`` order.
    ``pieces`` holds ``_check_poset``'s ideal tables and partitions of the stack.

    The inequality products run in float32, where numpy uses BLAS.  They are
    exact: the rows come from ``interpolating_hrep``, with entries in
    {-1, 0, 1}, so no partial sum exceeds the poset size times the largest
    coordinate, which is checked to stay below 2**24.
    """
    import numpy as np
    R = np.broadcast_to(reference, (len(X),) + reference.shape)
    Y = zeta_prime_matrix(poset, chain, X)
    Z = zeta_matrix(poset, chain, R)
    check(len(poset) * max(np.abs(Y).max(initial=0), np.abs(Z).max(initial=0)) < 2 ** 24,
          "coordinates too large for exact float32 products")
    outcomes = [(zeta_matrix(poset, chain, Y) == X).all(axis=(1, 2)),
                (zeta_prime_matrix(poset, chain, Z) == R).all(axis=(1, 2)),
                # zeta maps the order dilation into the chain-order dilation and back
                (Z.astype(np.float32) @ At <= t * b).all(axis=(1, 2))]
    del Z, R  # the reference side is done: keep it out of the decomposition's peak memory
    Y = Y.astype(np.float32)
    outcomes.append((Y @ order_at <= t * order_b).all(axis=(1, 2)))
    if pieces is not None:
        slot, K, inside, parts = pieces
        rows = np.arange(len(X))[:, None]
        total = np.zeros_like(X)
        for i in range(1, t + 1):
            level = (Y >= i) @ (1 << np.arange(len(poset)))  # each level set as a mask
            ideal = slot[level]
            outcomes.append((ideal >= 0).all(axis=1))
            piece, kept = K[rows, ideal], inside[rows, ideal]
            for p, x in zip(*np.nonzero(ideal < 0)):  # no ideal: a check has failed
                piece[p, x] = k_vectors(parts[p], [int(level[p, x])])
                kept[p, x] = (piece[p, x] @ At[p] <= b[p]).all()
            outcomes.append(kept.all(axis=1))
            total += piece
        outcomes.append((total == X).all(axis=(1, 2)))
    return np.stack(outcomes, axis=1)


def _check_poset(report, poset, parts, box, check_decomposition):
    """Records the point counts and transfer checks of ``parts`` at every t, partition by partition.

    For each t the partitions go through in stacks, as many as keep a
    product of their padded systems with the order polytope's points within
    ``STACK_BYTES`` of float32.  ``integer_points`` finds the points of a
    whole stack, and each run of its partitions with the same point count
    goes through the transfer checks at once.  The records keep the order of
    checking one partition at a time, t by t.
    """
    import numpy as np
    size = len(poset)
    order_A, order_b = stack_systems(
        [interpolating_hrep(poset, ChainOrderPartition.order_polytope(poset))])
    A, b = stack_systems([interpolating_hrep(poset, part) for part in parts])
    order_rows = binding_rows(order_A, order_b)
    rows, bounds = binding_rows(A, b)
    chain = chain_matrix(poset, parts)
    if check_decomposition:  # the ideal tables the level sets read
        masks = ideal_masks(poset)
        slot = np.full(1 << size, -1)  # a mask's index in masks, -1 if it is no ideal
        slot[masks] = np.arange(len(masks))
        K = np.stack([k_vectors(part, masks) for part in parts])  # [p, j]: ideal j's K-vector
        inside = np.array([(k @ a.T <= c).all(axis=1)  # K[p, j] in p's polytope, exact int64
                           for k, a, c in zip(K, A, b)])
    # the transfer checks' systems: transposed for the products, in float32
    At = A.transpose(0, 2, 1).astype(np.float32, order="C")
    b = b[:, None, :].astype(np.float32)
    order_at, order_b = order_A[0].T.astype(np.float32), order_b[0].astype(np.float32)
    # per t: the order polytope's point count, and each partition's point count and outcomes
    expected, counts, outcomes = [], [], []
    for t in range(EHRHART_MAX_T + 1):
        reference = integer_points(*order_rows, t, box[t])[1]
        expected.append(len(reference))
        counts.append([])
        outcomes.append([])
        # a partition has as many points as the order polytope, unless a check fails
        step = max(1, STACK_BYTES // (4 * A.shape[1] * len(reference)))
        for lo in range(0, len(parts), step):
            got, points = integer_points(rows[:, lo:lo + step], bounds[:, lo:lo + step], t, box[t])
            counts[t] += got
            if not (size and t):
                continue
            # one stack per run of partitions with the same point count
            cuts = [p for p in range(1, len(got)) if got[p] != got[p - 1]]
            first = 0  # the run's first row of ``points``
            for i, j in zip([0] + cuts, cuts + [len(got)]):
                X = points[first:first + (j - i) * got[i]].reshape(j - i, got[i], size)
                first += (j - i) * got[i]
                run = slice(lo + i, lo + j)
                pieces = (slot, K[run], inside[run], parts[run]) if check_decomposition else None
                outcomes[t] += _transfer_checks(
                    poset, chain[run], At[run], b[run], order_at, order_b,
                    X, reference, t, pieces).tolist()
    names = [_check_names(t, check_decomposition) for t in range(EHRHART_MAX_T + 1)]
    for p, part in enumerate(parts):
        label = part.to_json_obj()
        for t in range(EHRHART_MAX_T + 1):
            got = counts[t][p]
            report.record(got == expected[t],
                          ("point count", poset.elements, label, t, got, expected[t]))
            if outcomes[t]:
                report.checks += len(names[t])
                if not all(outcomes[t][p]):
                    report.failures += [(head, label, t, *extra)
                                        for ok, (head, *extra) in zip(outcomes[t][p], names[t])
                                        if not ok]


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
        _check_poset(report, poset, partitions_of(poset, seed + idx), boxes[len(poset)],
                     check_decomposition)
    return report


def suite_ehrhart(n, seed):
    """Partition-independent point counts and mutually inverse transfer maps."""
    return _ehrhart_like("ehrhart", n, seed, check_decomposition=False)


def suite_minkowski(n, seed):
    """Every dilation point decomposes into polytope lattice points, via level sets."""
    return _ehrhart_like("minkowski", n, seed, check_decomposition=True)


# -- cone suites ----------------------------------------------------------------

def _noise(rng, spread, count):
    """``count`` draws of ``rng.randint(-spread, spread)``: the same values from the same stream.

    Each draw is CPython's own: ``getrandbits`` of the bit length of the
    range's width, redrawn while it falls outside the width.
    """
    width = 2 * spread + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        yield r - spread


def sample_cone_points(hrep, center, count, seed, scale=16, spread=12):
    """Seeded integer points inside the cone: scaled center plus boxed noise.

    Rejection-samples against the exact H-representation and returns
    ``(W, rejected)``: ``W`` is the samples-by-keys matrix of the accepted
    points, its columns the keys of ``center`` in ``key_name`` order,
    and ``rejected`` the number of rejected draws.  Candidates are drawn in
    blocks of at most the number still needed, and each block is tested at
    once by ``cones.contains_many``; the draws, and so the samples, are those
    of testing one candidate at a time.  Raises ``CapacityError`` when 100
    attempts per requested sample do not fill the count.
    """
    import numpy as np
    rng = random.Random(seed)
    keys = sorted(center, key=key_name)
    base = [scale * center[k] for k in keys]
    fits = all(type(v) is int and abs(v) + spread < cones._INT64_LIMIT for v in base)
    base_row = np.array(base, dtype=np.int64 if fits else object)
    width = len(keys)
    budget = 100 * count - 1  # the draws before the attempt that gives up
    blocks = []
    accepted = drawn = 0
    while accepted < count:
        size = min(count - accepted, budget - drawn)
        if size <= 0:
            raise CapacityError(f"rejection sampling is not converging: {accepted} of "
                                f"{count} samples accepted after {drawn + 1} attempts")
        noise = _noise(rng, spread, size * width)
        W = np.fromiter(noise, dtype=base_row.dtype, count=size * width).reshape(size, width)
        W += base_row
        drawn += size
        blocks.append(W[cones.contains_many(hrep, keys, W)])
        accepted += len(blocks[-1])
    return np.concatenate(blocks), drawn - accepted


def _lead_rows(lead, poly):
    """The strict rows X_lead - X_m, one per monomial m of ``poly`` but ``lead``, by key counts."""
    rows = Counter()
    for mono in poly:
        if mono != lead:
            diff = Counter(lead)
            diff.subtract(mono)
            rows[tuple(sorted(item for item in diff.items() if item[1])), cones.STRICT] += 1
    return rows


def _cone_suite(name, n, seed, kind, target, redundant_target, relations):
    """Soundness, the rows of each pair against its polynomial, and facet witnesses.

    The redundant rows naming a pair (a, b) must be the strict rows X_ab - X_m,
    one per other monomial m of its straightening relation (``relations``) or
    Hibi binomial; then X_ab is the initial form at every weight of the cone.
    """
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
    W, rejected = sample_cone_points(minimal, center, CONE_SAMPLES, seed)
    report.notes["rejected_samples"] = rejected
    keys = sorted(center, key=key_name)  # the sampler's columns
    # all samples at once; a failure's reproducer is rebuilt by the scalar path
    for idx in np.flatnonzero(~cones.contains_many(redundant, keys, W)).tolist():
        w = dict(zip(keys, W[idx].tolist()))
        bad = [iq.provenance for iq in redundant.inequalities if not iq.holds(w)]
        report.failures.append(("redundant description", idx, bad[:3]))
    report.checks += len(W)
    rows = {}  # (a, b) -> the (form, relation) multiset of the rows its provenance names
    for iq in redundant.inequalities:
        rows.setdefault(iq.provenance[1:3], Counter())[iq.form, iq.relation] += 1
    key = lat.weight_key
    for a, b in lat.incomparable_pairs():
        if relations:  # on the redundant description's lattice, so its normal forms are reused
            check_name = "relation rows"
            poly = straightening.straighten_pair(redundant.lattice, a, b)
        else:  # the Hibi binomial, generalized over the cone's partition if it has one
            check_name = "binomial rows"
            gen = straightening.hibi_generator(lat, a, b, minimal.partition)
            poly = {straightening.monomial(tuple(map(key, m))): c for m, c in gen.items()}
        lead = straightening.monomial((key(a), key(b)))
        got = rows.get((a, b), Counter())
        report.record(lead in poly and got == _lead_rows(lead, poly),
                      (check_name, a, b, sorted(poly), sorted(got.elements())))
    for fid in minimal.facet_ids():
        witness = cones.facet_witness(minimal, fid)
        own = minimal.inequality(fid)
        ok = not own.holds(witness) and all(
            iq.holds_nonstrict(witness)
            for j, iq in enumerate(minimal.inequalities) if j != fid)
        report.record(ok, ("facet witness", target, n, own.provenance))
    return report


def suite_hibi_cone(n, seed):
    """Hibi cone: sampled soundness, the rows of each Hibi binomial, facet witnesses."""
    return _cone_suite("hibi-cone", n, seed, "M", "HIBI", "HIBI_REDUNDANT", False)


def suite_genhibi_cone(n, seed):
    """Generalized Hibi cone over the PBW lattice with its diagonal partition."""
    return _cone_suite("genhibi-cone", n, seed, "N", "GENHIBI", "GENHIBI_REDUNDANT", False)


def suite_ssyt_cone(n, seed):
    """Semistandard maximal cone: soundness, the rows of each relation, facet witnesses."""
    return _cone_suite("ssyt-cone", n, seed, "M", "SSYT", "SSYT_REDUNDANT", True)


def suite_pbw_cone(n, seed):
    """PBW maximal cone: soundness, the rows of each relation, facet witnesses."""
    return _cone_suite("pbw-cone", n, seed, "N", "PBW", "PBW_REDUNDANT", True)


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


def suite_counts(n, seed):
    """Enumerated facet counts against the closed formulas for 3..n."""
    n = _size(n, 10, 3)
    report = SuiteReport("counts", n, seed)
    for m in range(3, n + 1):
        # facet_count checks the counts against the closed formulas itself
        try:
            cones.facet_count(m)
        except InvariantError as exc:
            report.record(False, ("facet count", m, str(exc)))
        else:
            report.record(True, ("facet count", m))
    return report


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
    """The report of one suite by name, with the run's wall time in ``elapsed_s``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    start = time.perf_counter()
    report = SUITES[name](n, seed)
    report.elapsed_s = time.perf_counter() - start
    return report
