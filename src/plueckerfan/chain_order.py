"""Chain-order polytopes of a partitioned poset.

For a partition P = U_o | U_c the polytope Pi(U_o, U_c) interpolates between
the order polytope (U_c empty) and the chain polytope (U_o empty).  This
module builds its inequality description, the piecewise-linear transfer maps
between the order polytope and Pi, the induced K-sets and ideal product, and
the lattice points of dilations together with their Minkowski decompositions.
``dilation_table`` gives the points of a dilation as sorted integer rows,
``dilation_points`` the same points as dicts, and ``points_to_json`` renders
rows as the JSON of ``point_to_json_obj`` maps without building them.

``zeta_matrix`` and ``zeta_prime_matrix`` are the batched forms of ``zeta``
and ``zeta_prime``.  They map a stack of
partitions of one poset at once: a partitions-by-points-by-elements numpy
array, with ``chain_matrix`` marking each partition's chain elements, so one
partition is the one-element stack.  ``PolytopeHRep.arrays`` gives an
inequality system as int64 arrays.  The scalar forms work exactly on
``Fraction`` coordinates and are the reference the batched forms are tested
against.

``interpolating_hrep`` works on bitmasks and visits only the chains that
can give a row.  Each partition keeps the K-sets of the ideals it has met
(``ChainOrderPartition.k_sets``), so the ideal products of a lattice compute
each ideal's K-set once; ``k_vectors`` gives them as 0/1 rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import itemgetter

from .order_core import (
    CapacityError,
    OrderIdeal,
    PosetError,
    _bits,
    check,
    ideal_masks,
    json_rationals,
)

DILATION_CAPACITY = 1 << 24  # point coordinates of one dilation table


@dataclass(frozen=True)
class ChainOrderPartition:
    """Partition of a poset into "order" and "chain" elements."""

    poset: object
    order_mask: int
    chain_mask: int
    # ideal mask -> K-set mask, filled by ``_k_mask``; not part of the value
    k_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_sets(cls, poset, order_ids, chain_ids):
        om = poset.mask_of(order_ids)
        cm = poset.mask_of(chain_ids)
        full = (1 << len(poset)) - 1
        if om & cm or om | cm != full:
            raise PosetError("order/chain parts must partition the poset")
        return cls(poset, om, cm)

    @classmethod
    def order_polytope(cls, poset):
        return cls(poset, (1 << len(poset)) - 1, 0)

    @classmethod
    def chain_polytope(cls, poset):
        return cls(poset, 0, (1 << len(poset)) - 1)

    @classmethod
    def from_masks(cls, poset, order_mask):
        full = (1 << len(poset)) - 1
        return cls(poset, order_mask, full & ~order_mask)

    def order_ids(self):
        return self.poset.ids_of(self.order_mask)

    def chain_ids(self):
        return self.poset.ids_of(self.chain_mask)

    def to_json_obj(self):
        return {"order": list(self.order_ids()), "chain": list(self.chain_ids())}


@dataclass(frozen=True)
class PolytopeHRep:
    """Inequalities sum(coeffs * x) <= bound, with bound scaling linearly in t."""

    poset: object
    rows: tuple          # ((coeff vector, bound), ...)
    labels: tuple        # parallel provenance labels

    def contains(self, coords, t=1):
        vec = _as_vector(self.poset, coords)
        return all(sum(c * x for c, x in zip(row, vec)) <= bound * t
                   for row, bound in self.rows)

    def to_json_obj(self):
        out = []
        for (row, bound), label in zip(self.rows, self.labels):
            terms = {str(e): c for e, c in zip(self.poset.elements, row) if c}
            out.append({"terms": terms, "bound": bound, "kind": label[0]})
        return out

    def arrays(self):
        """The system as int64 arrays (A, b): the t-dilation is A x <= t b."""
        # numpy is imported on first use: this module loads early in the package,
        # and importing numpy before the other modules are compiled raised the
        # peak RSS of a CLI run by about 2% when no bytecode is cached
        import numpy as np
        A = np.array([row for row, _ in self.rows], dtype=np.int64)
        b = np.array([bound for _, bound in self.rows], dtype=np.int64)
        return A.reshape(len(self.rows), len(self.poset)), b


def _as_vector(poset, coords):
    if isinstance(coords, dict):
        if set(coords) != set(poset.elements):
            raise PosetError("point keys must be exactly the poset elements")
        return tuple(coords[e] for e in poset.elements)
    vec = tuple(coords)
    if len(vec) != len(poset):
        raise PosetError("point length mismatch")
    return vec


def _as_point(poset, vec):
    return dict(zip(poset.elements, vec))


def interpolating_hrep(poset, part):
    """Minimal-by-construction inequality system of Pi(U_o, U_c).

    Emits x_p >= 0 for every p, sum over C of x <= 1 for maximal admissible
    chains C with no order element below, and sum over C of x <= x_q for
    maximal admissible chains dominated by a maximal order element q.  An
    admissible chain p_1 < ... < p_k has every non-last element in U_c.  It
    is maximal when no chain element fits into it and its top is an order
    element or a maximal element of the poset.

    The canonical order is a linear extension, so a chain's bottom and top
    are its lowest and highest set bits, and the rows are emitted in the
    order of the chains' masks.  The chains are grown on an explicit stack,
    from the top, and a step never jumps over a chain element, which would
    fit in between.  The only other place a chain element fits is below the
    bottom, so a chain's rows depend on its bottom alone: the headless row
    when the bottom is minimal, and a headed row for each maximal order
    element q below the bottom with no chain element between them.
    """
    if part.poset is not poset:
        raise PosetError("partition does not belong to this poset")
    n = len(poset)
    elements = poset.elements
    up, down = poset.up, poset.down
    order_mask, chain_mask = part.order_mask, part.chain_mask
    rows = []
    labels = []
    for i in range(n):
        row = [0] * n
        row[i] = -1
        rows.append((tuple(row), 0))
        labels.append(("nonneg", elements[i]))

    heads = []  # heads[i]: the heads of a chain with bottom i; None heads the headless row
    for i in range(n):
        below = down[i] & ~(1 << i)
        heads.append([None] if not below else [])
        maximal = poset.maximal_of(order_mask & below)
        while maximal:
            low = maximal & -maximal
            maximal ^= low
            if not chain_mask & up[low.bit_length() - 1] & below:
                heads[i].append(low.bit_length() - 1)
    chains = []
    stack = [(1 << i, i, i) for i in range(n) if heads[i]]  # (mask, top, bottom)
    while stack:
        mask, top, bottom = stack.pop()
        if not chain_mask >> top & 1:
            chains.append((mask, bottom))  # an order element ends the chain
            continue
        above = up[top] & ~(1 << top)
        if not above:
            chains.append((mask, bottom))
        rest = above
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not chain_mask & above & down[j] & ~low:  # no chain element between top and j
                stack.append((mask | low, j, bottom))
    chains.sort()

    for mask, bottom in chains:
        body = [mask >> i & 1 for i in range(n)]
        ids = tuple(elements[i] for i in range(n) if body[i])
        for q in heads[bottom]:
            if q is None:
                rows.append((tuple(body), 1))
                labels.append(("chain", ids))
            else:
                row = list(body)
                row[q] -= 1
                rows.append((tuple(row), 0))
                labels.append(("headed", elements[q], ids))
    check(len(set(rows)) == len(rows), "duplicate inequalities")
    return PolytopeHRep(poset, tuple(rows), tuple(labels))


def zeta(part, point):
    """Transfer map from the order polytope side: min-of-differences on chain elements."""
    poset = part.poset
    vec = _as_vector(poset, point)
    out = list(vec)
    for i in range(len(poset)):
        strict_up = poset.up[i] & ~(1 << i)
        if part.chain_mask >> i & 1 and strict_up:
            out[i] = min(vec[i] - vec[j] for j in _bits(strict_up))
    return _as_point(poset, out)


def zeta_prime(part, point):
    """Inverse transfer: best admissible chain sum starting at each chain element."""
    poset = part.poset
    vec = _as_vector(poset, point)
    n = len(poset)
    best = [None] * n
    for i in reversed(range(n)):  # canonical order is a linear extension
        if part.order_mask >> i & 1:
            best[i] = vec[i]
        else:
            tail = 0
            for j in _bits(poset.up[i] & ~(1 << i)):
                tail = max(tail, best[j])
            best[i] = vec[i] + tail
    out = [vec[i] if part.order_mask >> i & 1 else best[i] for i in range(n)]
    return _as_point(poset, out)


def chain_matrix(poset, parts):
    """The chain elements of partitions of ``poset``, as a partitions-by-elements bool array."""
    import numpy as np  # on first use, see PolytopeHRep.arrays
    if any(part.poset is not poset for part in parts):
        raise PosetError("partition does not belong to this poset")
    n = len(poset)
    rows = [[part.chain_mask >> i & 1 for i in range(n)] for part in parts]
    return np.array(rows, dtype=bool).reshape(len(parts), n)


def zeta_matrix(poset, chain, X):
    """``zeta`` of a stack of partitions: block p of the result maps every row of ``X[p]``.

    ``chain`` is ``chain_matrix(poset, parts)`` and ``X`` a partitions-by-points-
    by-elements array.
    """
    import numpy as np
    out = X.copy()
    for i in range(len(poset)):
        strict_up = list(_bits(poset.up[i] & ~(1 << i)))
        if strict_up:
            above = X[..., strict_up[0]]  # the largest coordinate strictly above i
            for j in strict_up[1:]:
                above = np.maximum(above, X[..., j])
            out[..., i] -= chain[:, i, None] * above
    return out


def zeta_prime_matrix(poset, chain, X):
    """``zeta_prime`` of a stack of partitions, laid out as for ``zeta_matrix``."""
    import numpy as np
    best = X.copy()
    for i in reversed(range(len(poset))):  # canonical order is a linear extension
        strict_up = poset.up[i] & ~(1 << i)
        if strict_up:
            tail = np.zeros_like(best[..., i])
            for j in _bits(strict_up):
                np.maximum(tail, best[..., j], out=tail)
            tail *= chain[:, i, None]
            best[..., i] += tail
    return best


def k_set(part, ideal):
    """Support of zeta applied to the indicator vector of an order ideal."""
    poset = part.poset
    if ideal.poset is not poset:
        raise PosetError("ideal does not live on the partition's poset")
    if not poset.is_down_closed(ideal.bits):
        raise PosetError("subset is not an order ideal")
    return poset.ids_of(_k_mask(part, ideal.bits))


def _k_mask(part, bits):
    """The K-set of the ideal ``bits``: its order elements and its maximal chain elements.

    Each partition keeps the K-sets it has computed, so the lattice's ideal
    products compute each ideal's K-set once.
    """
    k = part.k_sets.get(bits)
    if k is None:
        k = part.k_sets[bits] = (bits & part.order_mask) | part.poset.maximal_of(bits, part.chain_mask)
    return k


def k_vectors(part, masks):
    """One int64 row of 0/1 per mask of ``masks``: its K-set by ``_k_mask``, over ``poset.elements``."""
    import numpy as np  # on first use, see PolytopeHRep.arrays
    ks = np.array([_k_mask(part, m) for m in masks], dtype=np.int64)
    return ks[:, None] >> np.arange(len(part.poset)) & 1


def odot_ideals(part, ideal1, ideal2):
    """Ideal product: the ideal J' with 1_K(J1) + 1_K(J2) = 1_K(J1 | J2) + 1_K(J')."""
    poset = part.poset
    for ideal in (ideal1, ideal2):
        if not poset.is_down_closed(ideal.bits):
            raise PosetError("input is not an order ideal")
    return OrderIdeal(poset, _odot_mask(part, ideal1.bits, ideal2.bits))


def _odot_mask(part, bits1, bits2):
    """``odot_ideals`` on two masks that are order ideals of ``part.poset``."""
    k1 = _k_mask(part, bits1)
    k2 = _k_mask(part, bits2)
    ku = _k_mask(part, bits1 | bits2)
    check(ku & ~(k1 | k2) == 0 and (k1 & k2) & ~ku == 0,
          "K-set sandwich violated; indicator difference is not 0/1")
    d_mask = (k1 & k2) | ((k1 | k2) & ~ku)
    result = part.poset.down_closure(d_mask)
    check(_k_mask(part, result) == d_mask, "K of the minimal ideal must recover D")
    return result


def odot_elements(lattice, part, a, b):
    """The ideal product transported to lattice elements through the Birkhoff map.

    The masks pass bare between the lattice's ``mask``/``element`` and
    ``_odot_mask``, with no ``OrderIdeal`` built and no closure test:
    Birkhoff images are order ideals by construction.
    """
    if part.poset is not lattice.ji_poset:
        raise PosetError("partition does not live on this lattice's join-irreducible poset")
    return lattice.element(_odot_mask(part, lattice.mask(a), lattice.mask(b)))


def dilation_table(part, t):
    """Integer points of the t-dilation as sorted rows, coordinates in ``poset.elements`` order.

    There is one point per weakly decreasing chain of t order ideals: the sum
    of the K-vectors of its ideals.  The chains are grown as index arrays into
    the K-vector matrix of the ideals, one level at a time.  Every point is
    checked against the inequalities at once, and the sorted rows are checked
    to be distinct as one array comparison.
    """
    if t < 0:
        raise ValueError("dilation factor must be nonnegative")
    poset = part.poset
    n = len(poset)
    # each ideal is a point of every t >= 1, so a longer list fails the cap below;
    # the one point of t = 0 needs the empty ideal alone
    masks = ideal_masks(poset, DILATION_CAPACITY // max(n, 1)) if t else [0]
    if comb(len(masks) + t - 1, t) * n > DILATION_CAPACITY:  # points <= size-t multisets of ideals
        raise CapacityError(f"the {t}-dilation may exceed {DILATION_CAPACITY} point coordinates")
    import numpy as np  # on first use, see PolytopeHRep.arrays
    A, b = interpolating_hrep(poset, part).arrays()
    K = k_vectors(part, masks)
    bits = np.array(masks, dtype=np.int64)
    points = np.zeros((1, n), dtype=np.int64)
    if t:
        points, last = K, np.arange(len(masks))  # last: the last ideal of each chain
        for _ in range(t - 1):
            # entry (c, j): ideal j lies inside the last ideal of chain c
            chain, last = np.nonzero((bits & ~bits[last, None]) == 0)
            points = points[chain] + K[last]
    check(bool((points @ A.T <= t * b).all()), "chain point escapes the dilated polytope")
    if len(points) > 1:
        points = points[np.lexsort(points.T[::-1])]  # rows in lexicographic order
        check(bool((points[1:] != points[:-1]).any(axis=1).all()),
              "distinct ideal chains must give distinct points")
    return points.tolist()


def dilation_points(part, t):
    """``dilation_table`` as points: one ``{element: coordinate}`` dict per row."""
    return [_as_point(part.poset, row) for row in dilation_table(part, t)]


def minkowski_decompose(part, point, t):
    """Split an integer point of the t-dilation into t integer points of the polytope."""
    if t < 1:
        raise ValueError("t must be at least 1")
    poset = part.poset
    vec = _as_vector(poset, point)
    if any(Fraction(v).denominator != 1 for v in vec):
        raise ValueError("point is not integral")
    vec = tuple(int(v) for v in vec)
    hrep = interpolating_hrep(poset, part)
    if not hrep.contains(vec, t):
        raise ValueError("point does not lie in the t-dilation")
    level = _as_vector(poset, zeta_prime(part, _as_point(poset, vec)))
    n = len(poset)
    parts = []
    total = [0] * n
    for i in range(1, t + 1):
        mask = sum(1 << j for j in range(n) if level[j] >= i)
        check(poset.is_down_closed(mask), "level set of the transfer image must be an ideal")
        kmask = _k_mask(part, mask)
        piece = tuple(kmask >> j & 1 for j in range(n))
        check(hrep.contains(piece, 1), "every piece must lie in the polytope")
        parts.append(_as_point(poset, piece))
        total = [x + y for x, y in zip(total, piece)]
    check(tuple(total) == vec, "decomposition must sum to the input point")
    return parts


def point_to_json_obj(point):
    # str(v) == str(Fraction(v)) for an int; bools still go through Fraction
    return {str(k): str(v) if type(v) is int else str(Fraction(v))
            for k, v in sorted(point.items(), key=lambda kv: str(kv[0]))}


def points_to_json(poset, rows):
    """JSON text of integer points given as rows over ``poset.elements``.

    Byte for byte ``json.dumps([point_to_json_obj(p) for p in points], indent=2,
    sort_keys=True)``, where ``points`` are the rows as dicts, without building
    them: one row template lists the keys in ``str`` order, each encoded once,
    and writes every coordinate with ``%d``.  Elements with the same ``str``,
    which ``Poset.from_covers`` rejects, keep the last one's coordinate, as
    ``point_to_json_obj`` does.
    """
    last = {str(e): i for i, e in enumerate(poset.elements)}
    keys = sorted(last)
    order = [last[k] for k in keys]
    fields = ",\n".join(f'    {json.dumps(k).replace("%", "%%")}: "%d"' for k in keys)
    template = "  {\n" + fields + "\n  }" if keys else "  {}"
    # one key: itemgetter gives the bare coordinate, which % takes as its only value
    pick = itemgetter(*order) if order else lambda row: ()
    body = ",\n".join(map(template.__mod__, map(pick, rows)))
    return "[\n" + body + "\n]" if rows else "[]"


def point_from_json_obj(obj, poset):
    """The point a ``point_to_json_obj`` map names: a rational per element's ``str``, no other key."""
    return json_rationals(obj, {str(el): el for el in poset.elements}, "point")
