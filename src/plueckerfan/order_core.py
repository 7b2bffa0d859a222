"""Finite posets, order ideals, distributive lattices and Birkhoff data.

Every structure fixes a canonical element order (height first, then id) and
stores comparability as integer bitmasks over that order, so enumerations and
serialized output are identical across runs and platforms.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

IDEAL_CAPACITY = 62
FULL_AXIOM_LIMIT = 64
AXIOM_SAMPLES = 1000


class CapacityError(Exception):
    """An enumeration would exceed the supported bitset capacity."""


class InvariantError(Exception):
    """A mathematical invariant of a computed object does not hold.

    Raised in place of ``assert``, so the check stays live under ``python -O``.
    """


def check(ok, message):
    """Raise ``InvariantError(message)`` unless ``ok``."""
    if not ok:
        raise InvariantError(message)


class PosetError(ValueError):
    pass


class LatticeError(ValueError):
    pass


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _transpose(masks):
    """The transposed relation: entry j of the result holds i when entry i of ``masks`` holds j."""
    out = [0] * len(masks)
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


class Poset:
    """Finite poset over hashable element ids.

    ``elements`` is the canonical order; ``up[i]`` / ``down[i]`` are reflexive
    reachability bitmasks over element positions.  Immutable after build.
    """

    def __init__(self, elements, up_masks, heights):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PosetError("duplicate element ids")
        self.up = tuple(up_masks)
        self.heights = tuple(heights)
        self.down = tuple(_transpose(self.up))

    # -- construction --------------------------------------------------

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover edges (lo, hi); edges are validated acyclic.

        Points and inequalities name an element by its ``str``, so two
        elements with the same ``str`` are rejected.
        """
        elements = list(elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != len(elements):
            raise PosetError("duplicate element ids")
        by_name = {}
        for e in elements:
            if str(e) in by_name:
                raise PosetError(
                    f"elements {by_name[str(e)]!r} and {e!r} have the same name {str(e)!r}")
            by_name[str(e)] = e
        n = len(elements)
        adj = [0] * n
        for lo, hi in covers:
            if lo not in pos or hi not in pos:
                raise PosetError(f"cover edge ({lo!r}, {hi!r}) references unknown element")
            if lo == hi:
                raise PosetError(f"self-loop at {lo!r}")
            adj[pos[lo]] |= 1 << pos[hi]
        up = cls._closure(adj)
        for i in range(n):
            if up[i] >> i & 1:
                raise PosetError(f"cover edges contain a cycle through {elements[i]!r}")
        for i in range(n):
            up[i] |= 1 << i
        return cls._canonicalize(elements, up)

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparability predicate ``leq(a, b)``."""
        elements = list(elements)
        n = len(elements)
        up = [0] * n
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                if i == j or leq(a, b):
                    up[i] |= 1 << j
        for i in range(n):
            for j in range(n):
                if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                    raise PosetError(f"{elements[i]!r} and {elements[j]!r} violate antisymmetry")
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    raise PosetError("relation is not transitive")
        return cls._canonicalize(elements, up)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls.from_covers(data["elements"], [tuple(e) for e in data["covers"]])

    @staticmethod
    def _closure(adj):
        n = len(adj)
        reach = list(adj)
        for k in range(n):
            bit = 1 << k
            rk = reach[k]
            for i in range(n):
                if reach[i] & bit:
                    reach[i] |= rk
        return reach

    @classmethod
    def _canonicalize(cls, elements, up):
        n = len(elements)
        below = _transpose(up)
        height = [0] * n
        # longest-chain height, processed bottom-up by number of elements below
        for i in sorted(range(n), key=lambda i: below[i].bit_count()):
            h, rest = 0, below[i] & ~(1 << i)
            while rest:
                low = rest & -rest
                h = max(h, height[low.bit_length() - 1] + 1)
                rest ^= low
            height[i] = h
        try:
            perm = sorted(range(n), key=lambda i: (height[i], elements[i]))
        except TypeError:
            perm = sorted(range(n), key=lambda i: (height[i], repr(elements[i])))
        new_pos = [0] * n
        for new, old in enumerate(perm):
            new_pos[old] = new
        new_up = []
        for old in perm:
            m, rest = 0, up[old]
            while rest:
                low = rest & -rest
                m |= 1 << new_pos[low.bit_length() - 1]
                rest ^= low
            new_up.append(m)
        return cls([elements[i] for i in perm], new_up, [height[i] for i in perm])

    # -- queries --------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self)} elements)"

    def index(self, el):
        try:
            return self._index[el]
        except KeyError:
            raise PosetError(f"unknown element {el!r}") from None

    def __contains__(self, el):
        return el in self._index

    def leq(self, a, b):
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    @cached_property
    def cover_up_masks(self):
        """cover_up[i]: bitmask of elements covering element i."""
        n = len(self)
        out = []
        for i in range(n):
            strict_up = self.up[i] & ~(1 << i)
            m = 0
            for j in _bits(strict_up):
                between = strict_up & (self.down[j] & ~(1 << j))
                if between == 0:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    @cached_property
    def strict_order_matrix(self):
        """Read-only boolean matrix whose (i, j) entry says element i lies strictly below element j.

        Its memory is an immutable ``bytes`` object, so neither the matrix nor
        its base array can have its ``writeable`` flag set back to True.
        """
        import numpy as np  # on first use, see chain_order.PolytopeHRep.arrays
        n = len(self)
        rows = bytes(i != j and up >> j & 1 for i, up in enumerate(self.up) for j in range(n))
        return np.frombuffer(rows, dtype=bool).reshape(n, n)

    def cover_pairs(self):
        out = []
        for i in range(len(self)):
            for j in _bits(self.cover_up_masks[i]):
                out.append((self.elements[i], self.elements[j]))
        return out

    def mask_of(self, ids):
        m = 0
        for e in ids:
            m |= 1 << self.index(e)
        return m

    def ids_of(self, mask):
        return tuple(self.elements[i] for i in _bits(mask))

    # the three mask scans below walk the set bits inline, lowest first: they
    # run once per ideal in the ideal product and the lattice conversions

    def is_down_closed(self, mask):
        down, rest = self.down, mask
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def down_closure(self, mask):
        down, out, rest = self.down, 0, mask
        while rest:
            low = rest & -rest
            out |= down[low.bit_length() - 1]
            rest = (rest ^ low) & ~out  # what is already below needs no scan of its own
        return out

    def maximal_of(self, mask, among=None):
        """Bitmask of elements of ``mask`` with no strictly larger element in ``mask``.

        ``among``, when given, limits the scan to the elements of ``mask & among``.
        """
        up, out = self.up, 0
        rest = mask if among is None else mask & among
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & mask & ~low == 0:
                out |= low
            rest ^= low
        return out

    def subposet(self, ids):
        ids = list(ids)
        return Poset.from_leq(ids, self.leq)

    def to_json(self):
        return json.dumps(
            {"elements": list(self.elements), "covers": [list(p) for p in self.cover_pairs()]},
            sort_keys=True,
        )


@dataclass(frozen=True)
class OrderIdeal:
    """Downward-closed subset of a poset, stored as a bitset in canonical order."""

    poset: Poset
    bits: int

    def __post_init__(self):
        if self.bits >> len(self.poset):
            raise PosetError(f"bits {self.bits:#x} are not a subset of the poset's "
                             f"{len(self.poset)} elements")

    @classmethod
    def from_members(cls, poset, members):
        mask = poset.mask_of(members)
        if not poset.is_down_closed(mask):
            raise PosetError("subset is not downward closed")
        return cls(poset, mask)

    def members(self):
        return self.poset.ids_of(self.bits)

    def __contains__(self, el):
        return bool(self.bits >> self.poset.index(el) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def _same_poset(self, other):
        if self.poset is not other.poset:
            raise PosetError("the two ideals live on different posets")

    def __or__(self, other):
        self._same_poset(other)
        return OrderIdeal(self.poset, self.bits | other.bits)

    def __and__(self, other):
        self._same_poset(other)
        return OrderIdeal(self.poset, self.bits & other.bits)

    def __le__(self, other):
        self._same_poset(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        # canonical enumeration order, not inclusion
        return (len(self), self.bits) < (len(other), other.bits)

    def __repr__(self):
        return f"OrderIdeal{self.members()!r}"


@dataclass(frozen=True)
class Grading:
    """Cover-compatible rank function of a graded lattice."""

    value: dict


def ideal_masks(poset):
    """The bitmasks of all order ideals, sorted by cardinality then bit pattern."""
    if len(poset) > IDEAL_CAPACITY:
        raise CapacityError(f"poset has {len(poset)} > {IDEAL_CAPACITY} elements")
    ideals = [0]
    for i in range(len(poset)):
        # canonical order is a linear extension, so everything below i is already placed
        need = poset.down[i] & ~(1 << i)
        ideals += [m | (1 << i) for m in ideals if m & need == need]
    ideals.sort(key=lambda m: (m.bit_count(), m))
    return ideals


def enumerate_order_ideals(poset):
    """All order ideals, sorted by cardinality then bit pattern."""
    return [OrderIdeal(poset, m) for m in ideal_masks(poset)]


class DistributiveLattice:
    """Finite distributive lattice: a poset plus join/meet tables.

    Lattice and distributivity axioms are verified on construction, fully for
    at most ``FULL_AXIOM_LIMIT`` elements and on ``AXIOM_SAMPLES`` seeded
    random triples above that.
    """

    def __init__(self, poset, join_table, meet_table):
        self.poset = poset
        self._join = tuple(tuple(row) for row in join_table)
        self._meet = tuple(tuple(row) for row in meet_table)
        self._verify()

    @classmethod
    def from_poset(cls, poset):
        n = len(poset)
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ub = poset.up[i] & poset.up[j]
                lb = poset.down[i] & poset.down[j]
                jix = cls._extremum(poset, ub, lower=True)
                mix = cls._extremum(poset, lb, lower=False)
                if jix is None or mix is None:
                    raise LatticeError(
                        f"elements {poset.elements[i]!r}, {poset.elements[j]!r} lack a join or meet"
                    )
                join[i][j] = join[j][i] = jix
                meet[i][j] = meet[j][i] = mix
        return cls(poset, join, meet)

    @staticmethod
    def _extremum(poset, mask, lower):
        for i in _bits(mask):
            cover = poset.up[i] if lower else poset.down[i]
            if mask & ~cover == 0:
                return i
        return None

    def _verify(self):
        n = len(self.poset)
        if len(self._join) != n or any(len(r) != n for r in self._join):
            raise LatticeError("join table shape mismatch")
        for i in range(n):
            if self._join[i][i] != i or self._meet[i][i] != i:
                raise LatticeError("join/meet are not idempotent")
            for j in range(n):
                if self._join[i][j] != self._join[j][i] or self._meet[i][j] != self._meet[j][i]:
                    raise LatticeError("join/meet are not commutative")
                if self._meet[i][self._join[i][j]] != i or self._join[i][self._meet[i][j]] != i:
                    raise LatticeError("absorption fails")
                leq = bool(self.poset.up[i] >> j & 1)
                if (self._join[i][j] == j) != leq or (self._meet[i][j] == i) != leq:
                    raise LatticeError("induced order disagrees with underlying poset")
        if n <= FULL_AXIOM_LIMIT:
            triples = (
                (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            )
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(AXIOM_SAMPLES))
        for a, b, c in triples:
            if self._join[self._join[a][b]][c] != self._join[a][self._join[b][c]]:
                raise LatticeError("join is not associative")
            if self._meet[self._meet[a][b]][c] != self._meet[a][self._meet[b][c]]:
                raise LatticeError("meet is not associative")
            if self._meet[a][self._join[b][c]] != self._join[self._meet[a][b]][self._meet[a][c]]:
                raise LatticeError("distributivity fails")

    # -- queries --------------------------------------------------------

    @property
    def elements(self):
        return self.poset.elements

    def __len__(self):
        return len(self.poset)

    def leq(self, a, b):
        return self.poset.leq(a, b)

    def join(self, a, b):
        return self.elements[self._join[self.poset.index(a)][self.poset.index(b)]]

    def meet(self, a, b):
        return self.elements[self._meet[self.poset.index(a)][self.poset.index(b)]]

    @cached_property
    def minimum(self):
        bottoms = [e for i, e in enumerate(self.elements) if self.poset.down[i] == 1 << i]
        if len(bottoms) != 1:
            raise LatticeError("lattice must have a unique minimum")
        return bottoms[0]

    @cached_property
    def irreducible_poset(self):
        return join_irreducibles(self)

    def iota(self, a):
        return birkhoff_iso(self, a)

    def iota_mask(self, a):
        return self.iota(a).bits

    def from_ideal(self, ideal):
        """Inverse of the Birkhoff map: the join of the ideal's members."""
        el = self.minimum
        for p in ideal.members():
            el = self.join(el, p)
        return el

    def from_ideal_mask(self, poset, bits):
        return self.from_ideal(OrderIdeal(poset, bits))

    @cached_property
    def grading(self):
        return grading_of(self)

    def grade(self, a):
        return self.grading.value[a]

    def diamond_pairs(self):
        return diamond_pairs(self)

    def incomparable_pairs(self):
        """Unordered incomparable pairs (a, b), a before b in the canonical order."""
        up, els = self.poset.up, self.elements
        return [(els[i], els[j]) for i in range(len(els)) for j in range(i + 1, len(els))
                if not (up[i] >> j & 1 or up[j] >> i & 1)]

    def weight_key(self, a):
        return a


def lattice_of_ideals(poset):
    """The distributive lattice of all order ideals (join = union, meet = intersection)."""
    ideals = enumerate_order_ideals(poset)
    pos = {ideal.bits: i for i, ideal in enumerate(ideals)}
    lattice_poset = Poset.from_leq(ideals, lambda x, y: x.bits & ~y.bits == 0)
    n = len(ideals)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        a = lattice_poset.elements[i].bits
        for j in range(n):
            b = lattice_poset.elements[j].bits
            join[i][j] = lattice_poset.index(ideals[pos[a | b]])
            meet[i][j] = lattice_poset.index(ideals[pos[a & b]])
    return DistributiveLattice(lattice_poset, join, meet)


def join_irreducibles(lattice):
    """Sub-poset of elements covering exactly one element."""
    poset = lattice.poset
    cover_up = poset.cover_up_masks
    cover_down_count = [0] * len(poset)
    for i in range(len(poset)):
        for j in _bits(cover_up[i]):
            cover_down_count[j] += 1
    ids = [e for i, e in enumerate(poset.elements) if cover_down_count[i] == 1]
    return poset.subposet(ids)


def birkhoff_iso(lattice, a):
    """The order ideal of join-irreducibles below ``a``."""
    irr = lattice.irreducible_poset
    members = [p for p in irr.elements if lattice.leq(p, a)]
    return OrderIdeal.from_members(irr, members)


def grading_of(lattice):
    """Rank function: size of the irreducible ideal below each element."""
    value = {a: len(birkhoff_iso(lattice, a)) for a in lattice.elements}
    if value[lattice.minimum] != 0:
        raise LatticeError("minimum must have grade 0")
    for lo, hi in lattice.poset.cover_pairs():
        if value[hi] != value[lo] + 1:
            raise LatticeError(f"cover {lo!r} -> {hi!r} is not grade-increasing by 1")
    return Grading(value)


def diamond_pairs(lattice):
    """Unordered incomparable pairs {a, b} whose join covers both and which cover their meet."""
    poset = lattice.poset
    cover_up = poset.cover_up_masks
    out = []
    n = len(poset)
    for i in range(n):
        for j in range(i + 1, n):
            if poset.up[i] >> j & 1 or poset.up[j] >> i & 1:
                continue
            jix = lattice._join[i][j]
            mix = lattice._meet[i][j]
            if (cover_up[i] >> jix & 1 and cover_up[j] >> jix & 1
                    and cover_up[mix] >> i & 1 and cover_up[mix] >> j & 1):
                out.append((poset.elements[i], poset.elements[j]))
    return out
