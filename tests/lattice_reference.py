"""Table-based reference lattices, for tests of the mask-based ``IdealLattice``.

A ``DistributiveLattice`` holds its join and meet as full tables over a poset
and checks the lattice and distributivity axioms when it is built, fully for
at most ``FULL_AXIOM_LIMIT`` elements and on ``AXIOM_SAMPLES`` seeded random
triples above that.  The Birkhoff data (``join_irreducibles``,
``birkhoff_iso``, ``grading_of``) and ``diamond_pairs`` are computed from the
tables alone, so they are independent of the library's bitmask formulas.  A
``DistributiveLattice`` has the element codec of ``IdealLattice``
(``ji_poset``, ``mask`` and ``element``), and ``cell_ideal`` and
``element_of_cell_ideal`` read any lattice's codec as sets of join-irreducibles.
"""

import random
from functools import cached_property

from plueckerfan.order_core import OrderIdeal, Poset, _bits, enumerate_order_ideals

FULL_AXIOM_LIMIT = 64
AXIOM_SAMPLES = 1000


class LatticeError(ValueError):
    pass


class DistributiveLattice:
    """Finite distributive lattice: a poset plus join/meet tables, axioms checked on construction."""

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
    def ji_poset(self):
        return join_irreducibles(self)

    def iota(self, a):
        return birkhoff_iso(self, a)

    def from_ideal(self, ideal):
        """Inverse of the Birkhoff map: the join of the ideal's members."""
        el = self.minimum
        for p in ideal.members():
            el = self.join(el, p)
        return el

    def mask(self, a):
        return self.iota(a).bits

    def element(self, bits):
        return self.from_ideal(OrderIdeal(self.ji_poset, bits))

    @cached_property
    def grading(self):
        return grading_of(self)

    def grade(self, a):
        return self.grading[a]

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


def to_distributive_lattice(lattice):
    """The table form of a lattice with ``elements``, ``leq``, ``join`` and ``meet``."""
    poset = Poset.from_leq(lattice.elements, lattice.leq)
    n = len(poset)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i, a in enumerate(poset.elements):
        for j, b in enumerate(poset.elements):
            join[i][j] = poset.index(lattice.join(a, b))
            meet[i][j] = poset.index(lattice.meet(a, b))
    return DistributiveLattice(poset, join, meet)


def join_irreducibles(lattice):
    """Sub-poset of elements covering exactly one element."""
    poset = lattice.poset
    cover_up = poset.cover_up_masks
    cover_down_count = [0] * len(poset)
    for i in range(len(poset)):
        for j in _bits(cover_up[i]):
            cover_down_count[j] += 1
    ids = [e for i, e in enumerate(poset.elements) if cover_down_count[i] == 1]
    return Poset.from_leq(ids, poset.leq)


def birkhoff_iso(lattice, a):
    """The order ideal of join-irreducibles below ``a``."""
    irr = lattice.ji_poset
    members = [p for p in irr.elements if lattice.leq(p, a)]
    return OrderIdeal.from_members(irr, members)


def grading_of(lattice):
    """Rank function, element -> size of the irreducible ideal below it, checked on every cover."""
    value = {a: len(birkhoff_iso(lattice, a)) for a in lattice.elements}
    if value[lattice.minimum] != 0:
        raise LatticeError("minimum must have grade 0")
    for lo, hi in lattice.poset.cover_pairs():
        if value[hi] != value[lo] + 1:
            raise LatticeError(f"cover {lo!r} -> {hi!r} is not grade-increasing by 1")
    return value


def cell_ideal(lattice, a):
    """The join-irreducibles below ``a`` as a set, read from the lattice's ``mask``."""
    return frozenset(lattice.ji_poset.ids_of(lattice.mask(a)))


def element_of_cell_ideal(lattice, cells):
    """The element whose ideal of join-irreducibles is the set ``cells``, through ``element``."""
    return lattice.element(lattice.ji_poset.mask_of(cells))


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
