"""The two distributive lattices on Pluecker variables.

Kind ``M``: columns (i_1 < ... < i_k) ordered so that two columns form a
semistandard tableau, with closed meet/join formulas.  Kind ``N``: one-column
PBW-semistandard tableaux with the two-column PBW order.  Both lattices share
the grid of join-irreducible cells (r, s) and the diagonal/off-diagonal
partition that drives the transfer machinery.  Elements of both kinds are
determined by their cell ideals, and the lattice isomorphism goes through
them: ``m_column_of_ideal`` and ``pbw_column_of_ideal`` are the one
conversion from a cell ideal back to a column of each kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from . import chain_order
from .order_core import CapacityError, DistributiveLattice, Grading, OrderIdeal, Poset

MAX_FULL_N = 12


class ComparablePairError(ValueError):
    """The requested operation needs an incomparable pair."""


# -- column combinatorics (kind M) --------------------------------------

def semistandard_leq(a, b):
    """Column a is below column b: a is at least as long and entrywise <= along b."""
    return len(a) >= len(b) and all(x <= y for x, y in zip(a, b))


def column_meet(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(min(x, y) for x, y in zip(a, b)) + a[len(b):]


def column_join(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(max(x, y) for x, y in zip(a, b))


def column_grade(col, n):
    k = len(col)
    return sum(col) - k * (k + 1) // 2 + (n - k) * (n - k + 1) // 2 - 1


def all_columns(n):
    out = []
    for k in range(1, n):
        out.extend(tuple(c) for c in combinations(range(1, n + 1), k))
    return out


# -- PBW columns (kind N) ------------------------------------------------

def is_pbw_column(alpha, n):
    k = len(alpha)
    if not 1 <= k <= n - 1 or len(set(alpha)) != k:
        return False
    big_positions = []
    for r, v in enumerate(alpha, start=1):
        if not 1 <= v <= n:
            return False
        if v <= k:
            if v != r:
                return False
        else:
            big_positions.append(v)
    return all(x > y for x, y in zip(big_positions, big_positions[1:]))


def pbw_arrange(values):
    """The unique PBW-valid arrangement of a set of distinct entries."""
    vals = sorted(values)
    k = len(vals)
    assert len(set(vals)) == k, "entries must be distinct"
    out = [0] * k
    big = [v for v in vals if v > k]
    for v in vals:
        if v <= k:
            out[v - 1] = v
    big.sort(reverse=True)
    it = iter(big)
    for i in range(k):
        if out[i] == 0:
            out[i] = next(it)
    return tuple(out)


def pbw_two_column_leq(alpha, beta):
    """True when columns (alpha, beta), in that order, form a PBW-semistandard tableau.

    Equivalently the element labelled beta is below the element labelled alpha.
    Only entries beta_r exceeding len(beta) need a witness alpha_s >= beta_r
    with s >= r; the rest hold automatically.
    """
    k, l = len(alpha), len(beta)
    if k < l:
        return False
    for r in range(l):
        br = beta[r]
        if br <= l:
            continue
        if not any(alpha[s] >= br for s in range(r, k)):
            return False
    return True


# -- join-irreducible cells ----------------------------------------------

def ji_cells(n):
    """Grid coordinates (r, s), 1 <= r <= s <= n, minus the two corner cells."""
    return [(r, s) for s in range(1, n + 1) for r in range(1, s + 1)
            if (r, s) not in ((1, 1), (n, n))]


def ji_column(cell, n):
    """The kind-M join-irreducible column attached to cell (r, s)."""
    r, s = cell
    gap = range(n - s + 1, n + r - s + 1)
    return tuple(i for i in range(1, n + 1) if i not in gap)


@lru_cache(maxsize=16)
def _ji_columns(n):
    """The pairs (cell, ji_column(cell, n)) over ``ji_cells(n)``, built once per n."""
    return tuple((c, ji_column(c, n)) for c in ji_cells(n))


def cell_leq(c1, c2):
    return c1[0] <= c2[0] and c1[1] <= c2[1]


def pbw_label(col, n):
    """PBW column attached to a kind-M column: the one with the same cell ideal."""
    return pbw_column_of_ideal(m_cell_ideal(col, n), n)


def m_cell_ideal(col, n):
    """Cells (r, s) whose join-irreducible column sits below ``col``."""
    return frozenset(c for c, jc in _ji_columns(n) if semistandard_leq(jc, col))


def pbw_cell_ideal(alpha, n):
    """Down-closure of the diagonal cell (k, k) and the cells (r, alpha_r > r)."""
    k = len(alpha)
    gens = [(r, v) for r, v in enumerate(alpha, start=1) if v > r]
    if k >= 2:
        gens.append((k, k))
    return frozenset(c for c in ji_cells(n) if any(cell_leq(c, g) for g in gens))


def _maximal_cells(cells):
    return [c for c in cells
            if (c[0] + 1, c[1]) not in cells and (c[0], c[1] + 1) not in cells]


def m_column_of_ideal(cells, n):
    """Recover the kind-M column from its cell ideal: the join of its cells' columns."""
    col = None
    for c in cells:
        jc = ji_column(c, n)
        col = jc if col is None else column_join(col, jc)
    return col if col is not None else tuple(range(1, n))


def pbw_column_of_ideal(cells, n):
    """Recover the PBW column from its cell ideal: maximal cells give the entries."""
    k = 1
    while (k + 1, k + 1) in cells:
        k += 1
    out = list(range(1, k + 1))
    for r, s in _maximal_cells(cells):
        if r != s:
            out[r - 1] = s
    alpha = tuple(out)
    assert is_pbw_column(alpha, n), alpha
    return alpha


# -- the lattices ---------------------------------------------------------

@dataclass(frozen=True)
class PairClassification:
    """Diamond/special classification together with the extra straightening elements.

    ``below``/``above`` are the third-monomial factors: for kind M any diamond
    pair carries them; for kind N ``below`` is the ideal product of the pair,
    with ``above`` and ``companion`` (the meet) filled on special pairs only.
    """

    verdict: str          # 'not_diamond' | 'diamond_plain' | 'diamond_special'
    pair: tuple
    meet: object
    join: object
    below: object = None
    above: object = None
    companion: object = None


class PluckerLattice:
    """Lattice of Pluecker variables of one kind ('M' or 'N') at a fixed n.

    The materialized form (the default) enumerates all 2^n - 2 elements and
    is capped at n = 12; ``lazy_lattice`` skips the enumeration so pair-local
    operations (classification, meets, the ideal product) work at any n.
    """

    def __init__(self, kind, n, materialize=True):
        if kind not in ("M", "N"):
            raise ValueError(f"kind must be 'M' or 'N', got {kind!r}")
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        if materialize and n > MAX_FULL_N:
            raise CapacityError(f"full lattice construction capped at n = {MAX_FULL_N}")
        self.kind = kind
        self.n = n
        self.materialized = materialize
        self._ideal_cache = {}
        if not materialize:
            self.elements = None
            self._pos = None
            self._grade = None
            return
        if kind == "M":
            elems = all_columns(n)
            self._grade = {c: column_grade(c, n) for c in elems}
        else:
            elems = [pbw_arrange(c) for c in all_columns(n)]
            self._grade = {a: len(pbw_cell_ideal(a, n)) for a in elems}
        self.elements = tuple(sorted(elems, key=lambda e: (self._grade[e], e)))
        self._pos = {e: i for i, e in enumerate(self.elements)}
        if kind == "N":
            self._ideal_cache = {a: pbw_cell_ideal(a, n) for a in self.elements}

    def __len__(self):
        return 2 ** self.n - 2

    def __repr__(self):
        return f"PluckerLattice(kind={self.kind!r}, n={self.n})"

    def _is_element(self, el):
        if self._pos is not None:
            return el in self._pos
        if not isinstance(el, tuple) or not 1 <= len(el) <= self.n - 1:
            return False
        if self.kind == "M":
            return (all(1 <= v <= self.n for v in el)
                    and all(x < y for x, y in zip(el, el[1:])))
        return is_pbw_column(el, self.n)

    def __contains__(self, el):
        return self._is_element(el)

    def check_element(self, el):
        if not self._is_element(el):
            raise ValueError(f"{el!r} is not an element of {self!r}")
        return el

    def grade(self, a):
        if self._grade is not None:
            return self._grade[self.check_element(a)]
        self.check_element(a)
        return column_grade(a, self.n) if self.kind == "M" else len(self.cell_ideal(a))

    def leq(self, a, b):
        self.check_element(a), self.check_element(b)
        if self.kind == "M":
            return semistandard_leq(a, b)
        return pbw_two_column_leq(b, a)

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    def _pbw_ideal(self, a):
        if a not in self._ideal_cache:
            self._ideal_cache[a] = pbw_cell_ideal(a, self.n)
        return self._ideal_cache[a]

    def meet(self, a, b):
        if self.kind == "M":
            self.check_element(a), self.check_element(b)
            return column_meet(a, b)
        return pbw_column_of_ideal(self._pbw_ideal(a) & self._pbw_ideal(b), self.n)

    def join(self, a, b):
        if self.kind == "M":
            self.check_element(a), self.check_element(b)
            return column_join(a, b)
        return pbw_column_of_ideal(self._pbw_ideal(a) | self._pbw_ideal(b), self.n)

    @property
    def minimum(self):
        return tuple(range(1, self.n)) if self.kind == "M" else (1,)

    @property
    def maximum(self):
        if self.kind == "M":
            return (self.n,)
        return pbw_arrange(tuple(range(1, self.n - 1)) + (self.n,))

    def cell_ideal(self, a):
        """Join-irreducible cells below ``a`` as a set of (r, s) pairs."""
        if self.kind == "M":
            return m_cell_ideal(self.check_element(a), self.n)
        return self._pbw_ideal(self.check_element(a))

    def element_of_cell(self, cell):
        if self.kind == "M":
            return ji_column(cell, self.n)
        return pbw_column_of_ideal(frozenset(
            c for c in ji_cells(self.n) if cell_leq(c, cell)), self.n)

    def element_of_cell_ideal(self, cells):
        if self.kind == "N":
            return pbw_column_of_ideal(frozenset(cells), self.n)
        return m_column_of_ideal(cells, self.n)

    @cached_property
    def ji_poset(self):
        return Poset.from_leq(ji_cells(self.n), cell_leq)

    @cached_property
    def partition(self):
        """Diagonal cells are order elements, off-diagonal cells chain elements."""
        diag = [c for c in ji_cells(self.n) if c[0] == c[1]]
        off = [c for c in ji_cells(self.n) if c[0] != c[1]]
        return chain_order.ChainOrderPartition.from_sets(self.ji_poset, diag, off)

    def iota(self, a):
        return OrderIdeal.from_members(self.ji_poset, self.cell_ideal(a))

    def from_ideal(self, ideal):
        return self.element_of_cell_ideal(ideal.members())

    def covers(self, a, b):
        return self.grade(b) == self.grade(a) + 1 and self.leq(a, b)

    @cached_property
    def _levels(self):
        levels = {}
        for e in self.elements:
            levels.setdefault(self._grade[e], []).append(e)
        return levels

    def cover_pairs(self):
        out = []
        for g, level in sorted(self._levels.items()):
            for a in level:
                for b in self._levels.get(g + 1, ()):
                    if self.leq(a, b):
                        out.append((a, b))
        return out

    def incomparable_pairs(self):
        out = []
        for i, a in enumerate(self.elements):
            for b in self.elements[i + 1:]:
                if not self.comparable(a, b):
                    out.append((a, b))
        return out

    def diamond_pairs(self):
        # a diamond pair sits inside one grade level, so only same-level pairs qualify
        out = []
        for _, level in sorted(self._levels.items()):
            for i, a in enumerate(level):
                for b in level[i + 1:]:
                    if self.comparable(a, b):
                        continue
                    if (self.grade(self.join(a, b)) == self.grade(a) + 1
                            and self.grade(self.meet(a, b)) == self.grade(a) - 1):
                        out.append((a, b))
        return out

    def odot(self, a, b):
        return chain_order.odot_elements(self, self.partition, a, b)

    def weight_key(self, a):
        """Canonical Pluecker-variable key shared by both lattices."""
        return a if self.kind == "M" else tuple(sorted(a))

    def element_of_key(self, key):
        return key if self.kind == "M" else pbw_arrange(key)

    def grading(self):
        return Grading(dict(self._grade))

    def to_distributive_lattice(self):
        poset = Poset.from_leq(self.elements, self.leq)
        n = len(self.elements)
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i, a in enumerate(poset.elements):
            for j, b in enumerate(poset.elements):
                join[i][j] = poset.index(self.join(a, b))
                meet[i][j] = poset.index(self.meet(a, b))
        return DistributiveLattice(poset, join, meet)

    def hasse_json_obj(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "elements": [",".join(map(str, e)) for e in self.elements],
            "covers": [
                [",".join(map(str, a)), ",".join(map(str, b))]
                for a, b in self.cover_pairs()
            ],
        }

    # -- classification ------------------------------------------------

    def classify_pair(self, a, b):
        self.check_element(a), self.check_element(b)
        if a == b:
            raise ComparablePairError("pair elements must be distinct")
        if self.comparable(a, b):
            raise ComparablePairError(f"{a!r} and {b!r} are comparable")
        meet, join = self.meet(a, b), self.join(a, b)
        is_diamond = (self.grade(a) == self.grade(b)
                      and self.grade(join) == self.grade(a) + 1
                      and self.grade(meet) == self.grade(a) - 1)
        if not is_diamond:
            return PairClassification("not_diamond", (a, b), meet, join)
        if self.kind == "M":
            return self._classify_m(a, b, meet, join)
        return self._classify_n(a, b, meet, join)

    def _classify_m(self, a, b, meet, join):
        n = self.n
        if len(a) < len(b):
            a, b = b, a
        if len(a) == len(b):
            diff = [r for r in range(len(a)) if a[r] != b[r]]
            assert len(diff) == 2, "equal-length diamond pairs differ in exactly two slots"
            r1, r2 = diff
            i, j = (a, b) if a[r1] == b[r1] - 1 else (b, a)
            assert i[r1] == j[r1] - 1 and i[r2] == j[r2] + 1
            special = r2 == r1 + 1 and j[r1] == j[r2] - 1
            p1 = i[:r1 + 1] + (j[r1],) + i[r1 + 1:r2] + i[r2 + 1:]
            q1 = j[:r1] + j[r1 + 1:r2 + 1] + (i[r2],) + j[r2 + 1:]
        else:
            assert len(a) == len(b) + 1 and a[-1] == n
            diff = [r for r in range(len(b)) if a[r] != b[r]]
            assert len(diff) == 1, "mixed-length diamond pairs differ in exactly one slot"
            r1 = diff[0]
            i, j = a, b
            assert i[r1] == j[r1] + 1
            special = r1 == len(b) - 1 and j[r1] == n - 2
            p1 = i[:r1] + (j[r1], i[r1]) + i[r1 + 1:-1]
            q1 = j[:r1] + j[r1 + 1:] + (n,)
        assert p1 == tuple(sorted(p1)) and q1 == tuple(sorted(q1))
        verdict = "diamond_special" if special else "diamond_plain"
        if special:
            self._check_special_ideals(a, b, meet, join, p1, q1)
        return PairClassification(verdict, (a, b), meet, join, below=p1, above=q1)

    def _check_special_ideals(self, a, b, meet, join, p1, q1):
        """Cross-check the tuple formulas against the cell-ideal description."""
        ia, ib, im = self.cell_ideal(a), self.cell_ideal(b), self.cell_ideal(meet)
        (s, t), (u, v) = sorted([next(iter(ia - im)), next(iter(ib - im))], reverse=True)
        assert (u, v) == (s - 1, t + 1), "special pairs add a diagonally adjacent cell pair"
        assert self.cell_ideal(p1) == im - {(s - 1, t)}
        assert self.cell_ideal(q1) == self.cell_ideal(join) | {(s, t + 1)}

    def _classify_n(self, a, b, meet, join):
        ia, ib, im = self.cell_ideal(a), self.cell_ideal(b), self.cell_ideal(meet)
        below = self.odot(a, b)
        (s, t), (u, v) = sorted([next(iter(ia - im)), next(iter(ib - im))], reverse=True)
        special = (u, v) == (s - 1, t + 1)
        if not special:
            return PairClassification("diamond_plain", (a, b), meet, join, below=below)
        assert self.cell_ideal(below) == im - {(s - 1, t)}, \
            "ideal product of a special pair drops the cell under the added square"
        above = self.element_of_cell_ideal(self.cell_ideal(join) | {(s, t + 1)})
        return PairClassification("diamond_special", (a, b), meet, join,
                                  below=below, above=above, companion=meet)


def semistandard_lattice(n):
    return PluckerLattice("M", n)


def pbw_lattice(n):
    return PluckerLattice("N", n)


def lazy_lattice(kind, n):
    """Unmaterialized lattice: pair-local operations at sizes past the full cap."""
    return PluckerLattice(kind, n, materialize=False)


def ssyt_to_pbw(mlat, a):
    """The lattice isomorphism from kind M to kind N."""
    assert mlat.kind == "M"
    return pbw_label(mlat.check_element(a), mlat.n)


def pbw_to_ssyt(nlat, alpha):
    """Inverse isomorphism: rebuild the column from the PBW cell ideal."""
    assert nlat.kind == "N"
    return m_column_of_ideal(nlat.cell_ideal(alpha), nlat.n)
