"""The two distributive lattices on Pluecker variables.

Kind ``M``: columns (i_1 < ... < i_k) ordered so that two columns form a
semistandard tableau, with closed meet/join formulas.  Kind ``N``: one-column
PBW-semistandard tableaux with the two-column PBW order.  Both lattices share
the grid of join-irreducible cells (r, s) and the diagonal/off-diagonal
partition that drives the transfer machinery.  By Birkhoff's theorem an
element of either kind is its cell ideal, an order ideal of that grid, so a
``PluckerLattice`` is the ``order_core.IdealLattice`` of the grid's poset
(``_ji_poset``) plus the column codec and the pair classification.  The
column/mask conversions ``m_column_mask``, ``pbw_column_mask``,
``m_column_of_mask`` and ``pbw_column_of_mask`` are the only kind-specific
part of the lattice operations (``PluckerLattice.mask``/``element``), and the
lattice isomorphism goes through them.  A lattice converts an element when
it first meets it and keeps the result; it enumerates all its elements only
when a whole-lattice operation first asks for them, up to n = ``MAX_FULL_N``.  The
column formulas (``semistandard_leq``, ``column_meet``/``column_join``,
``pbw_two_column_leq``, ``m_cell_ideal``, ``pbw_cell_ideal``) are the
references the masks are tested against.
``PluckerLattice.signed_key``/``element_of_key`` are the one codec between an
element and its Pluecker variable (``canonicalize`` and ``pbw_arrange``), and
``key_codes`` reads the mask, element and sign of a variable straight from its key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from . import chain_order
from .order_core import CapacityError, IdealLattice, Poset, check, key_name

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


SIGNED_SORT_MEMO = 1 << 12  # arrangements whose result ``canonicalize`` keeps


def _signed_sort(indices):
    """Sort an index tuple, tracking the permutation sign; repeats give zero (None)."""
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(x > y for i, x in enumerate(indices) for y in indices[i + 1:])
    return -1 if inversions % 2 else 1, tuple(sorted(indices))


# The shuffle kernels meet each arrangement many times, so the signed sort
# keeps its last ``SIGNED_SORT_MEMO`` results; the least recently used leaves first.
canonicalize = lru_cache(maxsize=SIGNED_SORT_MEMO)(_signed_sort)


def pbw_arrange(values):
    """The unique PBW-valid arrangement of a set of distinct entries."""
    vals = sorted(values)
    k = len(vals)
    if len(set(vals)) != k:
        raise ValueError(f"entries must be distinct, got {vals}")
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
    """``{cell: ji_column(cell, n)}`` over ``ji_cells(n)``, built once per n."""
    return {c: ji_column(c, n) for c in ji_cells(n)}


def cell_leq(c1, c2):
    return c1[0] <= c2[0] and c1[1] <= c2[1]


@lru_cache(maxsize=16)
def _ji_poset(n):
    """The poset of join-irreducible cells, built once per n.

    Its canonical positions are the bits of every cell-ideal mask at this n,
    for both kinds.
    """
    return Poset.from_leq(ji_cells(n), cell_leq)


def m_cell_ideal(col, n):
    """Cells (r, s) whose join-irreducible column sits below ``col``."""
    return frozenset(c for c, jc in _ji_columns(n).items() if semistandard_leq(jc, col))


def _pbw_generators(alpha):
    """The diagonal cell (k, k) and the cells (r, alpha_r > r) of a PBW column."""
    k = len(alpha)
    gens = [(r, v) for r, v in enumerate(alpha, start=1) if v > r]
    if k >= 2:
        gens.append((k, k))
    return gens


def pbw_cell_ideal(alpha, n):
    """Down-closure of the generator cells of a PBW column, as a set of cells."""
    gens = _pbw_generators(alpha)
    return frozenset(c for c in ji_cells(n) if any(cell_leq(c, g) for g in gens))


# -- conversions between a column and its cell-ideal mask --------------------
#
# A mask has bit i set when cell ``_ji_poset(n).elements[i]`` lies in the cell
# ideal.  These four functions are the only kind-specific part of the lattice
# operations; ``m_cell_ideal`` and ``pbw_cell_ideal`` are their references.

def _mask_of_cells(gens, n):
    poset = _ji_poset(n)
    return poset.down_closure(poset.mask_of(gens))


def m_column_mask(col, n):
    """Cell-ideal mask of a kind-M column of length k.

    Its generators are the diagonal cell (n - k, n - k) and the cells
    (col_p - p, n + 1 - p) for every entry col_p > p.  The diagonal cell is
    dropped when it is (1, 1), which is not join-irreducible.
    """
    k = len(col)
    gens = [(v - p, n + 1 - p) for p, v in enumerate(col, start=1) if v > p]
    if n - k >= 2:
        gens.append((n - k, n - k))
    return _mask_of_cells(gens, n)


def pbw_column_mask(alpha, n):
    """Cell-ideal mask of a PBW column: the down-closure of its generator cells."""
    return _mask_of_cells(_pbw_generators(alpha), n)


def m_column_of_mask(mask, n):
    """The kind-M column of a cell ideal: the join of its maximal cells' columns."""
    poset, columns = _ji_poset(n), _ji_columns(n)
    col = tuple(range(1, n))  # the minimum, the join of no cells
    for c in poset.ids_of(poset.maximal_of(mask)):
        col = column_join(col, columns[c])
    return col


def pbw_column_of_mask(mask, n):
    """The PBW column of a cell ideal: the diagonal gives the length, maximal cells the entries."""
    poset = _ji_poset(n)
    k = 1
    while k < n - 1 and mask >> poset.index((k + 1, k + 1)) & 1:
        k += 1
    out = list(range(1, k + 1))
    for r, s in poset.ids_of(poset.maximal_of(mask)):
        if r != s:
            out[r - 1] = s
    alpha = tuple(out)
    check(is_pbw_column(alpha, n), f"cell ideal {mask:#x} gives no PBW column: {alpha}")
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


class _KeyCodes(dict):
    """key -> (mask, element, sign) of one lattice's elements, each made on its first lookup.

    The table holds its lattice by a weak reference: a strong one would make
    a reference cycle, and a dropped lattice would then wait for the cyclic
    garbage collector.
    """

    def __init__(self, lattice, arrange):
        import weakref  # loaded at interpreter start; importing it here keeps it off this module's load
        super().__init__()
        self.lattice = weakref.ref(lattice)
        self.arrange = arrange  # key -> element, as ``element_of_key`` would give it from this table

    def __missing__(self, key):
        lat = self.lattice()
        el = self.arrange(key)
        value = self[key] = lat.mask(el), el, lat.signed_key(el)[0]
        return value


class PluckerLattice(IdealLattice):
    """Lattice of Pluecker variables of one kind ('M' or 'N') at a fixed n.

    The ``IdealLattice`` of the grid of join-irreducible cells, with each
    element named by its column instead of its cell-ideal mask: ``mask`` and
    ``element`` convert through the column formulas of the kind and keep
    what they compute, so an element met once is one dict lookup afterwards.
    ``signed_key``/``element_of_key`` name an element's Pluecker variable,
    and ``key_codes[key]`` is ``(mask, element, sign)`` with
    X_element = sign * X_key, for the kernels that work on keys.  Pair-local
    operations (classification, meets, the ideal product) work at any n;
    ``elements`` and the whole-lattice operations built on it enumerate all
    2^n - 2 elements on first use and raise ``CapacityError`` past n = 12.
    """

    def __init__(self, kind, n):
        if kind not in ("M", "N"):
            raise ValueError(f"kind must be 'M' or 'N', got {kind!r}")
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        super().__init__(_ji_poset(n))
        self.kind = kind
        self.n = n
        self._column_mask, self._column_of_mask, self._arrange = (
            (m_column_mask, m_column_of_mask, tuple) if kind == "M"  # an M element is its own key
            else (pbw_column_mask, pbw_column_of_mask, pbw_arrange))
        # element -> (mask, (sign, key)), mask -> element and key -> (mask, element, sign):
        # each filled as its conversion meets a value, and completed by ``elements``
        self._codes, self._element_of, self.key_codes = {}, {}, _KeyCodes(self, self._arrange)
        self.normal_forms = {}  # slot-ordered key pair -> its standard polynomial, see straighten_pair

    @cached_property
    def elements(self):
        """All 2^n - 2 elements by grade, then as tuples; capped at n = ``MAX_FULL_N``."""
        n = self.n
        if n > MAX_FULL_N:
            raise CapacityError(f"full lattice enumeration capped at n = {MAX_FULL_N}")
        keys = all_columns(n)
        columns = [self._arrange(c) for c in keys]
        masks = {c: self._column_mask(c, n) for c in columns}
        check(len(set(masks.values())) == len(masks),
              "distinct elements must have distinct cell ideals")
        if self.kind == "M":
            # Birkhoff: the join-irreducible column of a cell has the cells below it as its ideal
            ji_columns, down = _ji_columns(n), self.ji_poset.down
            for i, c in enumerate(self.ji_poset.elements):
                check(masks[ji_columns[c]] == down[i],
                      f"the ideal of the join-irreducible column of {c} is not its down-set")
        signed = [_signed_sort(c) for c in columns]
        self._codes.update((c, (masks[c], s)) for c, s in zip(columns, signed))
        self._element_of.update((m, e) for e, m in masks.items())
        self.key_codes.update((k, (masks[c], c, s[0])) for k, c, s in zip(keys, columns, signed))
        return tuple(sorted(columns, key=lambda e: (masks[e].bit_count(), e)))

    def __len__(self):
        return 2 ** self.n - 2

    def __repr__(self):
        return f"PluckerLattice(kind={self.kind!r}, n={self.n})"

    def __contains__(self, el):
        if el in self._codes:
            return True
        if not isinstance(el, tuple) or not 1 <= len(el) <= self.n - 1:
            return False
        # distinct entries in range, arranged as the element of their key
        return (len(set(el)) == len(el) and all(1 <= v <= self.n for v in el)
                and self._arrange(tuple(sorted(el))) == el)

    def check_element(self, el):
        if el not in self:
            raise ValueError(f"{el!r} is not an element of {self!r}")
        return el

    def _code(self, el):
        """``(mask, (sign, key))`` of an element, kept once made; ``ValueError`` for anything else."""
        code = self._codes.get(el)
        if code is None:
            mask = self._column_mask(self.check_element(el), self.n)
            code = self._codes[el] = mask, _signed_sort(el)
        return code

    def mask(self, el):
        """The cell-ideal mask of an element; ``ValueError`` for anything else."""
        return self._code(el)[0]

    def element(self, bits):
        """The element whose cell ideal is ``bits``; ``ValueError`` unless it is an order ideal."""
        el = self._element_of.get(bits)
        if el is None:
            if not self.ji_poset.is_down_closed(bits):
                raise ValueError(f"cells {self.ji_poset.ids_of(bits)} are not an order ideal")
            el = self._element_of[bits] = self._column_of_mask(bits, self.n)
        return el

    # perfbench names a method's span by the class whose namespace holds it,
    # so the two pair scans are bound here too and keep their names here
    incomparable_pairs = IdealLattice.incomparable_pairs
    diamond_pairs = IdealLattice.diamond_pairs

    def _cell_bit(self, cell):
        return 1 << self.ji_poset.index(cell)

    @cached_property
    def partition(self):
        """Diagonal cells are order elements, off-diagonal cells chain elements."""
        diag = [c for c in ji_cells(self.n) if c[0] == c[1]]
        off = [c for c in ji_cells(self.n) if c[0] != c[1]]
        return chain_order.ChainOrderPartition.from_sets(self.ji_poset, diag, off)

    def meet_or_product(self, a, b):
        """The lower factor heading the straightening law of a, b: the meet (M), a . b (N)."""
        if self.kind == "M":
            return self.meet(a, b)
        return chain_order.odot_elements(self, self.partition, a, b)

    # -- the Pluecker-variable codec -----------------------------------

    def signed_key(self, el):
        """``(sign, key)`` with X_el = sign * X_key, ``key`` the increasing column of el."""
        return self._code(el)[1]

    def weight_key(self, a):
        """Canonical Pluecker-variable key shared by both lattices."""
        return self.signed_key(a)[1]

    def element_of_key(self, key):
        """The element whose Pluecker variable has the canonical key ``key``."""
        return self.key_codes[key][1]

    def hasse_json_obj(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "elements": [key_name(e) for e in self.elements],
            "covers": [[key_name(a), key_name(b)] for a, b in self.cover_pairs()],
        }

    # -- classification ------------------------------------------------

    def classify_pair(self, a, b):
        ma, mb = self.mask(a), self.mask(b)  # ValueError unless both are elements
        if a == b:
            raise ComparablePairError("pair elements must be distinct")
        if ma & ~mb == 0 or mb & ~ma == 0:
            raise ComparablePairError(f"{a!r} and {b!r} are comparable")
        meet, join = self.element(ma & mb), self.element(ma | mb)
        grade = ma.bit_count()
        is_diamond = (mb.bit_count() == grade
                      and (ma | mb).bit_count() == grade + 1
                      and (ma & mb).bit_count() == grade - 1)
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
            check(len(diff) == 2, "equal-length diamond pairs differ in exactly two slots")
            r1, r2 = diff
            i, j = (a, b) if a[r1] == b[r1] - 1 else (b, a)
            check(i[r1] == j[r1] - 1 and i[r2] == j[r2] + 1,
                  "equal-length diamond pairs trade one step between two slots")
            special = r2 == r1 + 1 and j[r1] == j[r2] - 1
            p1 = i[:r1 + 1] + (j[r1],) + i[r1 + 1:r2] + i[r2 + 1:]
            q1 = j[:r1] + j[r1 + 1:r2 + 1] + (i[r2],) + j[r2 + 1:]
        else:
            check(len(a) == len(b) + 1 and a[-1] == n,
                  "mixed-length diamond pairs differ in length by one, the longer ending in n")
            diff = [r for r in range(len(b)) if a[r] != b[r]]
            check(len(diff) == 1, "mixed-length diamond pairs differ in exactly one slot")
            r1 = diff[0]
            i, j = a, b
            check(i[r1] == j[r1] + 1, "mixed-length diamond pairs differ by one step")
            special = r1 == len(b) - 1 and j[r1] == n - 2
            p1 = i[:r1] + (j[r1], i[r1]) + i[r1 + 1:-1]
            q1 = j[:r1] + j[r1 + 1:] + (n,)
        check(p1 == tuple(sorted(p1)) and q1 == tuple(sorted(q1)),
              "the third-monomial factors are columns")
        verdict = "diamond_special" if special else "diamond_plain"
        if special:
            self._check_special_ideals(a, b, meet, join, p1, q1)
        return PairClassification(verdict, (a, b), meet, join, below=p1, above=q1)

    def _added_cells(self, a, b, meet):
        """The cells that ``a`` and ``b`` of a diamond pair add to their meet, the larger first."""
        cells = self.ji_poset.elements
        mm = self.mask(meet)
        added = [cells[(self.mask(x) & ~mm).bit_length() - 1] for x in (a, b)]
        return sorted(added, reverse=True)

    def _check_special_ideals(self, a, b, meet, join, p1, q1):
        """Cross-check the tuple formulas against the cell-ideal description."""
        (s, t), (u, v) = self._added_cells(a, b, meet)
        check((u, v) == (s - 1, t + 1), "special pairs add a diagonally adjacent cell pair")
        check(self.mask(p1) == self.mask(meet) & ~self._cell_bit((s - 1, t)),
              "the lower factor of a special pair drops the cell under the added square")
        check(self.mask(q1) == self.mask(join) | self._cell_bit((s, t + 1)),
              "the upper factor of a special pair adds the cell right of the added square")

    def _classify_n(self, a, b, meet, join):
        below = chain_order.odot_elements(self, self.partition, a, b)
        (s, t), (u, v) = self._added_cells(a, b, meet)
        special = (u, v) == (s - 1, t + 1)
        if not special:
            return PairClassification("diamond_plain", (a, b), meet, join, below=below)
        check(self.mask(below) == self.mask(meet) & ~self._cell_bit((s - 1, t)),
              "ideal product of a special pair drops the cell under the added square")
        above = self.element(self.mask(join) | self._cell_bit((s, t + 1)))
        return PairClassification("diamond_special", (a, b), meet, join,
                                  below=below, above=above, companion=meet)


def semistandard_lattice(n):
    return PluckerLattice("M", n)


def pbw_lattice(n):
    return PluckerLattice("N", n)


def ssyt_to_pbw(mlat, a):
    """The lattice isomorphism from kind M to kind N: the PBW column of the same cell ideal."""
    if mlat.kind != "M":
        raise ValueError(f"ssyt_to_pbw maps from a kind-M lattice, got {mlat!r}")
    return pbw_column_of_mask(mlat.mask(a), mlat.n)


def pbw_to_ssyt(nlat, alpha):
    """Inverse isomorphism: the kind-M column of the same cell ideal."""
    if nlat.kind != "N":
        raise ValueError(f"pbw_to_ssyt maps from a kind-N lattice, got {nlat!r}")
    return m_column_of_mask(nlat.mask(alpha), nlat.n)
