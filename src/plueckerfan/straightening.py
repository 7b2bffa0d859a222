"""Exact straightening machinery for Pluecker relations.

Polynomials are sparse maps from canonical monomials to nonzero exact
coefficients: a coefficient is an ``int`` while it is integral, and a
``Fraction`` only where a division by a shuffle lead is not whole (every
shuffle lead met for n <= 7 is +-1, so straightening stays in ``int``).
A monomial is a sorted tuple of canonical columns (strictly increasing index
tuples); sign normalization absorbs column reorderings into coefficients.
The module provides the shuffle relations, with the classical exchange
relations as a view of them, straightening against either lattice order,
Hibi and generalized Hibi binomials with their monomial-map exponents,
ideal membership by minor evaluation (an exact symbolic expansion or seeded
evaluation) and the standard-basis rank check.

Lattice elements and canonical columns meet only in the lattice's codec
(``mask``, ``signed_key``, ``element_of_key``, ``key_codes``; ``canonicalize``
lives beside it in ``plucker_lattices``), and the one standardness rule is
that a monomial's factors are pairwise comparable: their cell masks, found by
key, nest.  ``is_standard_monomial`` states it; straightening applies it inline.
The pivot is the only rule of straightening that depends on the lattice
kind: the first slot where the semistandard or the PBW order fails.

One shuffle core, summing over cosets rather than permutations, serves both
``shuffle_relation`` (so ``exchange_relation``) and straightening.  It takes
both sides of every coset from ``combinations`` and sorts each arrangement
through ``canonicalize``, a bounded ``lru_cache`` of the signed sort.
Straightening is the straightening law of the Hodge algebra as one memoised
rule: a non-standard pair's normal form is the rest of the shuffle at its
pivot over minus its coefficient there, each non-standard term replaced by
its own normal form, which the lattice keeps; a cycle is an
``InvariantError``.  The evaluation oracles (probabilistic membership and
the standard-basis rank check) read products of top-justified minors from
one minor table per random matrix.  A table computes a minor on first use
and keeps it: a column of at most four entries by expansion along its last
row over the table's own shorter minors, a longer one by ``minor_mod_p``.
The first ``_KEPT_DRAWS`` (128) tables of a seed are the only ones there
are; they are kept behind a small bounded cache and shared between calls,
and a request for more is a ``CapacityError``.  Membership evaluates the
whole relation in one loop over its tables and terms: ``int`` coefficients
are reduced as they are, a table's sum is reduced once, and the loop stops
at the first table where the relation does not vanish.  The symbolic oracle
expands minors along the same last row, over cells instead of entries.

The rank check runs one forward elimination over the oracle prime, with
early exit at full rank; the standard-expansion solve of the test reference
back-substitutes over its pivot rows.  The rank check works one torus-weight
block at a time (the ideal is homogeneous for ``wt_vector``); a block's rank
does not depend on the lattice kind, so it is taken once for both.
``weyl_dimension`` gives the size of each multidegree component as a third,
independent count.  Modular inverses are taken in one step,
``pow(x, -1, p)``; ``minor_mod_p`` takes one per minor, after a
fraction-free elimination.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement

from .chain_order import k_set, odot_elements
from .order_core import CapacityError, InvariantError, check
from .plucker_lattices import ComparablePairError, canonicalize

ORACLE_PRIME = (1 << 62) - 57  # 62-bit prime
SYMBOLIC_DEGREE_LIMIT = 3
SYMBOLIC_N_LIMIT = 6
RANK_N_LIMIT = 6


class ShapeError(ValueError):
    pass


# -- canonical monomials ----------------------------------------------------

def monomial(columns):
    """Canonical monomial: columns sorted by (length descending, entries)."""
    return tuple(sorted(columns, key=lambda c: (-len(c), c)))


def wt_vector(mono, n):
    """Multiplicity of each index 1..n across all factors."""
    out = [0] * n
    for col in mono:
        for i in col:
            out[i - 1] += 1
    return tuple(out)


def poly_add_term(poly, mono, coeff):
    c = poly.get(mono, 0) + coeff
    if c:
        poly[mono] = c
    else:
        poly.pop(mono, None)


def _signature(mono):
    """The factor lengths and the entries of a monomial, each sorted.

    Two monomials share their multiset of factor lengths and their
    ``wt_vector`` exactly when they share this one value.
    """
    if len(mono) == 2:  # every straightening term
        x, y = mono
        return (len(x), len(y)) if len(x) <= len(y) else (len(y), len(x)), sorted(x + y)
    return tuple(sorted(map(len, mono))), sorted(chain.from_iterable(mono))


def assert_bihomogeneous(poly):
    signatures = map(_signature, poly)
    first = next(signatures, None)
    for signature in signatures:
        if signature != first:
            raise InvariantError("relation is not deg/wt homogeneous")


def relation_json_obj(poly):
    terms = []
    for mono in sorted(poly):
        terms.append({"coeff": str(Fraction(poly[mono])), "factors": [list(c) for c in mono]})
    return {"terms": terms}


# -- classical relation generators ----------------------------------------

@lru_cache(maxsize=None)
def _coset_signs(m, r):
    """(-1)^(sum(chosen) - r(r-1)/2) for each r-subset ``chosen`` of range(m), lexicographically."""
    offset = r * (r - 1) // 2
    return tuple(-1 if (sum(chosen) - offset) % 2 else 1 for chosen in combinations(range(m), r))


def _shuffle_sums(first, second, r):
    """Alternating shuffle of second[:r] with first[r-1:], one term per coset.

    The alternating sum over all (k+1)! arrangements of the k+1 symbols
    visits each shuffle (the choice of which r symbols land in the first r
    slots of ``second``) r!(k+1-r)! times with one sign; this core visits
    each once, with sign (-1)^(sum(chosen) - r(r-1)/2).  Keys are pairs of
    canonical columns (new first, new second), values nonzero integers.
    The complements of the r-subsets in lexicographic order are the
    (k+1-r)-subsets in reverse lexicographic order, so both sides of every
    coset come from ``combinations``; a chosen part that repeats an index
    annihilates its coset before the rest is sorted.
    """
    m = len(first) + 1
    symbols = second[:r] + first[r - 1:]
    head, tail = first[:r - 1], second[r:]
    rests = list(combinations(symbols, m - r))
    rests.reverse()
    out = {}
    for chosen, rest, sign in zip(combinations(symbols, r), rests, _coset_signs(m, r)):
        cb = canonicalize(chosen + tail)
        if cb is None:
            continue
        ca = canonicalize(head + rest)
        if ca is None:
            continue
        key = (ca[1], cb[1])
        c = out.get(key, 0) + sign * ca[0] * cb[0]
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _quotient(c, lead):
    """c / lead exactly: an ``int`` when ``lead`` divides ``c``, else a ``Fraction``."""
    return c // lead if c % lead == 0 else Fraction(c, lead)


def shuffle_relation(col_a, col_b, r, n=None):
    """Alternating shuffle of {B_1..B_r} with {A_r..A_k}, cosets merged.

    Normalized so the coefficient of the canonical monomial X_A X_B is one;
    degenerate inputs whose shuffles all annihilate give the zero polynomial.
    With ``n`` every index must lie in 1..n.
    """
    k, l = len(col_a), len(col_b)
    if k < l:
        raise ShapeError("first column must be at least as long")
    if not 1 <= r <= l:
        raise ShapeError(f"shuffle position {r} out of range")
    if n is not None and not all(1 <= i <= n for i in col_a + col_b):
        raise ValueError(f"index out of range in {col_a}, {col_b}")
    poly = {}
    for (ca, cb), c in _shuffle_sums(col_a, col_b, r).items():
        poly_add_term(poly, monomial((ca, cb)), c)
    lead = poly.get(monomial((tuple(sorted(col_a)), tuple(sorted(col_b)))))
    if lead:
        poly = {m: _quotient(c, lead) for m, c in poly.items()}
    if n is not None:
        assert_bihomogeneous(poly)
    return poly


def exchange_relation(col_a, col_b, r, n=None):
    """X_A X_B minus the sum exchanging B_r into every slot of A, as a view of the shuffle core.

    Moving B_r to the front of B makes it the shuffle relation at position 1,
    normalized like ``shuffle_relation`` on the sorted monomial X_A X_B.
    Requires len(A) >= len(B) and 1 <= r <= len(B).
    """
    if not 1 <= r <= len(col_b):
        raise ShapeError(f"exchange position {r} out of range")
    return shuffle_relation(col_a, (col_b[r - 1],) + col_b[:r - 1] + col_b[r:], 1, n)


# -- straightening -------------------------------------------------------

def _pivot_m(first, second):
    """First slot r (1-based) where the semistandard order fails: first[r] > second[r]."""
    for r in range(len(second)):
        if first[r] > second[r]:
            return r + 1
    return None


def _pivot_n(alpha, beta):
    """First slot r (1-based) where the PBW order fails: beta[r] exceeds all of alpha[r:]."""
    for r in range(len(beta)):
        if beta[r] > max(alpha[r:]):
            return r + 1
    return None


def _normal_form(lat, pair, pivot, busy):
    """The standard polynomial that a non-standard slot-ordered key pair equals.

    Minus the rest of the shuffle at the pair's pivot over the pair's own
    coefficient there, each non-standard term replaced by its normal form from
    ``lat.normal_forms``, built and kept there once complete (threads that
    build one entry at once write equal values).  ``busy`` holds the pairs
    this call has started, so meeting one of them again is a cycle.
    """
    codes, table = lat.key_codes, lat.normal_forms
    alpha, beta = codes[pair[0]][1], codes[pair[1]][1]
    r = pivot(alpha, beta)
    check(r is not None, "non-standard pair must have a violated position")
    raw = _shuffle_sums(alpha, beta, r)
    pivot_term = raw.pop(pair, None)
    check(pivot_term, "pivot monomial must survive the shuffle")
    busy.add(pair)
    out = {}
    for key, c in raw.items():
        x, y = key
        mx, my = codes[x][0], codes[y][0]
        if mx & ~my and my & ~mx:  # neither cell ideal contains the other
            if key not in table:
                check(key not in busy, "straightening cycles: a normal form depends on itself")
                table[key] = _normal_form(lat, key, pivot, busy)
            for mono, d in table[key].items():
                poly_add_term(out, mono, c * d)
        else:
            poly_add_term(out, key if (-len(x), x) <= (-len(y), y) else (y, x), c)
    return {mono: _quotient(-c, pivot_term) for mono, c in out.items()}


def straighten_pair(lat, a, b):
    """The unique relation expressing X_a X_b in standard monomials of the lattice order.

    With X_a X_b = s X_lead (s the sign of the two keys, lead their slot-ordered
    pair) it is s X_lead - s NF(lead).  Only the normal forms that other pairs'
    shuffles asked for are kept, so a lead is read from the table when one did.
    """
    ma, mb = lat.mask(a), lat.mask(b)  # ValueError unless both are elements
    if ma & ~mb == 0 or mb & ~ma == 0:
        raise ComparablePairError(f"{a!r} and {b!r} are comparable; nothing to straighten")
    sa, ca = lat.signed_key(a)
    sb, cb = lat.signed_key(b)
    lead = (ca, cb) if (-len(ca), ca) <= (-len(cb), cb) else (cb, ca)  # monomial((ca, cb))
    nf = lat.normal_forms.get(lead)
    if nf is None:
        nf = _normal_form(lat, lead, _pivot_m if lat.kind == "M" else _pivot_n, set())
    result = {lead: sa * sb} | {mono: -sa * sb * c for mono, c in nf.items()}
    assert_bihomogeneous(result)
    return result


def straightening_terms(lat, rel, a, b, head=None, keys=False):
    """Decompose a straightening relation into labelled (lower, upper, coeff) rows.

    Rows are the standard monomials with their sign-corrected coefficients
    c_i, ordered with the (meet-or-product, join) row first when present;
    ``head`` is that pair when the caller has it already.  With ``keys`` a
    row names its two factors by their Pluecker keys instead.  A factor's
    mask (so its grade), element and sign come from one lookup of its key.
    """
    if head is None:
        head = lat.meet_or_product(a, b), lat.join(a, b)
    lead = monomial((lat.weight_key(a), lat.weight_key(b)))
    codes = lat.key_codes
    rows = []
    for mono, coeff in rel.items():
        if mono == lead:
            continue
        x, y = mono
        mx, ex, sx = codes[x]
        my, ey, sy = codes[y]
        gx, gy = mx.bit_count(), my.bit_count()
        # the factors of a standard monomial are comparable: the lower has the smaller grade;
        # each (lower, upper) is one monomial, so the sort never compares coefficients
        if gy < gx:
            rows.append(((ey, ex) != head, gy, ey, ex, -coeff * sx * sy, y, x))
        else:
            rows.append(((ex, ey) != head, gx, ex, ey, -coeff * sx * sy, x, y))
    rows.sort()
    if keys:
        return [(x, y, c) for *_, c, x, y in rows]
    return [row[2:5] for row in rows]


# -- Hibi and generalized Hibi binomials -----------------------------------

def hibi_generator(lattice, a, b, part=None):
    """Binomial X_a X_b - X_join X_meet, or the generalized X_a X_b - X_join X_(a.b).

    Returned over abstract lattice variables: monomials are sorted pairs of
    lattice element ids.
    """
    if lattice.leq(a, b) or lattice.leq(b, a):
        raise ComparablePairError(f"{a!r} and {b!r} are comparable")
    if part is None:
        lower = lattice.meet(a, b)
    else:
        lower = odot_elements(lattice, part, a, b)
        check(theta_exponent(lattice, part, (a, b))
              == theta_exponent(lattice, part, (lower, lattice.join(a, b))),
              "binomial must lie in the kernel of the monomial map")
    poly = {}
    poly_add_term(poly, tuple(sorted((a, b))), 1)
    poly_add_term(poly, tuple(sorted((lower, lattice.join(a, b)))), -1)
    return poly


def theta_exponent(lattice, part, mono):
    """Exponent vector of the monomial map X_a -> t * prod z_p over the K-set of a."""
    out = {}
    for a in mono:
        out["t"] = out.get("t", 0) + 1
        for p in k_set(part, lattice.iota(a)):
            key = ("z", p)
            out[key] = out.get(key, 0) + 1
    return out


def psi_exponent(alpha, n):
    """Exponent vector of the PBW monomial map X_alpha -> z_k * prod z_(j, alpha_j > k)."""
    k = len(alpha)
    out = {("zdiag", k): 1}
    for j, v in enumerate(alpha, start=1):
        if v > k:
            key = ("zcell", (j, v))
            out[key] = out.get(key, 0) + 1
    return out


def theta_to_psi(exponent):
    """Rewrite a theta exponent over cells into psi variables.

    Diagonal cells (k, k) become z_k / z_(k-1) and the deg marker t becomes z_1.
    """
    out = {}
    for key, v in exponent.items():
        if key == "t":
            poly_add_term(out, ("zdiag", 1), v)
        else:
            _, (r, s) = key
            if r == s:
                poly_add_term(out, ("zdiag", r), v)
                poly_add_term(out, ("zdiag", r - 1), -v)
            else:
                poly_add_term(out, ("zcell", (r, s)), v)
    return out


# -- evaluation oracles ----------------------------------------------------

@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    method: str                    # 'symbolic' | 'probabilistic'
    failure_bound: object = None   # Fraction, probabilistic only


def minor_mod_p(matrix, cols, p=ORACLE_PRIME):
    """Determinant of rows 1..k and the given columns, mod p (fraction-free elimination).

    Each elimination step replaces a row below the pivot row by pivot * row
    - factor * pivot row, which scales the determinant by the pivot; the
    product of those scales is divided out with one inverse at the end.
    ``MinorTable`` uses it for columns longer than four: a memoised expansion
    would keep all 2^k sub-minors, 2^19 for a 19-entry column of pair-local
    use at n = 20.  Its cost grows like k^3.
    """
    k = len(cols)
    sub = [[matrix[i][c - 1] % p for c in cols] for i in range(k)]
    det = scale = 1
    for i in range(k):
        pivot = None
        for r in range(i, k):
            if sub[r][i]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != i:
            sub[i], sub[pivot] = sub[pivot], sub[i]
            det = -det
        top = sub[i]
        lead = top[i]
        det = det * lead % p
        for r in range(i + 1, k):
            factor = sub[r][i]
            if factor:
                sub[r] = [(lead * x - factor * y) % p for x, y in zip(sub[r], top)]
                scale = scale * lead % p
    return det * pow(scale, -1, p) % p


class MinorTable(dict):
    """Top-justified minors of one matrix mod p, keyed by canonical column.

    An entry is computed on its first lookup and kept, so the table holds
    only the columns asked for and, below five entries, their sub-columns:
    a column of length k <= 4 is expanded along row k over the table's own
    minors of its (k-1)-subsets, and a longer one goes to ``minor_mod_p``,
    which keeps none of its up to 2^k sub-minors.  The empty column maps to 1.
    """

    def __init__(self, matrix, p=ORACLE_PRIME):
        super().__init__({(): 1})
        self.matrix, self.p = matrix, p

    def __missing__(self, col):
        k = len(col)
        if k > 4:
            value = minor_mod_p(self.matrix, col, self.p)
        else:
            row = self.matrix[k - 1]
            value = sum((-1) ** (k + j + 1) * row[c - 1] * self[col[:j] + col[j + 1:]]
                        for j, c in enumerate(col)) % self.p
        self[col] = value
        return value


_KEPT_DRAWS = 128  # minor tables kept per (n, seed), and the most any call may ask for
_DRAWS_LOCK = threading.Lock()  # kept draws must come off the generator in order


@lru_cache(maxsize=8)
def _seed_draws(n, seed):
    """The generator ``Random(seed)`` and the minor tables drawn from it so far."""
    return random.Random(seed), []


def _seed_minor_tables(n, seed, count):
    """Minor tables of the first ``count`` matrices drawn from ``Random(seed)``.

    Every oracle call re-seeds its generator, so all calls at one seed see
    the same matrices.  Up to ``_KEPT_DRAWS`` tables per (n, seed), with the
    minors already computed in them, are kept behind a small bounded cache
    and serve later calls; a longer request is a ``CapacityError``.
    """
    if count > _KEPT_DRAWS:
        raise CapacityError(f"evaluation oracle limited to {_KEPT_DRAWS} random matrices "
                            f"per seed, got {count}")
    rng, tables = _seed_draws(n, seed)
    with _DRAWS_LOCK:
        while len(tables) < count:
            tables.append(MinorTable(random_matrix(n, rng)))
        return tables[:count]


def _monomial_value(mono, table, p=ORACLE_PRIME):
    val = 1
    for col in mono:
        val = val * table[col] % p
    return val


def _terms_mod_p(poly, p=ORACLE_PRIME):
    """(monomial, coefficient reduced into GF(p)) pairs of a rational polynomial.

    An ``int`` coefficient is reduced as it is; only a ``Fraction`` pays for
    an inverse of its denominator.
    """
    terms = []
    for mono, coeff in poly.items():
        if not isinstance(coeff, int):
            coeff = Fraction(coeff)
            if coeff.denominator % p == 0:
                raise ZeroDivisionError(
                    "coefficient denominator divisible by the field characteristic")
            coeff = coeff.numerator * pow(coeff.denominator, -1, p)
        terms.append((mono, coeff % p))
    return terms


def _first_value(terms, tables, p=ORACLE_PRIME):
    """The first nonzero value mod p of a relation over a sequence of minor tables, else 0.

    One loop over the tables and the terms: each term's product of minors is
    summed as it is, and only the sum of a table is reduced mod p.
    """
    for table in tables:
        total = 0
        for mono, value in terms:
            for col in mono:
                value *= table[col]
            total += value
        total %= p
        if total:
            return total
    return 0


def random_matrix(n, rng, p=ORACLE_PRIME):
    return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]


def _symbolic_minor(cols):
    """The top-justified minor as (sorted cells tuple) -> sign, a cell being (row, column).

    The expansion of ``MinorTable`` along row k over the (k-1)-subsets, on
    cells: every term of a (k-1)-subset lies in rows below k, so appending
    the cell (k, c) keeps it sorted, and the entries of a canonical column
    are distinct, so no two terms share their cells.
    """
    k = len(cols)
    if not k:
        return {(): 1}
    out = {}
    for j, c in enumerate(cols):
        sign = (-1) ** (k + j + 1)
        for cells, s in _symbolic_minor(cols[:j] + cols[j + 1:]).items():
            out[cells + ((k, c),)] = sign * s
    return out


def symbolic_pi_expand(poly, n):
    """Exact expansion of the minor evaluation map as a polynomial in matrix entries."""
    out = {}
    for mono, coeff in poly.items():
        parts = [{(): 1}]
        for col in mono:
            nxt = {}
            minor = _symbolic_minor(col)
            for cells1, c1 in parts[-1].items():
                for cells2, c2 in minor.items():
                    key = tuple(sorted(cells1 + cells2))
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            parts.append({k: v for k, v in nxt.items() if v})
        for cells, c in parts[-1].items():
            val = out.get(cells, 0) + Fraction(coeff) * c
            if val:
                out[cells] = val
            else:
                out.pop(cells, None)
    return out


def ideal_membership(poly, n, mode="probabilistic", trials=20, seed=0):
    """Test membership in the Pluecker ideal by minor evaluation.

    Symbolic mode expands products of minors exactly (guarded by size) and
    tests identical vanishing; probabilistic mode evaluates at seeded random
    matrices over a 62-bit prime and reports the Schwartz-Zippel bound
    (d/p)^trials, d the largest total degree of a term; ``trials`` below 1
    is a ``ValueError`` in either mode, and above ``_KEPT_DRAWS`` a
    ``CapacityError`` in probabilistic mode.  The limits hold for the zero
    polynomial too, a member with bound 0.  The whole polynomial is tested
    at once: a factor of length k is a minor of rows 1..k, so parts with
    different factor lengths have different row degrees in the matrix
    entries, and their images cannot cancel.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if mode == "symbolic":
        if max(map(len, poly), default=0) > SYMBOLIC_DEGREE_LIMIT or n > SYMBOLIC_N_LIMIT:
            raise CapacityError("symbolic oracle limited to total degree <= "
                                f"{SYMBOLIC_DEGREE_LIMIT} with n <= {SYMBOLIC_N_LIMIT}")
        return MembershipVerdict(not symbolic_pi_expand(poly, n), "symbolic")
    member = not _first_value(_terms_mod_p(poly), _seed_minor_tables(n, seed, trials))
    degree = max((sum(map(len, mono)) for mono in poly), default=0)
    return MembershipVerdict(member, "probabilistic", Fraction(degree, ORACLE_PRIME) ** trials)


# -- rank over the oracle prime -------------------------------------------

def _eliminate(rows, p=ORACLE_PRIME):
    """Forward elimination of a stream of rows over GF(p); returns (pivots, basis).

    Entries are field elements in [0, p).  Each row is reduced against the
    pivot rows kept so far, in the order they were found, and kept, scaled to
    a leading 1, when a nonzero entry is left; pivot row i is zero before its
    pivot column ``pivots[i]`` and at every earlier pivot column.  The rows
    are read lazily and reading stops at full rank (one pivot per column).
    """
    pivots, basis = [], []
    for row in rows:
        row = list(row)
        for col, prow in zip(pivots, basis):
            f = row[col]
            if f:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], prow[col:])]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        basis.append([x * inv % p for x in row])
        pivots.append(lead)
        if len(pivots) == len(row):
            break
    return pivots, basis


def rank_mod_p(rows, p=ORACLE_PRIME):
    """Rank over GF(p) of an iterable of rows with entries in [0, p)."""
    return len(_eliminate(rows, p)[0])


def monomials_of_degree(lat, lam):
    """All degree-lam monomials: lam[k-1] factors of length k, unordered with repetition."""
    n = lat.n
    per_length = []
    for k in range(1, n):
        count = lam[k - 1]
        if count == 0:
            continue
        cols = [tuple(c) for c in combinations(range(1, n + 1), k)]
        per_length.append(list(combinations_with_replacement(cols, count)))
    out = [()]
    for group in per_length:
        out = [m + g for m in out for g in group]
    return [monomial(m) for m in out]


def is_standard_monomial(lat, mono):
    """The monomial's factors, read as lattice elements, form a chain: their key masks nest."""
    codes = lat.key_codes
    return all(mx & ~my == 0 or my & ~mx == 0
               for mx, my in combinations([codes[col][0] for col in mono], 2))


def weyl_dimension(lam):
    """dim V_mu of GL_n, n = len(lam) + 1, for the shape mu with lam[k-1] columns of length k.

    The Weyl dimension formula prod_{i<j} (mu_i - mu_j + j - i) / (j - i),
    where mu_i = lam[i-1] + ... + lam[n-2] is the length of row i.
    """
    n = len(lam) + 1
    mu = [sum(lam[i:]) for i in range(n)]
    num = den = 1
    for i, j in combinations(range(n), 2):
        num *= mu[i] - mu[j] + j - i
        den *= j - i
    return num // den


def standard_basis_check(lat, lam, seeds=(0, 1, 2)):
    """The number of standard monomials of degree lam, checked against evaluation ranks.

    The Pluecker ideal is homogeneous for the torus weight (``wt_vector``), so
    the degree-lam monomials split into weight blocks whose ranks add up.  At
    every seed each block is ranked on its first ``len(block) + 10`` seeded
    minor tables.  Returns the count of standard monomials when every block's
    count equals that block's rank at every seed, and 0 otherwise.
    """
    if sum(lam) > SYMBOLIC_DEGREE_LIMIT or lat.n > RANK_N_LIMIT:
        raise CapacityError("rank oracle limited to total degree <= "
                            f"{SYMBOLIC_DEGREE_LIMIT} with n <= {RANK_N_LIMIT}")
    blocks = {}
    for m in monomials_of_degree(lat, lam):
        blocks.setdefault(wt_vector(m, lat.n), []).append(m)
    total = 0
    for block in map(tuple, blocks.values()):
        n_standard = sum(1 for m in block if is_standard_monomial(lat, m))
        if any(_block_rank(lat.n, block, seed) != n_standard for seed in seeds):
            return 0
        total += n_standard
    return total


@lru_cache(maxsize=1 << 16)  # holds the (block, seed) ranks of asl at n = 6: 35,727
def _block_rank(n, block, seed):
    """Evaluation rank of a weight block on its first ``len(block) + 10`` seeded minor tables.

    The rank reads only n, the block's monomials and the seed, not the lattice
    kind, so the blocks of M(n) and N(n) are ranked once for both.
    """
    tables = _seed_minor_tables(n, seed, len(block) + 10)
    return rank_mod_p([_monomial_value(m, t) for m in block] for t in tables)
