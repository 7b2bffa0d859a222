"""Reference code that only the tests call, kept out of the library.

- ``exchange_relation_loop`` is the classical exchange loop that
  ``straightening.exchange_relation`` replaced with a view of the shuffle core.
- ``straighten_pair_worklist`` is the worklist straightening that
  ``straightening.straighten_pair`` replaced with one memoised normal-form rule.
- ``append_columns`` and ``apply_index_permutation`` transform relations.
- ``deg_vector`` counts the factors of each length of a monomial.
- ``hibi_grevlex_initial`` is the graded reverse lex initial term of a binomial.
- ``plucker_eval`` evaluates a relation at one matrix.
- ``standard_expansion_mod_p`` solves for a product of two lattice elements
  in standard monomials over the oracle prime, an oracle independent of
  straightening.
- ``weight_matrix`` stacks weight dicts into the array that
  ``cones.contains_many`` reads.
"""

from math import comb

from plueckerfan import straightening
from plueckerfan.cones import _INT64_LIMIT
from plueckerfan.order_core import InvariantError, check
from plueckerfan.plucker_lattices import canonicalize
from plueckerfan.straightening import (
    ORACLE_PRIME,
    MinorTable,
    ShapeError,
    _eliminate,
    _first_value,
    _monomial_value,
    _quotient,
    _seed_minor_tables,
    _terms_mod_p,
    assert_bihomogeneous,
    monomial,
    monomials_of_degree,
    poly_add_term,
    wt_vector,
)


def deg_vector(mono, n):
    """Count of factors of each length 1..n-1."""
    out = [0] * (n - 1)
    for col in mono:
        out[len(col) - 1] += 1
    return tuple(out)


def exchange_relation_loop(col_a, col_b, r, n=None):
    """X_A X_B minus the sum exchanging B_r into every slot of A, one term per slot.

    Requires len(A) >= len(B) and 1 <= r <= len(B); all terms canonicalized.
    """
    k, l = len(col_a), len(col_b)
    if k < l:
        raise ShapeError("first column must be at least as long")
    if not 1 <= r <= l:
        raise ShapeError(f"exchange position {r} out of range")
    if n is not None and not all(1 <= i <= n for i in col_a + col_b):
        raise ValueError(f"index out of range in {col_a}, {col_b}")
    poly = {}
    poly_add_term(poly, monomial((col_a, col_b)), 1)
    br = col_b[r - 1]
    for s in range(k):
        new_a = col_a[:s] + (br,) + col_a[s + 1:]
        new_b = col_b[:r - 1] + (col_a[s],) + col_b[r:]
        ca, cb = canonicalize(new_a), canonicalize(new_b)
        if ca is None or cb is None:
            continue
        poly_add_term(poly, monomial((ca[1], cb[1])), -ca[0] * cb[0])
    if n is not None:
        assert_bihomogeneous(poly, n)
    return poly


def straighten_pair_worklist(lat, a, b):
    """The relation of ``straighten_pair``, by a worklist of non-standard pairs still to cancel.

    It pops the least pair and cancels it against the multiple of the shuffle
    at its pivot whose pair term is the popped coefficient; a standard term of
    that multiple goes into the result and a non-standard one back into the
    worklist.  It may pop as many pairs as the lattice has element pairs of
    the two factor lengths, C(n, k) C(n, l).  The shuffle core and the pivot
    rules are read from ``straightening`` at call time, so a test can replace them.
    """
    sa, ca = lat.signed_key(a)
    sb, cb = lat.signed_key(b)
    pivot = straightening._pivot_m if lat.kind == "M" else straightening._pivot_n
    codes = lat.key_codes
    lead = (ca, cb) if (-len(ca), ca) <= (-len(cb), cb) else (cb, ca)
    pops_left = comb(lat.n, len(lead[0])) * comb(lat.n, len(lead[1]))
    work = {lead: sa * sb}
    # work + (X_a X_b - result) stays congruent to X_a X_b throughout
    result = {lead: sa * sb}
    while work:
        pops_left -= 1
        if pops_left < 0:
            raise InvariantError("straightening did not terminate")
        pair = min(work)
        coeff = work.pop(pair)
        alpha, beta = codes[pair[0]][1], codes[pair[1]][1]
        raw = straightening._shuffle_sums(alpha, beta, pivot(alpha, beta))
        q = _quotient(coeff, raw.pop(pair))
        for key, c in raw.items():
            x, y = key
            mx, my = codes[x][0], codes[y][0]
            if mx & ~my and my & ~mx:  # neither cell ideal contains the other
                poly_add_term(work, key, -q * c)
            else:
                poly_add_term(result, monomial(key), q * c)
    return result


def append_columns(poly, extra, n=None):
    """Adjoin extra indices to the short factor of every term of a (k, l) relation."""
    if not poly:
        return {}
    lens = {tuple(sorted(map(len, m), reverse=True)) for m in poly}
    if len(lens) != 1:
        raise ShapeError("relation is not length-homogeneous")
    (k, l), = lens
    if k <= l:
        raise ShapeError("relation must have strictly unequal factor lengths")
    if len(extra) != k - l:
        raise ShapeError(f"need exactly {k - l} extra indices")
    out = {}
    for mono, coeff in poly.items():
        long_col, short_col = mono if len(mono[0]) == k else (mono[1], mono[0])
        grown = canonicalize(short_col + tuple(extra))
        if grown is None:
            continue
        poly_add_term(out, monomial((long_col, grown[1])), coeff * grown[0])
    if n is not None:
        assert_bihomogeneous(out, n)
    return out


def apply_index_permutation(poly, perm):
    """Relabel all column indices through a permutation of 1..n and re-canonicalize."""
    image = sorted(perm.values()) if isinstance(perm, dict) else sorted(perm)
    if image != list(range(1, len(image) + 1)):
        raise ValueError(f"not a permutation of 1..n: {perm!r}")
    lookup = perm if isinstance(perm, dict) else {i + 1: v for i, v in enumerate(perm)}
    out = {}
    for mono, coeff in poly.items():
        sign = 1
        cols = []
        for col in mono:
            c = canonicalize(tuple(lookup[i] for i in col))
            sign *= c[0]
            cols.append(c[1])
        poly_add_term(out, monomial(cols), coeff * sign)
    return out


def hibi_grevlex_initial(lattice, poly):
    """Least monomial under graded reverse lex built from the (grade, id) linearization.

    ``poly`` is keyed by tuples of lattice element ids.  Ties between equal
    degrees break at the largest differing variable rank.
    """
    order = sorted(lattice.elements, key=lambda e: (lattice.grade(e), e))
    rank = {a: i for i, a in enumerate(order)}

    def key(mono):
        ranks = sorted(rank[a] for a in mono)
        return (len(ranks), tuple(reversed(ranks)))

    return min(poly, key=key)


def plucker_eval(poly, matrix, p=ORACLE_PRIME):
    """Evaluate a relation at a square matrix over GF(p) via top-justified minors."""
    return _first_value(_terms_mod_p(poly, p), (MinorTable(matrix, p),), p)


def standard_expansion_mod_p(lat, a, b, seed=0):
    """Solve for X_a X_b as a combination of same-bidegree standard monomials over GF(p).

    The candidates are the weight block of X_a X_b among the monomials of its
    degree.  Returns the unique coefficient map (canonical monomial -> field
    element); raises ``InvariantError`` if the evaluation system is
    inconsistent or underdetermined.  Standardness is read through the
    ``straightening`` module, so a test can replace the rule there.
    """
    p, n = ORACLE_PRIME, lat.n
    sa, ca = lat.signed_key(a)
    sb, cb = lat.signed_key(b)
    target = monomial((ca, cb))
    weight = wt_vector(target, n)
    candidates = sorted(m for m in monomials_of_degree(lat, deg_vector(target, n))
                        if wt_vector(m, n) == weight)
    standard = [m for m in candidates
                if m != target and straightening.is_standard_monomial(lat, m)]
    pivots, basis = _eliminate(
        [_monomial_value(m, t) for m in standard + [target]]
        for t in _seed_minor_tables(n, seed, len(standard) + 8))
    check(len(standard) not in pivots, "evaluation system is inconsistent")
    check(len(pivots) == len(standard), "standard monomials must be independent")
    # every standard column is a pivot; pivot row i is zero at the pivots before it
    solution = {}
    for i in reversed(range(len(pivots))):
        row = basis[i]
        solution[pivots[i]] = (row[-1] - sum(row[c] * solution[c] for c in pivots[i + 1:])) % p
    # orient like a straightening relation normalized in lattice labels
    out = {target: (sa * sb) % p}
    for col, c in sorted(solution.items()):
        if c:
            out[standard[col]] = -c * sa * sb % p
    return out


def weight_matrix(points, keys):
    """Weight dicts as a samples-by-keys array, column-major so each key's samples are contiguous.

    The array is int64 when every weight is an ``int`` that fits, else an
    ``object`` array of the exact values.
    """
    import numpy as np

    def values():  # key by key, so the transpose of the filled array is column-major
        return (w[k] for k in keys for w in points)

    fits = all(type(v) is int and -_INT64_LIMIT < v < _INT64_LIMIT for v in values())
    W = np.fromiter(values(), dtype=np.int64 if fits else object, count=len(points) * len(keys))
    return W.reshape(len(keys), len(points)).T
