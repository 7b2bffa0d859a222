"""H-representations of the maximal Groebner cones and their witnesses.

Targets cover the Hibi cone of any distributive lattice, its generalized
(chain-order) variant, the semistandard and PBW-semistandard maximal cones
with redundant companions, and the two toric subcone descriptions assembled
from straightening data.  All arithmetic is exact; weight vectors are plain
dicts keyed by canonical column tuples (or lattice element ids for generic
lattices).  ``contains_many`` is the batched twin of ``contains`` over many
weight vectors at once.  A redundant row is X_lead - X_m for one pair's
lead and another monomial m of its relation (Hibi binomial), so in the cone
each lead is the ``initial_form``.

The semistandard (PBW) cone is the Hibi cone of M(n) (the generalized Hibi
cone of N(n)) plus one row per special pair, from one diamond-row builder.
``ConeHRep.to_json`` writes a description's JSON straight from its rows;
``to_json_obj`` is the dict form it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .chain_order import odot_elements
from .order_core import check, json_rationals, key_name
from .plucker_lattices import PluckerLattice, pbw_lattice, pbw_to_ssyt, semistandard_lattice
from .straightening import straighten_pair, straightening_terms

STRICT = "<"
NONSTRICT = "<="
EQUALITY = "="

MINIMAL_TARGETS = ("HIBI", "GENHIBI", "SSYT", "PBW")
REDUNDANT_TARGETS = ("HIBI_REDUNDANT", "GENHIBI_REDUNDANT", "SSYT_REDUNDANT", "PBW_REDUNDANT")
TORIC_TARGETS = ("TORIC_GT", "TORIC_FFLV")
ALL_TARGETS = MINIMAL_TARGETS + REDUNDANT_TARGETS + TORIC_TARGETS


@dataclass(frozen=True)
class LinearInequality:
    """Sparse linear form with a relation against zero ('<', '<=' or '=')."""

    form: tuple            # ((key, coeff), ...) sorted
    relation: str
    provenance: tuple      # e.g. ('diamond', a, b) or ('expansion', a, b, i)

    def value(self, weights):
        return sum(c * weights[k] for k, c in self.form)

    def holds(self, weights):
        v = self.value(weights)
        if self.relation == STRICT:
            return v < 0
        if self.relation == NONSTRICT:
            return v <= 0
        return v == 0

    def holds_nonstrict(self, weights):
        v = self.value(weights)
        return v == 0 if self.relation == EQUALITY else v <= 0


@dataclass(frozen=True)
class ConeHRep:
    """Deterministically ordered inequality list with provenance, plus build context."""

    target: str
    label: str
    inequalities: tuple
    lattice: object = field(compare=False, default=None)
    partition: object = field(compare=False, default=None)

    def __len__(self):
        return len(self.inequalities)

    def facet_ids(self):
        return list(range(len(self.inequalities)))

    def inequality(self, facet_id):
        if isinstance(facet_id, int):
            return self.inequalities[facet_id]
        for ineq in self.inequalities:
            if ineq.provenance == tuple(facet_id):
                return ineq
        raise KeyError(f"no inequality with provenance {facet_id!r}")

    def to_json_obj(self):
        rows = []
        for ineq in self.inequalities:
            rows.append({
                "terms": {key_name(k): str(Fraction(c)) for k, c in ineq.form},
                "rel": ineq.relation,
            })
        return {
            "target": self.target,
            "label": self.label,
            "inequalities": rows,
            "provenance": [[key_name(x) for x in ineq.provenance]
                           for ineq in self.inequalities],
        }

    def to_json(self):
        """JSON text of the description, rendered straight from the inequality rows.

        Byte for byte ``json.dumps(self.to_json_obj(), indent=2, sort_keys=True)``
        without building the rows as dicts: each (key, coefficient) term is
        rendered once, with the key's name, a row's terms are sorted by name
        (two keys of one name keep the last coefficient, as the dict does),
        and a coefficient is written as ``str(c)`` for an ``int``, else
        ``str(Fraction(c))``.
        """
        import json  # the CLI has loaded it; importing it here keeps it off this module's load
        encoded = _Encoded()
        rendered = _Rendered(encoded)
        rows, provenance = [], []
        for ineq in self.inequalities:
            terms = dict(map(rendered.__getitem__, ineq.form))
            body = ",\n        ".join([terms[text] for text in sorted(terms)])
            body = f"{{\n        {body}\n      }}" if terms else "{}"
            rows.append(f'{{\n      "rel": {encoded[ineq.relation][1]},\n      "terms": {body}\n    }}')
            provenance.append(_json_list([encoded[x][1] for x in ineq.provenance], 4))
        return (f'{{\n  "inequalities": {_json_list(rows, 2)},\n  "label": {json.dumps(self.label)},'
                f'\n  "provenance": {_json_list(provenance, 2)},\n  "target": {json.dumps(self.target)}\n}}')


class _Encoded(dict):
    """(name, its JSON encoding) of a key, a provenance entry or a relation, made on first lookup."""

    def __missing__(self, x):
        import json
        text = key_name(x)
        got = self[x] = (text, json.dumps(text))
        return got


class _Rendered(dict):
    """(name, JSON text) of a (key, coefficient) term of a form, made on first lookup."""

    def __init__(self, encoded):
        super().__init__()
        self.encoded = encoded

    def __missing__(self, term):
        key, c = term
        text, enc = self.encoded[key]
        got = self[term] = (text, f'{enc}: "{c if type(c) is int else Fraction(c)}"')
        return got


def _json_list(items, indent):
    """A JSON list at ``indent`` spaces whose items are rendered for the level below it."""
    if not items:
        return "[]"
    pad = " " * (indent + 2)
    return f"[\n{pad}" + f",\n{pad}".join(items) + "\n" + " " * indent + "]"


def _form(*pairs):
    """The sparse form of (key, coefficient) pairs: keys summed and sorted, zeros dropped."""
    acc = {}
    for key, coeff in pairs:
        acc[key] = acc.get(key, 0) + coeff
    return tuple(sorted(item for item in acc.items() if item[1]))


def _pair_form(a, b, lo, hi, key=None):
    """The form X_a + X_b - X_lo - X_hi of four keys, or of four elements ``key`` maps to keys."""
    if key is not None:
        a, b, lo, hi = key(a), key(b), key(lo), key(hi)
    if len({a, b, lo, hi}) == 4:  # nothing to merge: the sorted terms are the form
        return tuple(sorted(((a, 1), (b, 1), (lo, -1), (hi, -1))))
    return _form((a, 1), (b, 1), (lo, -1), (hi, -1))


def contains(hrep, weights):
    """Exact membership of a weight vector in the (relatively open) cone."""
    return all(ineq.holds(weights) for ineq in hrep.inequalities)


# -- the batched twin of contains --------------------------------------------

_INT64_LIMIT = 1 << 63


def contains_many(hrep, keys, W):
    """``contains`` on every row of the samples-by-keys weight matrix ``W``, as a bool array.

    Each inequality is evaluated once, as one exact column over all samples:
    int64 while max|w| times the largest l1 norm of a form is below 2**63,
    so no sum can overflow, and Python integers otherwise.
    """
    import numpy as np
    l1 = max((sum(abs(c) for _, c in iq.form) for iq in hrep.inequalities), default=0)
    if W.dtype != object and W.size:
        top = max(int(W.max()), -int(W.min()))
        if type(l1) is not int or top * l1 >= _INT64_LIMIT:
            W = W.astype(object)
    columns = dict(zip(keys, np.ascontiguousarray(W.T)))
    ok = np.ones(len(W), dtype=bool)
    for ineq in hrep.inequalities:
        value = sum(coeff * columns[key] for key, coeff in ineq.form)
        if ineq.relation == STRICT:
            ok &= value < 0
        elif ineq.relation == NONSTRICT:
            ok &= value <= 0
        else:
            ok &= value == 0
    return ok


# -- H-representation builders ----------------------------------------------

def cone_hrep(target, *, n=None, lattice=None, partition=None):
    """Build the named cone description.

    ``SSYT``/``PBW``/``*_REDUNDANT``/``TORIC_*`` need ``n``; ``HIBI`` and
    ``GENHIBI`` need ``lattice`` (plus ``partition`` unless the lattice
    carries one).
    """
    if target not in ALL_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {ALL_TARGETS}")
    if target in ("HIBI", "HIBI_REDUNDANT", "GENHIBI", "GENHIBI_REDUNDANT"):
        if lattice is None:
            raise ValueError(f"target {target} needs a lattice")
        part = None
        if target.startswith("GENHIBI"):
            part = partition if partition is not None else getattr(lattice, "partition", None)
            if part is None:
                raise ValueError("GENHIBI needs a partition over the join-irreducibles")
        return _hibi_hrep(target, lattice, part)
    if n is None:
        raise ValueError(f"target {target} needs n")
    if target in ("SSYT", "PBW"):
        return _minimal_plucker_hrep(target, n)
    if target in ("SSYT_REDUNDANT", "PBW_REDUNDANT"):
        return _expansion_hrep(target, n, equalities=False)
    return _expansion_hrep(target, n, equalities=True)


def _hibi_hrep(target, lattice, part):
    """Rows X_a X_b > X_join X_lower, lower the meet or the ideal product over ``part``.

    One row per diamond pair, or per incomparable pair for a redundant target.
    """
    lower = lattice.meet if part is None else lambda a, b: odot_elements(lattice, part, a, b)
    if target.endswith("_REDUNDANT"):
        tag, pairs = "incomparable", lattice.incomparable_pairs()
    else:
        tag, pairs = "diamond", lattice.diamond_pairs()
    key = lattice.weight_key
    ineqs = tuple(
        LinearInequality(_pair_form(a, b, lower(a, b), lattice.join(a, b), key), STRICT,
                         (tag, a, b))
        for a, b in pairs)
    label = (f"{lattice.kind}({lattice.n})" if isinstance(lattice, PluckerLattice)
             else f"lattice[{len(lattice.elements)}]")
    return ConeHRep(target, f"{target}({label})", ineqs, lattice, part)


@lru_cache(maxsize=None)
def _minimal_plucker_hrep(target, n):
    """The Hibi rows of M(n) (SSYT) or generalized Hibi rows of N(n) (PBW), plus special rows."""
    lat = semistandard_lattice(n) if target == "SSYT" else pbw_lattice(n)
    hibi = _hibi_hrep(target, lat, None if target == "SSYT" else lat.partition)
    ineqs = []
    for row in hibi.inequalities:
        ineqs.append(row)
        _, a, b = row.provenance
        cls = lat.classify_pair(a, b)
        if cls.verdict == "diamond_special":  # right after its diamond row
            lower = cls.below if target == "SSYT" else cls.companion  # the PBW one is the meet
            ineqs.append(LinearInequality(
                _pair_form(a, b, lower, cls.above, lat.weight_key), STRICT, ("special", a, b)))
    return ConeHRep(target, f"{target}({n})", tuple(ineqs), lat, hibi.partition)


@lru_cache(maxsize=None)
def _expansion_hrep(target, n, equalities):
    lat = PluckerLattice("M" if target in ("SSYT_REDUNDANT", "TORIC_GT") else "N", n)
    key = lat.weight_key
    first_rel = EQUALITY if equalities else STRICT
    ineqs = []
    for a, b in lat.incomparable_pairs():
        rows = straightening_terms(lat, straighten_pair(lat, a, b), a, b, keys=True)
        ka, kb = key(a), key(b)
        for i, (lo, hi, _) in enumerate(rows):
            ineqs.append(LinearInequality(_pair_form(ka, kb, lo, hi),
                                          first_rel if i == 0 else STRICT, ("expansion", a, b, i)))
    return ConeHRep(target, f"{target}({n})", tuple(ineqs), lat)


# -- witnesses ---------------------------------------------------------------

def interior_witness(lattice):
    """Squared-grade weights: interior for Hibi-type and semistandard cones.

    Not an interior point of the generalized (chain-order) cones in general;
    use ``generalized_interior_witness`` there.
    """
    key = lattice.weight_key
    return {key(a): lattice.grade(a) ** 2 for a in lattice.elements}


def generalized_interior_witness(lattice, base=3):
    """Exponential weights base**grade: interior for every target built here.

    The join sits one level up and any replacement of the meet only moves
    down, so base >= 3 clears every inequality with room to spare.
    """
    key = lattice.weight_key
    return {key(a): base ** lattice.grade(a) for a in lattice.elements}


def facet_witness(hrep, facet_id):
    """A weight vector tight or reversed exactly at the chosen facet.

    The witness fails the strict inequality of the facet while satisfying all
    other inequalities of the minimal description nonstrictly, certifying
    irredundancy.
    """
    ineq = hrep.inequality(facet_id)
    lat = hrep.lattice
    kind, a, b = ineq.provenance
    if kind == "diamond" and hrep.partition is None:
        return _square_witness(lat, a, b)
    if kind == "diamond":
        return _power_witness(lat, a, b, odot_elements(lat, hrep.partition, a, b))
    if hrep.target == "SSYT" and kind == "special":
        return _ladder_witness(lat, a, b)
    if hrep.target == "PBW" and kind == "special":
        mlat = semistandard_lattice(lat.n)
        hat = _ladder_witness(mlat, pbw_to_ssyt(lat, a), pbw_to_ssyt(lat, b))
        return {lat.weight_key(c): hat[pbw_to_ssyt(lat, c)] for c in lat.elements}
    raise KeyError(f"target {hrep.target} has no witness rule for facet kind {kind!r}")


def _square_witness(lattice, a, b):
    """Convex-function witness: one on the pair, squared distance elsewhere."""
    key = lattice.weight_key
    m = lattice.grade(a)
    out = {}
    for c in lattice.elements:
        out[key(c)] = 1 if c in (a, b) else (lattice.grade(c) - m) ** 2
    return out


def _power_witness(lattice, a, b, below):
    """Power witness A**(grade - m) above the pair, 3**(m - grade) below."""
    key = lattice.weight_key
    m = lattice.grade(a)
    amp = 3 ** (m - lattice.grade(below))
    out = {}
    for c in lattice.elements:
        g = lattice.grade(c)
        if c in (a, b):
            out[key(c)] = amp
        elif g >= m:
            out[key(c)] = amp ** (g - m)
        else:
            out[key(c)] = 3 ** (m - g)
    return out


def _ladder_witness(mlat, a, b):
    """Six-level assignment around a special pair of the semistandard lattice."""
    cls = mlat.classify_pair(a, b)
    check(cls.verdict == "diamond_special", "the ladder witness needs a special pair")
    a, b = cls.pair
    join, below, above = cls.join, cls.below, cls.above
    m = mlat.grade(a)
    out = {}
    for c in mlat.elements:
        g = mlat.grade(c)
        if g == m + 2:
            val = 0 if c == above else 2
        elif g == m + 1:
            if c == join:
                val = 1
            elif mlat.leq(c, above):
                val = 0
            else:
                val = 1
        elif g == m:
            if mlat.leq(c, join):
                val = 1
            elif mlat.leq(c, above):
                val = 0
            else:
                val = 1
        elif g == m - 1:
            val = 1
        elif g == m - 2:
            val = 1 if c == below else 2
        else:
            val = 2 ** abs(g - m)
        out[mlat.weight_key(c)] = val
    return out


# -- facet counts -------------------------------------------------------------

@dataclass(frozen=True)
class FacetCounts:
    n: int
    ssyt_total: int
    diamond: int
    special: int
    pbw_total: int


def facet_count(n):
    """Enumerated facet counts, cross-checked against the closed formulas; n >= 2."""
    if n < 2:
        raise ValueError(f"facet counts need n >= 2, got {n}")
    if n < 3:
        return FacetCounts(n, 0, 0, 0, 0)
    mlat = semistandard_lattice(n)
    m_diamond = mlat.diamond_pairs()
    m_special = [p for p in m_diamond
                 if mlat.classify_pair(*p).verdict == "diamond_special"]
    nlat = pbw_lattice(n)
    n_diamond = nlat.diamond_pairs()
    n_special = [p for p in n_diamond
                 if nlat.classify_pair(*p).verdict == "diamond_special"]
    counts = FacetCounts(
        n,
        ssyt_total=len(m_diamond) + len(m_special),
        diamond=len(m_diamond),
        special=len(m_special),
        pbw_total=len(n_diamond) + len(n_special),
    )
    check(counts.diamond == _closed_form(n, n * n - n - 2),
          f"{counts.diamond} diamond pairs at n = {n}, against the closed form")
    check(counts.ssyt_total == _closed_form(n, n * n + n - 4),
          f"{counts.ssyt_total} semistandard facets at n = {n}, against the closed form")
    check(counts.pbw_total == counts.ssyt_total,
          f"{counts.pbw_total} PBW facets against {counts.ssyt_total} semistandard ones at n = {n}")
    return counts


def _closed_form(n, quad):
    value = Fraction(quad) * Fraction(2) ** (n - 5)
    check(value.denominator == 1, f"closed form {value} at n = {n} is not an integer")
    return int(value)


# -- weight-space maps ---------------------------------------------------------

@dataclass(frozen=True)
class XiPoint:
    """Coordinates z_(s,t), 1 <= s <= t <= n, plus per-length shifts c_1..c_(n-1)."""

    n: int
    z: tuple    # ((s, t) -> value) as sorted items
    c: tuple    # (k -> value) as sorted items

    @classmethod
    def build(cls, n, z, c=None):
        zd = dict(z)
        for s in range(1, n + 1):
            for t in range(s, n + 1):
                zd.setdefault((s, t), 0)
        if set(zd) != {(s, t) for s in range(1, n + 1) for t in range(s, n + 1)}:
            raise ValueError("z must be keyed by pairs (s, t) with 1 <= s <= t <= n")
        cd = dict(c or {})
        for k in range(1, n):
            cd.setdefault(k, 0)
        return cls(n, tuple(sorted(zd.items())), tuple(sorted(cd.items())))

    def z_dict(self):
        return dict(self.z)

    def c_dict(self):
        return dict(self.c)


def sigma_map(n, xi):
    """Weights on columns: sum of z over (row, entry) cells plus the length shift."""
    z, c = xi.z_dict(), xi.c_dict()
    lat = semistandard_lattice(n)
    return {col: sum(z[(r + 1, v)] for r, v in enumerate(col)) + c[len(col)]
            for col in lat.elements}


def rho_map(n, xi):
    """Weights on PBW columns: minus the cell sum plus the length shift."""
    z, c = xi.z_dict(), xi.c_dict()
    lat = pbw_lattice(n)
    out = {}
    for alpha in lat.elements:
        out[lat.weight_key(alpha)] = (
            -sum(z[(j + 1, v)] for j, v in enumerate(alpha)) + c[len(alpha)])
    return out


def in_K(n, xi):
    """Zero diagonal and strictly submodular off-diagonal differences."""
    z = xi.z_dict()
    if any(z[(s, s)] != 0 for s in range(1, n + 1)):
        return False
    return all(z[(s, t)] + z[(s + 1, t + 1)] < z[(s, t + 1)] + z[(s + 1, t)]
               for s in range(1, n - 1) for t in range(s + 1, n))


def k_facet_form(n, s, t):
    """The submodularity facet binomial of the parameter cone, diagonal reduced out."""
    if not 1 <= s < t <= n - 1:
        raise ValueError(f"need 1 <= s < t <= n - 1, got s = {s}, t = {t}, n = {n}")
    form = {}
    for cell, coeff in (((s, t), 1), ((s + 1, t + 1), 1), ((s, t + 1), -1), ((s + 1, t), -1)):
        if cell[0] != cell[1]:
            form[cell] = form.get(cell, 0) + coeff
    return tuple(sorted(form.items()))


@dataclass(frozen=True)
class ConvexClassification:
    kind: str               # 'contains_subcone' | 'meets_in_facet'
    k_facet: tuple = None   # (s, t) when meets_in_facet
    sign: int = 0


def classify_facet_vs_subcone(target, facet_id, n):
    """Pull a facet form back through sigma (or rho) and compare with the parameter cone.

    Vanishing modulo the zero-diagonal subspace means the facet hyperplane
    contains the whole toric subcone; otherwise the pullback must match
    exactly one submodularity facet binomial, which is returned.
    """
    if target not in ("SSYT", "PBW"):
        raise ValueError("classification applies to the SSYT and PBW targets")
    hrep = cone_hrep(target, n=n)
    ineq = hrep.inequality(facet_id)
    lat = hrep.lattice
    zcoeff = {}
    ccoeff = {}
    sign = 1 if target == "SSYT" else -1  # sigma adds the cells of a column, rho subtracts them
    for key, coeff in ineq.form:
        alpha = lat.element_of_key(key)
        for j, v in enumerate(alpha):
            cell = (j + 1, v)
            zcoeff[cell] = zcoeff.get(cell, 0) + sign * coeff
        ccoeff[len(alpha)] = ccoeff.get(len(alpha), 0) + coeff
    check(all(v == 0 for v in ccoeff.values()), "length shifts must cancel on facet forms")
    reduced = tuple(sorted((cell, v) for cell, v in zcoeff.items()
                           if v and cell[0] != cell[1]))
    if not reduced:
        return ConvexClassification("contains_subcone")
    matches = []
    for s in range(1, n - 1):
        for t in range(s + 1, n):
            f = k_facet_form(n, s, t)
            if reduced == f:
                matches.append(((s, t), 1))
            elif reduced == tuple(sorted((c, -v) for c, v in f)):
                matches.append(((s, t), -1))
    check(len(matches) == 1,
          f"facet pullback must match exactly one submodularity binomial, got {matches}")
    (s, t), sign = matches[0]
    return ConvexClassification("meets_in_facet", (s, t), sign)


# -- initial forms -------------------------------------------------------------

def initial_form(poly, weights):
    """Terms of least weight, grading each variable by its weight coordinate."""
    if not poly:
        return {}
    values = {}
    for mono, coeff in poly.items():
        try:
            values[mono] = sum(weights[c] for c in mono)
        except KeyError as exc:
            raise KeyError(f"weight vector missing key {exc}") from None
    least = min(values.values())
    return {m: c for m, c in poly.items() if values[m] == least}


def weights_from_json_obj(obj, keys):
    """The weight vector a ``weights_to_json_obj`` map names: one rational per ``key_name``."""
    return json_rationals(obj, {key_name(key): key for key in keys}, "weights")


def weights_to_json_obj(weights):
    return {key_name(k): str(Fraction(v)) for k, v in sorted(
        weights.items(), key=lambda kv: key_name(kv[0]))}
