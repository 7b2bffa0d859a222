import json
import random
from fractions import Fraction

import pytest

from lattice_reference import cell_ideal
from oracle_reference import weight_matrix
from plueckerfan.cones import (
    ALL_TARGETS,
    ConeHRep,
    LinearInequality,
    STRICT,
    XiPoint,
    _pair_form,
    _power_witness,
    classify_facet_vs_subcone,
    cone_hrep,
    contains,
    contains_many,
    facet_count,
    facet_witness,
    generalized_interior_witness,
    in_K,
    initial_form,
    interior_witness,
    key_name,
    rho_map,
    sigma_map,
    weights_from_json_obj,
    weights_to_json_obj,
)
from plueckerfan.plucker_lattices import pbw_lattice, semistandard_lattice
from plueckerfan.straightening import hibi_generator, monomial, straighten_pair
from plueckerfan import verify


def square_xi(n, scale=1):
    z = {(s, t): scale * (t - s) ** 2 for s in range(1, n + 1) for t in range(s, n + 1)}
    return XiPoint.build(n, z)


class TestHRepExamples:
    def test_hibi_m3_single_inequality(self):
        h = cone_hrep("HIBI", lattice=semistandard_lattice(3))
        assert len(h) == 1
        assert dict(h.inequalities[0].form) == {
            (1,): 1, (2, 3): 1, (1, 3): -1, (2,): -1}

    def test_ssyt3_two_inequalities(self):
        h = cone_hrep("SSYT", n=3)
        assert len(h) == 2
        special = h.inequality(1)
        assert dict(special.form) == {(1,): 1, (2, 3): 1, (1, 2): -1, (3,): -1}

    def test_pbw4_eight_inequalities(self):
        assert len(cone_hrep("PBW", n=4)) == 8

    def test_redundant_targets_cover_all_pairs(self):
        for n in (3, 4):
            lat = semistandard_lattice(n)
            h = cone_hrep("HIBI_REDUNDANT", lattice=lat)
            assert len(h) == len(lat.incomparable_pairs())
            hr = cone_hrep("SSYT_REDUNDANT", n=n)
            assert len(hr) >= len(h)

    def test_toric_targets_have_equalities(self):
        h = cone_hrep("TORIC_GT", n=3)
        rels = [iq.relation for iq in h.inequalities]
        assert "=" in rels and "<" in rels

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            cone_hrep("NOPE", n=3)


class TestContains:
    def test_zero_vector_fails_strict(self):
        h = cone_hrep("SSYT", n=3)
        zero = {c: 0 for c in semistandard_lattice(3).elements}
        assert not contains(h, zero)
        assert all(ineq.holds_nonstrict(zero) for ineq in h.inequalities)  # in the closure

    def test_interior_witnesses(self):
        for n in (3, 4, 5):
            M, N = semistandard_lattice(n), pbw_lattice(n)
            assert contains(cone_hrep("HIBI", lattice=M), interior_witness(M))
            assert contains(cone_hrep("SSYT", n=n), interior_witness(M))
            w = generalized_interior_witness(N)
            assert contains(cone_hrep("GENHIBI", lattice=N), w)
            assert contains(cone_hrep("GENHIBI_REDUNDANT", lattice=N), w)
            assert contains(cone_hrep("PBW", n=n), w)
            assert contains(cone_hrep("SSYT", n=n), generalized_interior_witness(M))

    def test_squared_weights_leave_generalized_cone(self):
        # squared grades stop working once a special pair sits at grade >= 3:
        # the product element drops two levels and the square cannot absorb it
        N4 = pbw_lattice(4)
        assert not contains(cone_hrep("GENHIBI", lattice=N4), interior_witness(N4))
        N3 = pbw_lattice(3)
        assert contains(cone_hrep("GENHIBI", lattice=N3), interior_witness(N3))


class TestFacetWitnesses:
    def test_hibi_m3(self):
        h = cone_hrep("HIBI", lattice=semistandard_lattice(3))
        v = facet_witness(h, 0)
        assert v[(1,)] == v[(2, 3)] == 1
        assert not h.inequality(0).holds(v)

    def test_ssyt4_special_witness_values(self):
        h = cone_hrep("SSYT", n=4)
        fid = next(i for i in h.facet_ids()
                   if h.inequality(i).provenance == ("special", (1, 4), (2, 3)))
        v = facet_witness(h, fid)
        assert v[(1, 4)] + v[(2, 3)] == 2
        assert v[(1, 2)] + v[(3, 4)] == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_witness_pattern_all_targets(self, n):
        M, N = semistandard_lattice(n), pbw_lattice(n)
        for target, kwargs in (("HIBI", {"lattice": M}), ("GENHIBI", {"lattice": N}),
                               ("SSYT", {"n": n}), ("PBW", {"n": n})):
            h = cone_hrep(target, **kwargs)
            for fid in h.facet_ids():
                v = facet_witness(h, fid)
                assert not h.inequality(fid).holds(v)
                for j, other in enumerate(h.inequalities):
                    if j != fid:
                        assert other.holds_nonstrict(v)


class TestFacetCounts:
    @pytest.mark.parametrize("n,total,diamond,special", [
        (3, 2, 1, 1), (4, 8, 5, 3), (5, 26, 18, 8)])
    def test_examples(self, n, total, diamond, special):
        fc = facet_count(n)
        assert (fc.ssyt_total, fc.diamond, fc.special) == (total, diamond, special)
        assert fc.pbw_total == total

    def test_below_three(self):
        assert facet_count(2).ssyt_total == 0

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            facet_count(n)


class TestParameterCone:
    def test_zero_not_interior(self):
        assert not in_K(3, XiPoint.build(3, {}))

    def test_squares_are_interior(self):
        for n in (3, 4, 5):
            assert in_K(n, square_xi(n))

    def test_linear_is_boundary(self):
        n = 4
        z = {(s, t): t - s for s in range(1, n + 1) for t in range(s, n + 1)}
        assert not in_K(n, XiPoint.build(n, z))

    def test_zero_xi_maps_to_zero(self):
        w = sigma_map(3, XiPoint.build(3, {}))
        assert all(v == 0 for v in w.values())

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sigma_image_in_toric_cone(self, n):
        w = sigma_map(n, square_xi(n))
        assert contains(cone_hrep("TORIC_GT", n=n), w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rho_image_in_toric_cone(self, n):
        w = rho_map(n, square_xi(n))
        assert contains(cone_hrep("TORIC_FFLV", n=n), w)

    def test_shift_does_not_change_initial_forms(self):
        n = 4
        lat = semistandard_lattice(n)
        base = sigma_map(n, square_xi(n))
        shifted = sigma_map(n, XiPoint.build(n, square_xi(n).z_dict(),
                                             {1: 9, 2: -4, 3: 2}))
        for a, b in lat.incomparable_pairs():
            rel = straighten_pair(lat, a, b)
            assert initial_form(rel, base) == initial_form(rel, shifted)


class TestConvexClassification:
    def test_diamond_contains_subcone(self):
        h = cone_hrep("SSYT", n=4)
        fid = next(i for i in h.facet_ids()
                   if h.inequality(i).provenance[0] == "diamond")
        assert classify_facet_vs_subcone("SSYT", fid, 4).kind == "contains_subcone"

    def test_ssyt_special_facet_formula(self):
        h = cone_hrep("SSYT", n=4)
        fid = next(i for i in h.facet_ids()
                   if h.inequality(i).provenance == ("special", (1, 4), (2, 3)))
        res = classify_facet_vs_subcone("SSYT", fid, 4)
        # the pullback is z_(1,2) - z_(1,3) + z_(2,3) - z_(2,2): the (1,2) facet
        assert res.kind == "meets_in_facet" and res.k_facet == (1, 2) and res.sign == 1

    def test_pbw_special_facet_formula(self):
        h = cone_hrep("PBW", n=4)
        lat = h.lattice
        for fid in h.facet_ids():
            iq = h.inequality(fid)
            if iq.provenance[0] != "special":
                continue
            res = classify_facet_vs_subcone("PBW", fid, 4)
            _, a, b = iq.provenance
            cls = lat.classify_pair(a, b)
            cells = sorted(
                [next(iter(cell_ideal(lat, cls.pair[0]) - cell_ideal(lat, cls.meet))),
                 next(iter(cell_ideal(lat, cls.pair[1]) - cell_ideal(lat, cls.meet)))],
                reverse=True)
            (s, t), _ = cells
            assert res.kind == "meets_in_facet" and res.k_facet == (s - 1, t)
            assert res.sign == 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_no_assertion_failures(self, n):
        for target in ("SSYT", "PBW"):
            h = cone_hrep(target, n=n)
            for fid in h.facet_ids():
                res = classify_facet_vs_subcone(target, fid, n)
                expected = ("contains_subcone"
                            if h.inequality(fid).provenance[0] == "diamond"
                            else "meets_in_facet")
                assert res.kind == expected


class TestInitialForm:
    def test_constant_weights_fix_everything(self):
        lat = semistandard_lattice(4)
        rel = straighten_pair(lat, (1, 4), (2, 3))
        w = {c: 7 for c in lat.elements}
        assert initial_form(rel, w) == rel

    def test_interior_weights_pick_lead(self):
        lat = semistandard_lattice(4)
        rel = straighten_pair(lat, (1, 4), (2, 3))
        w = interior_witness(lat)
        assert initial_form(rel, w) == {monomial(((1, 4), (2, 3))): Fraction(1)}

    def test_toric_weights_keep_binomial(self):
        n, lat = 4, semistandard_lattice(4)
        w = sigma_map(n, square_xi(n))
        rel = straighten_pair(lat, (1, 4), (2, 3))
        assert initial_form(rel, w) == {
            monomial(((1, 4), (2, 3))): Fraction(1),
            monomial(((1, 3), (2, 4))): Fraction(-1)}

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            initial_form({monomial(((1, 2),)): 1}, {})


class TestMinimalImpliesRedundant:
    @pytest.mark.parametrize("n", [3, 4])
    def test_sampled_points(self, n):
        M, N = semistandard_lattice(n), pbw_lattice(n)
        cases = [
            (cone_hrep("HIBI", lattice=M), cone_hrep("HIBI_REDUNDANT", lattice=M),
             interior_witness(M)),
            (cone_hrep("GENHIBI", lattice=N), cone_hrep("GENHIBI_REDUNDANT", lattice=N),
             generalized_interior_witness(N)),
            (cone_hrep("SSYT", n=n), cone_hrep("SSYT_REDUNDANT", n=n),
             interior_witness(M)),
            (cone_hrep("PBW", n=n), cone_hrep("PBW_REDUNDANT", n=n),
             generalized_interior_witness(N)),
        ]
        for minimal, redundant, center in cases:
            W, _ = verify.sample_cone_points(minimal, center, 50, seed=1)
            keys = sorted(center, key=key_name)  # the sampler's columns
            assert len(W) == 50
            for row in W.tolist():
                assert contains(redundant, dict(zip(keys, row)))


class TestGenericLattices:
    """The Hibi-type machinery must work on arbitrary distributive lattices."""

    def _random_lattices(self, count=6, seed=13):
        import random
        from plueckerfan.order_core import IdealLattice
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            lat = IdealLattice(verify.random_poset(rng, max_size=5))
            if len(lat.elements) >= 4:
                out.append(lat)
        return out

    def test_hibi_cone_and_witnesses(self):
        for lat in self._random_lattices():
            h = cone_hrep("HIBI", lattice=lat)
            w = interior_witness(lat)
            assert contains(h, w)
            assert contains(cone_hrep("HIBI_REDUNDANT", lattice=lat), w)
            for fid in h.facet_ids():
                v = facet_witness(h, fid)
                assert not h.inequality(fid).holds(v)
                assert all(iq.holds_nonstrict(v)
                           for j, iq in enumerate(h.inequalities) if j != fid)

    def test_genhibi_cone_with_explicit_partitions(self):
        import random
        from plueckerfan.chain_order import ChainOrderPartition
        rng = random.Random(7)
        for lat in self._random_lattices():
            irr = lat.ji_poset
            for _ in range(4):
                mask = rng.getrandbits(len(irr)) if len(irr) else 0
                part = ChainOrderPartition.from_masks(irr, mask)
                h = cone_hrep("GENHIBI", lattice=lat, partition=part)
                hr = cone_hrep("GENHIBI_REDUNDANT", lattice=lat, partition=part)
                w = generalized_interior_witness(lat)
                assert contains(h, w) and contains(hr, w)
                for fid in h.facet_ids():
                    v = facet_witness(h, fid)
                    assert not h.inequality(fid).holds(v)
                    assert all(iq.holds_nonstrict(v)
                               for j, iq in enumerate(h.inequalities) if j != fid)

    def test_hibi_generators_with_every_partition(self):
        # the generalized binomial checks its own kernel condition as it is built
        from plueckerfan.chain_order import ChainOrderPartition, odot_elements
        checked = 0
        for lat in self._random_lattices():
            irr = lat.ji_poset
            for mask in range(1 << len(irr)):
                part = ChainOrderPartition.from_masks(irr, mask)
                for a, b in lat.incomparable_pairs():
                    join = lat.join(a, b)
                    lower = odot_elements(lat, part, a, b)
                    assert lat.leq(lower, lat.meet(a, b))  # the product only moves down
                    gen = hibi_generator(lat, a, b, part)
                    assert gen == {tuple(sorted((a, b))): 1,
                                   tuple(sorted((lower, join))): -1}
                    if mask == (1 << len(irr)) - 1:  # the order polytope: the plain Hibi binomial
                        assert gen == hibi_generator(lat, a, b)
                    checked += 1
        assert checked > 100

    def test_incomparable_pairs_match_the_order(self):
        for lat in self._random_lattices():
            els = lat.elements
            expect = [(a, b) for i, a in enumerate(els) for b in els[i + 1:]
                      if not (lat.leq(a, b) or lat.leq(b, a))]
            assert lat.incomparable_pairs() == expect
            assert [iq.provenance[1:] for iq in cone_hrep("HIBI_REDUNDANT", lattice=lat)
                    .inequalities] == expect

    def test_generic_route_matches_cell_route(self):
        # rebuild the PBW lattice as the ideal lattice of its cell grid and
        # compare the generalized Hibi descriptions inequality by inequality,
        # a PBW key read as the cell-ideal mask of its element
        from plueckerfan.chain_order import ChainOrderPartition
        from plueckerfan.order_core import IdealLattice
        for n in (3, 4):
            nlat = pbw_lattice(n)
            generic = IdealLattice(nlat.ji_poset)
            irr = generic.ji_poset
            diag = [(k, k) for k in range(2, n)]
            part = ChainOrderPartition.from_sets(
                irr, diag, [c for c in irr.elements if c not in diag])
            h_generic = cone_hrep("GENHIBI", lattice=generic, partition=part)
            h_cells = cone_hrep("GENHIBI", lattice=nlat)

            def as_mask(key):
                return nlat.mask(nlat.element_of_key(key))

            rows_generic = {frozenset(iq.form) for iq in h_generic.inequalities}
            rows_cells = {frozenset((as_mask(k), c) for k, c in iq.form)
                          for iq in h_cells.inequalities}
            assert rows_generic == rows_cells
            assert len(h_generic.inequalities) == len(h_cells.inequalities)


def test_weights_json_round_trip():
    lat = semistandard_lattice(3)
    w = {c: Fraction(i, 3) for i, c in enumerate(lat.elements)}
    obj = weights_to_json_obj(w)
    assert weights_from_json_obj(json.loads(json.dumps(obj)), lat.elements) == w


def test_weights_json_values_and_names():
    # ints, finite numbers and strings Fraction reads keep their values; any key is named by key_name
    obj = json.loads('{"5": 3, "x": 0.5, "1,2": "2/6", "7": " -4 "}')
    assert weights_from_json_obj(obj, [5, "x", (1, 2), 7]) == {
        5: 3, "x": Fraction(1, 2), (1, 2): Fraction(1, 3), 7: -4}


def test_hibi_binomial_initial_at_toric_point():
    # on the parametrized toric points the full binomial survives as a tie
    n = 4
    lat = semistandard_lattice(n)
    w = sigma_map(n, square_xi(n))
    for a, b in lat.incomparable_pairs():
        gen = hibi_generator(lat, a, b)
        poly = {monomial(m): c for m, c in gen.items()}
        assert initial_form(poly, w) == poly


def target_hrep(target, n):
    if target.startswith("HIBI"):
        return cone_hrep(target, lattice=semistandard_lattice(n))
    if target.startswith("GENHIBI"):
        return cone_hrep(target, lattice=pbw_lattice(n))
    return cone_hrep(target, n=n)


def seeded_weights(hrep, rng, count, scale):
    """The scaled exponential witness plus noise of growing spread: points on both sides."""
    center = generalized_interior_witness(hrep.lattice)
    keys = sorted(center)
    return keys, [{k: scale * center[k] + rng.randint(-spread, spread) for k in keys}
                  for spread in (2 ** (i % 6) for i in range(count))]


class TestBatchedTwins:
    """``contains_many`` against the scalar ``contains``."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_contains_many(self, target, n):
        hrep = target_hrep(target, n)
        rng = random.Random(n)
        keys, pts = seeded_weights(hrep, rng, 60, 1)
        got = contains_many(hrep, keys, weight_matrix(pts, keys))
        expect = [contains(hrep, w) for w in pts]
        assert got.tolist() == expect
        if target in ("TORIC_GT", "TORIC_FFLV"):
            w = (sigma_map if target == "TORIC_GT" else rho_map)(n, square_xi(n))
            assert contains(hrep, w)
            assert contains_many(hrep, keys, weight_matrix([w], keys)).tolist() == [True]
        else:
            assert any(expect) and not all(expect)

    def test_missing_lead_never_initial(self):
        lat = semistandard_lattice(4)
        a, b = lat.incomparable_pairs()[0]
        poly = straighten_pair(lat, a, b)
        k = next(k for k in lat.elements if all(k not in mono for mono in poly))
        w = {**interior_witness(lat), k: -100}  # the stranger is lighter than every term
        stranger = monomial((k, k))
        assert set(initial_form({**poly, stranger: 1}, w)) == {stranger}

    def test_fraction_weights_take_the_object_path(self):
        hrep = cone_hrep("PBW_REDUNDANT", n=4)
        keys, pts = seeded_weights(hrep, random.Random(3), 40, 1)
        pts = [{k: Fraction(v, 3) for k, v in w.items()} for w in pts]
        W = weight_matrix(pts, keys)
        assert W.dtype == object
        assert contains_many(hrep, keys, W).tolist() == [contains(hrep, w) for w in pts]

    def test_weights_near_two_to_the_62(self):
        # every weight fits int64, but a form's sum may not: the object path must run
        hrep = cone_hrep("SSYT_REDUNDANT", n=4)
        lat = semistandard_lattice(4)
        center = generalized_interior_witness(lat)
        keys = sorted(center)
        top = max(center.values())
        rng = random.Random(5)
        pts = [{k: (center[k] << 62) // top + rng.randint(-5, 5) for k in keys} for _ in range(30)]
        W = weight_matrix(pts, keys)
        assert W.dtype == "int64" and int(W.max()) > 1 << 61
        expect = [contains(hrep, w) for w in pts]
        assert contains_many(hrep, keys, W).tolist() == expect
        assert True in expect

    def test_int64_kept_when_sums_fit(self):
        # l1 norm 7 at 2**60 fits int64; at l1 norm 8 the sum is 2**63, which int64 wraps
        # to -2**63, so only the Python-integer path gets the strict row right
        keys = ["x", "y"]
        W = weight_matrix([{"x": 1 << 60, "y": -(1 << 60)}], keys)
        assert W.dtype == "int64"
        for y in (-3, -4):
            h = ConeHRep("TEST", "TEST", (LinearInequality((("x", 4), ("y", y)), STRICT, ("test",)),))
            assert contains_many(h, keys, W).tolist() == [contains(h, {"x": 1 << 60, "y": -(1 << 60)})]
            assert contains(h, {"x": 1 << 60, "y": -(1 << 60)}) is False
        assert weight_matrix([{"x": 1 << 63, "y": 0}], keys).dtype == object
        assert weight_matrix([{"x": True, "y": 0}], keys).dtype == object

    def test_every_relation(self):
        hrep = target_hrep("HIBI", 3)
        keys = sorted({k for iq in hrep.inequalities for k, _ in iq.form})
        form = tuple((k, 1) for k in keys[:2])
        for relation, expect in (("<", [False, True, False]), ("<=", [True, True, False]),
                                 ("=", [True, False, False])):
            h = ConeHRep("TEST", "TEST", (LinearInequality(form, relation, ("test",)),))
            pts = [dict.fromkeys(keys, 0), {**dict.fromkeys(keys, 0), keys[0]: -1},
                   {**dict.fromkeys(keys, 0), keys[0]: 1}]
            assert [contains(h, w) for w in pts] == expect
            assert contains_many(h, keys, weight_matrix(pts, keys)).tolist() == expect


# -- SSYT / PBW as the Hibi / generalized Hibi rows plus the special rows ----------

def reference_minimal_rows(target, n):
    """The minimal rows from the pair classification alone.

    Diamond rows take the meet (SSYT) or the ideal product (PBW); each special
    row follows its pair's diamond row.
    """
    lat = semistandard_lattice(n) if target == "SSYT" else pbw_lattice(n)
    key = lat.weight_key
    rows = []
    for a, b in lat.diamond_pairs():
        cls = lat.classify_pair(a, b)
        lower = cls.meet if target == "SSYT" else cls.below
        rows.append((_pair_form(a, b, lower, cls.join, key), STRICT, ("diamond", a, b)))
        if cls.verdict == "diamond_special":
            lo = cls.below if target == "SSYT" else cls.companion
            rows.append((_pair_form(a, b, lo, cls.above, key), STRICT, ("special", a, b)))
    return rows


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("target, hibi_target, lattice", [
    ("SSYT", "HIBI", semistandard_lattice), ("PBW", "GENHIBI", pbw_lattice)])
def test_minimal_cone_is_the_hibi_rows_plus_special_rows(target, hibi_target, lattice, n):
    minimal = cone_hrep(target, n=n)
    rows = [(iq.form, iq.relation, iq.provenance) for iq in minimal.inequalities]
    assert rows == reference_minimal_rows(target, n)
    hibi = cone_hrep(hibi_target, lattice=lattice(n))
    assert [row for row in rows if row[2][0] == "diamond"] == [
        (iq.form, iq.relation, iq.provenance) for iq in hibi.inequalities]
    for i, (_, _, prov) in enumerate(rows):
        if prov[0] == "special":
            assert rows[i - 1][2] == ("diamond",) + prov[1:]
    assert (minimal.partition is None) == (target == "SSYT")


@pytest.mark.parametrize("n", range(3, 8))
def test_power_witness_uses_the_classified_product(n):
    hrep = cone_hrep("PBW", n=n)
    lat = hrep.lattice
    for fid in hrep.facet_ids():
        kind, a, b = hrep.inequality(fid).provenance
        if kind == "diamond":
            below = lat.classify_pair(a, b).below
            assert facet_witness(hrep, fid) == _power_witness(lat, a, b, below)


def test_k_facet_form_rejects_out_of_range_cells():
    from plueckerfan.cones import k_facet_form
    with pytest.raises(ValueError, match="1 <= s < t <= n - 1"):
        k_facet_form(4, 2, 2)


class TestConeWriter:
    """``ConeHRep.to_json`` against ``json.dumps`` of ``to_json_obj``, its reference."""

    @staticmethod
    def reference(hrep):
        return json.dumps(hrep.to_json_obj(), indent=2, sort_keys=True)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_matches_json_dumps(self, target, n):
        from plueckerfan.plucker_lattices import PluckerLattice
        for kind in ("M", "N") if "HIBI" in target else ("M",):
            hrep = cone_hrep(target, n=n, lattice=PluckerLattice(kind, n))
            assert hrep.to_json() == self.reference(hrep)

    def test_names_needing_escapes(self):
        # the 2 x 3 grid of chains; 'a"b' sorts before 'a#' by name but after it
        # once encoded ('\\' > '#'), and 'é' is written as é
        from plueckerfan.chain_order import ChainOrderPartition
        from lattice_reference import DistributiveLattice
        from plueckerfan.order_core import Poset
        names = {(0, 0): "0", (1, 0): 'a"b', (2, 0): "a#", (0, 1): "é", (1, 1): "x", (2, 1): "1"}
        covers = [(names[i, j], names[i + di, j + dj]) for i, j in names
                  for di, dj in ((1, 0), (0, 1)) if (i + di, j + dj) in names]
        lat = DistributiveLattice.from_poset(Poset.from_covers(list(names.values()), covers))
        irr = lat.ji_poset
        part = ChainOrderPartition.from_masks(irr, 1)
        hreps = [cone_hrep("HIBI", lattice=lat), cone_hrep("HIBI_REDUNDANT", lattice=lat),
                 cone_hrep("GENHIBI_REDUNDANT", lattice=lat, partition=part)]
        assert any({'a"b', "a#"} <= {k for k, _ in iq.form}
                   for h in hreps for iq in h.inequalities)
        for hrep in hreps:
            assert "\\u00e9" in hrep.to_json()
            assert hrep.to_json() == self.reference(hrep)

    def test_empty_description_and_fraction_coefficients(self):
        assert ConeHRep("HIBI", "HIBI(none)", ()).to_json() == json.dumps(
            {"target": "HIBI", "label": "HIBI(none)", "inequalities": [], "provenance": []},
            indent=2, sort_keys=True)
        rows = (LinearInequality((((1, 2), Fraction(1, 2)), ((3,), -2), ((1,), True)), STRICT,
                                 ("made", (1, 2), 0)),
                LinearInequality((), "=", ("empty",)))
        hrep = ConeHRep("SSYT", "SSYT(made)", rows)
        assert hrep.to_json() == self.reference(hrep)
