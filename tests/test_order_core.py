import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lattice_reference import (
    birkhoff_iso,
    diamond_pairs,
    grading_of,
    join_irreducibles,
    lattice_of_ideals,
    to_distributive_lattice,
)
from plueckerfan.order_core import (
    CapacityError,
    IdealLattice,
    OrderIdeal,
    Poset,
    PosetError,
    enumerate_order_ideals,
    ideal_masks,
)
from plueckerfan.plucker_lattices import PluckerLattice, semistandard_lattice


def chain(m):
    names = [f"c{i}" for i in range(m)]
    return Poset.from_covers(names, list(zip(names, names[1:])))


def antichain(m):
    return Poset.from_covers([f"a{i}" for i in range(m)], [])


def brute_force_ideals(poset):
    """Independent oracle: filter every subset for downward closure."""
    n = len(poset)
    out = []
    for mask in range(1 << n):
        if poset.is_down_closed(mask):
            out.append(mask)
    return sorted(out)


@st.composite
def random_posets(draw, max_size=7):
    size = draw(st.integers(1, max_size))
    names = [f"p{i}" for i in range(size)]
    covers = []
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                covers.append((names[i], names[j]))
    return Poset.from_covers(names, covers)


class TestPoset:
    def test_from_covers_rejects_cycles(self):
        with pytest.raises(PosetError):
            Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_from_covers_rejects_duplicates(self):
        with pytest.raises(PosetError):
            Poset.from_covers(["a", "a"], [])

    @pytest.mark.parametrize("names", [["1", 1], [1, "1", "2", 2], [(1, 2), "(1, 2)"]])
    def test_from_covers_rejects_elements_with_the_same_str(self, names):
        # points and inequalities name elements by str, which could not tell these apart
        with pytest.raises(PosetError, match="have the same name"):
            Poset.from_covers(names, [])

    def test_json_round_trip(self):
        p = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("x", "z")])
        q = Poset.from_json(p.to_json())
        assert q.elements == p.elements
        assert q.up == p.up

    def test_canonical_order_is_linear_extension(self):
        p = Poset.from_covers(["b", "a", "c"], [("c", "a"), ("a", "b")])
        for i, e in enumerate(p.elements):
            for j, f in enumerate(p.elements):
                if p.lt(e, f):
                    assert i < j

    @given(random_posets())
    @settings(max_examples=50, deadline=None)
    def test_cover_pairs_are_transitive_reduction(self, p):
        covers = set(p.cover_pairs())
        for a, b in itertools.permutations(p.elements, 2):
            is_cover = p.lt(a, b) and not any(
                p.lt(a, c) and p.lt(c, b) for c in p.elements)
            assert ((a, b) in covers) == is_cover


class TestOrderIdeals:
    def test_antichain_has_all_subsets(self):
        assert len(enumerate_order_ideals(antichain(2))) == 4

    def test_chain_has_prefixes(self):
        assert len(enumerate_order_ideals(chain(3))) == 4

    def test_irreducible_grid_matches_lattice_size(self):
        # computed by the brute-force subset oracle below
        grid = semistandard_lattice(3).ji_poset
        assert len(enumerate_order_ideals(grid)) == len(brute_force_ideals(grid)) == 6

    @given(random_posets())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, p):
        fast = [ideal.bits for ideal in enumerate_order_ideals(p)]
        assert sorted(fast) == brute_force_ideals(p)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_order_ideals(antichain(63))

    @given(random_posets())
    @settings(max_examples=40, deadline=None)
    def test_a_listing_stops_before_it_holds_more_than_most(self, p):
        # a poset with k ideals lists them under most = k and stops under most = k - 1
        k = len(ideal_masks(p))
        assert ideal_masks(p, k) == ideal_masks(p)
        with pytest.raises(CapacityError, match=f"more than {k - 1} order ideals"):
            ideal_masks(p, k - 1)

    def test_a_capped_antichain_stops_at_its_cap(self):
        # 2^40 ideals; the cap stops the listing at 2^11 of them, at once
        with pytest.raises(CapacityError, match="more than 3000 order ideals"):
            ideal_masks(antichain(40), 3000)

    def test_non_ideal_rejected(self):
        p = chain(2)
        with pytest.raises(PosetError):
            OrderIdeal.from_members(p, ["c1"])

    def test_bits_past_the_poset_rejected(self):
        p = chain(2)
        assert len(OrderIdeal(p, 0b11)) == 2
        for bits in (0b100, 1 << 40, -1):
            with pytest.raises(PosetError):
                OrderIdeal(p, bits)

    def test_operators_reject_ideals_of_another_poset(self):
        # an equal but distinct poset is another poset: positions may not line up
        a, b = OrderIdeal(chain(2), 0b1), OrderIdeal(chain(2), 0b11)
        for op in (lambda x, y: x | y, lambda x, y: x & y, lambda x, y: x <= y):
            with pytest.raises(PosetError, match="different posets"):
                op(a, b)
        assert (a | a, a & a, a <= a) == (a, a, True)


class TestLatticeOfIdeals:
    def test_empty_poset(self):
        assert len(lattice_of_ideals(Poset.from_covers([], []))) == 1

    def test_two_antichain_is_boolean(self):
        lat = lattice_of_ideals(antichain(2))
        assert len(lat) == 4
        assert len(join_irreducibles(lat)) == 2

    def test_irreducible_grid_rebuilds_m3(self):
        m3 = semistandard_lattice(3)
        lat = lattice_of_ideals(m3.ji_poset)
        # match by ideals of join-irreducible cells
        by_bits = {ideal.bits: ideal for ideal in lat.elements}
        image = {}
        for a in m3.elements:
            image[a] = by_bits[m3.iota(a).bits]
        for a in m3.elements:
            for b in m3.elements:
                assert m3.leq(a, b) == lat.leq(image[a], image[b])
                assert image[m3.join(a, b)] == lat.join(image[a], image[b])
                assert image[m3.meet(a, b)] == lat.meet(image[a], image[b])

    def test_join_is_union_meet_is_intersection(self):
        lat = lattice_of_ideals(chain(2))
        for x in lat.elements:
            for y in lat.elements:
                assert lat.join(x, y).bits == x.bits | y.bits
                assert lat.meet(x, y).bits == x.bits & y.bits


class TestBirkhoff:
    def test_chain_irreducibles(self):
        lat = lattice_of_ideals(chain(1))  # two-element chain lattice
        assert len(join_irreducibles(lat)) == 1

    def test_m3_irreducibles(self):
        lat = to_distributive_lattice(semistandard_lattice(3))
        assert sorted(join_irreducibles(lat).elements) == [(1,), (1, 3), (2, 3), (3,)]

    def test_birkhoff_examples(self):
        lat = to_distributive_lattice(semistandard_lattice(3))
        assert len(birkhoff_iso(lat, (1, 2))) == 0
        assert len(birkhoff_iso(lat, (3,))) == len(join_irreducibles(lat))
        # middle element: brute-force irreducibles below it
        irr = join_irreducibles(lat)
        expect = tuple(p for p in irr.elements if lat.leq(p, (2,)))
        assert birkhoff_iso(lat, (2,)).members() == expect
        assert len(expect) == 3

    @given(random_posets(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_birkhoff_is_lattice_isomorphism(self, p):
        lat = lattice_of_ideals(p)
        ideals = {birkhoff_iso(lat, a).bits for a in lat.elements}
        irr = join_irreducibles(lat)
        assert ideals == set(b.bits for b in enumerate_order_ideals(irr))
        for a in lat.elements:
            for b in lat.elements:
                ja = birkhoff_iso(lat, a)
                jb = birkhoff_iso(lat, b)
                assert birkhoff_iso(lat, lat.join(a, b)).bits == ja.bits | jb.bits
                assert birkhoff_iso(lat, lat.meet(a, b)).bits == ja.bits & jb.bits

    @given(random_posets(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_reconstruction(self, p):
        lat = lattice_of_ideals(p)
        rebuilt = lattice_of_ideals(join_irreducibles(lat))
        assert len(rebuilt) == len(lat)
        # the Birkhoff map itself is the isomorphism
        image = {a: birkhoff_iso(lat, a) for a in lat.elements}
        for a in lat.elements:
            for b in lat.elements:
                assert lat.leq(a, b) == (image[a].bits & ~image[b].bits == 0)


class TestGrading:
    def test_examples(self):
        lat = to_distributive_lattice(semistandard_lattice(3))
        g = grading_of(lat)
        assert g[(1, 2)] == 0
        assert g[(1, 3)] == 1
        assert g[(3,)] == 4


class TestDiamondPairs:
    def test_chain_has_none(self):
        assert diamond_pairs(lattice_of_ideals(chain(3))) == []

    def test_m3_single_pair(self):
        lat = to_distributive_lattice(semistandard_lattice(3))
        assert diamond_pairs(lat) == [((1,), (2, 3))]

    def test_m4_count(self):
        lat = to_distributive_lattice(semistandard_lattice(4))
        assert len(diamond_pairs(lat)) == 5

    @given(random_posets(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_diamond_grades_and_covers(self, p):
        lat = lattice_of_ideals(p)
        g = grading_of(lat)
        covers = set(lat.poset.cover_pairs())
        for a, b in diamond_pairs(lat):
            join, meet = lat.join(a, b), lat.meet(a, b)
            assert g[a] == g[b] == g[meet] + 1 == g[join] - 1
            assert (a, join) in covers and (b, join) in covers
            assert (meet, a) in covers and (meet, b) in covers


class TestIdealLattice:
    """The mask lattice against the table-based reference ``lattice_of_ideals``."""

    @given(random_posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference(self, p):
        lat, ref = IdealLattice(p), lattice_of_ideals(p)
        bits = [ideal.bits for ideal in ref.elements]
        to_ref = {ideal.bits: ideal for ideal in ref.elements}
        assert sorted(lat.elements) == sorted(bits)
        grade = grading_of(ref)
        ref_covers = {(x.bits, y.bits) for x, y in ref.poset.cover_pairs()}
        for a in lat.elements:
            assert grade[to_ref[a]] == lat.grade(a)
            assert lat.iota(a).bits == lat.mask(a) == a
            assert lat.element(a) == a
            assert lat.from_ideal(lat.iota(a)) == a
            for b in lat.elements:
                assert lat.leq(a, b) == ref.leq(to_ref[a], to_ref[b])
                assert lat.meet(a, b) == ref.meet(to_ref[a], to_ref[b]).bits
                assert lat.join(a, b) == ref.join(to_ref[a], to_ref[b]).bits
                assert lat.covers(a, b) == ((a, b) in ref_covers)
        assert to_ref[lat.minimum] == ref.minimum
        assert lat.maximum == max(bits, key=int.bit_count)

        def as_bits(pairs):
            return {frozenset((x.bits, y.bits)) for x, y in pairs}

        def unordered(pairs):
            return {frozenset(pair) for pair in pairs}

        assert set(lat.cover_pairs()) == ref_covers
        assert unordered(lat.incomparable_pairs()) == as_bits(ref.incomparable_pairs())
        assert unordered(lat.diamond_pairs()) == as_bits(diamond_pairs(ref))
        assert len(lat.incomparable_pairs()) == len(ref.incomparable_pairs())
        assert len(lat.diamond_pairs()) == len(diamond_pairs(ref))

    @pytest.mark.parametrize("kind", ["M", "N"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_plucker_lattices_match_the_reference(self, kind, n):
        lat = PluckerLattice(kind, n)
        ref = to_distributive_lattice(lat)  # checks every lattice and distributivity axiom
        grade = grading_of(ref)
        assert set(ref.elements) == set(lat.elements)
        assert all(grade[a] == lat.grade(a) for a in lat.elements)
        assert set(lat.cover_pairs()) == set(ref.poset.cover_pairs())
        assert sorted(map(sorted, lat.incomparable_pairs())) == sorted(
            map(sorted, ref.incomparable_pairs()))
        assert sorted(map(sorted, lat.diamond_pairs())) == sorted(map(sorted, diamond_pairs(ref)))
        assert (lat.minimum, lat.maximum) == (ref.minimum, max(lat.elements, key=lat.grade))

    def test_pair_operations_past_the_capacity(self):
        lat = IdealLattice(antichain(63))
        with pytest.raises(CapacityError):
            lat.elements
        a, b = (1 << 62) | 0b101, 0b110
        assert lat.meet(a, b) == 0b100 and lat.join(a, b) == (1 << 62) | 0b111
        assert not lat.leq(a, b) and lat.leq(lat.meet(a, b), a)
        assert lat.grade(lat.maximum) == 63
        assert "elements" not in lat.__dict__
