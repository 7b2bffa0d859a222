import itertools
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lattice_reference import to_distributive_lattice
from plueckerfan import cones, plucker_lattices, verify
from plueckerfan.order_core import CapacityError, OrderIdeal, Poset, PosetError
from plueckerfan.plucker_lattices import (
    ComparablePairError,
    PluckerLattice,
    all_columns,
    canonicalize,
    column_grade,
    column_join,
    column_meet,
    is_pbw_column,
    ji_cells,
    ji_column,
    m_cell_ideal,
    pbw_arrange,
    pbw_cell_ideal,
    pbw_lattice,
    pbw_to_ssyt,
    pbw_two_column_leq,
    semistandard_lattice,
    semistandard_leq,
    ssyt_to_pbw,
)


def enumerated(kind, n):
    """A lattice that has enumerated its elements, so its four tables are full."""
    lat = PluckerLattice(kind, n)
    lat.elements
    return lat


class TestSemistandardLattice:
    def test_n3_hasse_chain(self):
        lat = semistandard_lattice(3)
        assert lat.elements == ((1, 2), (1, 3), (1,), (2, 3), (2,), (3,))
        assert set(lat.cover_pairs()) == {
            ((1, 2), (1, 3)), ((1, 3), (1,)), ((1, 3), (2, 3)),
            ((1,), (2,)), ((2, 3), (2,)), ((2,), (3,))}

    def test_meet_join_example(self):
        lat = semistandard_lattice(4)
        assert lat.meet((1, 4), (2, 3)) == (1, 3)
        assert lat.join((1, 4), (2, 3)) == (2, 4)

    def test_n4_irreducibles_match_diagram(self):
        lat = semistandard_lattice(4)
        reds = {(1,), (4,), (1, 2), (1, 4), (3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4)}
        irr = {c for c in lat.elements
               if sum(1 for a in lat.elements if lat.covers(a, c)) == 1}
        assert irr == reds
        assert {ji_column(cell, 4) for cell in ji_cells(4)} == reds

    def test_element_counts(self):
        for n in (2, 3, 4, 5, 6):
            assert len(semistandard_lattice(n)) == 2 ** n - 2

    def test_n4_hasse_diagram(self):
        expected = {
            ((1, 2, 3), (1, 2, 4)), ((1, 2, 4), (1, 2)), ((1, 2, 4), (1, 3, 4)),
            ((1, 2), (1, 3)), ((1, 3, 4), (1, 3)), ((1, 3, 4), (2, 3, 4)),
            ((1, 3), (1, 4)), ((1, 3), (2, 3)), ((2, 3, 4), (2, 3)),
            ((1, 4), (1,)), ((1, 4), (2, 4)), ((2, 3), (2, 4)),
            ((1,), (2,)), ((2, 4), (2,)), ((2, 4), (3, 4)),
            ((2,), (3,)), ((3, 4), (3,)), ((3,), (4,)),
        }
        assert set(semistandard_lattice(4).cover_pairs()) == expected

    def test_size_guards(self):
        with pytest.raises(ValueError):
            semistandard_lattice(1)
        lat = semistandard_lattice(13)
        with pytest.raises(CapacityError):
            lat.elements

    def test_meet_join_are_lattice_operations(self):
        lat = semistandard_lattice(4)
        for a, b in itertools.combinations(lat.elements, 2):
            m, j = lat.meet(a, b), lat.join(a, b)
            assert lat.leq(m, a) and lat.leq(m, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            for c in lat.elements:
                if lat.leq(c, a) and lat.leq(c, b):
                    assert lat.leq(c, m)
                if lat.leq(a, c) and lat.leq(b, c):
                    assert lat.leq(j, c)

    def test_grading_formula_matches_ideal_size(self):
        for n in (3, 4, 5):
            lat = semistandard_lattice(n)
            for a in lat.elements:
                assert column_grade(a, n) == len(lat.cell_ideal(a))

    def test_cover_patterns(self):
        # covers either bump one entry by one, or drop a trailing n
        for n in (4, 5, 6):
            lat = semistandard_lattice(n)
            for a, b in lat.cover_pairs():
                if len(a) == len(b):
                    diff = [r for r in range(len(a)) if a[r] != b[r]]
                    assert len(diff) == 1 and a[diff[0]] == b[diff[0]] - 1
                else:
                    assert len(a) == len(b) + 1 and a[-1] == n and a[:-1] == b


class TestPBWColumns:
    def test_validity(self):
        assert is_pbw_column((3, 2), 3)
        assert is_pbw_column((1, 2, 4), 4)
        assert not is_pbw_column((2, 3), 3)      # small entry off its slot
        assert not is_pbw_column((4, 5, 3), 5)   # big entries must decrease
        assert not is_pbw_column((4, 5), 5)

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_arrangement_unique(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        values = data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k))
        alpha = pbw_arrange(values)
        assert is_pbw_column(alpha, n)
        assert set(alpha) == set(values)
        others = [p for p in itertools.permutations(values) if is_pbw_column(p, n)]
        assert others == [alpha]

    def test_two_column_rule(self):
        assert pbw_two_column_leq((3, 2), (3, 2))
        assert pbw_two_column_leq((1, 3), (3, 2))
        assert not pbw_two_column_leq((1, 2), (3,))


class TestPBWLattice:
    def test_n3_chain(self):
        lat = pbw_lattice(3)
        assert lat.elements == ((1,), (2,), (1, 2), (3,), (3, 2), (1, 3))

    def test_counts(self):
        for n in (2, 3, 4, 5):
            assert len(pbw_lattice(n)) == 2 ** n - 2

    def test_n4_hasse_diagram(self):
        expected = {
            ((1,), (2,)), ((2,), (1, 2)), ((2,), (3,)), ((1, 2), (3, 2)),
            ((3,), (3, 2)), ((3,), (4,)), ((3, 2), (1, 3)), ((3, 2), (4, 2)),
            ((4,), (4, 2)), ((1, 3), (1, 2, 3)), ((1, 3), (4, 3)),
            ((4, 2), (4, 3)), ((1, 2, 3), (4, 2, 3)), ((4, 3), (4, 2, 3)),
            ((4, 3), (1, 4)), ((4, 2, 3), (1, 4, 3)), ((1, 4), (1, 4, 3)),
            ((1, 4, 3), (1, 2, 4)),
        }
        assert set(pbw_lattice(4).cover_pairs()) == expected

    def test_n4_irreducibles_match_diagram(self):
        lat = pbw_lattice(4)
        reds = {(1, 2, 4), (1, 4), (1, 2, 3), (1, 3), (4,), (3,), (1, 2), (2,)}
        irr = {c for c in lat.elements
               if sum(1 for a in lat.elements if lat.covers(a, c)) == 1}
        assert irr == reds

    def test_order_agrees_with_ideal_containment(self):
        for n in (3, 4, 5):
            lat = pbw_lattice(n)
            for a in lat.elements:
                for b in lat.elements:
                    assert lat.leq(a, b) == (
                        lat.cell_ideal(a) <= lat.cell_ideal(b))

    def test_tableau_from_ideal_examples(self):
        lat = pbw_lattice(3)
        assert lat.element_of_cell_ideal(frozenset()) == (1,)
        assert lat.element_of_cell_ideal(lat.cell_ideal((3, 2))) == (3, 2)
        lat7 = pbw_lattice(7)
        red = {(2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4), (4, 5),
               (1, 3), (2, 4), (3, 5), (1, 4), (2, 5), (3, 6), (1, 5),
               (2, 6), (1, 6), (1, 7)}
        assert lat7.element_of_cell_ideal(frozenset(red)) == (7, 2, 6, 5)


class TestIsomorphism:
    def test_label_examples(self):
        m4 = semistandard_lattice(4)
        by_ideal = {m4.cell_ideal(a): a for a in m4.elements}
        a = by_ideal[frozenset({(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)})]
        assert ssyt_to_pbw(m4, a) == (4, 3)
        assert ssyt_to_pbw(m4, by_ideal[frozenset()]) == (1,)
        assert ssyt_to_pbw(m4, by_ideal[frozenset({(1, 2), (2, 2), (1, 3)})]) == (3, 2)

    def test_tau_examples(self):
        m4 = semistandard_lattice(4)
        assert ssyt_to_pbw(m4, (4,)) == (1, 2, 4)
        m3 = semistandard_lattice(3)
        assert ssyt_to_pbw(m3, (1, 2)) == (1,)
        assert ssyt_to_pbw(m3, (2,)) == (3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tau_is_lattice_isomorphism(self, n):
        mlat, nlat = semistandard_lattice(n), pbw_lattice(n)
        image = {a: ssyt_to_pbw(mlat, a) for a in mlat.elements}
        assert sorted(image.values()) == sorted(nlat.elements)
        for a in mlat.elements:
            assert pbw_to_ssyt(nlat, image[a]) == a
        for a, b in itertools.product(mlat.elements, repeat=2):
            assert mlat.leq(a, b) == nlat.leq(image[a], image[b])


class TestClassification:
    def test_rejects_comparable(self):
        lat = semistandard_lattice(3)
        with pytest.raises(ComparablePairError):
            lat.classify_pair((1, 2), (1, 3))

    def test_special_examples(self):
        m4 = semistandard_lattice(4)
        cls = m4.classify_pair((1, 4), (2, 3))
        assert cls.verdict == "diamond_special"
        assert (cls.below, cls.above) == ((1, 2), (3, 4))
        m3 = semistandard_lattice(3)
        cls = m3.classify_pair((2, 3), (1,))
        assert cls.verdict == "diamond_special"
        assert (cls.below, cls.above) == ((1, 2), (3,))
        n3 = pbw_lattice(3)
        cls = n3.classify_pair((1, 2), (3,))
        assert cls.verdict == "diamond_special"
        assert cls.below == (1,) and cls.companion == (2,) and cls.above == (1, 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_diamond_patterns(self, n):
        lat = semistandard_lattice(n)
        for a, b in lat.diamond_pairs():
            if len(a) == len(b):
                diff = [r for r in range(len(a)) if a[r] != b[r]]
                assert len(diff) == 2
                r1, r2 = diff
                i, j = (a, b) if a[r1] == b[r1] - 1 else (b, a)
                assert i[r1] == j[r1] - 1 and i[r2] == j[r2] + 1
            else:
                lo, hi = (a, b) if len(a) > len(b) else (b, a)
                assert lo[-1] == n
                diff = [r for r in range(len(hi)) if lo[r] != hi[r]]
                assert len(diff) == 1 and lo[diff[0]] == hi[diff[0]] + 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_only_four_elements_between(self, n):
        lat = semistandard_lattice(n)
        for a, b in lat.diamond_pairs():
            cls = lat.classify_pair(a, b)
            between = [c for c in lat.elements
                       if lat.leq(cls.below, c) and lat.leq(c, cls.above)
                       and c not in (cls.below, cls.above)]
            if cls.verdict == "diamond_special":
                assert sorted(between) == sorted(
                    [cls.pair[0], cls.pair[1], cls.meet, cls.join])
            else:
                assert len(between) > 4

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_between_witness_for_plain_diamonds(self, n):
        lat = semistandard_lattice(n)
        for a, b in lat.diamond_pairs():
            cls = lat.classify_pair(a, b)
            if cls.verdict != "diamond_plain":
                continue
            witnesses = [
                c for c in lat.elements
                if c not in cls.pair
                and lat.leq(cls.below, c) and c != cls.below
                and lat.leq(c, cls.above) and c != cls.above
                and (not lat.comparable(c, cls.pair[0])
                     or not lat.comparable(c, cls.pair[1]))]
            assert witnesses, (a, b)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_odot_against_meet(self, n):
        lat = pbw_lattice(n)
        for a, b in lat.diamond_pairs():
            cls = lat.classify_pair(a, b)
            if cls.verdict == "diamond_special":
                assert cls.below != cls.meet
                assert lat.grade(cls.below) == lat.grade(cls.meet) - 1
            else:
                assert cls.below == cls.meet

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
    def test_pair_counts_match_formulas(self, n):
        lat = semistandard_lattice(n)
        diamonds = lat.diamond_pairs()
        special = [p for p in diamonds
                   if lat.classify_pair(*p).verdict == "diamond_special"]
        assert len(diamonds) * 2 ** 5 == (n * n - n - 2) * 2 ** n
        assert len(special) * 2 ** 4 == (n - 3) * 2 ** n + 2 ** (n + 1)


def test_parse_and_naming_round_trip():
    lat = pbw_lattice(4)
    for a in lat.elements:
        name = ",".join(map(str, a))
        assert tuple(int(x) for x in name.split(",")) == a


class TestLargerWorkedExample:
    def test_n7_cover_and_special_structure(self):
        # the ideal below b_{7,2,6,5} is covered by exactly three elements,
        # and only the two whose new cells sit diagonally adjacent are special
        lat = pbw_lattice(7)
        c = (7, 2, 6, 5)
        ideal = lat.cell_ideal(c)
        above = [e for e in lat.elements if lat.covers(c, e)]
        added = {next(iter(lat.cell_ideal(e) - ideal)) for e in above}
        assert added == {(5, 5), (4, 6), (2, 7)}
        by_cell = {next(iter(lat.cell_ideal(e) - ideal)): e for e in above}
        special = lat.classify_pair(by_cell[(5, 5)], by_cell[(4, 6)])
        assert special.verdict == "diamond_special"
        assert lat.classify_pair(by_cell[(5, 5)], by_cell[(2, 7)]).verdict == "diamond_plain"
        assert lat.classify_pair(by_cell[(4, 6)], by_cell[(2, 7)]).verdict == "diamond_plain"
        # the product element drops the cell under the added square and the
        # upper companion adds the cell right of it
        assert lat.cell_ideal(special.below) == ideal - {(4, 5)}
        assert lat.cell_ideal(special.above) == (
            ideal | {(5, 5), (4, 6), (5, 6)})


class TestLazyLattice:
    """A fresh lattice, one that has not enumerated its elements, against an enumerated one."""

    def test_classification_past_the_cap(self):
        lat = PluckerLattice("M", 20)
        cls = lat.classify_pair((3, 4), (2, 5))
        assert cls.verdict == "diamond_special"
        assert (cls.below, cls.above) == ((2, 3), (4, 5))
        nlat = PluckerLattice("N", 20)
        a, b = ssyt_to_pbw(lat, (3, 4)), ssyt_to_pbw(lat, (2, 5))
        assert nlat.classify_pair(a, b).verdict == "diamond_special"
        assert "elements" not in lat.__dict__ and "elements" not in nlat.__dict__

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_agrees_with_materialized(self, kind):
        full = enumerated(kind, 4)
        fresh = PluckerLattice(kind, 4)
        for a, b in full.incomparable_pairs():
            assert full.classify_pair(a, b) == fresh.classify_pair(a, b)
        assert "elements" not in fresh.__dict__

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_membership_matches_materialized(self, kind):
        # every tuple of length <= n over 0..n+1, repeats included
        for n in range(2, 6):
            fresh, full = PluckerLattice(kind, n), enumerated(kind, n)
            members = set(full.elements)
            for k in range(n + 1):
                for t in itertools.product(range(n + 2), repeat=k):
                    assert (t in fresh) == (t in full) == (t in members), t
            assert "elements" not in fresh.__dict__

    def test_rejects_foreign_tuples(self):
        for kind, foreign in (("M", (4, 2)), ("N", (2, 3))):
            lat = PluckerLattice(kind, 15)
            with pytest.raises(ValueError):
                lat.check_element(foreign)
            with pytest.raises(ValueError):
                lat.grade(foreign)
            assert foreign not in lat._mask_of and "elements" not in lat.__dict__

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_conversions_are_kept_as_met(self, kind):
        lat = PluckerLattice(kind, 20)
        assert lat._mask_of == lat._element_of == {}
        a, b = lat.element_of_key((3, 4)), lat.element_of_key((2, 5))
        meet = lat.meet(a, b)
        assert set(lat._mask_of) == {a, b}
        assert lat._element_of == {lat._mask_of[a] & lat._mask_of[b]: meet}
        assert lat.grade(meet) == len(lat.cell_ideal(meet))
        assert set(lat._mask_of) == {a, b, meet}
        assert "elements" not in lat.__dict__

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_whole_lattice_calls_past_the_cap_raise_capacity_error(self, kind):
        lat = PluckerLattice(kind, 13)
        whole = [lat.incomparable_pairs, lat.diamond_pairs, lat.cover_pairs,
                 lat.hasse_json_obj, lambda: to_distributive_lattice(lat),
                 lambda: cones.interior_witness(lat),
                 lambda: cones.cone_hrep("HIBI", lattice=lat)]
        for call in whole:
            with pytest.raises(CapacityError, match="capped at n = 12"):
                call()
        assert "elements" not in lat.__dict__
        a, b = (3, 4), (2, 5)
        if kind == "N":
            mlat = PluckerLattice("M", 13)
            a, b = ssyt_to_pbw(mlat, a), ssyt_to_pbw(mlat, b)
        assert lat.classify_pair(a, b).verdict == "diamond_special"


# -- the per-n join-irreducible column table -----------------------------------

def reference_m_cell_ideal(col, n):
    """The per-cell form: every join-irreducible column rebuilt on every call."""
    return frozenset(c for c in ji_cells(n) if semistandard_leq(ji_column(c, n), col))


@pytest.mark.parametrize("n", range(3, 10))
def test_m_cell_ideal_matches_reference(n):
    for col in all_columns(n):
        assert m_cell_ideal(col, n) == reference_m_cell_ideal(col, n)


def test_counts_suite_builds_each_column_once(monkeypatch):
    calls = Counter()

    def counting(cell, n):
        calls[cell, n] += 1
        return ji_column(cell, n)

    monkeypatch.setattr(plucker_lattices, "ji_column", counting)
    plucker_lattices._ji_columns.cache_clear()
    report = verify.run_suite("counts", n=9)
    assert report.ok
    assert set(calls) == {(c, m) for m in range(3, 10) for c in ji_cells(m)}
    assert max(calls.values()) == 1


# -- the cell-ideal masks against the column formulas ---------------------------

def reference_operations(kind, n):
    """leq, meet, join, grade and cell ideal of one kind, from the column formulas alone."""
    if kind == "M":
        return (semistandard_leq, column_meet, column_join,
                lambda a: column_grade(a, n), lambda a: m_cell_ideal(a, n))
    columns = [pbw_arrange(c) for c in all_columns(n)]
    by_ideal = {pbw_cell_ideal(a, n): a for a in columns}
    ideal = {a: i for i, a in by_ideal.items()}
    return (lambda a, b: pbw_two_column_leq(b, a),
            lambda a, b: by_ideal[ideal[a] & ideal[b]],
            lambda a, b: by_ideal[ideal[a] | ideal[b]],
            lambda a: len(ideal[a]), ideal.__getitem__)


@pytest.mark.parametrize("kind", ["M", "N"])
@pytest.mark.parametrize("n", range(2, 8))
def test_mask_operations_match_column_formulas(kind, n):
    lat = PluckerLattice(kind, n)
    leq, meet, join, grade, cell_ideal = reference_operations(kind, n)
    for a in lat.elements:
        assert lat.grade(a) == grade(a)
        assert lat.cell_ideal(a) == cell_ideal(a)
        ideal = lat.iota(a)
        assert set(ideal.members()) == cell_ideal(a)
        assert lat.from_ideal(ideal) == a
        assert lat.element_of_cell_ideal(cell_ideal(a)) == a
        for b in lat.elements:
            assert lat.leq(a, b) == leq(a, b), (a, b)
            assert lat.comparable(a, b) == (leq(a, b) or leq(b, a)), (a, b)
            assert lat.meet(a, b) == meet(a, b), (a, b)
            assert lat.join(a, b) == join(a, b), (a, b)


@pytest.mark.parametrize("kind", ["M", "N"])
def test_mask_conversions_reject_non_ideals(kind):
    for lat in (enumerated(kind, 5), PluckerLattice(kind, 5)):
        with pytest.raises(ValueError):
            lat.element_of_cell_ideal({(2, 4)})   # (1, 4) and (2, 3) are missing
        with pytest.raises(ValueError):
            lat.element_of_cell_ideal({(9, 9)})
        with pytest.raises(ValueError):
            lat.leq((6,), lat.minimum)
        foreign = Poset.from_leq(ji_cells(5), plucker_lattices.cell_leq)
        with pytest.raises(PosetError):
            lat.from_ideal(OrderIdeal(foreign, 0))
        assert (6,) not in lat
    assert "elements" not in lat.__dict__


@pytest.mark.parametrize("kind", ["M", "N"])
def test_ideal_bits_past_the_poset_rejected(kind):
    for lat in (enumerated(kind, 5), PluckerLattice(kind, 5)):
        for bits in (1 << 40, 1 << len(lat.ji_poset), -1):
            with pytest.raises(PosetError, match="not a subset"):
                lat.from_ideal(OrderIdeal(lat.ji_poset, bits))
        top = (1 << len(lat.ji_poset)) - 1
        assert lat.from_ideal(OrderIdeal(lat.ji_poset, top)) == lat.maximum
    assert "elements" not in lat.__dict__


@pytest.mark.parametrize("kind", ["M", "N"])
def test_one_lattice_shared_by_threads(kind):
    # eight threads fill one lattice's tables while two of them enumerate it
    reference = enumerated(kind, 8)
    lat = PluckerLattice(kind, 8)
    results = [None] * 8

    def work(i):
        rng = random.Random(i)
        pairs = [rng.sample(reference.elements, 2) for _ in range(300)]
        out = []
        for j, (a, b) in enumerate(pairs):
            if i < 2 and j == 150:
                out.append(lat.elements)
            out.append((lat.meet(a, b), lat.join(a, b), lat.grade(a), lat.signed_key(b)))
        results[i] = (pairs, out)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    for i, (pairs, out) in enumerate(results):
        expect = [(reference.meet(a, b), reference.join(a, b), reference.grade(a),
                   reference.signed_key(b)) for a, b in pairs]
        if i < 2:
            expect.insert(150, reference.elements)
        assert out == expect
    assert lat._mask_of == reference._mask_of and lat._element_of == reference._element_of


def test_minimum_and_maximum():
    for n in (2, 3, 6):
        assert semistandard_lattice(n).minimum == tuple(range(1, n))
        assert semistandard_lattice(n).maximum == (n,)
        assert pbw_lattice(n).minimum == (1,)
        assert pbw_lattice(n).maximum == pbw_arrange(tuple(range(1, n - 1)) + (n,))


@pytest.mark.parametrize("kind", ["M", "N"])
@pytest.mark.parametrize("n", [11, 12])
def test_largest_lattices_agree_with_lazy(kind, n):
    full = enumerated(kind, n)
    fresh = PluckerLattice(kind, n)
    assert len(full.elements) == len(set(full.elements)) == 2 ** n - 2
    rng = random.Random(n)
    for _ in range(200):
        a, b = rng.sample(full.elements, 2)
        assert full.grade(a) == fresh.grade(a)
        assert full.cell_ideal(a) == fresh.cell_ideal(a)
        assert full.leq(a, b) == fresh.leq(a, b)
        assert full.meet(a, b) == fresh.meet(a, b)
        assert full.join(a, b) == fresh.join(a, b)
        if not full.comparable(a, b):
            assert full.classify_pair(a, b) == fresh.classify_pair(a, b)
    assert "elements" not in fresh.__dict__


# -- the Pluecker-variable codec against the per-kind formulas it replaced -------

def reference_codec(kind, el):
    """(sign, key) of an element and the element of that key, by the per-kind formulas."""
    if kind == "M":
        return (1, el), el
    sign, key = canonicalize(el)
    return (sign, key), pbw_arrange(key)


@pytest.mark.parametrize("kind", ["M", "N"])
@pytest.mark.parametrize("n", range(2, 9))
def test_codec_tables_match_the_column_formulas(kind, n):
    lat = enumerated(kind, n)
    assert len(lat._signed_keys) == len(lat._elements_by_key) == 2 ** n - 2
    assert len(lat._mask_of) == len(lat._element_of) == 2 ** n - 2
    for el in lat.elements:
        signed, back = reference_codec(kind, el)
        assert lat.signed_key(el) == signed
        assert lat.weight_key(el) == signed[1] == tuple(sorted(el))
        assert lat.element_of_key(signed[1]) == back == el


@pytest.mark.parametrize("kind", ["M", "N"])
def test_lazy_codec_matches_the_column_formulas(kind):
    lat = PluckerLattice(kind, 20)
    assert lat._signed_keys == lat._elements_by_key == {}
    rng = random.Random(20)
    for _ in range(300):
        key = tuple(sorted(rng.sample(range(1, 21), rng.randint(1, 19))))
        el = key if kind == "M" else pbw_arrange(key)
        assert el in lat
        signed, back = reference_codec(kind, el)
        assert lat.signed_key(el) == lat._signed_keys[el] == signed
        assert lat.element_of_key(key) == lat._elements_by_key[key] == back == el
    assert "elements" not in lat.__dict__


def test_pbw_arrange_rejects_repeated_entries():
    with pytest.raises(ValueError, match="distinct"):
        pbw_arrange((2, 2, 3))


@pytest.mark.parametrize("convert, kind", [(ssyt_to_pbw, "N"), (pbw_to_ssyt, "M")])
def test_isomorphism_rejects_the_other_kind(convert, kind):
    with pytest.raises(ValueError, match="maps from a kind"):
        convert(PluckerLattice(kind, 4), (1, 2))
