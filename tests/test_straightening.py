import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracle_reference import (
    append_columns,
    apply_index_permutation,
    deg_vector,
    exchange_relation_loop,
    hibi_grevlex_initial,
    plucker_eval,
    standard_expansion_mod_p,
    straighten_pair_worklist,
)
from plueckerfan.plucker_lattices import (
    ComparablePairError,
    PluckerLattice,
    all_columns,
    pbw_arrange,
    pbw_lattice,
    semistandard_lattice,
    ssyt_to_pbw,
)
from plueckerfan import cones, plucker_lattices, straightening, verify
from plueckerfan.order_core import CapacityError, InvariantError
from plueckerfan.straightening import (
    ORACLE_PRIME,
    ShapeError,
    canonicalize,
    exchange_relation,
    hibi_generator,
    ideal_membership,
    minor_mod_p,
    MinorTable,
    monomial,
    monomials_of_degree,
    psi_exponent,
    random_matrix,
    rank_mod_p,
    shuffle_relation,
    standard_basis_check,
    straighten_pair,
    straightening_terms,
    symbolic_pi_expand,
    theta_exponent,
    theta_to_psi,
    weyl_dimension,
    wt_vector,
    _KEPT_DRAWS,
    _first_value,
    _monomial_value,
    _seed_draws,
    _seed_minor_tables,
    _shuffle_sums,
    _terms_mod_p,
)

TESTS = str(Path(__file__).resolve().parent)  # where oracle_reference lives

EXAMPLE_GR24 = {
    monomial(((1, 4), (2, 3))): Fraction(1),
    monomial(((1, 3), (2, 4))): Fraction(-1),
    monomial(((1, 2), (3, 4))): Fraction(1),
}
EXAMPLE_FLAG3 = {
    monomial(((2, 3), (1,))): Fraction(1),
    monomial(((1, 3), (2,))): Fraction(-1),
    monomial(((1, 2), (3,))): Fraction(1),
}


class TestCanonicalize:
    def test_already_sorted(self):
        assert canonicalize((1, 4)) == (1, (1, 4))

    def test_single_transposition(self):
        assert canonicalize((3, 2)) == (-1, (2, 3))

    def test_repeat_gives_zero(self):
        assert canonicalize((2, 2)) is None

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_sign_is_permutation_parity(self, entries):
        result = canonicalize(tuple(entries))
        if len(set(entries)) != len(entries):
            assert result is None
        else:
            sign, col = result
            assert col == tuple(sorted(entries))
            inversions = sum(1 for i, j in itertools.combinations(range(len(entries)), 2)
                             if entries[i] > entries[j])
            assert sign == (-1) ** inversions


def insertion_sort_canonicalize(indices):
    """``canonicalize`` as an insertion sort with no cache: the reference of the cached one."""
    if len(set(indices)) != len(indices):
        return None
    sign = 1
    arr = list(indices)
    for i in range(len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(arr)


class TestMemoisedCanonicalize:
    """The cached signed sort against the insertion sort it replaces."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        canonicalize.cache_clear()
        yield
        canonicalize.cache_clear()

    def test_every_arrangement_of_up_to_seven_distinct_indices(self):
        # 2 x 5,914 arrangements, each looked up twice: past the cache's bound, so it fills
        for k in range(8):
            for values in (range(1, k + 1), range(4, 4 + 3 * k, 3)):
                for arrangement in itertools.permutations(values):
                    expected = insertion_sort_canonicalize(arrangement)
                    assert canonicalize(arrangement) == expected
                    assert canonicalize(arrangement) == expected
        assert canonicalize.cache_info().currsize == plucker_lattices.SIGNED_SORT_MEMO

    def test_tuples_with_a_repeat(self):
        for k in range(2, 6):
            for indices in itertools.product(range(1, 5), repeat=k):
                for _ in range(2):
                    assert canonicalize(indices) == insertion_sort_canonicalize(indices)

    def test_range_check_runs_on_memoised_arrangements(self):
        # shuffle_relation checks its indices itself, also when every sort is a cache hit
        for a, b in [((2, 5), (1,)), ((0, 3), (1,)), ((1, 4, 2), (3, 6))]:
            rel = shuffle_relation(a, b, 1)  # without n no range is known
            for n in (4, 5, 6):
                misses = canonicalize.cache_info().misses
                if min(a + b) < 1 or max(a + b) > n:
                    with pytest.raises(ValueError, match="index out of range"):
                        shuffle_relation(a, b, 1, n)
                else:
                    assert shuffle_relation(a, b, 1, n) == rel
                assert canonicalize.cache_info().misses == misses

    def test_the_least_recently_used_arrangement_leaves_first(self):
        bound = plucker_lattices.SIGNED_SORT_MEMO
        arrangements = list(itertools.islice(itertools.permutations(range(1, 9)), bound + 1))
        for arrangement in arrangements:
            canonicalize(arrangement)
        info = canonicalize.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, bound + 1, bound)
        assert canonicalize(arrangements[-1]) == insertion_sort_canonicalize(arrangements[-1])
        assert canonicalize.cache_info().hits == 1
        assert canonicalize(arrangements[0]) == insertion_sort_canonicalize(arrangements[0])
        assert canonicalize.cache_info().misses == bound + 2

    def test_concurrent_misses_keep_the_bound(self):
        arrangements = list(itertools.permutations(range(1, 8)))
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [canonicalize(a) for a in arrangements])
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert canonicalize.cache_info().currsize == plucker_lattices.SIGNED_SORT_MEMO
        assert all(canonicalize(a) == insertion_sort_canonicalize(a) for a in arrangements)

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_lattice_enumeration_stays_off_the_memo(self, kind):
        lat = PluckerLattice(kind, 7)
        assert len(lat.elements) == 126
        assert canonicalize.cache_info().currsize == 0
        assert all(lat.signed_key(e) == insertion_sort_canonicalize(e) for e in lat.elements)

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_straightening_at_n8_sorts_few_arrangements(self, kind):
        # the pairs of M(8) meet 5,449 distinct arrangements and those of N(8) 7,377, more than
        # the cache holds; a first-come memo of the same bound sorts 44,284 (M) and 24,587 (N) times
        lat = PluckerLattice(kind, 8)
        for a, b in lat.incomparable_pairs():
            straighten_pair(lat, a, b)
        assert canonicalize.cache_info().misses < 10_000


class TestExchangeRelation:
    def test_grassmannian_relation(self):
        assert exchange_relation((1, 4), (2, 3), 2) == EXAMPLE_GR24

    def test_flag_relation(self):
        assert exchange_relation((2, 3), (1,), 1) == EXAMPLE_FLAG3

    def test_degenerate_collapses(self):
        assert exchange_relation((1, 2), (1,), 1) == {}

    def test_membership(self):
        for rel, n in ((exchange_relation((1, 4), (2, 3), 2), 4),
                       (exchange_relation((1, 3, 5), (2, 4), 1), 5)):
            assert ideal_membership(rel, n).member

    def test_view_matches_the_exchange_loop(self):
        count = 0
        for n in range(2, 7):
            for a, b in itertools.product(all_columns(n), repeat=2):
                if len(a) < len(b):
                    continue
                for r in range(1, len(b) + 1):
                    assert exchange_relation(a, b, r, n) == exchange_relation_loop(a, b, r, n)
                    count += 1
        assert count == 7416

    def test_unsorted_columns_give_canonical_monomials(self):
        rel = exchange_relation((4, 1), (3, 2), 1)
        assert rel and all(list(col) == sorted(col) for mono in rel for col in mono)
        assert rel[monomial(((1, 4), (2, 3)))] == 1
        assert ideal_membership(rel, 4).member

    @pytest.mark.parametrize("a, b, r", [((1,), (2, 3), 1), ((1, 2), (3,), 0), ((1, 2), (3,), 2)])
    def test_shape_errors(self, a, b, r):
        with pytest.raises(ShapeError):
            exchange_relation(a, b, r)


class TestShuffleRelation:
    def test_matches_grassmannian_example(self):
        assert shuffle_relation((1, 4), (2, 3), 2) == EXAMPLE_GR24

    def test_matches_flag_example(self):
        assert shuffle_relation((2, 3), (1,), 1) == EXAMPLE_FLAG3

    def test_repeated_symbols_annihilate(self):
        assert shuffle_relation((1, 2), (1,), 1) == {}

    def test_unsorted_columns_normalize_on_the_sorted_monomial(self):
        assert shuffle_relation((2, 1), (4, 3), 1) == shuffle_relation((1, 2), (3, 4), 1)
        assert shuffle_relation((3, 1), (4, 2), 1) == shuffle_relation((1, 3), (2, 4), 1)
        rel = shuffle_relation((5, 1, 3), (4, 2), 2)
        assert rel[monomial(((1, 3, 5), (2, 4)))] == 1
        assert ideal_membership(rel, 5).member

    def test_range_check(self):
        with pytest.raises(ValueError, match="index out of range"):
            shuffle_relation((0, 2), (1,), 1, n=4)

    @pytest.mark.parametrize("build", [shuffle_relation, exchange_relation])
    def test_indices_out_of_range_rejected(self, build):
        with pytest.raises(ValueError, match="index out of range"):
            build((1, 9), (2, 3), 1, 4)
        assert build((1, 9), (2, 3), 1)  # without n no range is known

    def test_membership_various(self):
        cases = [((1, 3, 5), (2, 4), 5, 2), ((2, 4), (1, 3), 4, 1), ((1, 2, 4), (3,), 4, 1)]
        for a, b, n, r in cases:
            rel = shuffle_relation(a, b, r)
            assert ideal_membership(rel, n).member


class TestAppendColumns:
    def test_grows_flag_into_grassmannian(self):
        grown = append_columns(EXAMPLE_FLAG3, (4,), n=4)
        assert grown == EXAMPLE_GR24
        assert ideal_membership(grown, 4).member

    def test_existing_index_annihilates_term(self):
        # repeated index kills the X_2 term; the remaining three stay distinct
        rel = exchange_relation((2, 3, 4), (1,), 1)
        grown = append_columns(rel, (2, 5), n=5)
        # sign flips come from sorting the appended indices into place
        assert grown == {
            monomial(((2, 3, 4), (1, 2, 5))): Fraction(1),
            monomial(((1, 2, 4), (2, 3, 5))): Fraction(-1),
            monomial(((1, 2, 3), (2, 4, 5))): Fraction(1),
        }
        assert ideal_membership(grown, 5).member

    def test_collapse_when_append_merges_terms(self):
        # a repeated index can also cancel the relation entirely
        assert append_columns(EXAMPLE_FLAG3, (3,), n=4) == {}

    def test_zero_stays_zero(self):
        assert append_columns({}, (4,)) == {}


class TestStraightenPair:
    def test_grassmannian(self):
        lat = semistandard_lattice(4)
        assert straighten_pair(lat, (1, 4), (2, 3)) == EXAMPLE_GR24

    def test_flag(self):
        lat = semistandard_lattice(3)
        assert straighten_pair(lat, (2, 3), (1,)) == EXAMPLE_FLAG3

    def test_pbw_triple(self):
        lat = pbw_lattice(3)
        rel = straighten_pair(lat, (1, 2), (3,))
        assert rel == {
            monomial(((1, 2), (3,))): Fraction(1),
            monomial(((2, 3), (1,))): Fraction(1),
            monomial(((1, 3), (2,))): Fraction(-1),
        }
        rows = straightening_terms(lat, rel, (1, 2), (3,))
        assert rows == [((1,), (3, 2), Fraction(1)), ((2,), (1, 3), Fraction(1))]

    def test_comparable_rejected(self):
        lat = semistandard_lattice(3)
        with pytest.raises(ComparablePairError):
            straighten_pair(lat, (1, 2), (1, 3))

    @pytest.mark.parametrize("kind", ["M", "N"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_all_terms_standard_and_member(self, kind, n):
        lat = semistandard_lattice(n) if kind == "M" else pbw_lattice(n)
        for a, b in lat.incomparable_pairs():
            rel = straighten_pair(lat, a, b)
            lead = monomial((lat.weight_key(a), lat.weight_key(b)))
            for mono in rel:
                if mono == lead:
                    continue
                e1, e2 = (lat.element_of_key(c) for c in mono)
                assert lat.comparable(e1, e2)
            assert ideal_membership(rel, n).member

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_matches_rank_oracle_n3(self, kind):
        lat = semistandard_lattice(3) if kind == "M" else pbw_lattice(3)
        for a, b in lat.incomparable_pairs():
            rel = straighten_pair(lat, a, b)
            oracle = standard_expansion_mod_p(lat, a, b)
            assert set(oracle) == set(rel)
            for mono, coeff in rel.items():
                c = Fraction(coeff)
                assert c.numerator * pow(c.denominator, ORACLE_PRIME - 2, ORACLE_PRIME) \
                    % ORACLE_PRIME == oracle[mono]

    def test_homogeneous(self):
        lat = semistandard_lattice(5)
        for a, b in lat.incomparable_pairs()[:30]:
            rel = straighten_pair(lat, a, b)
            assert len({deg_vector(m, 5) for m in rel}) == 1
            assert len({wt_vector(m, 5) for m in rel}) == 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_diamond_relations_have_three_monomials(self, n):
        # every semistandard diamond pair straightens to meet/join minus the
        # classified (below, above) product, exactly as the tuple formulas say
        lat = semistandard_lattice(n)
        for a, b in lat.diamond_pairs():
            cls = lat.classify_pair(a, b)
            rel = straighten_pair(lat, a, b)
            rows = straightening_terms(lat, rel, a, b)
            assert len(rows) == 2
            assert rows[0] == (cls.meet, cls.join, Fraction(1))
            assert rows[1] == (cls.below, cls.above, Fraction(-1))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pbw_special_relations_match_classification(self, n):
        lat = pbw_lattice(n)
        for a, b in lat.diamond_pairs():
            cls = lat.classify_pair(a, b)
            rel = straighten_pair(lat, a, b)
            rows = straightening_terms(lat, rel, a, b)
            assert rows[0] == (cls.below, cls.join, Fraction(1))
            if cls.verdict == "diamond_special":
                assert rows[1:] == [(cls.companion, cls.above, Fraction(1))]

    def test_sampled_pairs_at_n6(self):
        for lat in (semistandard_lattice(6), pbw_lattice(6)):
            pairs = lat.incomparable_pairs()
            for a, b in pairs[:: max(1, len(pairs) // 20)]:
                rel = straighten_pair(lat, a, b)
                lead = monomial((lat.weight_key(a), lat.weight_key(b)))
                for mono in rel:
                    if mono != lead:
                        e1, e2 = (lat.element_of_key(c) for c in mono)
                        assert lat.comparable(e1, e2)
                assert ideal_membership(rel, 6, trials=5).member


class TestHomogeneitySignature:
    """One signature per term against the ``deg_vector``/``wt_vector`` sets it replaces."""

    @staticmethod
    def reference_homogeneous(poly, n):
        return (len({deg_vector(m, n) for m in poly}) <= 1
                and len({wt_vector(m, n) for m in poly}) <= 1)

    @staticmethod
    def homogeneous(poly, n):
        try:
            straightening.assert_bihomogeneous(poly, n)
        except InvariantError:
            return False
        return True

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pairs_of_monomials(self, n):
        # every pair of degree-2 monomials with factors of lengths 1..n-1, and each alone
        cols = all_columns(n)
        monos = sorted({monomial((x, y)) for x in cols for y in cols}
                       | {monomial((x,)) for x in cols})
        rng = random.Random(n)
        for m1 in monos:
            for m2 in rng.sample(monos, min(40, len(monos))):
                poly = {m1: 1, m2: -1}
                assert self.homogeneous(poly, n) == self.reference_homogeneous(poly, n)

    def test_straightening_relations(self):
        for lat in (semistandard_lattice(5), pbw_lattice(5)):
            for a, b in lat.incomparable_pairs():
                rel = straighten_pair(lat, a, b)
                assert self.homogeneous(rel, 5) and self.reference_homogeneous(rel, 5)
        assert self.homogeneous({}, 5)


class TestEvaluation:
    def test_principal_minor_of_identity(self):
        ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for k in range(1, 4):
            assert plucker_eval({monomial((tuple(range(1, k + 1)),)): 1}, ident) == 1

    def test_relation_vanishes_at_random_matrices(self):
        rng = random.Random(0)
        for _ in range(10):
            Z = random_matrix(4, rng)
            assert plucker_eval(EXAMPLE_GR24, Z) == 0

    def test_generic_monomial_does_not_vanish(self):
        rng = random.Random(0)
        Z = random_matrix(4, rng)
        assert plucker_eval({monomial(((1, 2), (3, 4))): 1}, Z) != 0

    def test_characteristic_clash(self):
        with pytest.raises(ZeroDivisionError):
            plucker_eval({monomial(((1,),)): Fraction(1, ORACLE_PRIME)},
                         [[1]])


class TestMembership:
    def test_relations_are_members(self):
        lat = semistandard_lattice(4)
        for a, b in lat.incomparable_pairs():
            assert ideal_membership(straighten_pair(lat, a, b), 4).member

    @pytest.mark.parametrize("mode", ["probabilistic", "symbolic"])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, mode, trials):
        for poly in (EXAMPLE_GR24, {}):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                ideal_membership(poly, 4, mode=mode, trials=trials)

    @pytest.mark.parametrize("poly", [EXAMPLE_GR24, {}])
    def test_trials_past_the_kept_draws_rejected(self, poly):
        # the empty polynomial asks for its tables too, so the cap holds for every relation
        verdict = ideal_membership(poly, 4, trials=128)
        assert verdict.member and verdict.failure_bound < Fraction(1, 2 ** 7000)
        with pytest.raises(CapacityError, match="limited to 128 random matrices"):
            ideal_membership(poly, 4, trials=129)

    def test_standard_monomial_is_not_member(self):
        verdict = ideal_membership({monomial(((1, 2), (3, 4))): 1}, 4)
        assert not verdict.member

    def test_symbolic_agrees(self):
        assert ideal_membership(EXAMPLE_GR24, 4, mode="symbolic").member
        assert not ideal_membership({monomial(((1, 2), (3, 4))): 1}, 4,
                                    mode="symbolic").member

    def test_symbolic_guard(self):
        big = {monomial(((1, 2), (3, 4), (1, 3), (2, 4))): 1}
        with pytest.raises(CapacityError):
            ideal_membership(big, 4, mode="symbolic")
        # the guard reads every term, not the first one
        mixed = {monomial(((1, 2), (3, 4))): 1, monomial(((1,), (2,), (3,), (4,))): 1}
        for poly in (mixed, dict(reversed(mixed.items()))):
            with pytest.raises(CapacityError):
                ideal_membership(poly, 4, mode="symbolic")
        # the zero polynomial is a member within the guard and meets it like any other
        assert ideal_membership({}, 4, mode="symbolic").member
        with pytest.raises(CapacityError):
            ideal_membership({}, 7, mode="symbolic")

    def test_inhomogeneous_split(self):
        # one polynomial of two deg_vectors is tested whole, under the bound of its largest degree
        mixed = dict(EXAMPLE_GR24)
        flag = straighten_pair(semistandard_lattice(4), (2, 4), (1,))
        for m, c in flag.items():
            mixed[m] = mixed.get(m, 0) + c
        assert len({deg_vector(m, 4) for m in mixed}) == 2
        verdict = ideal_membership(mixed, 4)
        assert verdict.member
        assert verdict.failure_bound == Fraction(4, ORACLE_PRIME) ** 20

    @pytest.mark.parametrize("seed, trials", [(0, 20), (1, 3), (7, 1)])
    def test_inhomogeneous_non_member_is_refused(self, seed, trials):
        # parts of different factor lengths live in different row degrees and cannot cancel
        flag = straighten_pair(semistandard_lattice(4), (2, 4), (1,))
        for member, other in ((EXAMPLE_GR24, {monomial(((1, 3), (2,))): 1}),
                              (flag, {monomial(((1, 2), (3, 4))): 1})):
            assert {deg_vector(m, 4) for m in member}.isdisjoint(deg_vector(m, 4) for m in other)
            assert not ideal_membership({**member, **other}, 4, trials=trials, seed=seed).member

    def test_failure_bound_shape(self):
        verdict = ideal_membership(EXAMPLE_GR24, 4, trials=7, seed=3)
        assert verdict.failure_bound == Fraction(4, ORACLE_PRIME) ** 7


def reference_terms_mod_p(poly, p=ORACLE_PRIME):
    """Every coefficient through ``Fraction`` and a modular inverse: the reference reduction."""
    terms = []
    for mono, coeff in poly.items():
        c = Fraction(coeff)
        if c.denominator % p == 0:
            raise ZeroDivisionError("coefficient denominator divisible by the field characteristic")
        terms.append((mono, c.numerator * pow(c.denominator, -1, p) % p))
    return terms


def reference_evaluate(terms, table, p=ORACLE_PRIME):
    """A relation's value at one minor table, every product reduced mod p: the reference loop."""
    return sum(c * _monomial_value(mono, table, p) for mono, c in terms) % p


class TestOracleLoop:
    """The one-loop probabilistic oracle against the per-table evaluation it replaces."""

    @staticmethod
    def relations(n):
        for kind in ("M", "N"):
            lat = PluckerLattice(kind, n)
            for i, (a, b) in enumerate(lat.incomparable_pairs()):
                rel = straighten_pair(lat, a, b)
                yield rel
                # one coefficient perturbed, by an int or by a Fraction in turn
                mono = sorted(rel)[i % len(rel)]
                yield {**rel, mono: rel[mono] + (1 if i % 2 else Fraction(1, 3))}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_relation_and_its_perturbation(self, n):
        verdicts = set()
        for seed, trials in ((0, 20), (1, 3), (7, 1)):
            tables = _seed_minor_tables(n, seed, trials)
            for poly in self.relations(n):
                terms = _terms_mod_p(poly)
                assert terms == reference_terms_mod_p(poly)
                values = [reference_evaluate(terms, t) for t in tables]
                first = next((v for v in values if v), 0)
                assert [_first_value(terms, [t]) for t in tables] == values
                assert _first_value(terms, tables) == first
                verdict = ideal_membership(poly, n, trials=trials, seed=seed)
                assert verdict.member == (first == 0)
                degree = sum(map(len, next(iter(poly))))
                assert verdict.failure_bound == Fraction(degree, ORACLE_PRIME) ** trials
                verdicts.add(verdict.member)
        assert verdicts == {True, False}

    def test_first_value_stops_at_the_first_nonzero_table(self):
        lat = semistandard_lattice(4)
        rel = straighten_pair(lat, (1, 4), (2, 3))
        terms = _terms_mod_p({**rel, ((1, 2), (3, 4)): rel.get(((1, 2), (3, 4)), 0) + 1})

        class Unread(dict):
            def __getitem__(self, col):
                raise AssertionError("a table after the first nonzero value was read")

        table = _seed_minor_tables(4, 0, 1)[0]
        first = reference_evaluate(terms, table)
        assert first
        assert _first_value(terms, [table, Unread()]) == first
        member = _terms_mod_p(rel)
        with pytest.raises(AssertionError, match="after the first nonzero"):
            _first_value(member, [table, Unread()])


class TestSymbolicExpansion:
    def test_single_variable(self):
        out = symbolic_pi_expand({monomial(((1, 2),)): 1}, 3)
        # 2x2 top minor: two Leibniz terms
        assert len(out) == 2

    def test_relation_expands_to_zero(self):
        assert symbolic_pi_expand(EXAMPLE_GR24, 4) == {}

    def test_minor_terms_carry_permutation_parities(self):
        for k in range(1, 7):
            cols = tuple(range(2, k + 2))
            minor = straightening._symbolic_minor(cols)
            assert len(minor) == math.factorial(k)
            for perm in itertools.permutations(range(k)):
                cells = tuple(sorted((r + 1, cols[perm[r]]) for r in range(k)))
                inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(k), 2))
                assert minor[cells] == (-1) ** inversions


class TestIndexPermutation:
    def test_identity(self):
        assert apply_index_permutation(EXAMPLE_GR24, (1, 2, 3, 4)) == EXAMPLE_GR24

    @pytest.mark.parametrize("perm", [(1, 1, 3, 4), (2, 3, 4, 5), {1: 2, 2: 2}])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            apply_index_permutation(EXAMPLE_GR24, perm)

    def test_transposition_preserves_membership(self):
        swapped = apply_index_permutation(EXAMPLE_GR24, (2, 1, 3, 4))
        assert ideal_membership(swapped, 4).member

    def test_block_rotation_equivariance(self):
        # the relabelling used to reduce unequal-length pairs to equal length
        lat = pbw_lattice(5)
        n = 5
        for a, b in lat.incomparable_pairs():
            k, l = len(a), len(b)
            if k <= l or any(v > n - k + l for v in a + b):
                continue
            perm = {}
            for j in range(1, n + 1):
                if j <= l:
                    perm[j] = j
                elif j <= n - k + l:
                    perm[j] = j + k - l
                else:
                    perm[j] = j - n + k
            rel = straighten_pair(lat, a, b)
            moved = apply_index_permutation(rel, perm)
            ra = tuple(sorted(perm[v] for v in a))
            rb = tuple(sorted(perm[v] for v in b))
            from plueckerfan.plucker_lattices import pbw_arrange
            target = straighten_pair(lat, pbw_arrange(ra), pbw_arrange(rb))
            scaled = {m: -c for m, c in target.items()}
            assert moved in (target, scaled)


class TestHibiGenerators:
    def test_plain_binomial(self):
        lat = semistandard_lattice(3)
        gen = hibi_generator(lat, (1,), (2, 3))
        assert gen == {((1,), (2, 3)): Fraction(1), ((1, 3), (2,)): Fraction(-1)}

    def test_generalized_binomial(self):
        lat = pbw_lattice(3)
        gen = hibi_generator(lat, (1, 2), (3,), lat.partition)
        assert gen == {((1, 2), (3,)): Fraction(1), ((1,), (3, 2)): Fraction(-1)}

    def test_comparable_rejected(self):
        lat = semistandard_lattice(3)
        with pytest.raises(ComparablePairError):
            hibi_generator(lat, (1, 2), (1, 3))

    def test_order_partition_reduces_to_plain_binomial(self):
        from plueckerfan.chain_order import ChainOrderPartition
        for n in (3, 4):
            lat = semistandard_lattice(n)
            order_part = ChainOrderPartition.order_polytope(lat.ji_poset)
            for a, b in lat.incomparable_pairs():
                assert hibi_generator(lat, a, b, order_part) == hibi_generator(lat, a, b)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kernel_exponents_match(self, n):
        lat = pbw_lattice(n)
        part = lat.partition
        for a, b in lat.incomparable_pairs():
            gen = hibi_generator(lat, a, b, part)
            (m1, c1), (m2, c2) = sorted(gen.items(), key=lambda kv: kv[1], reverse=True)
            assert theta_exponent(lat, part, m1) == theta_exponent(lat, part, m2)

    def test_theta_examples(self):
        lat = pbw_lattice(3)
        part = lat.partition
        bottom = theta_exponent(lat, part, ((1,),))
        assert bottom == {"t": 1}
        pair = theta_exponent(lat, part, ((1, 2), (3,)))
        assert pair["t"] == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_grevlex_initial_term(self, n):
        for lat in (semistandard_lattice(n), pbw_lattice(n)):
            for a, b in lat.incomparable_pairs():
                gen = hibi_generator(lat, a, b)
                assert hibi_grevlex_initial(lat, gen) == tuple(sorted((a, b)))


class TestPsiExponents:
    def test_examples(self):
        assert psi_exponent((1,), 3) == {("zdiag", 1): 1}
        assert psi_exponent((3, 2), 3) == {("zdiag", 2): 1, ("zcell", (1, 3)): 1}
        assert psi_exponent((1, 3), 3) == {("zdiag", 2): 1, ("zcell", (2, 3)): 1}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_theta_under_substitution(self, n):
        lat = pbw_lattice(n)
        part = lat.partition
        for b in lat.elements:
            theta = theta_exponent(lat, part, (b,))
            assert theta_to_psi(theta) == psi_exponent(b, n)


class TestStandardBasis:
    def test_single_variable_degrees(self):
        lat = semistandard_lattice(3)
        for k in range(1, 3):
            lam = tuple(1 if i == k - 1 else 0 for i in range(2))
            assert standard_basis_check(lat, lam)

    def test_quadratic_pbw(self):
        lat = pbw_lattice(3)
        assert standard_basis_check(lat, (1, 1))

    def test_cubic_semistandard(self):
        lat = semistandard_lattice(4)
        assert standard_basis_check(lat, (1, 1, 1))

    def test_guard(self):
        lat = semistandard_lattice(4)
        with pytest.raises(CapacityError):
            standard_basis_check(lat, (4, 0, 0))

    def test_rank_limit_is_six(self):
        assert standard_basis_check(pbw_lattice(6), (0, 0, 0, 0, 1)) == 6
        with pytest.raises(CapacityError, match="n <= 6"):
            standard_basis_check(semistandard_lattice(7), (1, 0, 0, 0, 0, 0))

    def test_monomial_enumeration_counts(self):
        lat = semistandard_lattice(4)
        assert len(monomials_of_degree(lat, (2, 0, 0))) == 10
        assert len(monomials_of_degree(lat, (1, 1, 0))) == 24

    def test_returns_the_standard_count(self):
        # 8 = dim of the adjoint representation of GL_3
        assert standard_basis_check(semistandard_lattice(3), (1, 1)) == 8
        assert standard_basis_check(pbw_lattice(3), (1, 1)) == 8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_weyl_dimension_matches_hook_content(self, n):
        for lam in verify._multidegrees(n, 3):
            assert weyl_dimension(lam) == hook_content_dimension(lam, n), lam

    def test_weyl_dimension_examples(self):
        assert weyl_dimension((1,)) == 2
        assert weyl_dimension((2, 0)) == 6          # Sym^2 of C^3
        assert weyl_dimension((0, 1, 0)) == 6       # Lambda^2 of C^4
        assert weyl_dimension((0, 0, 0)) == 1

    @pytest.mark.parametrize("kind", ["M", "N"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_full_matrix_reference(self, kind, n):
        lat = semistandard_lattice(n) if kind == "M" else pbw_lattice(n)
        for lam in verify._multidegrees(n, 3):
            assert bool(standard_basis_check(lat, lam)) == reference_standard_basis_check(lat, lam)

    def test_broken_rule_fails_like_the_reference(self, monkeypatch):
        monkeypatch.setattr(straightening, "is_standard_monomial",
                            standard_rule_with_one_bad_pair())
        verdicts = {}
        for lat in (semistandard_lattice(3), pbw_lattice(3)):
            for lam in verify._multidegrees(3, 3):
                new = bool(standard_basis_check(lat, lam))
                assert new == reference_standard_basis_check(lat, lam), (lat.kind, lam)
                verdicts[lat.kind, lam] = new
        assert not all(verdicts.values()) and any(verdicts.values())


class TestRankModP:
    """The forward elimination against the Gauss-Jordan reduction it replaced."""

    @staticmethod
    def random_rows(rng, rows, cols, rank, p):
        """rows x cols matrix of rank at most ``rank``: a product of random factors."""
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        return [[sum(row[i] * right[i][j] for i in range(rank)) % p for j in range(cols)]
                for row in left]

    @pytest.mark.parametrize("p", [ORACLE_PRIME, 7, 2])
    def test_matches_the_reference(self, p):
        rng = random.Random(p)
        for _ in range(200):
            rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
            matrix = self.random_rows(rng, rows, cols, rng.randrange(0, 12), p)
            if rng.random() < 0.3:
                matrix.append(list(matrix[0]))     # a repeated row
            if rng.random() < 0.3:
                matrix.insert(0, [0] * cols)       # a zero row first
            expected = reference_rank(matrix, p)
            assert rank_mod_p(matrix, p) == expected
            assert rank_mod_p(iter(matrix), p) == expected

    def test_rank_deficient_examples(self):
        rng = random.Random(3)
        for rank in range(6):
            matrix = self.random_rows(rng, 9, 7, rank, ORACLE_PRIME)
            assert rank_mod_p(matrix) == reference_rank(matrix) == rank
        assert rank_mod_p([]) == 0
        assert rank_mod_p([[0, 0], [0, 0]]) == 0

    def test_stops_reading_rows_at_full_rank(self):
        read = []

        def rows():
            for i in range(10):
                read.append(i)
                yield [1 if j == i else 0 for j in range(3)]

        assert rank_mod_p(rows()) == 3
        assert read == [0, 1, 2]

    def test_leaves_its_input_unchanged(self):
        matrix = [[2, 4], [1, 3], [5, 5]]
        rank_mod_p(matrix, 7)
        assert matrix == [[2, 4], [1, 3], [5, 5]]


# -- the full-matrix rank check, kept as the reference of the weight-block one --

def _reference_row_reduce(rows, p=ORACLE_PRIME):
    """In-place Gauss-Jordan reduction; returns the pivot column list."""
    pivots = []
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return pivots


def reference_rank(rows, p=ORACLE_PRIME):
    return len(_reference_row_reduce([list(r) for r in rows], p))


def reference_standard_basis_check(lat, lam, seeds=(0, 1, 2)):
    """One rank over all degree-lam monomials at once, on len(monos) + 10 tables per seed."""
    monos = monomials_of_degree(lat, lam)
    n_standard = sum(1 for m in monos if straightening.is_standard_monomial(lat, m))
    ranks = set()
    for seed in seeds:
        tables = _seed_minor_tables(lat.n, seed, len(monos) + 10)
        ranks.add(reference_rank([[_monomial_value(m, t) for m in monos] for t in tables]))
    return ranks == {n_standard}


def hook_content_dimension(lam, n):
    """dim V_mu by the hook-content formula, prod over cells (n + content) / hook."""
    mu = [sum(lam[i:]) for i in range(n - 1)]
    cols = [sum(1 for r in mu if r > j) for j in range(mu[0])] if mu and mu[0] else []
    num = den = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= n + j - i
            den *= (row - j - 1) + (cols[j] - i - 1) + 1
    return num // den


def standard_rule_with_one_bad_pair():
    """``is_standard_monomial``, but each lattice's first incomparable pair counts as comparable."""
    bad = {}

    def broken(lat, mono):
        key = (lat.kind, lat.n)
        if key not in bad:
            bad[key] = set(lat.incomparable_pairs()[0])
        elems = [lat.element_of_key(c) for c in mono]
        return all(lat.comparable(x, y) or {x, y} == bad[key]
                   for x, y in itertools.combinations(elems, 2))

    return broken


# a standard monomial of X14 X23 = X13 X24 - X12 X34 dropped from the candidates:
# the evaluation system has no solution, under python -O too
EXPANSION_WITHOUT_ONE_MONOMIAL = (
    "import oracle_reference\n"
    "from plueckerfan import straightening\n"
    "from plueckerfan.order_core import InvariantError\n"
    "from plueckerfan.plucker_lattices import semistandard_lattice\n"
    "real = straightening.is_standard_monomial\n"
    "straightening.is_standard_monomial = lambda lat, m: m != ((1, 3), (2, 4)) and real(lat, m)\n"
    "try:\n"
    "    oracle_reference.standard_expansion_mod_p(semistandard_lattice(4), (1, 4), (2, 3))\n"
    "except InvariantError as exc:\n"
    "    print('InvariantError:', exc)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_expansion_without_a_standard_monomial_raises(python_env, flags):
    env = dict(python_env, PYTHONPATH=os.pathsep.join([python_env["PYTHONPATH"], TESTS]))
    proc = subprocess.run([sys.executable, *flags, "-c", EXPANSION_WITHOUT_ONE_MONOMIAL],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "InvariantError: evaluation system is inconsistent\n"


# the semistandard pivot rule with ties counted as violations: at a tied slot the
# shuffle can annihilate the pair itself, and straightening must say so under -O too
STRAIGHTEN_WITH_A_BROKEN_PIVOT = (
    "from collections import Counter\n"
    "from plueckerfan import straightening\n"
    "from plueckerfan.order_core import InvariantError\n"
    "from plueckerfan.plucker_lattices import semistandard_lattice\n"
    "straightening._pivot_m = lambda first, second: next(\n"
    "    (r + 1 for r in range(len(second)) if first[r] >= second[r]), None)\n"
    "lat = semistandard_lattice(5)\n"
    "seen = Counter()\n"
    "for a, b in lat.incomparable_pairs():\n"
    "    try:\n"
    "        straightening.straighten_pair(lat, a, b)\n"
    "        seen['ok'] += 1\n"
    "    except InvariantError as exc:\n"
    "        seen[str(exc)] += 1\n"
    "print(sorted(seen.items()))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_straightening_with_a_broken_pivot_raises(python_env, flags):
    proc = subprocess.run([sys.executable, *flags, "-c", STRAIGHTEN_WITH_A_BROKEN_PIVOT],
                          capture_output=True, text=True, timeout=120, env=python_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[('ok', 54), ('pivot monomial must survive the shuffle', 12)]\n"


# the semistandard pivot rule replaced by the last slot: some pairs cycle, and the
# busy set of each call ends them in InvariantError, under python -O too; a second
# pass over the same table meets the same outcomes, so a failed build leaves no mark
STRAIGHTEN_WITH_THE_LAST_SLOT_PIVOT = (
    "import time\n"
    "from collections import Counter\n"
    "from plueckerfan import straightening\n"
    "from plueckerfan.order_core import InvariantError\n"
    "from plueckerfan.plucker_lattices import semistandard_lattice\n"
    "straightening._pivot_m = lambda first, second: len(second)\n"
    "lat = semistandard_lattice(5)\n"
    "start = time.perf_counter()\n"
    "for _ in range(2):\n"
    "    seen = Counter()\n"
    "    for a, b in lat.incomparable_pairs():\n"
    "        try:\n"
    "            straightening.straighten_pair(lat, a, b)\n"
    "            seen['ok'] += 1\n"
    "        except InvariantError as exc:\n"
    "            seen[str(exc)] += 1\n"
    "    print(sorted(seen.items()))\n"
    "print(time.perf_counter() - start < 2.0)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_straightening_with_a_cycling_pivot_raises(python_env, flags):
    proc = subprocess.run([sys.executable, *flags, "-c", STRAIGHTEN_WITH_THE_LAST_SLOT_PIVOT],
                          capture_output=True, text=True, timeout=120, env=python_env)
    assert proc.returncode == 0, proc.stderr
    outcomes = ("[('ok', 41), ('pivot monomial must survive the shuffle', 21), "
                "('straightening cycles: a normal form depends on itself', 4)]\n")
    assert proc.stdout == 2 * outcomes + "True\n"


def test_canonicalize_is_the_lattice_codec_one():
    from plueckerfan import plucker_lattices
    assert straightening.canonicalize is plucker_lattices.canonicalize


class TestShuffleCore:
    """The coset-sum shuffle core against the permutation form it replaces."""

    @staticmethod
    def perm_shuffle_sums(first, second, r):
        """Reference: alternating sum over all (k+1)! arrangements of the symbols."""
        k = len(first)
        symbols = second[:r] + first[r - 1:]
        out = {}
        for perm in itertools.permutations(range(k + 1)):
            inversions = sum(1 for i, j in itertools.combinations(range(k + 1), 2)
                             if perm[i] > perm[j])
            arranged = tuple(symbols[i] for i in perm)
            cb = canonicalize(arranged[:r] + second[r:])
            ca = canonicalize(first[:r - 1] + arranged[r:])
            if ca is None or cb is None:
                continue
            key = (ca[1], cb[1])
            out[key] = out.get(key, 0) + (-1) ** inversions * ca[0] * cb[0]
        return {key: c for key, c in out.items() if c}

    def check(self, first, second, r):
        coset = math.factorial(r) * math.factorial(len(first) + 1 - r)
        core = _shuffle_sums(first, second, r)
        assert {key: c * coset for key, c in core.items()} == \
            self.perm_shuffle_sums(first, second, r)

    @staticmethod
    def inputs(n):
        cols = all_columns(n)
        for a in cols:
            for b in cols:
                if len(a) >= len(b):
                    for r in range(1, len(b) + 1):
                        yield a, b, r

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_sorted_columns(self, n):
        for a, b, r in self.inputs(n):
            self.check(a, b, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_pbw_arrangements(self, n):
        for a, b, r in self.inputs(n):
            self.check(pbw_arrange(a), pbw_arrange(b), r)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shuffle_relation_matches_permutation_form(self, n):
        for a, b, r in self.inputs(n):
            ref = {}
            for (ca, cb), c in self.perm_shuffle_sums(a, b, r).items():
                mono = monomial((ca, cb))
                ref[mono] = ref.get(mono, 0) + c
            ref = {m: Fraction(c) for m, c in ref.items() if c}
            lead = ref.get(monomial((a, b)))
            if lead:
                ref = {m: c / lead for m, c in ref.items()}
            assert shuffle_relation(a, b, r) == ref

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sampled_n6_n7(self, data):
        n = data.draw(st.sampled_from([6, 7]))
        cols = [data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
                for _ in range(2)]
        a, b = sorted((tuple(sorted(c)) for c in cols), key=len, reverse=True)
        r = data.draw(st.integers(1, len(b)))
        if data.draw(st.booleans()):
            a, b = pbw_arrange(a), pbw_arrange(b)
        self.check(a, b, r)


class TestMinorTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_minor_mod_p(self, n):
        rng = random.Random(n)
        small = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        for Z in (random_matrix(n, rng), small):
            table = MinorTable(Z)
            cols = [c for k in range(n + 1) for c in itertools.combinations(range(1, n + 1), k)]
            for c in cols:
                assert table[c] == minor_mod_p(Z, c)
            assert sorted(table) == sorted(cols)

    def test_holds_only_queried_columns(self):
        # a short column is expanded over its sub-columns, which the table keeps
        table = MinorTable(random_matrix(20, random.Random(0)))
        assert table[(2, 5, 11)] == minor_mod_p(table.matrix, (2, 5, 11))
        assert sorted(table) == sorted(sub for k in range(4)
                                       for sub in itertools.combinations((2, 5, 11), k))
        # a column of five entries is eliminated on its own
        table = MinorTable(random_matrix(20, random.Random(1)))
        assert table[(1, 4, 6, 9, 17)] == minor_mod_p(table.matrix, (1, 4, 6, 9, 17))
        assert sorted(table) == [(), (1, 4, 6, 9, 17)]

    def test_seed_tables_use_the_seeded_matrices(self):
        rng = random.Random(4)
        expected = [random_matrix(5, rng) for _ in range(3)]
        assert [t.matrix for t in _seed_minor_tables(5, 4, 3)] == expected
        # shorter requests read the kept draws; past the cap nothing is drawn or kept
        assert [t.matrix for t in _seed_minor_tables(5, 4, 2)] == expected[:2]
        with pytest.raises(CapacityError, match=f"limited to {_KEPT_DRAWS} random matrices"):
            _seed_minor_tables(5, 4, _KEPT_DRAWS + 1)
        assert len(_seed_draws(5, 4)[1]) == 3

    def test_concurrent_draws_match_the_seeded_matrices(self):
        def draw(seed, count, results):
            results.append([t.matrix for t in _seed_minor_tables(8, seed, count)])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(100, 105):  # a fresh (n, seed) per round
                rng = random.Random(seed)
                expected = [random_matrix(8, rng) for _ in range(60)]
                results = []
                threads = [threading.Thread(target=draw, args=(seed, 25 + 5 * i, results))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert sorted(len(r) for r in results) == [25 + 5 * i for i in range(8)]
                assert all(r == expected[:len(r)] for r in results)
        finally:
            sys.setswitchinterval(old_interval)

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_membership_at_n20_is_pair_local(self, kind):
        # the oracle computes only the minors the relation's columns need
        a, b = (3, 4), (2, 5)
        if kind == "N":
            mlat = PluckerLattice("M", 20)
            a, b = ssyt_to_pbw(mlat, a), ssyt_to_pbw(mlat, b)
        lat = PluckerLattice(kind, 20)
        rel = straighten_pair(lat, a, b)
        assert "elements" not in lat.__dict__
        seed = 11 if kind == "M" else 12
        start = time.perf_counter()
        assert ideal_membership(rel, 20, seed=seed).member
        assert time.perf_counter() - start < 2.0
        # a column of at most four entries also leaves its sub-columns in the table
        columns = {sub for mono in rel for c in mono
                   for k in (range(len(c) + 1) if len(c) <= 4 else (0, len(c)))
                   for sub in itertools.combinations(c, k)}
        assert all(set(t) <= columns for t in _seed_minor_tables(20, seed, 20))


def reference_minor_mod_p(matrix, cols, p=ORACLE_PRIME):
    """Gaussian elimination with one modular inverse per step: the reference minor."""
    k = len(cols)
    sub = [[matrix[i][c - 1] % p for c in cols] for i in range(k)]
    det = 1
    for i in range(k):
        pivot = next((r for r in range(i, k) if sub[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            sub[i], sub[pivot] = sub[pivot], sub[i]
            det = -det
        det = det * sub[i][i] % p
        inv = pow(sub[i][i], -1, p)
        for r in range(i + 1, k):
            factor = sub[r][i] * inv % p
            if factor:
                sub[r] = [(x - factor * y) % p for x, y in zip(sub[r], sub[i])]
    return det % p


@pytest.mark.parametrize("n", range(1, 8))
def test_fraction_free_minors_match_the_reference(n):
    rng = random.Random(100 + n)
    tiny = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(n)]   # many zero pivots
    repeated = [row[:] for row in tiny]
    repeated[-1] = repeated[0][:]                                         # singular
    for Z in (random_matrix(n, rng), tiny, repeated, [[0] * n for _ in range(n)]):
        for k in range(n + 1):
            for c in itertools.combinations(range(1, n + 1), k):
                for p in (ORACLE_PRIME, 7):
                    assert minor_mod_p(Z, c, p) == reference_minor_mod_p(Z, c, p)


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_form_minors_match_the_reference(n):
    # every column of length <= 4 that a table computes in closed form
    rng = random.Random(200 + n)
    tiny = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(n)]   # many zero pivots
    repeated = [row[:] for row in tiny]
    repeated[min(1, n - 1)] = repeated[0][:]                              # singular for k >= 2
    for Z in (random_matrix(n, rng), tiny, repeated, [[0] * n for _ in range(n)]):
        for p in (ORACLE_PRIME, 7):
            table = MinorTable(Z, p)
            for k in range(1, min(n, 4) + 1):
                for c in itertools.combinations(range(1, n + 1), k):
                    assert table[c] == reference_minor_mod_p(Z, c, p), (Z, c, p)


def test_minor_mod_p_matches_fraction_det():
    rng = random.Random(1)
    for _ in range(20):
        Z = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        det = (Z[0][0] * (Z[1][1] * Z[2][2] - Z[1][2] * Z[2][1])
               - Z[0][1] * (Z[1][0] * Z[2][2] - Z[1][2] * Z[2][0])
               + Z[0][2] * (Z[1][0] * Z[2][1] - Z[1][1] * Z[2][0]))
        assert minor_mod_p(Z, (1, 2, 3)) == det % ORACLE_PRIME


# -- the Fraction straightening, kept as the reference of the integer one ----

def reference_straighten_pair(lat, a, b):
    """Straightening with ``Fraction`` coefficients, each shuffle normalized to 1 on its pivot."""
    sa, ca = lat.signed_key(a)
    sb, cb = lat.signed_key(b)
    pivot = straightening._pivot_m if lat.kind == "M" else straightening._pivot_n
    first, second = (ca, cb) if (-len(ca), ca) <= (-len(cb), cb) else (cb, ca)
    work = {(first, second): Fraction(sa * sb)}
    standard_part = {}
    while work:
        pair, coeff = min(work.items())
        del work[pair]
        if straightening.is_standard_monomial(lat, pair):
            straightening.poly_add_term(standard_part, monomial(pair), coeff)
            continue
        alpha, beta = lat.element_of_key(pair[0]), lat.element_of_key(pair[1])
        raw = _shuffle_sums(alpha, beta, pivot(alpha, beta))
        for key, c in raw.items():
            if key != pair:
                straightening.poly_add_term(work, key, -coeff * Fraction(c, raw[pair]))
    result = {monomial((ca, cb)): Fraction(sa * sb)}
    for mono, coeff in standard_part.items():
        straightening.poly_add_term(result, mono, -coeff)
    return result


def reference_shuffle_relation(col_a, col_b, r):
    poly = {}
    for (ca, cb), c in _shuffle_sums(col_a, col_b, r).items():
        straightening.poly_add_term(poly, monomial((ca, cb)), Fraction(c))
    lead = poly.get(monomial((tuple(sorted(col_a)), tuple(sorted(col_b)))))
    return {m: c / lead for m, c in poly.items()} if lead else poly


def assert_exact_ints(poly, reference):
    """``poly`` equals ``reference``, with an ``int`` wherever the value is integral."""
    assert poly == reference
    for mono, c in reference.items():
        assert type(poly[mono]) is (int if Fraction(c).denominator == 1 else Fraction), (mono, c)


class TestIntegerStraightening:
    """Straightening over ``int`` coefficients against the ``Fraction`` normalization."""

    @pytest.mark.parametrize("kind", ["M", "N"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_the_fraction_reference(self, kind, n):
        lat = semistandard_lattice(n) if kind == "M" else pbw_lattice(n)
        for a, b in lat.incomparable_pairs():
            assert_exact_ints(straighten_pair(lat, a, b), reference_straighten_pair(lat, a, b))

    def test_shuffle_relations_match_the_fraction_reference(self):
        cols = [c for k in (1, 2, 3) for c in itertools.permutations(range(1, 5), k)]
        for col_a, col_b in itertools.product(cols, repeat=2):
            if len(col_a) >= len(col_b):
                for r in range(1, len(col_b) + 1):
                    assert_exact_ints(shuffle_relation(col_a, col_b, r),
                                      reference_shuffle_relation(col_a, col_b, r))

    def test_quotient(self):
        for c, lead, q in ((6, -3, -2), (Fraction(6), 3, 2), (-1, 1, -1), (0, 5, 0)):
            assert straightening._quotient(c, lead) == q
            assert type(straightening._quotient(c, lead)) is int
        assert straightening._quotient(1, 3) == Fraction(1, 3)
        assert straightening._quotient(Fraction(1, 2), -2) == Fraction(-1, 4)

    def test_leads_that_do_not_divide(self, monkeypatch):
        # with every shuffle sum tripled, each pivot coefficient is +-3; a normal form
        # divides the whole tripled sum by it, so the factor cancels exactly and the
        # relations stay the same, in int (fresh lattices: no table entry is reused)
        def lattices():
            return [PluckerLattice(kind, n) for kind in "MN" for n in (3, 4, 5)]

        expected = {(lat.kind, lat.n, a, b): straighten_pair(lat, a, b)
                    for lat in lattices() for a, b in lat.incomparable_pairs()}
        real = straightening._shuffle_sums
        monkeypatch.setattr(straightening, "_shuffle_sums",
                            lambda *args: {key: 3 * c for key, c in real(*args).items()})
        got = {(lat.kind, lat.n, a, b): straighten_pair(lat, a, b)
               for lat in lattices() for a, b in lat.incomparable_pairs()}
        assert got == expected
        assert all(type(c) is int for rel in got.values() for c in rel.values())

    def test_pivot_terms_that_do_not_divide(self, monkeypatch):
        # with each pivot term doubled the relations change and reach the Fraction
        # branch; the normal forms still equal the worklist under the same shuffles
        real = straightening._shuffle_sums

        def doubled_pivot(first, second, r):
            raw = real(first, second, r)
            pair = tuple(sorted(first)), tuple(sorted(second))
            return {key: 2 * c if key == pair else c for key, c in raw.items()}

        monkeypatch.setattr(straightening, "_shuffle_sums", doubled_pivot)
        kinds = set()
        for lat in (PluckerLattice(kind, n) for kind in "MN" for n in (4, 5, 6)):
            for a, b in lat.incomparable_pairs():
                rel = straighten_pair(lat, a, b)
                assert rel == straighten_pair_worklist(lat, a, b)
                assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                           for c in rel.values())
                kinds.update(type(c) for c in rel.values())
        assert kinds == {int, Fraction}


# -- the normal-form table, against the worklist it replaced -------------------

def pivot_shuffle_pairs(lat, pair):
    """The non-standard pairs, other than ``pair``, of the shuffle at ``pair``'s pivot."""
    codes = lat.key_codes
    alpha, beta = codes[pair[0]][1], codes[pair[1]][1]
    pivot = straightening._pivot_m if lat.kind == "M" else straightening._pivot_n
    return {key for key in _shuffle_sums(alpha, beta, pivot(alpha, beta))
            if key != pair and not straightening.is_standard_monomial(lat, key)}


class TestNormalForms:
    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_matches_the_worklist_reference(self, kind):
        for n in range(3, 9):
            lat = PluckerLattice(kind, n)
            for a, b in lat.incomparable_pairs():
                assert_exact_ints(straighten_pair(lat, a, b), straighten_pair_worklist(lat, a, b))

    @pytest.mark.parametrize("kind, kept", [("M", 15), ("N", 42)])
    def test_kept_entries_were_reached_from_another_pair(self, kind, kept):
        lat = PluckerLattice(kind, 6)
        leads = {straightening.monomial((lat.weight_key(a), lat.weight_key(b)))
                 for a, b in lat.incomparable_pairs()}
        for a, b in lat.incomparable_pairs():
            straighten_pair(lat, a, b)
        table = lat.normal_forms
        reached = set().union(*(pivot_shuffle_pairs(lat, pair) for pair in leads | table.keys()))
        assert len(table) == kept
        assert table.keys() == reached
        for pair, nf in table.items():
            assert all(straightening.is_standard_monomial(lat, mono) for mono in nf)

    def test_threads_fill_one_table(self):
        lat = PluckerLattice("N", 7)
        pairs = list(lat.incomparable_pairs())
        expected = {(a, b): straighten_pair_worklist(lat, a, b) for a, b in pairs}
        results, errors = [{} for _ in range(8)], []

        def straighten_all(i):  # every thread takes every pair, in one order, so their builds overlap
            try:
                for a, b in pairs:
                    results[i][a, b] = straighten_pair(lat, a, b)
            except Exception as exc:  # a false cycle would land here
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=straighten_all, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(got == expected for got in results)
        alone = PluckerLattice("N", 7)
        for a, b in pairs:
            straighten_pair(alone, a, b)
        assert lat.normal_forms == alone.normal_forms

    @pytest.mark.parametrize("suite, most", [("ssyt-cone", 715), ("pbw-cone", 705)])
    def test_cone_suites_share_the_redundant_table(self, monkeypatch, suite, most):
        # the relations the row checks read are straightened on the lattice of the redundant
        # description, so the normal forms its rows built are not built again
        calls = []
        real = straightening._shuffle_sums
        monkeypatch.setattr(straightening, "_shuffle_sums",
                            lambda *args: calls.append(1) or real(*args))
        cones._expansion_hrep.cache_clear()
        assert verify.run_suite(suite, 6).failures == []
        assert 0 < len(calls) <= most
