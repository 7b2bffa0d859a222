import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plueckerfan.chain_order import (
    DILATION_CAPACITY,
    ChainOrderPartition,
    _as_point,
    _k_mask,
    chain_matrix,
    dilation_points,
    dilation_table,
    interpolating_hrep,
    k_set,
    k_vectors,
    minkowski_decompose,
    odot_elements,
    odot_ideals,
    point_from_json_obj,
    point_to_json_obj,
    points_to_json,
    zeta,
    zeta_matrix,
    zeta_prime,
    zeta_prime_matrix,
)
from plueckerfan.order_core import (
    CapacityError,
    IdealLattice,
    InvariantError,
    OrderIdeal,
    Poset,
    PosetError,
    _bits,
    enumerate_order_ideals,
)
from plueckerfan.cones import facet_count
from plueckerfan.plucker_lattices import PluckerLattice, _ji_poset, pbw_lattice
from plueckerfan import chain_order, verify


def two_chain():
    return Poset.from_covers(["p", "q"], [("p", "q")])


def all_partitions(poset):
    return [ChainOrderPartition.from_masks(poset, m) for m in range(1 << len(poset))]


def brute_points(poset, part, t):
    """Independent oracle: every integer vector in the box against the inequality list."""
    hrep = interpolating_hrep(poset, part)
    pts = []
    for vec in itertools.product(range(t + 1), repeat=len(poset)):
        if hrep.contains(vec, t):
            pts.append(vec)
    return sorted(pts)


class TestHRep:
    def test_chain_polytope_of_two_chain(self):
        p = two_chain()
        h = interpolating_hrep(p, ChainOrderPartition.chain_polytope(p))
        assert sorted(h.rows) == [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]

    def test_order_polytope_of_two_chain(self):
        p = two_chain()
        h = interpolating_hrep(p, ChainOrderPartition.order_polytope(p))
        assert sorted(h.rows) == [((-1, 0), 0), ((-1, 1), 0), ((0, -1), 0), ((1, 0), 1)]

    def test_empty_poset(self):
        p = Poset.from_covers([], [])
        h = interpolating_hrep(p, ChainOrderPartition.order_polytope(p))
        assert h.rows == ()

    def test_mixed_partition_three_chain(self):
        # p < q < r with only q an order element: chains break at q
        p = Poset.from_covers(["p", "q", "r"], [("p", "q"), ("q", "r")])
        part = ChainOrderPartition.from_sets(p, ["q"], ["p", "r"])
        h = interpolating_hrep(p, part)
        labels = set()
        for (row, bound), label in zip(h.rows, h.labels):
            labels.add((label[0],) + tuple(map(tuple, label[1:])) if label[0] == "headed"
                       else label[:2])
        # the chain p<q stops at the order element; r is dominated by q
        assert (("chain", ("p", "q"))) in [l[:2] for l in h.labels if l[0] == "chain"]


def full_redundant_system(poset, part):
    """Oracle H-rep: boxes plus every admissible chain, maximal or not."""
    n = len(poset)
    rows = []
    for i in range(n):
        low = [0] * n
        low[i] = -1
        rows.append((tuple(low), 0))
        hi = [0] * n
        hi[i] = 1
        rows.append((tuple(hi), 1))
    elements = poset.elements
    chain_ids = set(part.chain_ids())

    def chains_from(prefix):
        yield list(prefix)
        last = prefix[-1]
        if last in chain_ids:
            for nxt in elements:
                if poset.lt(last, nxt):
                    yield from chains_from(prefix + [nxt])

    all_chains = [c for e in elements for c in chains_from([e])]
    for body in all_chains:
        row = [0] * n
        for e in body:
            row[poset.index(e)] = 1
        rows.append((tuple(row), 1))
        for q in part.order_ids():
            if poset.lt(q, body[0]):
                headed = list(row)
                headed[poset.index(q)] -= 1
                rows.append((tuple(headed), 0))
    return rows


def cut_by(A, b, V, t):
    """For each row of V, whether it satisfies A x <= t b: one exact int64 product."""
    return (V @ A.T <= t * b).all(axis=1)


class TestHRepPruning:
    def test_minimal_system_cuts_same_points(self):
        # every vector of the box {-1..t+1}^n, through both systems at once
        rng = random.Random(17)
        for _ in range(10):
            poset = verify.random_poset(rng, max_size=5)
            n = len(poset)
            boxes = {t: np.array(list(itertools.product(range(-1, t + 2), repeat=n)), dtype=np.int64)
                     for t in (1, 2)}
            for part in all_partitions(poset):
                full = full_redundant_system(poset, part)
                F = np.array([row for row, _ in full], dtype=np.int64).reshape(len(full), n)
                g = np.array([bound for _, bound in full], dtype=np.int64)
                A, b = interpolating_hrep(poset, part).arrays()
                for t, V in boxes.items():
                    assert np.array_equal(cut_by(A, b, V, t), cut_by(F, g, V, t))


def admissible_chains(part):
    """All chains p_1 < ... < p_k with every non-last element in U_c, as masks."""
    poset = part.poset
    chains = []

    def extend(mask, last):
        chains.append(mask)
        if part.chain_mask >> last & 1:
            for j in _bits(poset.up[last] & ~(1 << last)):
                extend(mask | (1 << j), j)

    for i in range(len(poset)):
        extend(1 << i, i)
    return chains


def reference_hrep(poset, part):
    """Element-id form of ``interpolating_hrep``: (rows, labels) in emission order."""
    n = len(poset)
    rows = []
    labels = []
    for i in range(n):
        row = [0] * n
        row[i] = -1
        rows.append((tuple(row), 0))
        labels.append(("nonneg", poset.elements[i]))

    def insertable(mask, low_bound):
        members = list(_bits(mask))
        topmask = poset.maximal_of(mask)
        for cand in _bits(part.chain_mask & ~mask):
            if low_bound is not None and not poset.lt(low_bound, poset.elements[cand]):
                continue
            if topmask & poset.up[cand] & ~(1 << cand):
                if all(poset.up[cand] >> m & 1 or poset.up[m] >> cand & 1 for m in members):
                    return True
        return False

    def extendable_above(mask):
        top = next(iter(_bits(poset.maximal_of(mask))))
        return bool(part.chain_mask >> top & 1 and poset.up[top] & ~(1 << top))

    for mask in sorted(admissible_chains(part)):
        strict_up = 0
        for i in _bits(mask):
            strict_up |= poset.up[i] & ~(1 << i)
        bottom = next(iter(_bits(mask & ~strict_up)))
        below_orders = [q for q in _bits(part.order_mask)
                        if poset.lt(poset.elements[q], poset.elements[bottom])]
        if extendable_above(mask):
            continue
        if not below_orders and not insertable(mask, None):
            row = [0] * n
            for i in _bits(mask):
                row[i] = 1
            rows.append((tuple(row), 1))
            labels.append(("chain", poset.ids_of(mask)))
        for q in below_orders:
            if any(poset.lt(poset.elements[q], poset.elements[q2]) for q2 in below_orders):
                continue
            if insertable(mask, poset.elements[q]):
                continue
            row = [0] * n
            for i in _bits(mask):
                row[i] = 1
            row[q] -= 1
            rows.append((tuple(row), 0))
            labels.append(("headed", poset.elements[q], poset.ids_of(mask)))
    return tuple(rows), tuple(labels)


def grid_poset(n):
    return PluckerLattice("M", n).ji_poset


def sampled_partitions(poset, count, seed):
    rng = random.Random(seed)
    masks = sorted({rng.getrandbits(len(poset)) for _ in range(count)})
    return [ChainOrderPartition.from_masks(poset, m) for m in masks]


class TestHRepMatchesReference:
    """The mask-based system emits the element-id reference's rows and labels in order."""

    @staticmethod
    def assert_same(poset, parts):
        for part in parts:
            hrep = interpolating_hrep(poset, part)
            assert (hrep.rows, hrep.labels) == reference_hrep(poset, part), part.to_json_obj()
        return len(parts)

    def test_random_posets_every_partition(self):
        rng = random.Random(41)
        cases = sum(self.assert_same(poset, all_partitions(poset))
                    for poset in (verify.random_poset(rng, max_size=5) for _ in range(120)))
        assert cases > 1000

    def test_grid_n4_every_partition(self):
        poset = grid_poset(4)
        assert self.assert_same(poset, all_partitions(poset)) == 256

    @pytest.mark.parametrize("n, count", [(5, 400), (6, 200)])
    def test_grid_sampled_partitions(self, n, count):
        poset = grid_poset(n)
        assert self.assert_same(poset, sampled_partitions(poset, count, seed=n)) > count // 2

    def test_order_and_chain_polytopes(self):
        rng = random.Random(43)
        posets = [two_chain()] + [grid_poset(n) for n in (3, 4, 5, 6)] + [
            verify.random_poset(rng, max_size=8) for _ in range(30)]
        for poset in posets:
            self.assert_same(poset, [ChainOrderPartition.order_polytope(poset),
                                     ChainOrderPartition.chain_polytope(poset)])


class TestTransferMaps:
    def test_zeta_identity_on_order_part(self):
        p = two_chain()
        part = ChainOrderPartition.order_polytope(p)
        x = {"p": Fraction(3, 7), "q": Fraction(1, 7)}
        assert zeta(part, x) == x
        assert zeta_prime(part, x) == x

    def test_zeta_two_chain(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        assert zeta(part, {"p": 1, "q": 1}) == {"p": 0, "q": 1}
        assert zeta_prime(part, {"p": 0, "q": 1}) == {"p": 1, "q": 1}

    def test_zeros_fixed(self):
        p = two_chain()
        for part in all_partitions(p):
            zero = {"p": 0, "q": 0}
            assert zeta(part, zero) == zero
            assert zeta_prime(part, zero) == zero

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_posets(self, t, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        poset = verify.random_poset(rng, max_size=5)
        mask = data.draw(st.integers(0, (1 << len(poset)) - 1))
        part = ChainOrderPartition.from_masks(poset, mask)
        for vec in brute_points(poset, part, t):
            x = dict(zip(poset.elements, vec))
            assert zeta(part, zeta_prime(part, x)) == x
        order = ChainOrderPartition.order_polytope(poset)
        for vec in brute_points(poset, order, t):
            y = dict(zip(poset.elements, vec))
            assert zeta_prime(part, zeta(part, y)) == y


class TestKSets:
    def test_order_part_is_identity(self):
        p = two_chain()
        part = ChainOrderPartition.order_polytope(p)
        j = OrderIdeal.from_members(p, ["p", "q"])
        assert set(k_set(part, j)) == {"p", "q"}

    def test_chain_part_gives_maximal_elements(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        j = OrderIdeal.from_members(p, ["p", "q"])
        assert set(k_set(part, j)) == {"q"}

    def test_empty_ideal(self):
        p = two_chain()
        for part in all_partitions(p):
            assert k_set(part, OrderIdeal.from_members(p, [])) == ()

    def test_k_set_is_support_of_zeta_indicator(self):
        rng = random.Random(5)
        for _ in range(20):
            poset = verify.random_poset(rng, max_size=6)
            for part in all_partitions(poset)[:8]:
                for ideal in enumerate_order_ideals(poset):
                    indicator = {e: (1 if e in ideal.members() else 0)
                                 for e in poset.elements}
                    image = zeta(part, indicator)
                    support = {e for e, v in image.items() if v != 0}
                    assert support == set(k_set(part, ideal))


class TestKMaskMatchesReference:
    """Scanning only the chain part of an ideal finds the K-set of the whole-ideal scan."""

    @staticmethod
    def assert_same(poset, parts):
        ideals = [ideal.bits for ideal in enumerate_order_ideals(poset)]
        for part in parts:
            for bits in ideals:
                expect = (bits & part.order_mask) | (poset.maximal_of(bits) & part.chain_mask)
                assert _k_mask(part, bits) == expect, (part.to_json_obj(), bits)
        return len(parts) * len(ideals)

    @pytest.mark.parametrize("n", [4, 5])
    def test_grid_every_partition(self, n):
        poset = grid_poset(n)
        assert self.assert_same(poset, all_partitions(poset)) == 2 ** len(poset) * (2 ** n - 2)

    def test_grid_n6_sampled_partitions(self):
        # 2**19 partitions are too many; the order and chain parts and 4000 seeded ones
        poset = grid_poset(6)
        parts = sampled_partitions(poset, 4000, seed=6) + [
            ChainOrderPartition.order_polytope(poset), ChainOrderPartition.chain_polytope(poset)]
        assert self.assert_same(poset, parts) > 3900 * 62

    def test_random_posets_every_partition(self):
        rng = random.Random(47)
        cases = sum(self.assert_same(poset, all_partitions(poset))
                    for poset in (verify.random_poset(rng, max_size=8) for _ in range(40)))
        assert cases > 10000


class TestKSetMemo:
    """Each partition keeps the K-sets ``_k_mask`` computes, and a kept K-set is a computed one."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_memoised_k_sets_of_the_pbw_partition(self, n):
        nlat = pbw_lattice(n)
        part, poset = nlat.partition, nlat.ji_poset
        for a, b in nlat.incomparable_pairs():
            odot_elements(nlat, part, a, b)  # the ideal products fill the memo
        ideals = [ideal.bits for ideal in enumerate_order_ideals(poset)]
        assert set(part.k_sets) <= set(ideals)
        for bits in ideals:
            expect = (bits & part.order_mask) | (poset.maximal_of(bits) & part.chain_mask)
            assert _k_mask(part, bits) == part.k_sets[bits] == expect
        assert len(part.k_sets) == len(ideals) == 2 ** n - 2

    def test_the_memo_is_not_part_of_the_value(self):
        poset = grid_poset(4)
        a, b = (ChainOrderPartition.from_masks(poset, 5) for _ in range(2))
        _k_mask(a, poset.down[0])
        assert a.k_sets and not b.k_sets
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_facet_count_computes_each_k_set_once(self, monkeypatch):
        # only _k_mask passes ``among``; without the memo facet_count(9) made 4480 such calls
        calls = []
        real = Poset.maximal_of

        def counting(self, mask, among=None):
            if among is not None:
                calls.append((id(self), mask, among))
            return real(self, mask, among)

        monkeypatch.setattr(Poset, "maximal_of", counting)
        facet_count(9)
        assert len(calls) == len(set(calls)) == 508


class TestOdot:
    def test_subset_absorbs(self):
        p = two_chain()
        j1 = OrderIdeal.from_members(p, ["p"])
        j2 = OrderIdeal.from_members(p, ["p", "q"])
        for part in all_partitions(p):
            assert odot_ideals(part, j1, j2) == j1

    def test_order_part_is_intersection(self):
        rng = random.Random(9)
        for _ in range(10):
            poset = verify.random_poset(rng, max_size=6)
            part = ChainOrderPartition.order_polytope(poset)
            ideals = enumerate_order_ideals(poset)
            for j1 in ideals:
                for j2 in ideals:
                    assert odot_ideals(part, j1, j2).bits == j1.bits & j2.bits

    def test_pbw_lattice_example(self):
        nlat = pbw_lattice(3)
        j1 = nlat.iota((1, 2))
        j2 = nlat.iota((3,))
        assert odot_ideals(nlat.partition, j1, j2) == nlat.iota((1,))

    def test_sandwich_and_meet_bound(self):
        rng = random.Random(11)
        for _ in range(12):
            poset = verify.random_poset(rng, max_size=6)
            parts = all_partitions(poset)
            sample = parts if len(parts) <= 16 else rng.sample(parts, 16)
            ideals = enumerate_order_ideals(poset)
            for part in sample:
                for j1 in ideals:
                    for j2 in ideals:
                        k1 = set(k_set(part, j1))
                        k2 = set(k_set(part, j2))
                        ku = set(k_set(part, j1 | j2))
                        assert k1 & k2 <= ku <= k1 | k2
                        prod = odot_ideals(part, j1, j2)
                        d = set(k_set(part, prod))
                        assert d <= set(k_set(part, j1 & j2))
                        assert prod.bits & ~(j1.bits & j2.bits) == 0


    def test_rejects_non_ideals(self):
        p = two_chain()
        part = ChainOrderPartition.order_polytope(p)
        upper = OrderIdeal(p, p.mask_of(["q"]))
        with pytest.raises(PosetError, match="not an order ideal"):
            odot_ideals(part, upper, OrderIdeal.from_members(p, ["p"]))

    @pytest.mark.parametrize("n", [4, 5])
    def test_lattice_products_skip_the_closure_test(self, monkeypatch, n):
        nlat = pbw_lattice(n)
        expect = {(a, b): odot_ideals(nlat.partition, nlat.iota(a), nlat.iota(b))
                  for a, b in nlat.incomparable_pairs()}
        scans = []
        real = Poset.is_down_closed
        monkeypatch.setattr(Poset, "is_down_closed",
                            lambda self, mask: scans.append(mask) or real(self, mask))
        for (a, b), ideal in expect.items():
            assert nlat.iota(odot_elements(nlat, nlat.partition, a, b)) == ideal
        assert scans == []

    @pytest.mark.parametrize("n", [4, 5])
    def test_lattice_products_build_no_order_ideal(self, monkeypatch, n):
        nlat = pbw_lattice(n)
        pairs = nlat.incomparable_pairs()
        expect = [odot_ideals(nlat.partition, nlat.iota(a), nlat.iota(b)).bits for a, b in pairs]
        built = []
        real = OrderIdeal.__post_init__
        monkeypatch.setattr(OrderIdeal, "__post_init__",
                            lambda self: built.append(self.bits) or real(self))
        got = [nlat.mask(odot_elements(nlat, nlat.partition, a, b)) for a, b in pairs]
        assert [nlat.mask(nlat.meet_or_product(a, b)) for a, b in pairs] == got
        assert built == []
        assert got == expect

    def test_products_on_a_generic_lattice_match_the_ideal_form(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(5):
            lat = IdealLattice(verify.random_poset(rng, max_size=4))
            for part in all_partitions(lat.ji_poset):
                for a, b in lat.incomparable_pairs():
                    expect = lat.from_ideal(odot_ideals(part, lat.iota(a), lat.iota(b)))
                    assert odot_elements(lat, part, a, b) == expect
                    checked += 1
        assert checked > 100

    def test_products_need_the_lattice_poset(self):
        nlat, other = pbw_lattice(4), pbw_lattice(5)
        a, b = nlat.diamond_pairs()[0]
        with pytest.raises(PosetError, match="join-irreducible poset"):
            odot_elements(nlat, other.partition, a, b)

    @pytest.mark.parametrize("broken_k, message", [
        (lambda part, bits: bits.bit_count(), "K-set sandwich violated"),
        (lambda part, bits: bits << 1, "K of the minimal ideal must recover D"),
    ], ids=["count", "shifted"])
    def test_broken_k_sets_raise_invariant_errors(self, monkeypatch, broken_k, message):
        from plueckerfan import chain_order
        nlat = pbw_lattice(4)
        a, b = nlat.diamond_pairs()[0]
        monkeypatch.setattr(chain_order, "_k_mask", broken_k)
        with pytest.raises(InvariantError, match=message):
            odot_elements(nlat, nlat.partition, a, b)


class TestDilationPoints:
    def test_t_zero(self):
        p = two_chain()
        for part in all_partitions(p):
            assert dilation_points(part, 0) == [{"p": 0, "q": 0}]

    def test_two_chain_chain_part(self):
        p = two_chain()
        pts = dilation_points(p and ChainOrderPartition.chain_polytope(p), 1)
        assert pts == [{"p": 0, "q": 0}, {"p": 0, "q": 1}, {"p": 1, "q": 0}]

    def test_antichain_counts(self):
        p = Poset.from_covers(["a", "b", "c"], [])
        for part in all_partitions(p):
            assert len(dilation_points(part, 1)) == 8

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(8):
            poset = verify.random_poset(rng, max_size=5)
            for part in all_partitions(poset):
                for t in range(3):
                    via_chains = [tuple(pt[e] for e in poset.elements)
                                  for pt in dilation_points(part, t)]
                    assert via_chains == brute_points(poset, part, t)

    def test_capacity_guard(self):
        from plueckerfan.order_core import CapacityError
        big = Poset.from_covers([f"a{i}" for i in range(63)], [])
        with pytest.raises(CapacityError):
            dilation_points(ChainOrderPartition.order_polytope(big), 1)


def _decreasing_chains(ideal_bits, t):
    if t == 0:
        yield ()
        return
    subs = {m: [m2 for m2 in ideal_bits if m2 & ~m == 0] for m in ideal_bits}

    def rec(prefix, last, depth):
        if depth == t:
            yield tuple(prefix)
            return
        for m in subs[last] if last is not None else ideal_bits:
            prefix.append(m)
            yield from rec(prefix, m, depth + 1)
            prefix.pop()

    yield from rec([], None, 0)


def reference_dilation_points(part, t):
    """The per-chain form of ``dilation_points``: a generator of chains and a scalar check each."""
    poset = part.poset
    hrep = interpolating_hrep(poset, part)
    bits = [ideal.bits for ideal in enumerate_order_ideals(poset)]
    n = len(poset)
    kvec = {m: tuple(1 if _k_mask(part, m) >> i & 1 else 0 for i in range(n)) for m in bits}
    seen = set()
    count = 0
    for chain in _decreasing_chains(bits, t):
        count += 1
        point = tuple(sum(col) for col in zip(*(kvec[m] for m in chain))) if chain else (0,) * n
        assert hrep.contains(point, t), "chain point escapes the dilated polytope"
        seen.add(point)
    assert len(seen) == count, "distinct ideal chains must give distinct points"
    return [_as_point(poset, p) for p in sorted(seen)]


class TestDilationMatchesReference:
    def test_random_posets_every_partition(self):
        rng = random.Random(41)
        posets = [Poset.from_covers([], [])] + [
            verify.random_poset(rng, max_size=5) for _ in range(24)]
        assert {len(p) for p in posets} == {0, 1, 2, 3, 4, 5}
        for poset in posets:
            for part in all_partitions(poset):
                for t in range(4):
                    got = dilation_points(part, t)
                    assert got == reference_dilation_points(part, t)
                    assert all(type(v) is int for pt in got for v in pt.values())

    def test_grid_n4_every_partition(self):
        poset = grid_poset(4)
        for part in all_partitions(poset):
            assert dilation_points(part, 2) == reference_dilation_points(part, 2)


class TestMinkowski:
    def test_t_one_returns_point(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        x = {"p": 1, "q": 0}
        assert minkowski_decompose(part, x, 1) == [x]

    def test_doubled_indicator(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        j = OrderIdeal.from_members(p, ["p", "q"])
        k = set(k_set(part, j))
        x = {e: (2 if e in k else 0) for e in p.elements}
        halves = minkowski_decompose(part, x, 2)
        assert halves == [{e: (1 if e in k else 0) for e in p.elements}] * 2

    def test_two_chain_split(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        assert minkowski_decompose(part, {"p": 1, "q": 1}, 2) == [
            {"p": 0, "q": 1}, {"p": 1, "q": 0}]

    def test_rejects_outside_points(self):
        p = two_chain()
        part = ChainOrderPartition.chain_polytope(p)
        with pytest.raises(ValueError):
            minkowski_decompose(part, {"p": 2, "q": 1}, 2)

    def test_every_point_decomposes(self):
        rng = random.Random(33)
        for _ in range(6):
            poset = verify.random_poset(rng, max_size=5)
            for part in all_partitions(poset):
                for t in (1, 2, 3):
                    for vec in brute_points(poset, part, t):
                        x = dict(zip(poset.elements, vec))
                        parts_list = minkowski_decompose(part, x, t)
                        assert len(parts_list) == t
                        total = {e: sum(pc[e] for pc in parts_list) for e in poset.elements}
                        assert total == x


def batched_cases(rng):
    """Two grid posets and seeded random posets, each with a stack of sampled partitions."""
    posets = [grid_poset(3), grid_poset(4)] + [
        verify.random_poset(rng, max_size=6) for _ in range(10)]
    return [(poset, sampled_partitions(poset, 6, rng.getrandbits(32))) for poset in posets]


def as_point(poset, row):
    return dict(zip(poset.elements, (int(v) for v in row)))


class TestVectorizedAgreesWithScalar:
    """Every partition's block of the stacked maps agrees with the scalar maps."""

    def test_zeta_matrix(self):
        rng = random.Random(7)
        for poset, parts in batched_cases(rng):
            X = np.array([[[rng.randint(-3, 3) for _ in poset.elements] for _ in range(9)]
                          for _ in parts], dtype=np.int64)
            chain = chain_matrix(poset, parts)
            fast_z = zeta_matrix(poset, chain, X)
            fast_zp = zeta_prime_matrix(poset, chain, X)
            assert fast_z.shape == fast_zp.shape == X.shape
            for part, rows, zrows, zprows in zip(parts, X, fast_z, fast_zp):
                for row, zrow, zprow in zip(rows, zrows, zprows):
                    x = as_point(poset, row)
                    assert zeta(part, x) == as_point(poset, zrow)
                    assert zeta_prime(part, x) == as_point(poset, zprow)

    def test_k_vectors(self):
        rng = random.Random(8)
        for poset, parts in batched_cases(rng):
            ideals = enumerate_order_ideals(poset)
            for part in parts:
                K = k_vectors(part, [ideal.bits for ideal in ideals])
                assert K.dtype == np.int64 and K.shape == (len(ideals), len(poset))
                for ideal, krow in zip(ideals, K):
                    expect = set(k_set(part, ideal))
                    got = {e for e, v in zip(poset.elements, krow) if v}
                    assert got == expect

    def test_one_partition_is_the_one_element_stack(self):
        poset = grid_poset(4)
        part = ChainOrderPartition.from_masks(poset, 0b10110)
        X = np.array([dilation_table(part, 2)], dtype=np.int64)
        chain = chain_matrix(poset, [part])
        assert chain.tolist() == [[bool(part.chain_mask >> i & 1) for i in range(len(poset))]]
        back = zeta_matrix(poset, chain, zeta_prime_matrix(poset, chain, X))
        assert back.shape == X.shape and (back == X).all()

    def test_chain_matrix_rejects_a_foreign_partition(self):
        with pytest.raises(PosetError):
            chain_matrix(two_chain(), [ChainOrderPartition.order_polytope(two_chain())])


@pytest.mark.parametrize("value", [0, 1, -3, 10 ** 30, True, False,
                                   Fraction(4, 2), Fraction(-2, 6), 0.5, -1.25, 3.0])
def test_point_json_matches_fraction_form(value):
    point = {"q": value, "p": 1}
    assert point_to_json_obj(point) == {"p": "1", "q": str(Fraction(value))}


def test_point_json_round_trip():
    p = two_chain()
    x = {"p": Fraction(1, 3), "q": Fraction(-2, 5)}
    assert point_from_json_obj(point_to_json_obj(x), p) == x


# -- points rendered as JSON straight from the rows ------------------------------

def reference_points_json(points):
    return json.dumps([point_to_json_obj(p) for p in points], indent=2, sort_keys=True)


class TestPointsToJson:
    """The row template renders exactly what the dicts give through ``json.dumps``."""

    @staticmethod
    def assert_same(part, t):
        rows = dilation_table(part, t)
        points = [dict(zip(part.poset.elements, row)) for row in rows]  # as dilation_points
        assert points_to_json(part.poset, rows) == reference_points_json(points)

    def test_grid_n4_every_partition(self):
        poset = grid_poset(4)
        for part in all_partitions(poset):
            for t in range(4):
                self.assert_same(part, t)

    def test_random_posets(self):
        rng = random.Random(57)
        posets = [Poset.from_covers([], []), Poset.from_covers(["x"], [])] + [
            verify.random_poset(rng, max_size=6) for _ in range(30)]
        assert {len(p) for p in posets} == {0, 1, 2, 3, 4, 5, 6}
        for poset in posets:
            for part in sampled_partitions(poset, 8, rng.getrandbits(32)):
                for t in range(4):
                    self.assert_same(part, t)

    @pytest.mark.parametrize("names", [
        ['a"b', "c\\d", "é", "100%", "%d", "tab\t", "☃"],
        [(1, 2), "(1, 3)", None, "none"],
    ], ids=["escapes", "tuples"])
    def test_names(self, names):
        poset = Poset.from_covers(names, [(names[0], names[1])])
        for part in sampled_partitions(poset, 12, len(names)):
            for t in range(3):
                self.assert_same(part, t)

    @pytest.mark.parametrize("names", [
        [1, "1", "2", 2],
        ["1", 1],
        [(1, 2), "(1, 2)", None, "None"],
    ], ids=["same-str", "same-str-reversed", "same-str-tuples"])
    def test_same_str_names_are_rejected(self, names):
        # one JSON key per element: names with the same str cannot both be points' keys
        with pytest.raises(PosetError, match="have the same name"):
            Poset.from_covers(names, [(names[0], names[1])])

    def test_decomposition_pieces(self):
        poset = grid_poset(3)
        for part in all_partitions(poset):
            for point in dilation_points(part, 3):
                pieces = minkowski_decompose(part, point, 3)
                rows = [[p[e] for e in poset.elements] for p in pieces]
                assert points_to_json(poset, rows) == reference_points_json(pieces)

    def test_no_rows(self):
        assert points_to_json(two_chain(), []) == reference_points_json([]) == "[]"


# -- the point checks stay live under python -O ---------------------------------

K_MASK_WITHOUT_ORDER_PART = (
    "from plueckerfan import chain_order\n"
    "from plueckerfan.chain_order import ChainOrderPartition\n"
    "from plueckerfan.order_core import InvariantError, Poset\n"
    "chain_order._k_mask = lambda part, bits: part.poset.maximal_of(bits) & part.chain_mask\n"
    "poset = Poset.from_covers(['p', 'q', 'r'], [('p', 'q')])\n"
    "part = ChainOrderPartition.from_sets(poset, ['p', 'r'], ['q'])\n"
    "for call in (lambda: chain_order.dilation_points(part, 2),\n"
    "             lambda: chain_order.minkowski_decompose(part, {'p': 1, 'q': 0, 'r': 2}, 2)):\n"
    "    try:\n"
    "        call()\n"
    "        print('no error')\n"
    "    except InvariantError as exc:\n"
    "        print('InvariantError:', exc)\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_broken_k_sets_raise_under_both_modes(python_env, flags):
    proc = subprocess.run([sys.executable, *flags, "-c", K_MASK_WITHOUT_ORDER_PART],
                          capture_output=True, text=True, timeout=60, env=python_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InvariantError: chain point escapes the dilated polytope",
        "InvariantError: decomposition must sum to the input point"]


class TestDilationCap:
    """``dilation_table`` refuses a dilation past ``DILATION_CAPACITY`` coordinates up front."""

    def test_grid_n7_passes_at_t3_and_stops_at_t4(self, monkeypatch):
        class PastTheCap(Exception):
            pass

        def stop(*args):
            raise PastTheCap

        # the bound at t=3 is C(128, 3) * 26 = 341,376 * 26 coordinates, under 2^24; the
        # enumeration itself is left out (0.6 s): the system builder stops the run past the cap
        monkeypatch.setattr(chain_order, "interpolating_hrep", stop)
        part = ChainOrderPartition.order_polytope(_ji_poset(7))
        assert DILATION_CAPACITY == 1 << 24
        with pytest.raises(PastTheCap):
            dilation_table(part, 3)
        with pytest.raises(CapacityError, match="the 4-dilation may exceed"):
            dilation_table(part, 4)
