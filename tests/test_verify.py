import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from plueckerfan import cones, straightening, verify
from plueckerfan.chain_order import ChainOrderPartition, chain_matrix, interpolating_hrep
from lattice_reference import DistributiveLattice, LatticeError
from plueckerfan.order_core import (
    CapacityError,
    InvariantError,
    Poset,
    PosetError,
)


def test_suite_registry_is_complete():
    assert sorted(verify.SUITES) == [
        "asl", "convex", "counts", "ehrhart", "genhibi-cone", "hibi-cone",
        "minkowski", "pbw-cone", "pbwstrlaws", "ssyt-cone", "strlaws", "tau"]


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_report_fields_round_trip():
    report = verify.run_suite("counts", n=4, seed=0)
    obj = report.to_json_obj()
    assert obj["suite"] == "counts" and obj["failures"] == []
    assert obj["checks"] == report.checks


def test_ehrhart_capacity_guard():
    with pytest.raises(CapacityError):
        verify.run_suite("ehrhart", n=9)


def test_random_posets_are_deterministic():
    import random
    a = [p.to_json() for p in
         (verify.random_poset(random.Random(42)) for _ in range(5))]
    b = [p.to_json() for p in
         (verify.random_poset(random.Random(42)) for _ in range(5))]
    assert a == b


def test_partition_sampling_counts():
    import random
    poset = verify.random_poset(random.Random(3), max_size=4)
    parts = verify.partitions_of(poset, 0)
    assert len(parts) == 2 ** len(poset)


def test_partition_mismatch_rejected():
    p1 = Poset.from_covers(["a"], [])
    p2 = Poset.from_covers(["a", "b"], [])
    part = ChainOrderPartition.order_polytope(p2)
    with pytest.raises(PosetError):
        interpolating_hrep(p1, part)


def test_sampler_logs_rejections():
    from plueckerfan import cones
    from plueckerfan.plucker_lattices import semistandard_lattice
    lat = semistandard_lattice(3)
    hrep = cones.cone_hrep("HIBI", lattice=lat)
    center = cones.interior_witness(lat)
    W, rejected = verify.sample_cone_points(hrep, center, 40, seed=0, scale=2, spread=6)
    pts, _ = as_points((W, rejected), center)
    assert len(W) == len(pts) == 40 and rejected > 0
    assert all(cones.contains(hrep, w) for w in pts)


def test_large_lattice_uses_sampled_axioms():
    # chains are distributive; above the full-check limit the sampled path runs
    names = [f"c{i:02d}" for i in range(70)]
    poset = Poset.from_covers(names, list(zip(names, names[1:])))
    lat = DistributiveLattice.from_poset(poset)
    assert len(lat) == 70


def test_nondistributive_lattice_rejected():
    # three incomparable atoms under a common top: modular but not distributive
    poset = Poset.from_covers(
        ["bot", "x", "y", "z", "top"],
        [("bot", "x"), ("bot", "y"), ("bot", "z"),
         ("x", "top"), ("y", "top"), ("z", "top")])
    with pytest.raises(LatticeError):
        DistributiveLattice.from_poset(poset)


def test_non_lattice_rejected():
    poset = Poset.from_covers(
        ["a", "b", "c", "d"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    with pytest.raises(LatticeError):
        DistributiveLattice.from_poset(poset)


def test_sampler_raises_when_nothing_is_accepted():
    from plueckerfan.plucker_lattices import semistandard_lattice
    lat = semistandard_lattice(3)
    hrep = cones.cone_hrep("HIBI", lattice=lat)
    zero = dict.fromkeys(cones.interior_witness(lat), 0)
    with pytest.raises(CapacityError, match="not converging"):
        verify.sample_cone_points(hrep, zero, 5, seed=0, spread=0)


def test_sampler_raises_under_python_O(python_env):
    # an assert would vanish under -O and leave the sampler looping forever
    script = (
        "from plueckerfan import cones, verify\n"
        "from plueckerfan.plucker_lattices import semistandard_lattice\n"
        "lat = semistandard_lattice(3)\n"
        "hrep = cones.cone_hrep('HIBI', lattice=lat)\n"
        "zero = dict.fromkeys(cones.interior_witness(lat), 0)\n"
        "verify.sample_cone_points(hrep, zero, 5, seed=0, spread=0)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          timeout=60, env=python_env)
    assert proc.returncode == 1
    assert "CapacityError: rejection sampling is not converging" in proc.stderr


# -- the one-candidate-at-a-time sampler, kept as the reference of the batched one --

def reference_sample_cone_points(hrep, center, count, seed, scale=16, spread=12):
    rng = random.Random(seed)
    keys = sorted(center, key=cones._key_name)
    points = []
    rejected = 0
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts >= 100 * count:
            raise CapacityError(f"rejection sampling is not converging: {len(points)} of "
                                f"{count} samples accepted after {attempts} attempts")
        w = {k: scale * center[k] + rng.randint(-spread, spread) for k in keys}
        if cones.contains(hrep, w):
            points.append(w)
        else:
            rejected += 1
    return points, rejected


def as_points(sampled, center):
    """The sampler's ``(W, rejected)`` with W's rows as weight dicts, as the reference returns."""
    W, rejected = sampled
    keys = sorted(center, key=cones._key_name)
    return [dict(zip(keys, row)) for row in W.tolist()], rejected


def sampler_outcome(sampler, *args):
    try:
        sampled = sampler(*args)
    except CapacityError as exc:
        return str(exc)
    return sampled if sampler is reference_sample_cone_points else as_points(sampled, args[1])


def minimal_cone(target, n):
    lat = verify.PluckerLattice("M" if target in ("HIBI", "SSYT") else "N", n)
    hrep = cones.cone_hrep(target, n=n, lattice=lat)
    if hrep.partition is None:
        return hrep, cones.interior_witness(lat)
    return hrep, cones.generalized_interior_witness(lat)


@pytest.mark.parametrize("target", ["HIBI", "GENHIBI", "SSYT", "PBW"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_sampler_draws_the_reference_samples(target, n):
    hrep, center = minimal_cone(target, n)
    for seed in range(3):
        got = as_points(verify.sample_cone_points(hrep, center, verify.CONE_SAMPLES, seed), center)
        assert got == reference_sample_cone_points(hrep, center, verify.CONE_SAMPLES, seed)


@pytest.mark.parametrize("lift", [lambda v: v << 60, lambda v: Fraction(v, 3)],
                         ids=["past-int64", "fractions"])
def test_batched_sampler_on_exact_values(lift):
    # weights past int64 or not integers take the object-array path
    hrep, center = minimal_cone("SSYT", 4)
    lifted = {k: lift(v) for k, v in center.items()}
    got = as_points(verify.sample_cone_points(hrep, lifted, 200, seed=1), lifted)
    assert got == reference_sample_cone_points(hrep, lifted, 200, seed=1)
    assert len(got[0]) == 200


@pytest.mark.parametrize("n, count, spread", [(3, 5, 0), (4, 20, 5), (3, 20, 5)])
def test_batched_sampler_on_the_zero_centre_gives_up_like_the_reference(n, count, spread):
    # no noise: every draw is the apex and is rejected; at n=4 the budget runs
    # out with 10 of 20 accepted (seed 0), part way through a block; n=3 fills
    hrep, center = minimal_cone("HIBI", n)
    zero = dict.fromkeys(center, 0)
    for seed in range(3):
        args = (hrep, zero, count, seed, 16, spread)
        got = sampler_outcome(verify.sample_cone_points, *args)
        assert got == sampler_outcome(reference_sample_cone_points, *args)


# -- the per-sample cone suite loop, kept as the reference of the batched one ----

def reference_cone_suite(name, n, seed, target, redundant_target, relation_kind):
    report = verify.SuiteReport(name, n, seed)
    if target in ("HIBI", "SSYT"):
        lat = verify.semistandard_lattice(n)
    else:
        lat = verify.pbw_lattice(n)
    kwargs = {"n": n} if target in ("SSYT", "PBW") else {"lattice": lat}
    minimal = cones.cone_hrep(target, **kwargs)
    redundant = cones.cone_hrep(redundant_target, **kwargs)
    if target in ("HIBI", "SSYT"):
        center = cones.interior_witness(lat)
    else:
        center = cones.generalized_interior_witness(lat)
    report.record(cones.contains(minimal, center), ("interior witness", target, n))
    points, rejected = as_points(
        verify.sample_cone_points(minimal, center, verify.CONE_SAMPLES, seed), center)
    report.notes["rejected_samples"] = rejected
    relations = None
    if relation_kind:
        relations = [(a, b, straightening.straighten_pair(lat, a, b))
                     for a, b in lat.incomparable_pairs()]
    binomials = [(a, b, straightening.hibi_generator(
        lat, a, b, None if target == "HIBI" else lat.partition))
        for a, b in lat.incomparable_pairs()] if target in ("HIBI", "GENHIBI") else None
    for idx, w in enumerate(points):
        if not cones.contains(redundant, w):
            bad = [iq.provenance for iq in redundant.inequalities if not iq.holds(w)]
            report.record(False, ("redundant description", idx, bad[:3]))
        else:
            report.record(True, None)
        if relations is not None:
            for a, b, rel in relations:
                inf = cones.initial_form(rel, w)
                lead = straightening.monomial(
                    (lat.weight_key(a), lat.weight_key(b)))
                report.record(set(inf) == {lead}, ("initial form", idx, a, b, sorted(inf)))
        if binomials is not None:
            for a, b, gen in binomials:
                key = lat.weight_key
                inf = cones.initial_form(
                    {straightening.monomial(tuple(map(key, m))): c for m, c in gen.items()}, w)
                lead = straightening.monomial((key(a), key(b)))
                report.record(set(inf) == {lead}, ("initial binomial", idx, a, b))
    for fid in minimal.facet_ids():
        witness = cones.facet_witness(minimal, fid)
        own = minimal.inequality(fid)
        ok = not own.holds(witness) and all(
            iq.holds_nonstrict(witness)
            for j, iq in enumerate(minimal.inequalities) if j != fid)
        report.record(ok, ("facet witness", target, n, own.provenance))
    return report


CONE_SUITES = {
    "hibi-cone": ("HIBI", "HIBI_REDUNDANT", None),
    "genhibi-cone": ("GENHIBI", "GENHIBI_REDUNDANT", None),
    "ssyt-cone": ("SSYT", "SSYT_REDUNDANT", "M"),
    "pbw-cone": ("PBW", "PBW_REDUNDANT", "N"),
}


def assert_same_report(name, n, seed):
    got = verify.run_suite(name, n=n, seed=seed)
    expect = reference_cone_suite(name, n, seed, *CONE_SUITES[name])
    assert (got.checks, got.failures, got.notes) == (expect.checks, expect.failures, expect.notes)
    return got


@pytest.mark.parametrize("name", sorted(CONE_SUITES))
@pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2)])
def test_cone_suite_matches_reference(name, n, seed):
    assert assert_same_report(name, n, seed).ok


def same_grade(lat, a, avoid):
    """An element of a's grade outside ``avoid``: the sampled noise alone orders the two."""
    return next((e for e in lat.elements if lat.grade(e) == lat.grade(a) and e not in avoid), None)


def wrong_pair(lat):
    """The first incomparable pair (a, b) whose b shares its grade with some c; returns (a, b, c)."""
    return next((a, b, c) for a, b in lat.incomparable_pairs()
                if (c := same_grade(lat, b, (a, b))) is not None)


@pytest.fixture
def broken_redundant(monkeypatch):
    """SSYT_REDUNDANT gains a row that about half of the sampled points violate."""
    build = cones.cone_hrep

    def broken(target, **kwargs):
        hrep = build(target, **kwargs)
        if target != "SSYT_REDUNDANT":
            return hrep
        lat = hrep.lattice
        a, b = lat.incomparable_pairs()[0]
        c = same_grade(lat, a, (a,))
        extra = cones.LinearInequality(cones._form((a, 1), (c, -1)), cones.STRICT, ("broken", a, c))
        return cones.ConeHRep(hrep.target, hrep.label, hrep.inequalities + (extra,), lat)

    monkeypatch.setattr(cones, "cone_hrep", broken)


@pytest.fixture
def wrong_leads(monkeypatch):
    """One relation and one Hibi binomial per lattice gain a term that undercuts the lead on some samples."""
    straighten = straightening.straighten_pair
    hibi = straightening.hibi_generator

    def wrong_relation(lat, a, b):
        rel = dict(straighten(lat, a, b))
        wa, wb, c = wrong_pair(lat)
        if (a, b) == (wa, wb):
            rel[straightening.monomial((lat.weight_key(a), lat.weight_key(c)))] = 1
        return rel

    def wrong_binomial(lat, a, b, partition=None):
        gen = dict(hibi(lat, a, b, partition))
        wa, wb, c = wrong_pair(lat)
        if (a, b) == (wa, wb):
            gen[straightening.monomial((a, c))] = 1
        return gen

    monkeypatch.setattr(straightening, "straighten_pair", wrong_relation)
    monkeypatch.setattr(straightening, "hibi_generator", wrong_binomial)


def failure_kinds(report):
    return [f[0] for f in report.failures]


def test_broken_redundant_cone_fails_like_reference(broken_redundant):
    kinds = failure_kinds(assert_same_report("ssyt-cone", 4, 0))
    assert 0 < kinds.count("redundant description") < verify.CONE_SAMPLES


def test_wrong_lead_fails_like_reference(wrong_leads):
    for name, kind in (("pbw-cone", "initial form"), ("hibi-cone", "initial binomial")):
        kinds = failure_kinds(assert_same_report(name, 4, 0))
        assert 0 < kinds.count(kind) < verify.CONE_SAMPLES, name


def test_mixed_failures_keep_the_per_sample_order(broken_redundant, wrong_leads):
    report = assert_same_report("ssyt-cone", 4, 0)
    kinds = failure_kinds(report)
    assert 0 < kinds.count("redundant description") < verify.CONE_SAMPLES
    assert 0 < kinds.count("initial form") < verify.CONE_SAMPLES
    samples = [f[1] for f in report.failures]
    assert samples == sorted(samples) and kinds != sorted(kinds, reverse=True)


# -- the per-(partition, t) loop, kept as the reference of the stacked checks -----

def one_block(name, part, X):
    """The stacked transfer map ``verify.<name>`` on one partition: the one-element stack."""
    poset = part.poset
    return getattr(verify, name)(poset, chain_matrix(poset, [part]), X[None])[0]


def reference_combo(report, part, label, arrays, order_arrays, reference, t,
                    check_decomposition):
    """Checks of one partition at one t, with int64 products and a box built per call."""
    points = reference_integer_points(*arrays, t)
    report.record(len(points) == len(reference),
                  ("point count", part.poset.elements, label, t, len(points), len(reference)))
    if len(part.poset) == 0 or t == 0:
        return
    Y = one_block("zeta_prime_matrix", part, points)
    back = one_block("zeta_matrix", part, Y)
    report.record(bool((back == points).all()), ("zeta o zeta_prime", label, t))
    Z = one_block("zeta_matrix", part, reference)
    forward = one_block("zeta_prime_matrix", part, Z)
    report.record(bool((forward == reference).all()), ("zeta_prime o zeta", label, t))
    A, b = arrays
    report.record(bool((Z @ A.T <= t * b).all()), ("zeta image", label, t))
    Ao, bo = order_arrays
    report.record(bool((Y @ Ao.T <= t * bo).all()), ("zeta_prime image", label, t))
    if not check_decomposition:
        return
    lt = part.poset.strict_order_matrix.astype(np.int64)
    total = np.zeros_like(points)
    for i in range(1, t + 1):
        J = (Y >= i).astype(np.int64)
        not_down_closed = ((J == 0) & ((J @ lt.T) > 0)).any()
        report.record(not bool(not_down_closed), ("level sets are ideals", label, t, i))
        piece = one_block("k_matrix", part, J)
        report.record(bool((piece @ A.T <= b).all()), ("piece membership", label, t, i))
        total += piece
    report.record(bool((total == points).all()), ("decomposition sum", label, t))


def reference_ehrhart_like(name, n, seed):
    report = verify.SuiteReport(name, n, seed)
    for _, idx, poset in verify.ehrhart_posets(n, seed):
        order_arrays = verify.interpolating_hrep(
            poset, ChainOrderPartition.order_polytope(poset)).arrays()
        references = [reference_integer_points(*order_arrays, t)
                      for t in range(verify.EHRHART_MAX_T + 1)]
        for part in verify.partitions_of(poset, seed + idx):
            arrays = verify.interpolating_hrep(poset, part).arrays()
            label = part.to_json_obj()
            for t, reference in enumerate(references):
                reference_combo(report, part, label, arrays, order_arrays, reference, t,
                                name == "minkowski")
    return report


def assert_same_ehrhart_report(name, n, seed):
    got = verify.run_suite(name, n=n, seed=seed)
    expect = reference_ehrhart_like(name, n, seed)
    assert (got.checks, got.failures) == (expect.checks, expect.failures)
    return got


@pytest.mark.parametrize("name", ["ehrhart", "minkowski"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_checks_match_the_reference(name, n, seed):
    assert assert_same_ehrhart_report(name, n, seed).ok


@pytest.mark.parametrize("name", ["ehrhart", "minkowski"])
def test_ragged_stacks_match_the_reference(monkeypatch, name):
    # one partition per poset loses a row of its system, so it has more points
    # than the partitions stacked with it, which are padded to its length
    build = verify.interpolating_hrep

    def one_row_short(poset, part):
        hrep = build(poset, part)
        if part.order_mask != 1 or len(poset) < 2:
            return hrep
        return type(hrep)(poset, hrep.rows[:-1], hrep.labels[:-1])

    monkeypatch.setattr(verify, "interpolating_hrep", one_row_short)
    report = assert_same_ehrhart_report(name, 4, 0)
    counts = [f for f in report.failures if f[0] == "point count"]
    assert counts and len(report.failures) > len(counts)


def test_level_sets_as_pieces_fail_like_the_reference(monkeypatch):
    # pieces that are the level sets themselves, not their K-sets: chain
    # elements below another element of the level set break the chain rows
    monkeypatch.setattr(verify, "k_matrix", lambda poset, chain, J: J)
    report = assert_same_ehrhart_report("minkowski", 4, 0)
    kinds = {f[0] for f in report.failures}
    assert kinds == {"piece membership", "decomposition sum"}


def test_one_corrupted_system_fails_only_its_own_records(monkeypatch):
    # the partition with order mask 5 gets a looser last row, so it has more
    # points than the partitions stacked around it and splits their run
    build = verify.interpolating_hrep
    corrupted = []

    def looser_last_row(poset, part):
        hrep = build(poset, part)
        if part.order_mask != 5 or len(poset) < 3:
            return hrep
        corrupted.append(part.to_json_obj())
        (row, bound), = hrep.rows[-1:]
        return type(hrep)(poset, hrep.rows[:-1] + ((row, bound + 1),), hrep.labels)

    monkeypatch.setattr(verify, "interpolating_hrep", looser_last_row)
    report = assert_same_ehrhart_report("minkowski", 4, 0)
    labels = [f[2] if f[0] == "point count" else f[1] for f in report.failures]
    assert report.failures and all(label in corrupted for label in labels)
    assert {f[0] for f in report.failures} == {
        "point count", "zeta_prime image", "level sets are ideals", "decomposition sum"}


@pytest.mark.parametrize("value, raises", [(2 ** 24 - 1, False), (2 ** 24, True)])
def test_transfer_checks_guard_float32_exactness(monkeypatch, value, raises):
    # every poset has one element at n = 1, so the guard reads the value itself
    monkeypatch.setattr(verify, "zeta_prime_matrix", lambda poset, chain, X: X * 0 + value)
    if raises:
        with pytest.raises(InvariantError, match="too large for exact float32"):
            verify.run_suite("ehrhart", n=1)
    else:
        assert not verify.run_suite("ehrhart", n=1).ok


def test_box_products_guard_float32_exactness():
    rows = np.full((1, 1, 1), 2.0 ** 22, dtype=np.float32)
    bounds = np.zeros((1, 1, 1), dtype=np.float32)
    for t in (1, 3):
        assert verify.integer_points(rows, bounds, t, verify.box_points(1, t))[0] == [1]
    with pytest.raises(InvariantError, match="too large for exact float32"):
        verify.integer_points(rows, bounds, 4, verify.box_points(1, 4))


# -- failure reproducers of the lattice-point suites ----------------------------

def shifted_last_entry(fn):
    """``fn`` with the last entry of each partition's block raised by one on even-size posets."""
    def broken(poset, chain, X):
        out = fn(poset, chain, X)
        if out.size and len(poset) % 2 == 0:
            out = out.copy()
            out[:, -1, -1] += 1
        return out
    return broken


# (suite, broken map, n, seed) -> (failures, SHA-256 of the JSON list of their reprs),
# taken from the code that rebuilt each reproducer's partition label per check
EHRHART_FAILURES = {
    ("ehrhart", "zeta_matrix", 4, 1):
        (2448, "633d58f1a562b70b0314020ef5a5d90890b65e13cd291aedbb05931a33e7df39"),
    ("minkowski", "zeta_prime_matrix", 4, 1):
        (2916, "320a0b523d0e267d90cbf8a8dae438088567488be4558f95ba5316d716b7501b"),
}


@pytest.mark.parametrize("case", sorted(EHRHART_FAILURES))
def test_ehrhart_failures_are_unchanged(monkeypatch, case):
    suite, name, n, seed = case
    monkeypatch.setattr(verify, name, shifted_last_entry(getattr(verify, name)))
    for budget in (1, verify.STACK_BYTES):  # stacks of one partition and of many
        monkeypatch.setattr(verify, "STACK_BYTES", budget)
        failures = verify.run_suite(suite, n=n, seed=seed).to_json_obj()["failures"]
        digest = hashlib.sha256(json.dumps(failures).encode()).hexdigest()
        assert (len(failures), digest) == EHRHART_FAILURES[case]


# -- the box oracle ------------------------------------------------------------

def reference_integer_points(A, b, t):
    """The box oracle that builds its box on every call and tests every row."""
    size = A.shape[1]
    grid = np.indices((t + 1,) * size).reshape(size, -1).T.astype(np.int64)
    keep = (grid @ A.T <= t * b).all(axis=1)
    return grid[keep]


def test_shared_box_with_skipped_rows_matches_the_full_box():
    import random
    rng = random.Random(61)
    boxes = {}
    checked = 0
    for _ in range(40):
        poset = verify.random_poset(rng, max_size=6)
        for part in verify.partitions_of(poset, rng.getrandbits(32))[:6]:
            hrep = interpolating_hrep(poset, part)
            rows, bounds = verify.binding_rows(*verify.stack_systems([hrep]))
            for t in range(verify.EHRHART_MAX_T + 1):
                box = boxes.setdefault((len(poset), t), verify.box_points(len(poset), t))
                counts, got = verify.integer_points(rows, bounds, t, box)
                expected = reference_integer_points(*hrep.arrays(), t)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
                assert counts == [len(expected)]
                checked += 1
    assert checked > 500 and len(boxes) >= 20


@pytest.mark.parametrize("budget", ["default", "one partition per chunk"])
def test_stacked_box_matches_the_reference_on_every_partition(monkeypatch, budget):
    if budget != "default":
        monkeypatch.setattr(verify, "STACK_BYTES", 1)
    rng = random.Random(67)
    posets = [verify.random_poset(rng, max_size=6) for _ in range(40)]
    assert {len(poset) for poset in posets} == {1, 2, 3, 4, 5, 6}
    checked = 0
    for poset in posets:
        hreps = [interpolating_hrep(poset, ChainOrderPartition.from_masks(poset, mask))
                 for mask in range(1 << len(poset))]
        rows, bounds = verify.binding_rows(*verify.stack_systems(hreps))
        for t in range(verify.EHRHART_MAX_T + 1):
            counts, points = verify.integer_points(rows, bounds, t, verify.box_points(len(poset), t))
            assert points.dtype == np.int64 and len(counts) == len(hreps)
            for hrep, got in zip(hreps, np.split(points, np.cumsum(counts)[:-1])):
                assert np.array_equal(got, reference_integer_points(*hrep.arrays(), t))
                checked += 1
    assert checked == 3304  # (partition, t) pairs


# -- the counts suite under python -O -------------------------------------------

COUNTS_WITH_A_PAIR_DROPPED = (
    "from plueckerfan import verify\n"
    "from plueckerfan.plucker_lattices import PluckerLattice\n"
    "real = PluckerLattice.diamond_pairs\n"
    "PluckerLattice.diamond_pairs = lambda self: real(self)[1:]\n"
    "report = verify.run_suite('counts', n=6)\n"
    "print(report.checks, len(report.failures))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_counts_suite_finds_wrong_counts(python_env, flags):
    # facet_count's closed-form checks raise InvariantError, which stays live under -O
    proc = subprocess.run([sys.executable, *flags, "-c", COUNTS_WITH_A_PAIR_DROPPED],
                          capture_output=True, text=True, timeout=120, env=python_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "4"]


# a special pair's lower factor replaced by the meet: the cell-ideal cross-check
# of the tuple formulas must fail, and its InvariantError must reach the report
COUNTS_WITH_A_WRONG_SPECIAL_FACTOR = (
    "from plueckerfan import verify\n"
    "from plueckerfan.plucker_lattices import PluckerLattice\n"
    "real = PluckerLattice._check_special_ideals\n"
    "PluckerLattice._check_special_ideals = (\n"
    "    lambda self, a, b, meet, join, p1, q1: real(self, a, b, meet, join, meet, q1))\n"
    "report = verify.run_suite('counts', n=6)\n"
    "print(report.checks, len(report.failures))\n")

# the (s, s+1) submodularity binomial also answers for (s, s+2), so some facet
# pullbacks match two binomials
CONVEX_WITH_A_DOUBLED_BINOMIAL = (
    "from plueckerfan import cones, verify\n"
    "real = cones.k_facet_form\n"
    "cones.k_facet_form = lambda n, s, t: real(n, s, s + 1 if t == s + 2 else t)\n"
    "report = verify.run_suite('convex', n=5)\n"
    "print(report.checks, len(report.failures))\n")


def _run_script(env, flags, script):
    proc = subprocess.run([sys.executable, *flags, "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_counts_suite_finds_a_wrong_special_factor(python_env, flags):
    assert _run_script(python_env, flags, COUNTS_WITH_A_WRONG_SPECIAL_FACTOR) == ["4", "4"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_convex_suite_finds_ambiguous_pullbacks(python_env, flags):
    assert _run_script(python_env, flags, CONVEX_WITH_A_DOUBLED_BINOMIAL) == ["62", "11"]


# -- the tau suite checks the column rules, not the shared masks ------------------

def test_tau_suite_finds_a_broken_pbw_rule(monkeypatch):
    def anywhere(alpha, beta):
        # the witness for beta_r may sit in any slot of alpha, not only from r on
        return len(alpha) >= len(beta) and all(
            b <= len(beta) or any(a >= b for a in alpha) for b in beta)

    assert verify.run_suite("tau", n=5).ok
    monkeypatch.setattr(verify, "pbw_two_column_leq", anywhere)
    report = verify.run_suite("tau", n=5)
    assert len(report.failures) == 55
    assert all(f[0] == "order" for f in report.failures)


# -- the asl suite: weight-block ranks and the Weyl dimension, also under -O --------

# one incomparable pair of each lattice taken as comparable: the standard count
# of every block holding a monomial with that pair exceeds the block's rank
ASL_WITH_A_BROKEN_STANDARD_RULE = (
    "from itertools import combinations\n"
    "from plueckerfan import straightening, verify\n"
    "def broken(lat, mono):\n"
    "    bad = set(lat.incomparable_pairs()[0])\n"
    "    elems = [lat.element_of_key(c) for c in mono]\n"
    "    return all(lat.comparable(x, y) or {x, y} == bad for x, y in combinations(elems, 2))\n"
    "straightening.is_standard_monomial = broken\n"
    "report = verify.run_suite('asl', n=3)\n"
    "print(report.checks, len(report.failures))\n")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_asl_suite_finds_a_broken_standard_rule(python_env, flags):
    assert _run_script(python_env, flags, ASL_WITH_A_BROKEN_STANDARD_RULE) == ["18", "6"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_asl_beyond_the_rank_limit_is_a_capacity_error(python_env, flags):
    proc = subprocess.run([sys.executable, *flags, "-m", "plueckerfan", "verify", "--suite", "asl",
                           "--n", "7"],
                          capture_output=True, text=True, timeout=120, env=python_env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("capacity: rank oracle limited to total degree <= "
                           f"{straightening.SYMBOLIC_DEGREE_LIMIT} with n <= "
                           f"{straightening.RANK_N_LIMIT}\n")


def test_asl_ranks_each_weight_block_once_for_both_kinds(monkeypatch):
    # a block's rank reads only n, its monomials and the seed, so M(3) and N(3)
    # share the ranks of their 69 blocks at 3 seeds
    straightening._block_rank.cache_clear()
    calls = []
    real = straightening.rank_mod_p

    def counting(rows, *args):
        calls.append(1)
        return real(rows, *args)

    monkeypatch.setattr(straightening, "rank_mod_p", counting)
    assert verify.run_suite("asl", n=3).ok
    assert len(calls) == 207


def test_asl_suite_counts_against_the_weyl_dimension(monkeypatch):
    # dropping a whole weight block leaves every block rank equal to its count;
    # only the Weyl dimension sees the missing monomials
    real = straightening.monomials_of_degree

    def without_first_block(lat, lam):
        monos = real(lat, lam)
        first = straightening.wt_vector(monos[0], lat.n)
        return [m for m in monos if straightening.wt_vector(m, lat.n) != first]

    assert verify.run_suite("asl", n=3).ok
    monkeypatch.setattr(straightening, "monomials_of_degree", without_first_block)
    report = verify.run_suite("asl", n=3)
    assert (report.checks, len(report.failures)) == (18, 18)
