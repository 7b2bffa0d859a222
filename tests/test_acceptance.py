"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import time
from fractions import Fraction

from oracle_reference import standard_expansion_mod_p
from plueckerfan import cones, verify
from plueckerfan.cones import cone_hrep, facet_count, facet_witness
from plueckerfan.order_core import InvariantError
from plueckerfan.plucker_lattices import PluckerLattice, pbw_lattice, semistandard_lattice
from plueckerfan.straightening import (
    ORACLE_PRIME,
    monomial,
    psi_exponent,
    standard_basis_check,
    straighten_pair,
    theta_exponent,
    theta_to_psi,
    weyl_dimension,
)

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


def _report(idx, ok, detail):
    print(f"[acceptance {idx:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {idx}: {detail}"


def test_criterion_01_facet_counts():
    start = time.time()
    rows = [facet_count(n) for n in range(3, 10)]
    elapsed = time.time() - start
    ok = all(
        fc.diamond * 2 ** 5 == (fc.n * fc.n - fc.n - 2) * 2 ** fc.n
        and fc.ssyt_total * 2 ** 5 == (fc.n * fc.n + fc.n - 4) * 2 ** fc.n
        and fc.special == fc.ssyt_total - fc.diamond
        and fc.pbw_total == fc.ssyt_total
        for fc in rows) and elapsed < 10
    _report(1, ok, f"facet counts n=3..9 match closed formulas in {elapsed:.2f}s")


def test_criterion_02_straightening_ground_truth():
    got_a = straighten_pair(semistandard_lattice(4), (1, 4), (2, 3))
    got_b = straighten_pair(semistandard_lattice(3), (2, 3), (1,))
    ok = got_a == EXAMPLE_GR24 and got_b == EXAMPLE_FLAG3
    _report(2, ok, "quadratic Grassmannian and flag relations reproduced verbatim")


def test_criterion_03_straightening_suites():
    start = time.time()
    total_bound = Fraction(0)
    failures = 0
    checks = 0
    for n in (3, 4, 5):
        for suite in ("strlaws", "pbwstrlaws"):
            report = verify.run_suite(suite, n=n, seed=0)
            failures += len(report.failures)
            checks += report.checks
            total_bound += report.notes["aggregate_failure_bound"]
    elapsed = time.time() - start
    ok = failures == 0 and total_bound < Fraction(1, 2 ** 1000) and elapsed < 300
    _report(3, ok, f"{checks} straightening checks, 0 expected failures, "
                   f"membership bound < 2^-1000, {elapsed:.1f}s")


def test_criterion_04_oracle_equivalence():
    mismatches = 0
    pairs = 0
    for n in (3, 4):
        for lat in (semistandard_lattice(n), pbw_lattice(n)):
            for a, b in lat.incomparable_pairs():
                pairs += 1
                rel = straighten_pair(lat, a, b)
                oracle = standard_expansion_mod_p(lat, a, b, seed=0)
                if set(oracle) != set(rel):
                    mismatches += 1
                    continue
                for mono, coeff in rel.items():
                    c = Fraction(coeff)
                    lifted = c.numerator * pow(c.denominator, ORACLE_PRIME - 2,
                                               ORACLE_PRIME) % ORACLE_PRIME
                    if lifted != oracle[mono]:
                        mismatches += 1
    _report(4, mismatches == 0,
            f"worklist output equals rank/solve expansion on {pairs} pairs (n=3,4, both orders)")


def test_criterion_05_tau_isomorphism():
    start = time.time()
    report = verify.run_suite("tau", n=7, seed=0)
    elapsed = time.time() - start
    ok = report.ok and elapsed < 10
    _report(5, ok, f"order isomorphism exhaustive at n=7 "
                   f"({report.checks} checks) in {elapsed:.1f}s")


def test_criterion_06_ehrhart_transfer():
    start = time.time()
    ehr = verify.run_suite("ehrhart", n=8, seed=0)
    mink = verify.run_suite("minkowski", n=8, seed=0)
    elapsed = time.time() - start
    ok = ehr.ok and mink.ok and elapsed < 120
    _report(6, ok, f"partition-independent counts, transfer round trips and "
                   f"decompositions ({ehr.checks + mink.checks} checks) in {elapsed:.1f}s")


def test_criterion_07_cone_soundness():
    failures = 0
    checks = 0
    for n in (3, 4, 5):
        for suite in ("hibi-cone", "genhibi-cone", "ssyt-cone", "pbw-cone"):
            report = verify.run_suite(suite, n=n, seed=0)
            failures += len(report.failures)
            checks += report.checks
    _report(7, failures == 0,
            f"1000 sampled interior points per cone and n satisfy the redundant "
            f"descriptions, whose rows are exactly each pair's lead against its "
            f"other terms ({checks} checks)")


def test_criterion_08_irredundancy_witnesses():
    bad = []
    for n in (3, 4, 5):
        M, N = semistandard_lattice(n), pbw_lattice(n)
        for target, lat in (("HIBI", M), ("GENHIBI", N), ("SSYT", M), ("PBW", N)):
            hrep = cone_hrep(target, lat)
            for fid in hrep.facet_ids():
                w = facet_witness(hrep, fid)
                own_fails = not hrep.inequality(fid).holds(w)
                others_hold = all(iq.holds_nonstrict(w)
                                  for j, iq in enumerate(hrep.inequalities) if j != fid)
                if not (own_fails and others_hold):
                    bad.append((target, n, fid))
    _report(8, not bad, "every facet of every minimal description has an exact witness "
                        f"(n=3..5, 4 targets){'; bad: ' + repr(bad[:3]) if bad else ''}")


def test_criterion_09_convex_geometry():
    start = time.time()
    failures = []
    for n in (4, 5, 6):
        for target in ("SSYT", "PBW"):
            hrep = cone_hrep(target, PluckerLattice(cones.KIND[target], n))
            for fid in hrep.facet_ids():
                kind = hrep.inequality(fid).provenance[0]
                try:
                    res = cones.classify_facet_vs_subcone(hrep, fid)
                except InvariantError as exc:
                    failures.append((target, n, fid, str(exc)))
                    continue
                expect = "contains_subcone" if kind == "diamond" else "meets_in_facet"
                if res.kind != expect or (expect == "meets_in_facet" and res.sign != 1):
                    failures.append((target, n, fid, res))
    elapsed = time.time() - start
    ok = not failures and elapsed < 30
    _report(9, ok, f"facet pullbacks classified symbolically for n=4..6 in {elapsed:.1f}s")


def test_criterion_10_standard_basis():
    failures = []
    for n in (3, 4, 5):
        lams = verify._multidegrees(n, 3)
        for lat in (semistandard_lattice(n), pbw_lattice(n)):
            for lam in lams:
                if standard_basis_check(lat, lam) != weyl_dimension(lam):
                    failures.append((lat.kind, n, lam))
    _report(10, not failures,
            "standard monomials match evaluation ranks per weight block and the Weyl "
            "dimension for every multidegree of total degree <= 3 at n=3..5"
            f"{'; bad: ' + repr(failures[:3]) if failures else ''}")


def test_criterion_11_generalized_hibi_kernel():
    from plueckerfan.straightening import hibi_generator
    failures = []
    for n in (3, 4, 5):
        lat = pbw_lattice(n)
        part = lat.partition
        for a, b in lat.incomparable_pairs():
            gen = hibi_generator(lat, a, b, part)
            monos = sorted(gen)
            exps = [theta_exponent(lat, part, m) for m in monos]
            if exps[0] != exps[1]:
                failures.append(("kernel", n, a, b))
        for b in lat.elements:
            theta = theta_exponent(lat, part, (b,))
            if theta_to_psi(theta) != psi_exponent(b, n):
                failures.append(("psi", n, b))
    _report(11, not failures,
            "generalized binomials sit in the monomial-map kernel and the PBW "
            "exponents match under the diagonal substitution (n<=5)")
