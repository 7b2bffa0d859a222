import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plueckerfan import cli, cones, straightening, verify
from plueckerfan.order_core import key_name
from plueckerfan.plucker_lattices import PluckerLattice, semistandard_lattice


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLattice:
    def test_m3_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kind", "M", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["elements"]) == 6
        assert len(obj["covers"]) == 6

    def test_n4_matches_library(self, capsys):
        code, out, _ = run(capsys, "lattice", "--kind", "N", "--n", "4")
        obj = json.loads(out)
        from plueckerfan.plucker_lattices import pbw_lattice
        assert obj == pbw_lattice(4).hasse_json_obj()

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "lattice", "--kind", "M", "--n", "1")
        assert code == 2 and "n must be" in err

    def test_capacity(self, capsys):
        code, _, err = run(capsys, "lattice", "--kind", "M", "--n", "13")
        assert code == 3

    @pytest.mark.parametrize("kind", ["M", "N"])
    def test_pairs_capacity(self, capsys, kind):
        code, out, err = run(capsys, "pairs", "--kind", kind, "--n", "13")
        assert (code, out) == (3, "")
        assert err == "capacity: full lattice enumeration capped at n = 12\n"


class TestStraighten:
    def test_grassmannian(self, capsys):
        code, out, _ = run(capsys, "straighten", "--kind", "M", "--n", "4",
                           "--pair", "1,4 2,3")
        assert code == 0
        obj = json.loads(out)
        assert obj["terms"] == [
            {"coeff": "1", "factors": [[1, 2], [3, 4]]},
            {"coeff": "-1", "factors": [[1, 3], [2, 4]]},
            {"coeff": "1", "factors": [[1, 4], [2, 3]]},
        ]

    def test_pbw_with_oracle(self, capsys):
        code, out, _ = run(capsys, "straighten", "--kind", "N", "--n", "3",
                           "--pair", "1,2 3", "--oracle", "probabilistic")
        assert code == 0
        obj = json.loads(out)
        assert obj["oracle"]["member"] is True

    def test_comparable_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "straighten", "--kind", "M", "--n", "4",
                           "--pair", "1,2 1,3")
        assert code == 2 and "comparable" in err

    @pytest.mark.parametrize("kind, pair", [("M", "3,4 2,5"), ("N", "1,13 12,2,3")])
    def test_past_the_lattice_cap(self, capsys, kind, pair):
        # straightening one pair is pair-local, so it runs past the enumeration cap
        code, out, _ = run(capsys, "straighten", "--kind", kind, "--n", "13", "--pair", pair,
                           "--oracle", "probabilistic")
        assert code == 0
        obj = json.loads(out)
        assert obj["oracle"]["member"] is True
        lat = PluckerLattice(kind, 13)
        a, b = (tuple(int(x) for x in part.split(",")) for part in pair.split())
        rel = straightening.straighten_pair(lat, a, b)
        assert obj["terms"] == json.loads(json.dumps(straightening.relation_json_obj(rel)))["terms"]
        assert "elements" not in lat.__dict__

    def test_symbolic_oracle_capacity(self, capsys):
        code, _, err = run(capsys, "straighten", "--kind", "M", "--n", "7",
                           "--pair", "1,4 2,3", "--oracle", "symbolic")
        assert code == 3 and err.startswith("capacity:")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "straighten", "--kind", "M", "--n", "4", "--pair", "1,4 2,3",
                             "--oracle", "probabilistic", "--trials", trials)
        assert (code, out) == (2, "")
        assert err == f"error: trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize("trials", ["129", "231", "100000000"])
    def test_trials_past_the_kept_draws_is_capacity(self, capsys, trials):
        # refused before any draw, and before a bound whose denominator p^trials could not print
        start = time.perf_counter()
        code, out, err = run(capsys, "straighten", "--kind", "M", "--n", "4", "--pair", "1,4 2,3",
                             "--oracle", "probabilistic", "--trials", trials)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("capacity: evaluation oracle limited to 128 random matrices per seed, "
                       f"got {trials}\n")

    def test_trials_at_the_kept_draws(self, capsys):
        code, out, _ = run(capsys, "straighten", "--kind", "M", "--n", "4", "--pair", "1,4 2,3",
                           "--oracle", "probabilistic", "--trials", "128")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["member"] is True
        assert oracle["failure_bound"] == str(Fraction(4, straightening.ORACLE_PRIME) ** 128)


class TestCone:
    def test_ssyt3(self, capsys):
        code, out, _ = run(capsys, "cone", "--target", "SSYT", "--n", "3")
        assert code == 0
        assert len(json.loads(out)["inequalities"]) == 2

    def test_check_point_interior(self, capsys, tmp_path):
        lat = semistandard_lattice(3)
        w = cones.interior_witness(lat)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(cones.weights_to_json_obj(w)))
        code, out, _ = run(capsys, "check-point", "--target", "SSYT", "--n", "3",
                           "--weights", str(path))
        assert code == 0 and json.loads(out)["member"] is True

    def test_check_point_reads_the_elements_no_row_names(self, capsys, tmp_path):
        # the Hibi rows name neither the lattice's minimum nor its maximum
        lat = semistandard_lattice(3)
        path = tmp_path / "w.json"
        path.write_text(json.dumps(cones.weights_to_json_obj(cones.interior_witness(lat))))
        code, out, _ = run(capsys, "check-point", "--target", "HIBI", "--n", "3",
                           "--weights", str(path))
        assert code == 0 and json.loads(out)["member"] is True

    def test_check_point_rejects_a_key_that_names_no_element(self, capsys, tmp_path):
        lat = semistandard_lattice(3)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({**cones.weights_to_json_obj(dict.fromkeys(lat.elements, 1)),
                                    "typo": -100}))
        code, out, err = run(capsys, "check-point", "--target", "SSYT", "--n", "3",
                             "--weights", str(path))
        assert (code, out) == (2, "")
        assert err == "error: weights JSON names no element 'typo'\n"

    def test_check_point_zero_fails(self, capsys, tmp_path):
        lat = semistandard_lattice(3)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({",".join(map(str, c)): "0" for c in lat.elements}))
        code, out, _ = run(capsys, "check-point", "--target", "SSYT", "--n", "3",
                           "--weights", str(path))
        assert code == 1 and json.loads(out)["member"] is False

    @pytest.mark.parametrize("command, builds", [
        ("cone --target SSYT_REDUNDANT --n 6", 1),
        ("check-point --target SSYT --n 3 --weights {weights}", 1),
        ("verify --suite ssyt-cone --n 5", 1),
        ("verify --suite pbw-cone --n 5", 1),
        ("verify --suite convex --n 6", 4),  # M(6) and N(6), and the toric M(5) and N(5)
        ("verify --suite ehrhart --n 4", 0),  # the grids' posets, without their lattices
    ])
    def test_one_lattice_per_kind_and_size(self, capsys, monkeypatch, tmp_path, command, builds):
        # every description is built over the lattice its caller hands down
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(cones.weights_to_json_obj(
            cones.interior_witness(semistandard_lattice(3)))))
        made = []
        real = PluckerLattice.__init__
        monkeypatch.setattr(PluckerLattice, "__init__",
                            lambda self, kind, n: made.append((kind, n)) or real(self, kind, n))
        code, _, _ = run(capsys, *shlex.split(command.format(weights=weights)))
        assert code == 0 and len(made) == builds, made


class TestPolytope:
    @pytest.fixture
    def chain_file(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["p", "q"], "covers": [["p", "q"]]}))
        return str(path)

    @pytest.fixture
    def chain_partition(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps({"order": [], "chain": ["p", "q"]}))
        return str(path)

    def test_points(self, capsys, chain_file, chain_partition):
        code, out, _ = run(capsys, "polytope", "--poset", chain_file,
                           "--partition", chain_partition, "--t", "1",
                           "--action", "points")
        assert code == 0
        assert json.loads(out) == [
            {"p": "0", "q": "0"}, {"p": "0", "q": "1"}, {"p": "1", "q": "0"}]

    def test_t_zero_origin(self, capsys, chain_file, chain_partition):
        code, out, _ = run(capsys, "polytope", "--poset", chain_file,
                           "--partition", chain_partition, "--t", "0",
                           "--action", "points")
        assert json.loads(out) == [{"p": "0", "q": "0"}]

    @pytest.mark.parametrize("t", ["5", "100000", "1000000000000"])
    def test_t_past_the_dilation_cap_is_capacity(self, capsys, chain_file, chain_partition, t):
        # a two-element chain has 3 ideals, so the t-dilation has up to C(t + 2, t) points of 2
        # coordinates; 5 passes, and past the cap it stops before anything is allocated
        start = time.perf_counter()
        code, out, err = run(capsys, "polytope", "--poset", chain_file,
                             "--partition", chain_partition, "--t", t, "--action", "points")
        assert time.perf_counter() - start < 1.0
        if t == "5":
            assert code == 0 and len(json.loads(out)) == 21
        else:
            assert (code, out) == (3, "")
            assert err == f"capacity: the {t}-dilation may exceed 16777216 point coordinates\n"

    @pytest.mark.parametrize("t", ["0", "1"])
    def test_a_large_antichain_stops_before_listing_its_ideals(self, capsys, tmp_path, t):
        # 2^40 ideals: at t = 1 the listing stops once it would pass 2^24 // 40 masks, each
        # one point of 40 coordinates; the one point of t = 0 lists none
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps({"elements": [f"a{i}" for i in range(40)], "covers": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "polytope", "--poset", str(path), "--t", t,
                             "--action", "points")
        assert time.perf_counter() - start < 1.0
        if t == "0":
            assert code == 0 and json.loads(out) == [{f"a{i}": "0" for i in range(40)}]
        else:
            assert (code, out) == (3, "")
            assert err == f"capacity: poset has more than {(1 << 24) // 40} order ideals\n"

    def test_order_hrep_default_partition(self, capsys, chain_file):
        code, out, _ = run(capsys, "polytope", "--poset", chain_file,
                           "--action", "hrep")
        assert code == 0
        kinds = {row["kind"] for row in json.loads(out)}
        assert kinds == {"nonneg", "chain", "headed"}

    def test_decompose(self, capsys, tmp_path, chain_file, chain_partition):
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"p": "1", "q": "1"}))
        code, out, _ = run(capsys, "polytope", "--poset", chain_file,
                           "--partition", chain_partition, "--t", "2",
                           "--action", "decompose", "--point", str(point))
        assert code == 0
        assert json.loads(out) == [{"p": "0", "q": "1"}, {"p": "1", "q": "0"}]

    def test_decompose_rejects_a_key_that_names_no_element(self, capsys, tmp_path):
        poset = tmp_path / "chain.json"
        poset.write_text(json.dumps({"elements": ["a", "b", "c"],
                                     "covers": [["a", "b"], ["b", "c"]]}))
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"a": 1, "b": 1, "c": 0, "d": 5}))
        code, out, err = run(capsys, "polytope", "--poset", str(poset), "--t", "2",
                             "--action", "decompose", "--point", str(point))
        assert (code, out) == (2, "")
        assert err == "error: point JSON names no element 'd'\n"


class TestVerifyAndFacets:
    def test_counts_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--n", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["failures"] == []

    def test_tau_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tau", "--n", "5")
        assert code == 0

    def test_ehrhart_capacity(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "ehrhart", "--n", "9")
        assert code == 3

    def test_facets(self, capsys):
        code, out, _ = run(capsys, "facets", "--n", "4")
        assert json.loads(out) == {
            "n": 4, "ssyt_total": 8, "diamond": 5, "special": 3, "pbw_total": 8}

    @pytest.mark.parametrize("n", ["1", "-1"])
    def test_facets_below_two_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "facets", "--n", n)
        assert (code, out) == (2, "")
        assert err == f"error: facet counts need n >= 2, got {n}\n"

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "counts", "--n", "4")
        _, out2, _ = run(capsys, "verify", "--suite", "counts", "--n", "4")
        assert out1 == out2  # stdout is byte-identical; timing goes to stderr

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "facets", "--n", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["ssyt_total"] == 2


class TestPairsCommand:
    def test_m4_pairs(self, capsys):
        code, out, _ = run(capsys, "pairs", "--kind", "M", "--n", "4")
        rows = json.loads(out)
        assert len(rows) == 10
        classes = {tuple(r["pair"]): r["class"] for r in rows}
        assert classes[("1,4", "2,3")] == "diamond_special"


# SHA-256 of the stdout of fixed commands; a refactor of the straightening,
# oracle, chain-order, cone or lattice layers must leave these bytes unchanged
GOLDEN_STDOUT = {
    "cone --target SSYT_REDUNDANT --n 5":
        "aa58a457e5e624776986a3dd01f6ec4b87f65b395c425f93f43e74eeed5b5636",
    "cone --target PBW_REDUNDANT --n 5":
        "c10361b0b7d59fa6968b566c5108d09af5064a96e72ce40364af96afb775e7bd",
    "verify --suite strlaws --n 4":
        "bc05b8ce7c56be5275f43b478795782f01ff3d139bb36b688aaa967abaf6ca7b",
    "verify --suite asl --n 3":
        "91a8199c35155a41730f0314ecf61f73f51a7b414eacd25ef1fe59153a07d991",
    "verify --suite asl --n 4":
        "58b1edd5c03f94160d7a3d953af9fdbad6d0f21139ce1cde62186b8c85d72b1c",
    "verify --suite ehrhart --n 4":
        "8be651710217bc08c4fad92dff5f7c8be78d78ebac9789a42330a8235849886c",
    "verify --suite minkowski --n 4":
        "3614d2c707e3bd1167514e1af44684aa9e2c7404dd917f7ee14c88d4fce7ca98",
    "verify --suite hibi-cone --n 4":
        "60a8dbb77e4417279dce561d99aa08fe610a49f518e3d9473e9eb5565ba6da70",
    "verify --suite genhibi-cone --n 4":
        "ae7c431c46c32cb8f938d023eb78c1cd359c14f8c3457a490b1ff6ad9d23ffd1",
    "verify --suite ssyt-cone --n 4":
        "a4ee517103435268a5d2786befd0438aef2c942c66fb473194913d9aeeaf8617",
    "verify --suite pbw-cone --n 4":
        "3982c7e9c0f7d00d427ab9a05425ef020c5af0b30776a0615c7fdb0ce8ea8dec",
    "verify --suite counts --n 6":
        "edb26aba630eb42c750c0c98759fcf83f33b6923365652f89d34724dfec1d5cb",
    "facets --n 7":
        "466bc35feaa34ac3e5574543434d023eef9ec85044d2625a10c001ac36219747",
    "pairs --kind M --n 6":
        "8fb2f9e6496354ca9614b8f0410eb2b8deb8935f7fff39d932e46ae9933ef899",
    "pairs --kind N --n 6":
        "a94a1fcda814cc44e5ec1ab4ec6c9cb40614f042dfba8940c3c111bfc9604e0b",
    "lattice --kind N --n 5":
        "bc40124772b6009de719ed969159aaed42b7c1966575593bdc6bc4e36fc04f14",
    "verify --suite tau --n 6":
        "4329e080f3fc0e721a1b03aa7ce8fd8fbbb61dc1fde1548ce6ab2edc608a0695",
    "verify --suite convex --n 5":
        "d590d8bf55447b7e7318a8b0037deb07f08879d7e9af93e731477da06188798c",
    "cone --target SSYT --n 5":
        "5a272f31081fce988c96624bcbd651abcf6b6d8fde2b272358c47acfe9b26639",
    "cone --target PBW --n 5":
        "a02f0d1157cf0320c95c2b87b2f84c0451e1438fcc62622a625b0547d4b82e02",
    "cone --target HIBI --kind N --n 4":
        "c126e2f279cd9d426a45b4ec073bc0214ccd45e364990b4993d3443cc1bc166d",
    "cone --target GENHIBI --kind N --n 4":
        "136e449c88576a22b7d481930d71ed75602abe0b7d042e3a1fb05376a857f91b",
    'straighten --kind N --n 5 --pair "1,2,5 1,5,3,4" --oracle probabilistic':
        "5dd993b415db6aba6f6d6e61e608b9bb4ac377469d2ce4957d977cdb5e9ce882",
    "cone --target TORIC_GT --n 5":
        "37dabe24897393bbed31f5d4a90ebfb534bf18fd6926fbd7a1b4905a0f6b23c7",
    "cone --target TORIC_FFLV --n 5":
        "70f3dd758535f4817e8e2cdb869b2d99768337a5f2039295452a9ee2fe2608e4",
    "cone --target HIBI_REDUNDANT --n 5":
        "7cc4e2983952578393c0d9b45a041a931b70f662954f03b5331e66329bd11df1",
    "cone --target GENHIBI_REDUNDANT --n 5":
        "f28fe83e9d261b54ef9bbd67d4b0a9695121fbc20f1c3c5db36980878de22ed2",
    "cone --target SSYT_REDUNDANT --n 6":
        "50a05f479e55824738069a142675c8bac287af9a6e5b9ec6c1ca80a7b25cf5ec",
    "cone --target PBW_REDUNDANT --n 6":
        "cc5b26e65bf6681907de33c5df569db24e03fc0e72426d45813f349263161e67",
    "cone --target SSYT --n 4 --format text":
        "bbf47410faa19d64cb6803ae10f7ec173bf06b155805de62d1faf6ba508dffe9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


class TestVerifySizes:
    """Only an omitted ``--n`` means the default; sizes without checks are usage errors."""

    @pytest.mark.parametrize("suite", ["counts", "tau", "minkowski"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sizes_without_checks_are_usage_errors(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: n must be at least")

    @pytest.mark.parametrize("suite", sorted(verify.SUITES))
    def test_a_size_below_the_least_is_a_usage_error(self, capsys, suite):
        least = verify.SUITES[suite].least
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(least - 1))
        assert (code, out) == (2, "")
        assert err == f"error: n must be at least {least}, got {least - 1}\n"

    @pytest.mark.parametrize("suite, default", [("counts", 10), ("tau", 7), ("asl", 5)])
    def test_omitted_size_is_the_default(self, capsys, suite, default):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0 and json.loads(out)["n"] == default
        assert run(capsys, "verify", "--suite", suite, "--n", str(default))[1] == out


class TestParserReuse:
    """One parser serves every call of ``main`` in a process."""

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "plueckerfan":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in (["facets", "--n", "3"], ["facets", "--n", "4", "--format", "text"],
                     ["lattice", "--kind", "N", "--n", "3"], ["facets", "--n", "3"]):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == 1

    def test_format_does_not_persist(self, capsys):
        _, text, _ = run(capsys, "facets", "--n", "4", "--format", "text")
        _, out, _ = run(capsys, "facets", "--n", "4")
        assert text.startswith("{'n': 4")
        assert json.loads(out)["n"] == 4

    def test_out_does_not_persist(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "facets", "--n", "3", "--out", str(path))
        assert code == 0 and out == ""
        path.unlink()
        code, out, _ = run(capsys, "facets", "--n", "3")
        assert code == 0 and json.loads(out)["n"] == 3
        assert not path.exists()

    def test_usage_error_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["facets", "--n", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        code, out, _ = run(capsys, "facets", "--n", "4")
        assert code == 0 and json.loads(out)["diamond"] == 5

    def test_parse_args_from_threads(self):
        argvs = [["facets", "--n", "3"],
                 ["lattice", "--kind", "N", "--n", "4", "--format", "text"],
                 ["straighten", "--n", "5", "--pair", "1,4 2,3", "--oracle", "symbolic"],
                 ["cone", "--target", "SSYT", "--n", "4", "--out", "x.json"],
                 ["polytope", "--poset", "p.json", "--t", "3", "--action", "points"],
                 ["verify", "--suite", "counts", "--seed", "7"],
                 ["check-point", "--target", "HIBI", "--n", "3", "--weights", "w.json"],
                 ["pairs", "--n", "6"]] * 8
        expected = [cli.build_parser().parse_args(argv) for argv in argvs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda argv: cli.build_parser().parse_args(argv), argvs))
        assert got == expected


# -- the chain-order points of the join-irreducible grid of the n=4 lattice ------

def write_grid(tmp_path, n=4):
    """The grid poset file and the partition file of every order mask over it.

    Cells (i, j), 1 <= i < n, max(i, 2) <= j <= n, named ``c{i}{j}``; (i, j) is
    covered by (i, j + 1) and (i + 1, j).
    """
    cells = [(i, j) for i in range(1, n) for j in range(max(i, 2), n + 1)]
    name = {c: f"c{c[0]}{c[1]}" for c in cells}
    covers = [[name[(i, j)], name[up]] for i, j in cells
              for up in ((i, j + 1), (i + 1, j)) if up in name]
    elements = [name[c] for c in cells]
    poset = tmp_path / "grid.json"
    poset.write_text(json.dumps({"elements": elements, "covers": covers}))
    partitions = []
    for mask in range(1 << len(elements)):
        path = tmp_path / f"part{mask:03d}.json"
        path.write_text(json.dumps({
            "order": [e for i, e in enumerate(elements) if mask >> i & 1],
            "chain": [e for i, e in enumerate(elements) if not mask >> i & 1]}))
        partitions.append(path)
    return poset, partitions


# SHA-256 of the concatenated stdout of one command per partition of the grid,
# taken from the code that built every point as a dict before printing it
GRID_GOLDEN = {
    "decompose --t 3":
        "e5b850b15f0999f9c64f42017b73a5006914009b5581aae50bf3d30e6deae21b",
    "decompose --t 3 --format text":
        "3c7e1e00fe1acd8d39fcadf7d095d8cad53e536715ca216c4dbb48cc5931d488",
    "points --t 2":
        "2ccd444dfbb695dc648ea849703c446f0efe9f46677143a9cd74f73ca8a7aee2",
    "points --t 2 --format text":
        "34d1d1afbcbca8aeaf16ccab68a3152cb877173248f6ede6628d76402a6c0ac5",
}


@pytest.mark.parametrize("command", sorted(GRID_GOLDEN))
def test_grid_golden_stdout(capsys, tmp_path, command):
    """``decompose`` splits the middle point of each partition's 3-dilation."""
    from plueckerfan.chain_order import ChainOrderPartition, dilation_points, point_to_json_obj
    from plueckerfan.order_core import Poset

    poset_file, partitions = write_grid(tmp_path)
    poset = Poset.from_json(poset_file.read_text())
    action, *flags = shlex.split(command)
    digest = hashlib.sha256()
    for part_file in partitions:
        argv = ["polytope", "--poset", str(poset_file), "--partition", str(part_file),
                "--action", action, *flags]
        if action == "decompose":
            obj = json.loads(part_file.read_text())
            part = ChainOrderPartition.from_sets(poset, obj["order"], obj["chain"])
            points = dilation_points(part, 3)
            point_file = tmp_path / "point.json"
            point_file.write_text(json.dumps(point_to_json_obj(points[len(points) // 2])))
            argv += ["--point", str(point_file)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GRID_GOLDEN[command]


def reference_points_json(points):
    """The dict-then-``json.dumps`` rendering that the row template must reproduce."""
    from plueckerfan.chain_order import point_to_json_obj
    return json.dumps([point_to_json_obj(p) for p in points], indent=2, sort_keys=True)


class TestPointsJson:
    """``polytope`` JSON rendered from the point rows equals the dict path byte for byte."""

    POSETS = {
        "escapes": {"elements": ['a"b', "c\\d", "é", "100%", "n\nl", "☃", "z"],
                    "covers": [['a"b', "é"], ["c\\d", "100%"], ["é", "☃"]]},
        "empty": {"elements": [], "covers": []},
        "one": {"elements": ["x"], "covers": []},
    }

    @staticmethod
    def files(tmp_path, obj):
        from plueckerfan.chain_order import ChainOrderPartition
        from plueckerfan.order_core import Poset
        poset_file = tmp_path / "poset.json"
        poset_file.write_text(json.dumps(obj))
        poset = Poset.from_json(poset_file.read_text())
        part_file = tmp_path / "part.json"
        chain = poset.elements[::2]
        order = [e for e in poset.elements if e not in chain]
        part_file.write_text(json.dumps({"order": order, "chain": list(chain)}))
        return poset_file, part_file, ChainOrderPartition.from_sets(poset, order, chain)

    @pytest.mark.parametrize("name", sorted(POSETS))
    def test_points_and_decompose(self, capsys, tmp_path, name):
        from plueckerfan.chain_order import (
            dilation_points, minkowski_decompose, point_to_json_obj)
        poset_file, part_file, part = self.files(tmp_path, self.POSETS[name])
        for t in range(4):
            points = dilation_points(part, t)
            code, out, _ = run(capsys, "polytope", "--poset", str(poset_file), "--partition",
                               str(part_file), "--t", str(t), "--action", "points")
            assert code == 0 and out == reference_points_json(points) + "\n"
            if t == 0:
                continue
            point_file = tmp_path / "point.json"
            point_file.write_text(json.dumps(point_to_json_obj(points[-1])))
            code, out, _ = run(capsys, "polytope", "--poset", str(poset_file), "--partition",
                               str(part_file), "--t", str(t), "--action", "decompose",
                               "--point", str(point_file))
            pieces = minkowski_decompose(part, points[-1], t)
            assert code == 0 and out == reference_points_json(pieces) + "\n"

    @pytest.mark.parametrize("obj, pair", [
        ({"elements": ["1", 1], "covers": []}, "'1' and 1"),
        ({"elements": [1, "1", "2", 2, 0], "covers": [[1, "2"], ["1", 2]]}, "1 and '1'"),
    ], ids=["two", "five"])
    @pytest.mark.parametrize("action", ["points", "hrep"])
    def test_same_str_is_a_usage_error(self, capsys, tmp_path, obj, pair, action):
        # a point names each element by its str, so such a poset is refused when read
        poset_file = tmp_path / "poset.json"
        poset_file.write_text(json.dumps(obj))
        code, out, err = run(capsys, "polytope", "--poset", str(poset_file), "--t", "1",
                             "--action", action)
        assert (code, out) == (2, "")
        assert err == f"error: elements {pair} have the same name '1'\n"

    @pytest.mark.parametrize("flag, text, field", [
        ("--poset", '{"elements": "ab", "covers": []}', "'elements'"),
        ("--poset", '[["a", "b"]]', "poset JSON"),
        ("--poset", '{"elements": [["a"], "b"], "covers": []}', "'elements'"),
        ("--poset", '{"elements": ["a", "b"]}', "'covers'"),
        ("--partition", '["a", "b"]', "partition JSON"),
    ], ids=["elements-string", "poset-list", "element-list", "no-covers", "partition-list"])
    def test_malformed_input_is_a_usage_error(self, capsys, tmp_path, flag, text, field):
        files = {"--poset": tmp_path / "poset.json", "--partition": tmp_path / "part.json"}
        files["--poset"].write_text('{"elements": ["a", "b"], "covers": [["a", "b"]]}')
        files["--partition"].write_text('{"order": ["a"], "chain": ["b"]}')
        files[flag].write_text(text)
        code, out, err = run(capsys, "polytope", "--poset", str(files["--poset"]), "--partition",
                             str(files["--partition"]), "--t", "1", "--action", "points")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must be") and err.count("\n") == 1

    MALFORMED_VALUES = {"list": "[1]", "object": '{"a": 1}', "null": "null", "true": "true",
                        "zero-division": '"1/0"', "string": '"ab"', "overflow": "1e400"}

    @pytest.mark.parametrize("flag", ["--weights", "--point"])
    @pytest.mark.parametrize("case", [*MALFORMED_VALUES, "top-level-list", "top-level-string"])
    def test_malformed_weights_and_points_are_usage_errors(self, capsys, tmp_path, flag, case):
        path = tmp_path / "values.json"
        if case == "top-level-list":
            path.write_text("[1, 2]")
        elif case == "top-level-string":
            path.write_text('"ab"')
        else:  # every name the command reads holds the value
            names = ["p", "q"] if flag == "--point" else ["1", "2", "3", "1,2", "1,3", "2,3"]
            value = self.MALFORMED_VALUES[case]
            path.write_text("{" + ", ".join(f'"{k}": {value}' for k in names) + "}")
        if flag == "--weights":
            argv = ["check-point", "--n", "3", "--target", "SSYT", "--weights", str(path)]
        else:
            poset = tmp_path / "poset.json"
            poset.write_text('{"elements": ["p", "q"], "covers": [["p", "q"]]}')
            argv = ["polytope", "--poset", str(poset), "--t", "2", "--action", "decompose",
                    "--point", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_out_file(self, capsys, tmp_path):
        from plueckerfan.chain_order import ChainOrderPartition, dilation_points
        poset_file, _, part = self.files(tmp_path, self.POSETS["escapes"])
        path = tmp_path / "points.json"
        code, out, _ = run(capsys, "polytope", "--poset", str(poset_file), "--t", "2",
                           "--action", "points", "--out", str(path))
        expected = dilation_points(ChainOrderPartition.order_polytope(part.poset), 2)
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == reference_points_json(expected) + "\n"


def test_sampler_that_does_not_converge_is_a_capacity_error(capsys, monkeypatch):
    from plueckerfan import verify
    monkeypatch.setattr(verify.cones, "contains_many",
                        lambda hrep, keys, W: np.zeros(len(W), dtype=bool))
    code, out, err = run(capsys, "verify", "--suite", "ssyt-cone", "--n", "3")
    assert (code, out) == (3, "")
    assert err.startswith("capacity: rejection sampling is not converging")
    assert len(err.splitlines()) == 1


# -- a broken invariant is exit code 4, not a failed verification ---------------

def broken_pivot(first, second):
    """The semistandard pivot with ties counted as violations: some shuffles lose the pivot."""
    return next((r + 1 for r in range(len(second)) if first[r] >= second[r]), None)


@pytest.mark.parametrize("command", ["verify --suite strlaws --n 4",
                                     'straighten --kind M --n 4 --pair "1,2 1,3,4"'])
def test_broken_invariant_is_exit_code_4(capsys, monkeypatch, command):
    from plueckerfan import straightening
    monkeypatch.setattr(straightening, "_pivot_m", broken_pivot)
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, out) == (cli.INVARIANT_ERROR, "")
    assert err == "invariant: pivot monomial must survive the shuffle\n"


STRAIGHTEN_WITH_A_BROKEN_PIVOT = (
    "import sys\n"
    "from plueckerfan import cli, straightening\n"
    "straightening._pivot_m = lambda first, second: next(\n"
    "    (r + 1 for r in range(len(second)) if first[r] >= second[r]), None)\n"
    "sys.exit(cli.main(['straighten', '--n', '4', '--pair', '1,2 1,3,4']))\n")


def run_script(env, flags, script, *args):
    return subprocess.run([sys.executable, *flags, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env=env)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_broken_invariant_is_exit_code_4_under_python_O(python_env, flags):
    proc = run_script(python_env, flags, STRAIGHTEN_WITH_A_BROKEN_PIVOT)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "invariant: pivot monomial must survive the shuffle\n"


# -- the exact commands never load numpy ----------------------------------------

NUMPY_FREE = [
    "lattice --kind N --n 4",
    "pairs --kind M --n 4",
    'straighten --n 4 --pair "1,4 2,3" --oracle probabilistic',
    "cone --target SSYT --n 4",
    "cone --target PBW_REDUNDANT --n 4",
    "cone --target GENHIBI --kind N --n 4",
    "check-point --target SSYT --n 3 --weights {weights}",
    "facets --n 5",
    "polytope --poset {poset} --action hrep",
    "verify --suite strlaws --n 4",
    "verify --suite pbwstrlaws --n 4",
    "verify --suite asl --n 3",
    "verify --suite counts --n 5",
    "verify --suite tau --n 4",
    "verify --suite convex --n 4",
]
ARRAY_PATH = ["verify --suite ssyt-cone --n 3", "polytope --poset {poset} --t 2 --action points"]

# runs each group of command lines through cli.main in one process and prints,
# per group, the exit codes and whether numpy has been imported by then
RUN_GROUPS = (
    "import contextlib, io, json, shlex, sys\n"
    "from plueckerfan import cli\n"
    "for group in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        codes = [cli.main(shlex.split(line)) for line in group]\n"
    "    print(json.dumps([codes, 'numpy' in sys.modules]))\n")


def test_exact_commands_never_load_numpy(python_env, tmp_path):
    files = {"poset": tmp_path / "poset.json", "weights": tmp_path / "w.json"}
    files["poset"].write_text(json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"]]}))
    files["weights"].write_text(json.dumps(
        cones.weights_to_json_obj(cones.interior_witness(semistandard_lattice(3)))))
    groups = [[line.format(**files) for line in group] for group in (NUMPY_FREE, ARRAY_PATH)]
    proc = run_script(python_env, [], RUN_GROUPS, json.dumps(groups))
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        [[0] * len(NUMPY_FREE), False], [[0] * len(ARRAY_PATH), True]]


# -- the file options under well-formed and malformed input ------------------------

# texts no JSON reader should get past: broken syntax, other JSON shapes, non-UTF-8
# bytes and nesting past the parser's recursion limit
MALFORMED_TEXTS = [b"", b"{", b'{"a": }', b"[1, 2", b"null", b"true", b"0", b'"text"', b"[]",
                   b"[[]]", b"NaN", b"\xff\xfe", b"[" * 100_000, b'{"a": ' * 100_000]
# values that fit no field: wrong types, unreadable numbers, a huge integer
MALFORMED_VALUES = [None, True, False, [], {}, [[1]], "", "x", "1/0", "1/2/3", float("inf"),
                    float("nan"), 1e300, 10 ** 40]
GOOD_VALUES = [0, 1, 2, -1, "1/2", "2", 1.0, 0.5]
NAMES = ["a", "b", "c", "d", "e", "f", 1, 2, "1"]  # 1 and "1" share a name


def _mangled(draw, obj, fields):
    """``obj``, or now and then ``obj`` with one of ``fields`` dropped or malformed."""
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            obj.pop(field, None)
        else:
            obj[field] = draw(st.sampled_from(MALFORMED_VALUES))
    return obj


def _file_text(draw, obj):
    """The JSON of ``obj``, or now and then a malformed text instead."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(MALFORMED_TEXTS))
    return json.dumps(obj).encode()


@st.composite
def file_option_runs(draw):
    """(argv, {file name: bytes}) of one ``polytope`` or ``check-point`` run."""
    files = {}
    if draw(st.integers(0, 3)) == 0:
        kind, target = draw(st.sampled_from(["M", "N"])), draw(st.sampled_from(cones.ALL_TARGETS))
        names = [key_name(k) for k in cones.interior_witness(PluckerLattice(kind, 3))]
        weights = {name: draw(st.sampled_from(GOOD_VALUES)) for name in names}
        files["weights"] = _file_text(draw, _mangled(draw, weights, names + ["extra"]))
        return ["check-point", "--target", target, "--kind", kind, "--n", "3",
                "--weights", "weights"], files
    names = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    forward = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]]
    anywhere = [(x, y) for x in names + ["z"] for y in names]  # cycles, self-loops, strangers
    covers = draw(st.lists(st.sampled_from(forward), unique=True)) if forward else []
    if names and draw(st.integers(0, 5)) == 0:
        covers.append(draw(st.sampled_from(anywhere)))
    files["poset"] = _file_text(draw, _mangled(
        draw, {"elements": names, "covers": [list(c) for c in covers]}, ["elements", "covers"]))
    action = draw(st.sampled_from(["hrep", "points", "decompose"]))
    argv = ["polytope", "--poset", "poset", "--action", action,
            "--t", str(draw(st.integers(-2, 4)))]
    if draw(st.booleans()):
        order = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        chain = [x for x in names if x not in order]
        files["partition"] = _file_text(draw, _mangled(
            draw, {"order": order, "chain": chain}, ["order", "chain"]))
        argv += ["--partition", "partition"]
    if action == "decompose" and draw(st.integers(0, 5)):
        point = {str(x): draw(st.sampled_from([0, 0, 1, 1, 2, *GOOD_VALUES])) for x in names}
        files["point"] = _file_text(draw, _mangled(draw, point, [*map(str, names), "extra"]))
        argv += ["--point", "point"]
    return argv, files


@given(file_option_runs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_file_options_end_in_an_exit_code(tmp_path_factory, run):
    # every run, on any input, is a result or one error line: exit 0-3, never a traceback
    argv, files = run
    folder = tmp_path_factory.mktemp("files", numbered=True)
    for name, text in files.items():
        (folder / name).write_bytes(text)
    argv = [str(folder / arg) if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert 0 <= code <= 3, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, err.getvalue()
