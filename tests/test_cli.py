"""Exit-code contract, report shape and fixture round trips for the CLI."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpk
from cpk import abelian, cli
from cpk.fixtures import (
    abstract_document,
    fixture_document,
    fixture_ids,
    graph_document,
    indented_json,
    two_graph_document,
    unitary_document,
    write_fixtures,
)
from cpk.fock import DEFAULT_TOL

from support import times_document, two_graph_from_matrices
from test_ktheory import disjoint_flip_pair


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(str(d))
    return d


def run(capsys, argv, expect=None):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    if expect is not None:
        assert rc == expect, out
    return rc, json.loads(out)


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports cpk from this
    source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cpk.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("CPK_EXT_BOUND", None)
    return env


def run_subprocess(argv, *python_flags, timeout=60):
    """`python [flags] -m cpk.cli argv` or `python [flags] -c ...` in a fresh
    interpreter that imports cpk from this source tree."""
    return subprocess.run(
        [sys.executable, *python_flags, *argv],
        capture_output=True, text=True, timeout=timeout, env=subprocess_env(), check=False,
    )


def assumption_values(value) -> set:
    """Every "assumption" value anywhere inside a report block."""
    if isinstance(value, dict):
        found = {value["assumption"]} if "assumption" in value else set()
        return found.union(*map(assumption_values, value.values()))
    if isinstance(value, list):
        return set().union(*map(assumption_values, value))
    return set()


def final_groups(report):
    f = report["results"]["final"]
    return f["K0"].get("group"), f["K1"].get("group")


class TestValidate:
    def test_every_bundled_fixture_validates(self, fixdir, capsys):
        for fid in fixture_ids():
            rc, rep = run(capsys, ["validate", str(fixdir / f"{fid}.json")], expect=0)
            assert rep["results"]["valid"], fid

    def test_sink_graph_strict_exit_1_names_vertex(self, tmp_path, capsys):
        doc = {
            "kind": "graph",
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "src": "a", "rng": "b"}],
        }
        path = write_doc(tmp_path, doc)
        rc, rep = run(capsys, ["validate", path, "--strict"], expect=1)
        assert any("'b'" in p for p in rep["results"]["problems"])
        run(capsys, ["validate", path], expect=0)

    def test_noncommuting_permutations_exit_1(self, tmp_path, capsys):
        doc = {
            "kind": "permutation",
            "vertices": ["0", "1", "2"],
            "perm1": {"0": "1", "1": "0", "2": "2"},
            "perm2": {"0": "0", "1": "2", "2": "1"},
        }
        rc, rep = run(capsys, ["validate", write_doc(tmp_path, doc)], expect=1)
        assert any("commute" in p for p in rep["results"]["problems"])

    def test_nonunitary_matrix_exit_1(self, tmp_path, capsys):
        doc = fixture_document("ex3.5-unitary-chi")
        doc["matrix"][0][0] = [2.0, 0.0]
        rc, rep = run(capsys, ["validate", write_doc(tmp_path, doc)], expect=1)
        assert any("unitary" in p for p in rep["results"]["problems"])

    def test_bad_invariant_chain_exit_1(self, tmp_path, capsys):
        doc = fixture_document("ex4.7-abstract-p2")
        doc["K0"] = {"rank": 0, "torsion": [4, 2]}
        rc, rep = run(capsys, ["validate", write_doc(tmp_path, doc)], expect=1)
        assert any("chain" in p for p in rep["results"]["problems"])


class TestMalformed:
    def test_truncated_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"kind": "graph", "vertices": ["v"')
        run(capsys, ["validate", str(path)], expect=2)

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        run(capsys, ["validate", write_doc(tmp_path, {"kind": "nope"})], expect=2)

    def test_missing_key_exit_2(self, tmp_path, capsys):
        doc = {"kind": "graph", "vertices": ["v"]}
        rc, rep = run(capsys, ["ktheory", write_doc(tmp_path, doc)], expect=2)
        assert "edges" in rep["error"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        run(capsys, ["validate", str(tmp_path / "absent.json")], expect=2)

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, rep = run(capsys, ["examples", "--write", str(blocker / "dir")], expect=2)
        assert rep["status"] == "malformed"

    def test_bad_chi_entry_shape_exit_2(self, tmp_path, capsys):
        doc = fixture_document("ex3.5-flip-2-2")
        doc["chi"][0] = ["e0", "f0"]
        run(capsys, ["validate", write_doc(tmp_path, doc)], expect=2)

    def test_fock_check_rejects_abstract_kind_exit_2(self, fixdir, capsys):
        run(capsys, ["fock-check", str(fixdir / "ex4.7-abstract-p2.json")], expect=2)

    def test_ktheory_rejects_cover_kind_exit_2(self, fixdir, capsys):
        run(capsys, ["ktheory", str(fixdir / "ex2.2-double-cover.json")], expect=2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    @pytest.mark.parametrize("command", ["validate", "fock-check"])
    def test_non_finite_matrix_entry_exit_2(self, tmp_path, capsys, command, value):
        doc = fixture_document("ex3.5-unitary-chi")
        doc["matrix"][0][0] = [value, 0.0]
        rc, rep = run(capsys, [command, write_doc(tmp_path, doc)], expect=2)
        assert rep["status"] == "malformed"
        assert "finite" in rep["error"]

    @pytest.mark.parametrize("command", ["validate", "fock-check"])
    def test_overflowing_matrix_is_not_unitary(self, tmp_path, capsys, command):
        # the defect overflows to inf/nan; that must read as "not unitary"
        # without a RuntimeWarning, which the test settings turn into errors
        doc = fixture_document("ex3.5-unitary-chi")
        doc["matrix"][0][0] = [1e308, 0.0]
        doc["matrix"][1][1] = [1e308, 0.0]
        rc, rep = run(capsys, [command, write_doc(tmp_path, doc)], expect=1)
        assert rep["status"] == "invalid"
        assert "not unitary" in json.dumps(rep)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_2(self, fixdir, capsys, value):
        path = str(fixdir / "ex4.6-flip-3-3.json")
        rc = cli.main(["fock-check", path, "--tol", value])
        out = capsys.readouterr().out
        assert rc == 2
        rep = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert rep["status"] == "malformed"
        assert "--tol" in rep["error"]

    def test_negative_degree_exit_2(self, fixdir, capsys):
        path = str(fixdir / "ex4.6-flip-3-3.json")
        rc, rep = run(capsys, ["fock-check", path, "--degree", "-1"], expect=2)
        assert rep["status"] == "malformed"
        assert "--degree" in rep["error"]

    @pytest.mark.parametrize("value, fixture, options", [
        pytest.param("abc", "ex4.7-abstract-p2", [], id="abc"),
        pytest.param("0", "ex4.7-abstract-p2", [], id="0"),
        pytest.param("-5", "ex4.7-abstract-p2", [], id="-5"),
        # runs that never reach the extension enumerator
        pytest.param("abc", "ex4.6-flip-3-3", ["--route", "iterated", "--assume-split"],
                     id="abc-flip-iterated-split"),
        pytest.param("abc", "ex1.2.1-circle", ["--assume-split"], id="abc-circle-split"),
        pytest.param("abc", "ex4.7-abstract-p2", ["--assume-split"],
                     id="abc-abstract-split"),
    ])
    def test_bad_extension_bound_exit_2(self, fixdir, capsys, monkeypatch, value,
                                        fixture, options):
        monkeypatch.setenv("CPK_EXT_BOUND", value)
        argv = ["ktheory", str(fixdir / f"{fixture}.json"), *options]
        rc, rep = run(capsys, argv, expect=2)
        assert rep["status"] == "malformed"
        assert "CPK_EXT_BOUND" in rep["error"]


class TestKtheory:
    def test_both_routes_exit_0_on_all_two_layer_fixtures(self, fixdir, capsys):
        for fid in fixture_ids():
            doc = fixture_document(fid)
            if doc["kind"] not in ("two_graph", "permutation"):
                continue
            rc, rep = run(
                capsys,
                ["ktheory", str(fixdir / f"{fid}.json"), "--route", "both"],
                expect=0,
            )
            assert rep["results"]["diagram"]["consistent"], fid
            assert not rep["results"]["diagram"]["problems"], fid

    def test_flip_3_3(self, fixdir, capsys):
        rc, rep = run(
            capsys, ["ktheory", str(fixdir / "ex4.6-flip-3-3.json")], expect=0
        )
        assert final_groups(rep) == ("Z/2", "Z/2")
        assert rep["results"]["ideal_sum"]["K0"]["group"] == "Z + Z/2"

    def test_general_two_graph_needs_no_extension_enumeration(self, tmp_path, capsys):
        # exactness of the sum sequence certifies the ideal-sum groups; an
        # enumeration of their extensions would scan 547981281 classes here
        m1 = [[2, 1, 0, 2], [0, 1, 2, 1], [1, 0, 1, 0], [0, 0, 1, 0]]
        m2 = (np.array(m1) @ np.array(m1)).tolist()
        doc = two_graph_document(two_graph_from_matrices(m1, m2))
        rc, rep = run(capsys, ["ktheory", write_doc(tmp_path, doc), "--route", "both"],
                      expect=0)
        assert final_groups(rep) == ("Z/3", "Z/3")
        assert rep["results"]["diagram"]["consistent"]

    def test_single_stage_graph(self, fixdir, capsys):
        rc, rep = run(
            capsys, ["ktheory", str(fixdir / "ex1.2.1-circle.json")], expect=0
        )
        assert final_groups(rep) == ("Z", "Z")
        assert rep["results"]["toeplitz_corner"]["K0"]["group"] == "Z"

    def test_abstract_runs_iterated_route_only(self, fixdir, capsys):
        rc, rep = run(
            capsys, ["ktheory", str(fixdir / "ex4.7-abstract-p2.json")], expect=0
        )
        assert "ideal_sum" not in rep["results"]
        assert any("two-stage route" in n for n in rep["results"]["notes"])
        assert rep["results"]["stage1"]["layer1"]["K0"]["group"] == "Z"
        assert rep["results"]["stage1"]["layer2"]["K0"]["group"] == "Z + Z/2"

    def test_ambiguity_exits_0_with_candidates(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_graph_document(disjoint_flip_pair()))
        rc, rep = run(capsys, ["ktheory", path, "--route", "iterated"], expect=0)
        k1 = rep["results"]["final"]["K1"]
        assert k1["status"] == "AmbiguousExtension"
        assert sorted(k1["candidates"]) == ["Z/2 + Z/2", "Z/4"]
        assert "group" not in k1

    def test_assume_split_watermark(self, tmp_path, capsys):
        path = write_doc(tmp_path, two_graph_document(disjoint_flip_pair()))
        rc, rep = run(
            capsys, ["ktheory", path, "--route", "iterated", "--assume-split"],
            expect=0,
        )
        assert rep["assumptions"] == ["split-extension"]
        assert rep["results"]["final"]["K1"]["group"] == "Z/2 + Z/2"
        assert rep["results"]["final"]["K1"]["assumption"] == "split-extension"

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("route", ["both", "iterated"])
    def test_watermark_is_the_flag_and_every_assumption(self, fixdir, tmp_path, capsys,
                                                         route, split):
        # without --assume-split its K0 and K1 are AmbiguousExtension
        ambiguous = {
            "kind": "abstract_kdata",
            "K0": {"rank": 1, "torsion": []},
            "K1": {"rank": 1, "torsion": []},
            "action1": {"K0": [[3]], "K1": [[1]]},
            "action2": {"K0": [[3]], "K1": [[1]]},
        }
        paths = [
            str(fixdir / f"{fid}.json") for fid in fixture_ids()
            if fixture_document(fid)["kind"] in ("graph", "two_graph", "permutation",
                                                 "abstract_kdata")
        ]
        paths.append(write_doc(tmp_path, ambiguous))
        flags = ["--route", route] + (["--assume-split"] if split else [])
        for path in paths:
            rc, rep = run(capsys, ["ktheory", path, *flags], expect=0)
            assert rep["assumptions"] == (["split-extension"] if split else []), path
            assert rep["assumptions"] == sorted(assumption_values(rep["results"])), path
        if not split:
            assert rep["results"]["final"]["K0"]["status"] == "AmbiguousExtension"

    def test_refuted_split_assumption_exit_1(self, tmp_path, capsys):
        # without --assume-split both bimodule orders give K0 = K1 = Z^2; a
        # split guess that is wrong in one order makes their answers disjoint
        doc = two_graph_document(two_graph_from_matrices([[1, 0], [1, 1]], [[1, 0], [2, 1]]))
        path = write_doc(tmp_path, doc)
        rc, rep = run(capsys, ["ktheory", path], expect=0)
        assert final_groups(rep) == ("Z^2", "Z^2")
        rc, rep = run(capsys, ["ktheory", path, "--assume-split"], expect=1)
        assert rep["status"] == "invalid"
        assert "split assumption does not hold" in rep["error"]

    def test_extension_bound_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CPK_EXT_BOUND", "1")
        path = write_doc(tmp_path, two_graph_document(disjoint_flip_pair()))
        rc, rep = run(capsys, ["ktheory", path, "--route", "iterated"], expect=4)
        assert rep["status"] == "resource-limit"

    def test_a_raised_extension_bound_reaches_the_enumeration(self, tmp_path, capsys,
                                                               monkeypatch):
        # Z/100 by Z/100 needs a torsion order product of 10000; the command
        # reads the bound once and the enumeration runs under it
        doc = {
            "kind": "abstract_kdata",
            "K0": {"rank": 0, "torsion": [100]},
            "K1": {"rank": 0, "torsion": [100]},
            "action1": {"K0": [[1]], "K1": [[1]]},
            "action2": {"K0": [[1]], "K1": [[1]]},
        }
        path = write_doc(tmp_path, doc)
        monkeypatch.delenv("CPK_EXT_BOUND", raising=False)
        rc, rep = run(capsys, ["ktheory", path], expect=4)
        assert rep["status"] == "resource-limit"
        assert "torsion order product 10000 > bound 4096" in rep["error"]
        monkeypatch.setenv("CPK_EXT_BOUND", "20000")
        rc, rep = run(capsys, ["ktheory", path], expect=0)
        assert len(rep["results"]["stage1"]["layer1"]["K0"]["candidates"]) == 9

    def test_assume_split_with_huge_prime_torsion_finishes(self, tmp_path):
        # 1 - 2**61 has the prime 2**61 - 1 as its only factor
        doc = fixture_document("ex4.7-abstract-p2")
        doc["action1"]["K0"] = [[2**61]]
        path = write_doc(tmp_path, doc)
        start = time.perf_counter()
        done = run_subprocess(["-m", "cpk.cli", "ktheory", path, "--assume-split"])
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        rep = json.loads(done.stdout)
        assert rep["status"] == "ok"
        assert rep["assumptions"] == ["split-extension"]
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

    def test_rose_with_large_torsion_needs_no_enumeration(self, tmp_path, capsys):
        # K0 = coker(1 - 5000) = Z/4999 is an extension by 0, so Ext vanishes
        # and the torsion bound (4096) never comes into play
        doc = {
            "kind": "graph",
            "vertices": ["v"],
            "edges": [{"id": f"e{i}", "src": "v", "rng": "v"} for i in range(5000)],
        }
        rc, rep = run(capsys, ["ktheory", write_doc(tmp_path, doc)], expect=0)
        assert final_groups(rep) == ("Z/4999", "0")

    def test_huge_coupling_count_refused_in_bounded_memory(self, tmp_path):
        # stage one is Z/(2**61 - 1) by Z with vanishing Ext: the couplings
        # Z -> Z/(2**61 - 1) are counted and refused, never listed
        doc = fixture_document("ex4.7-abstract-p2")
        doc["action1"]["K0"] = [[2**61]]
        doc["action2"] = {"K0": [[1]], "K1": [[1]]}
        path = write_doc(tmp_path, doc)
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cpk import cli\n"
            "sys.exit(cli.main(['ktheory', sys.argv[1]]))\n"
        )
        start = time.perf_counter()
        done = run_subprocess(["-c", code, path], timeout=30)
        elapsed = time.perf_counter() - start
        assert done.returncode == 4, done.stderr
        rep = json.loads(done.stdout)
        assert rep["status"] == "resource-limit"
        assert "coupling" in rep["error"]
        assert elapsed < 5.0, f"took {elapsed:.1f}s"

    def test_failed_certificate_exit_5_under_python_O(self, fixdir):
        # the unimodularity check is an explicit raise, so it survives -O
        code = (
            "import sys\n"
            "if __debug__:\n"
            "    sys.exit(99)\n"
            "from cpk import abelian, cli\n"
            "abelian.IntMatrix.is_inverse_of = lambda self, other: False\n"
            "sys.exit(cli.main(['ktheory', sys.argv[1]]))\n"
        )
        done = run_subprocess(["-c", code, str(fixdir / "ex4.6-flip-3-3.json")], "-O")
        assert done.returncode == 5, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout)
        assert rep["status"] == "internal-error"
        assert "unimodular" in rep["error"]

    def test_word_product_bound_holds_under_python_O(self):
        # (a @ b)[0, 0] = 1 - 2^64 wraps to 1 in int64; @ offers both products
        # to _word_product, whose no-overflow bound is an if, not an assert,
        # so the product still leaves int64 under -O
        code = (
            "import sys\n"
            "if __debug__:\n"
            "    sys.exit(99)\n"
            "from cpk import abelian\n"
            "from cpk.abelian import IntMatrix\n"
            "n, c = 32, -6148914691236517205\n"
            "a = IntMatrix([[(3 if i == 0 else 1) * (j <= i) for j in range(n)] for i in range(n)])\n"
            "b = IntMatrix([[(c if j == 0 else 1) * ((i == j) - (i == j + 1)) for j in range(n)]\n"
            "               for i in range(n)])\n"
            "word, seen = abelian._word_product, []\n"
            "abelian._word_product = lambda a, b: seen.append(word(a, b)) or seen[-1]\n"
            "sys.exit(a.is_inverse_of(b) or (a @ b)[0, 0] != 1 - 2**64 or seen != [None, None])\n"
        )
        done = run_subprocess(["-c", code], "-O")
        assert done.returncode == 0, done.stderr

    def test_failed_kernel_lift_exit_5_under_python_O(self, fixdir):
        # a kernel lift outside ker [F | R_cod] trips an explicit raise,
        # so it survives -O
        code = (
            "import sys\n"
            "if __debug__:\n"
            "    sys.exit(99)\n"
            "from cpk import abelian, cli\n"
            "abelian._kernel_lift = lambda matrix, dom, cod: abelian.IntMatrix.identity(\n"
            "    len(dom) + len([d for d in cod if d]))\n"
            "sys.exit(cli.main(['ktheory', sys.argv[1]]))\n"
        )
        done = run_subprocess(["-c", code, str(fixdir / "ex4.7-abstract-p2.json")], "-O")
        assert done.returncode == 5, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout)
        assert rep["status"] == "internal-error"
        assert "kernel lift" in rep["error"]

    def test_failed_kernel_basis_exit_5_under_python_O(self, fixdir):
        # kernel columns of V moved off ker M, with Vinv intact, fail only the
        # explicit M @ K = 0 check that presented_cut and kernel_basis share,
        # so it survives -O (on the iterated route presented_cut runs it)
        code = (
            "import dataclasses, sys\n"
            "if __debug__:\n"
            "    sys.exit(99)\n"
            "from cpk import abelian, cli\n"
            "factor = abelian.factor\n"
            "def perturbed(m):\n"
            "    res = factor(m)\n"
            "    r = res.rank\n"
            "    if r in (0, m.cols):\n"
            "        return res\n"
            "    cols = res.V.columns()\n"
            "    cols[r:] = [tuple(map(sum, zip(c, cols[0]))) for c in cols[r:]]\n"
            "    return dataclasses.replace(res, V=abelian.IntMatrix.from_columns(cols))\n"
            "abelian.factor = perturbed\n"
            "sys.exit(cli.main(['ktheory', sys.argv[1], '--route', 'iterated']))\n"
        )
        done = run_subprocess(["-c", code, str(fixdir / "ex3.4-commuting-swaps.json")], "-O")
        assert done.returncode == 5, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout)
        assert rep["status"] == "internal-error"
        assert "kernel basis" in rep["error"]

    def test_iterated_route_still_reports_ideal_sum(self, fixdir, capsys):
        rc, rep = run(
            capsys,
            ["ktheory", str(fixdir / "ex4.5-torus.json"), "--route", "iterated"],
            expect=0,
        )
        assert "diagram" not in rep["results"]
        assert rep["results"]["ideal_sum"]["K0"]["group"] == "Z^2"
        assert rep["results"]["ideal_sum"]["K1"]["group"] == "Z"

    def test_removed_diagram_route_is_a_usage_error(self, fixdir):
        # a script that still passes the removed value gets a usage error,
        # not a crash
        path = str(fixdir / "ex4.5-torus.json")
        done = run_subprocess(["-m", "cpk.cli", "ktheory", path, "--route", "diagram"])
        assert done.returncode == 2
        assert "invalid choice: 'diagram'" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_route_inconsistency_exits_3(self, fixdir, capsys, monkeypatch):
        real = cli.diagram_report

        def tampered(layers, two_stage, coefficient):
            diag = real(layers, two_stage, coefficient)
            return types.SimpleNamespace(
                **{**diag.__dict__, "problems": ("injected mismatch",)}
            )

        monkeypatch.setattr(cli, "diagram_report", tampered)
        rc, rep = run(
            capsys, ["ktheory", str(fixdir / "ex4.5-torus.json")], expect=3
        )
        assert rep["status"] == "route-inconsistency"
        assert "injected mismatch" in rep["results"]["diagram"]["problems"]


class TestFockCheck:
    def test_flip_fixture_passes(self, fixdir, capsys):
        rc, rep = run(
            capsys,
            ["fock-check", str(fixdir / "ex3.5-flip-2-2.json"), "--degree", "3"],
            expect=0,
        )
        assert rep["results"]["all_passed"]
        assert rep["results"]["dimension"] == 49

    def test_unitary_fixture_passes(self, fixdir, capsys):
        rc, rep = run(
            capsys, ["fock-check", str(fixdir / "ex3.5-unitary-chi.json")], expect=0
        )
        assert all(c["passed"] for c in rep["results"]["checks"])

    @pytest.mark.parametrize("options, tolerance", [
        ([], DEFAULT_TOL), (["--tol", "0"], 0.0), (["--tol", "0.25"], 0.25),
    ])
    def test_tolerance_reaches_the_report_and_every_check(self, fixdir, capsys,
                                                          options, tolerance):
        argv = ["fock-check", str(fixdir / "ex3.5-unitary-chi.json"), *options]
        rc = cli.main(argv)
        rep = json.loads(capsys.readouterr().out)
        checks = rep["results"]["checks"]
        assert rep["results"]["tolerance"] == tolerance
        assert [c["tolerance"] for c in checks] == [tolerance] * len(checks)
        assert [c["passed"] for c in checks] == [c["defect"] <= tolerance for c in checks]
        assert rc == (0 if all(c["passed"] for c in checks) else 1)

    def test_rounding_noise_below_absurd_tolerance_exit_1(self, tmp_path, capsys):
        import math

        from cpk.model import rotation_unitary_chi

        doc = unitary_document(rotation_unitary_chi(math.pi / 6, math.pi / 6))
        rc, rep = run(
            capsys,
            ["fock-check", write_doc(tmp_path, doc), "--tol", "1e-18"],
            expect=1,
        )
        assert rep["status"] == "defect"
        assert not rep["results"]["all_passed"]

    def test_corrupted_document_exit_1(self, tmp_path, capsys):
        doc = fixture_document("ex3.5-unitary-chi")
        doc["matrix"][2][2] = [0.5, 0.0]
        rc, rep = run(
            capsys, ["fock-check", write_doc(tmp_path, doc)], expect=1
        )
        assert rep["status"] == "invalid"

    def test_basis_cap_exit_4(self, tmp_path, capsys):
        doc = {
            "kind": "graph",
            "vertices": ["v"],
            "edges": [{"id": f"e{i}", "src": "v", "rng": "v"} for i in range(10)],
        }
        rc, rep = run(
            capsys,
            ["fock-check", write_doc(tmp_path, doc), "--degree", "6"],
            expect=4,
        )
        assert rep["status"] == "resource-limit"

    def test_huge_degree_refused_quickly(self, fixdir, capsys):
        path = str(fixdir / "ex4.6-flip-3-3.json")
        start = time.perf_counter()
        rc, rep = run(capsys, ["fock-check", path, "--degree", "3000"], expect=4)
        assert time.perf_counter() - start < 1.0
        assert "at least" in rep["error"]

    @pytest.mark.parametrize("doc", [
        {"kind": "graph", "vertices": [], "edges": []},
        {"kind": "permutation", "vertices": [], "perm1": {}, "perm2": {}},
    ], ids=["graph", "permutation"])
    def test_no_vertices_stop_at_the_empty_first_level(self, tmp_path, doc):
        # the basis ends at level 0, so the degree costs neither time nor
        # memory; in a subprocess so that a build linear in it fails here
        path = write_doc(tmp_path, doc)
        done = run_subprocess(["-m", "cpk.cli", "fock-check", path, "--degree", str(10**12)],
                              timeout=10)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert json.loads(done.stdout)["error"] == "layer 1 has no edges"

    @pytest.mark.parametrize("degree", [1100, 3000])
    def test_deep_basis_gives_a_report(self, fixdir, degree):
        # the circle's basis has one word per length, so it stays far below
        # the cap while its words grow thousands of letters long
        path = str(fixdir / "ex1.2.1-circle.json")
        start = time.perf_counter()
        done = run_subprocess(["-m", "cpk.cli", "fock-check", path,
                               "--degree", str(degree)])
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout, parse_constant=lambda name: pytest.fail(name))
        assert rep["results"]["dimension"] == degree + 1
        assert rep["results"]["all_passed"]
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    def test_long_mixed_words_give_a_report(self, fixdir):
        # the torus has 45451 words at degree 300, e^a f^b with a + b <= 300;
        # every word is crossed once, from its suffix, not letter by letter
        path = str(fixdir / "ex4.5-torus.json")
        start = time.perf_counter()
        done = run_subprocess(["-m", "cpk.cli", "fock-check", path, "--degree", "300"])
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout, parse_constant=lambda name: pytest.fail(name))
        assert rep["results"]["dimension"] == 301 * 302 // 2
        assert rep["results"]["all_passed"]
        assert elapsed < 20.0, f"took {elapsed:.1f}s"

    @pytest.mark.parametrize("fixture, degree, dimension", [
        ("ex1.2.1-circle", 150000, 150001),
        ("ex4.5-torus", 629, 630 * 631 // 2),
    ])
    def test_deep_basis_in_bounded_memory(self, fixdir, fixture, degree, dimension):
        # each word is stored as (first letter, suffix index), so memory
        # follows the basis size, not the total number of letters
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from cpk import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        path = str(fixdir / f"{fixture}.json")
        start = time.perf_counter()
        done = run_subprocess(["-c", code, "fock-check", path, "--degree", str(degree)])
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        rep = json.loads(done.stdout, parse_constant=lambda name: pytest.fail(name))
        assert rep["results"]["dimension"] == dimension
        assert rep["results"]["all_passed"]
        assert elapsed < 15.0, f"took {elapsed:.1f}s"


class TestPullback:
    def test_double_cover_roundtrip(self, fixdir, tmp_path, capsys):
        out = str(tmp_path / "pulled.json")
        rc, rep = run(
            capsys,
            [
                "pullback",
                str(fixdir / "ex2.2-two-cycle.json"),
                str(fixdir / "ex2.2-double-cover.json"),
                out,
            ],
            expect=0,
        )
        assert rep["results"] == {"written": out, "vertices": 4, "edges": 8}
        run(capsys, ["validate", out, "--strict"], expect=0)

    def test_non_surjective_cover_exit_1(self, fixdir, tmp_path, capsys):
        bad = write_doc(
            tmp_path, {"kind": "cover", "vertices": ["x"], "map": {"x": "a"}}
        )
        rc, rep = run(
            capsys,
            [
                "pullback",
                str(fixdir / "ex2.2-two-cycle.json"),
                bad,
                str(tmp_path / "out.json"),
            ],
            expect=1,
        )
        assert "surjective" in rep["error"]

    def test_wrong_document_kinds_exit_2(self, fixdir, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        run(
            capsys,
            [
                "pullback",
                str(fixdir / "ex3.5-flip-2-2.json"),
                str(fixdir / "ex2.2-double-cover.json"),
                out,
            ],
            expect=2,
        )

    @staticmethod
    def rose_cover(tmp_path, size):
        names = [f"x{i}" for i in range(size)]
        return write_doc(
            tmp_path,
            {"kind": "cover", "vertices": names, "map": {x: "v" for x in names}},
            name=f"cover-{size}.json",
        )

    def test_cover_within_cap_written(self, fixdir, tmp_path, capsys):
        out = tmp_path / "pulled.json"
        rc, rep = run(
            capsys,
            ["pullback", str(fixdir / "ex1.2.2-cuntz-2.json"),
             self.rose_cover(tmp_path, 100), str(out)],
            expect=0,
        )
        assert rep["results"]["edges"] == 2 * 100 * 100
        assert len(json.loads(out.read_text())["edges"]) == 2 * 100 * 100

    def test_oversized_cover_refused_before_writing(self, fixdir, tmp_path, capsys):
        # 2 * 400**2 = 320000 edges would pass the 200000-edge cap
        out = tmp_path / "pulled.json"
        start = time.perf_counter()
        rc, rep = run(
            capsys,
            ["pullback", str(fixdir / "ex1.2.2-cuntz-2.json"),
             self.rose_cover(tmp_path, 400), str(out)],
            expect=4,
        )
        assert time.perf_counter() - start < 1.0
        assert rep["status"] == "resource-limit"
        assert "320000" in rep["error"]
        assert not out.exists()


class TestExamples:
    def test_required_ids_present(self, capsys):
        rc, rep = run(capsys, ["examples"], expect=0)
        ids = [f["id"] for f in rep["results"]["fixtures"]]
        assert "ex4.6-flip-3-3" in ids
        assert "ex3.5-unitary-chi" in ids
        assert ids == fixture_ids()
        assert all(f["description"] for f in rep["results"]["fixtures"])

    def test_listing_is_stable_across_runs(self, capsys):
        cli.main(["examples"])
        first = capsys.readouterr().out
        cli.main(["examples"])
        second = capsys.readouterr().out
        assert first == second

    def test_write_materializes_all_fixtures(self, tmp_path, capsys):
        rc, rep = run(capsys, ["examples", "--write", str(tmp_path)], expect=0)
        assert len(rep["results"]["written"]) == len(fixture_ids())
        for path in rep["results"]["written"]:
            assert json.loads(open(path).read())["kind"]


def input_block(path, kind):
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"path": str(path), "sha256": digest, "kind": kind}


class TestErrorReports:
    """An error report keeps the command's options, and the input block of
    every document that was read; its results stay empty."""

    def test_exit_1_keeps_options_and_input(self, tmp_path, capsys):
        doc = {
            "kind": "graph",
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "src": "a", "rng": "b"}],
        }
        path = write_doc(tmp_path, doc)
        rc, rep = run(capsys, ["ktheory", path, "--route", "iterated"], expect=1)
        assert rep["status"] == "invalid"
        assert rep["options"] == {"route": "iterated", "assume_split": False}
        assert rep["input"] == input_block(path, "graph")
        assert rep["results"] == {} and rep["assumptions"] == []

    def test_exit_2_keeps_options_and_input(self, fixdir, capsys):
        path = str(fixdir / "ex3.5-unitary-chi.json")
        rc, rep = run(capsys, ["ktheory", path], expect=2)
        assert "does not accept" in rep["error"]
        assert rep["options"] == {"route": "both", "assume_split": False}
        assert rep["input"] == input_block(path, "unitary_chi")

    def test_exit_2_before_reading_has_options_only(self, fixdir, capsys, monkeypatch):
        monkeypatch.setenv("CPK_EXT_BOUND", "0")
        argv = ["ktheory", str(fixdir / "ex4.5-torus.json"), "--route", "iterated"]
        rc, rep = run(capsys, argv, expect=2)
        assert rep["options"] == {"route": "iterated", "assume_split": False}
        assert "input" not in rep

    def test_undecodable_document_keeps_its_digest(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, rep = run(capsys, ["fock-check", str(path), "--degree", "2"], expect=2)
        assert rep["options"] == {"degree": 2, "tol": None}
        assert rep["input"] == input_block(path, None)

    @pytest.mark.parametrize("command", ["validate", "ktheory", "fock-check",
                                         "pullback-graph", "pullback-cover"])
    def test_too_deeply_nested_document_is_malformed(self, fixdir, tmp_path, capsys,
                                                     command):
        # json's decoder runs out of recursion depth on this file
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        graph = str(fixdir / "ex2.2-two-cycle.json")
        argv = {
            "pullback-graph": ["pullback", str(deep), graph, str(tmp_path / "out.json")],
            "pullback-cover": ["pullback", graph, str(deep), str(tmp_path / "out.json")],
        }.get(command, [command, str(deep)])
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert rc == 2, rep
        assert rep["status"] == "malformed"
        assert "nests too deeply" in rep["error"]
        assert "Traceback" not in err
        inputs = rep["input"].values() if argv[0] == "pullback" else [rep["input"]]
        assert input_block(deep, None) in inputs

    def test_refused_tolerance_is_shown_as_text(self, fixdir, capsys):
        argv = ["fock-check", str(fixdir / "ex4.6-flip-3-3.json"), "--tol", "inf"]
        rc = cli.main(argv)
        rep = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert rc == 2
        assert rep["options"] == {"degree": 3, "tol": "inf"}

    def test_pullback_keeps_the_documents_it_read(self, fixdir, tmp_path, capsys):
        graph = str(fixdir / "ex2.2-two-cycle.json")
        out = str(tmp_path / "out.json")
        argv = ["pullback", graph, graph, out]
        rc, rep = run(capsys, argv, expect=2)
        assert rep["options"] == {"out": out}
        assert rep["input"] == {
            "graph": input_block(graph, "graph"),
            "cover": input_block(graph, "graph"),
        }

    def test_exit_4_keeps_options_and_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CPK_EXT_BOUND", "1")
        path = write_doc(tmp_path, two_graph_document(disjoint_flip_pair()))
        rc, rep = run(capsys, ["ktheory", path, "--route", "iterated"], expect=4)
        assert rep["status"] == "resource-limit"
        assert rep["options"] == {"route": "iterated", "assume_split": False}
        assert rep["input"] == input_block(path, "two_graph")
        assert rep["results"] == {}


class TestReports:
    def test_report_json_round_trips_losslessly(self, fixdir, capsys):
        rc = cli.main(["ktheory", str(fixdir / "ex4.6-flip-3-3.json")])
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert json.loads(json.dumps(rep, sort_keys=True)) == rep
        assert rep["tool"] == "cpk"
        assert rep["command"] == "ktheory"
        assert rep["version"]

    def test_identical_input_gives_identical_report(self, fixdir, capsys):
        argv = ["ktheory", str(fixdir / "ex3.4-z2xz3.json"), "--route", "both"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_text_format_mirrors_json(self, fixdir, capsys):
        path = str(fixdir / "ex1.2.1-circle.json")
        rc = cli.main(["validate", path])
        rep = json.loads(capsys.readouterr().out)
        rc = cli.main(["validate", path, "--format", "text"])
        text = capsys.readouterr().out
        lines = [l for l in text.splitlines() if l]
        leaves = []
        cli._flatten("", rep, leaves)
        assert lines == leaves
        assert 'status: "ok"' in lines

    def test_document_serializers_round_trip(self, fixdir):
        for fid in fixture_ids():
            doc = fixture_document(fid)
            kind, model = cli.parse_document(doc)
            if kind == "graph":
                assert graph_document(model) == doc
            elif kind == "two_graph":
                assert two_graph_document(model) == doc
            elif kind == "abstract_kdata":
                assert abstract_document(model) == doc
            elif kind == "unitary_chi":
                assert unitary_document(model) == doc
            # permutation and cover documents materialize as other types

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()  # NaN and +-inf included
    | st.sampled_from([-0.0, 1e-300, float("nan"), float("inf"), float("-inf")])
    | st.text()  # non-ASCII, surrogates and control characters included
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestReportWriter:
    """indented_json, the one writer of indented JSON in the package, gives
    the bytes of json.dumps(value, indent=2, sort_keys=True)."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(JSON_VALUES)
    def test_same_bytes_as_json(self, value):
        assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_edge_values(self):
        value = {"": [[], {}, (), -0.0, 1e-300, 2**100, -(2**70), True, False, None],
                 "\u00e9\x00\n\ud800": float("nan"), "z": [float("inf"), -float("inf")]}
        assert indented_json(value) == json.dumps(value, indent=2, sort_keys=True)
        assert indented_json([]) == "[]" and indented_json({}) == "{}"

    @pytest.mark.parametrize("key", [1, 2.5, None, True, ("a",)])
    def test_a_key_that_is_not_a_string_raises(self, key):
        with pytest.raises(TypeError):
            indented_json({key: 1})
        with pytest.raises(TypeError):
            indented_json([{"a": {key: 1}}])

    def test_a_value_of_no_json_type_raises(self):
        with pytest.raises(TypeError):
            indented_json({"a": {1, 2}})

    def test_written_fixtures_are_indented_as_json_writes_them(self, fixdir):
        for fid in fixture_ids():
            text = (fixdir / f"{fid}.json").read_text()
            assert text == json.dumps(fixture_document(fid), indent=2, sort_keys=True) + "\n"


class TestCommandLifetime:
    """cli.main runs a command with automatic garbage collection off and an
    empty answer table, and leaves both as a later caller needs them."""

    def test_collection_is_off_during_the_command_and_restored_after(
        self, tmp_path, monkeypatch, capsys
    ):
        path = write_doc(tmp_path, times_document(3, 5))
        seen = []

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return iterated_ktheory(*args, **kwargs)

        iterated_ktheory = cli.iterated_ktheory
        monkeypatch.setattr(cli, "iterated_ktheory", recording)
        try:
            for enabled in (True, False):
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                run(capsys, ["ktheory", path], expect=0)
                assert gc.isenabled() is enabled
                with pytest.raises(SystemExit):
                    cli.main(["ktheory"])  # a usage error leaves through argparse
                capsys.readouterr()
                assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False, False]

    def test_the_factor_cache_is_emptied_on_return(self, tmp_path, monkeypatch, capsys):
        # the command's answer table holds its factorizations, cuts, Pimsner
        # pairs and extension candidates, and none of them outlives it
        path = write_doc(tmp_path, times_document(7, 4))
        held = []

        def recording(*args, **kwargs):
            out = iterated_ktheory(*args, **kwargs)
            held.extend(abelian._answers)
            return out

        iterated_ktheory = cli.iterated_ktheory
        monkeypatch.setattr(cli, "iterated_ktheory", recording)
        run(capsys, ["ktheory", path], expect=0)
        kinds = {key[0].__name__ if isinstance(key, tuple) else "factor" for key in held}
        assert kinds == {"factor", "group_cut", "presented_cut", "solve_six_term",
                         "extension_candidates"}
        assert not abelian._answers

    def test_cyclic_garbage_does_not_grow_with_the_work(self, tmp_path, capsys):
        # what keeps leaving collection off safe: once warm, a command
        # leaves no cyclic garbage, however much it computes
        small = write_doc(tmp_path, times_document(2, 2), "small.json")
        large = write_doc(tmp_path, times_document(25, 25), "large.json")
        left = []
        gc.disable()
        try:
            for path in (small, small, large):  # the first run only warms up
                gc.collect()
                run(capsys, ["ktheory", path], expect=0)
                left.append(gc.collect())
        finally:
            gc.enable()
        assert left[1] == left[2] == 0, left


class TestNoTraceback:
    """A closed standard output and an unexpected exception both end
    without a traceback."""

    def test_closed_stdout_exits_quietly(self, fixdir):
        # the reader is gone before the report is written, as in
        # `cpk ktheory ex4.5-torus.json | head -c 1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cpk.cli", "ktheory", str(fixdir / "ex4.5-torus.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
                check=False,
            )
        finally:
            os.close(write_end)
        assert done.returncode == cli.EXIT_CLOSED_STDOUT == 141
        assert done.stderr == b""

    def test_unexpected_exception_is_an_internal_error(self, fixdir, capsys, monkeypatch):
        def broken(*args):
            raise KeyError("boom")

        monkeypatch.setattr(cli, "iterated_ktheory", broken)
        path = str(fixdir / "ex4.7-abstract-p2.json")
        rc, rep = run(capsys, ["ktheory", path], expect=5)
        assert rep["status"] == "internal-error"
        assert rep["error"] == "KeyError: 'boom'"
        assert rep["input"] == input_block(path, "abstract_kdata")
