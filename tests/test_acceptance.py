"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Every criterion states its own expected values (frozen oracles or closed
forms) and runs against the public surface: the CLI where the behavior is a
CLI contract, the library elsewhere. A criterion that cannot be met must
fail loudly here, never be weakened.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from cpk import cli
from cpk.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    cokernel,
    kernel_basis,
    smith_normal_form,
)
from cpk.exactseq import (
    AMBIGUOUS,
    DETERMINED,
    ExactSequence,
    solve_six_term,
)
from cpk.fixtures import fixture_document, fixture_ids, two_graph_document
from cpk.fock import build_fock, fock_suite
from cpk.ktheory import iterated_ktheory
from cpk.model import rotation_unitary_chi, single_vertex_two_graph

from support import kunneth_flip_oracle
from test_model import commuting_layer_spec


@contextmanager
def criterion(capsys, number: int, title: str):
    state = {"ok": False}
    try:
        yield state
    finally:
        verdict = "PASS" if state["ok"] else "FAIL"
        with capsys.disabled():
            print(f"acceptance {number} [{verdict}]: {title}")


def run_cli(capsys, argv, expect=0):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == expect, out
    return json.loads(out)


def write_doc(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def final_names(report):
    f = report["results"]["final"]
    return f["K0"].get("group"), f["K1"].get("group")


def test_criterion_1_flip_family_matches_kunneth_oracle(tmp_path, capsys):
    with criterion(capsys, 1, "flip pairs (m,n) in [2,6]^2 match the tensor/Tor "
                              "oracle via the CLI, under 1s each") as state:
        for m, n in itertools.product(range(2, 7), repeat=2):
            doc = two_graph_document(single_vertex_two_graph(m, n))
            path = write_doc(tmp_path, doc, f"flip-{m}-{n}.json")
            start = time.perf_counter()
            rep = run_cli(capsys, ["ktheory", path, "--route", "both"])
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"(m,n)=({m},{n}) took {elapsed:.2f}s"
            oracle = kunneth_flip_oracle(m, n)
            expected = (str(oracle.k0.group), str(oracle.k1.group))
            assert final_names(rep) == expected, f"(m,n)=({m},{n})"
            assert rep["results"]["diagram"]["consistent"], f"(m,n)=({m},{n})"
        state["ok"] = True


def test_criterion_2_single_stage_graph_algebras(tmp_path, capsys):
    with criterion(capsys, 2, "roses n=2..12 give (Z_{n-1}, 0); one loop "
                              "gives (Z, Z)") as state:
        for n in range(2, 13):
            doc = {
                "kind": "graph",
                "vertices": ["v"],
                "edges": [{"id": f"e{i}", "src": "v", "rng": "v"} for i in range(n)],
            }
            rep = run_cli(capsys, ["ktheory", write_doc(tmp_path, doc, f"rose{n}.json")])
            expected = "0" if n == 2 else f"Z/{n - 1}"
            assert final_names(rep) == (expected, "0"), f"rose n={n}"
        doc = {
            "kind": "graph",
            "vertices": ["v"],
            "edges": [{"id": "loop", "src": "v", "rng": "v"}],
        }
        rep = run_cli(capsys, ["ktheory", write_doc(tmp_path, doc, "circle.json")])
        assert final_names(rep) == ("Z", "Z")
        state["ok"] = True


def test_criterion_3_commuting_permutation_pairs(tmp_path, capsys):
    with criterion(capsys, 3, "commuting swaps and the 2x3 cycle pair give "
                              "(Z^2, Z^2) with every exactness verdict passing") as state:
        for fid in ("ex3.4-commuting-swaps", "ex3.4-z2xz3"):
            path = write_doc(tmp_path, fixture_document(fid), f"{fid}.json")
            rep = run_cli(capsys, ["ktheory", path, "--route", "both"])
            assert final_names(rep) == ("Z^2", "Z^2"), fid
            diagram = rep["results"]["diagram"]
            verdicts = diagram["exactness_sum"] + diagram["exactness_quotient"]
            assert len(verdicts) == 12 and all(v["exact"] for v in verdicts), fid
            assert diagram["consistent"], fid
        state["ok"] = True


def _times_p_document(p1: int, p2: int) -> dict:
    return {
        "kind": "abstract_kdata",
        "K0": {"rank": 1, "torsion": []},
        "K1": {"rank": 1, "torsion": []},
        "action1": {"K0": [[p1]], "K1": [[1]]},
        "action2": {"K0": [[p2]], "K1": [[1]]},
    }


def test_criterion_4_abstract_degree_p_classes(tmp_path, capsys):
    with criterion(capsys, 4, "abstract degree-p data gives stage-1 "
                              "(Z + Z_{p-1}, Z); a coprime pair finishes with "
                              "candidates, never a silent guess") as state:
        stage1_k0 = {2: "Z", 3: "Z + Z/2", 5: "Z + Z/4"}
        for p in (2, 3, 5):
            doc = _times_p_document(p, 1)
            rep = run_cli(capsys, ["ktheory", write_doc(tmp_path, doc, f"p{p}.json")])
            layer1 = rep["results"]["stage1"]["layer1"]
            assert layer1["K0"]["group"] == stage1_k0[p], f"p={p}"
            assert layer1["K1"]["group"] == "Z", f"p={p}"
        rep = run_cli(capsys, ["ktheory", write_doc(tmp_path, _times_p_document(3, 5), "p35.json")])
        for degree in ("K0", "K1"):
            out = rep["results"]["final"][degree]
            assert out["status"] in ("Determined", "AmbiguousExtension"), degree
            assert out["candidates"], degree
            assert (out["status"] == "Determined") == (len(out["candidates"]) == 1)
        state["ok"] = True


def test_criterion_5_bundled_fixtures_verify_both_sequences(tmp_path, capsys):
    with criterion(capsys, 5, "every bundled two-layer fixture passes both "
                              "six-term exactness verdicts (failures would "
                              "exit 3)") as state:
        checked = 0
        for fid in fixture_ids():
            doc = fixture_document(fid)
            if doc["kind"] not in ("two_graph", "permutation"):
                continue
            path = write_doc(tmp_path, doc, f"{fid}.json")
            rep = run_cli(capsys, ["ktheory", path, "--route", "both"], expect=0)
            diagram = rep["results"]["diagram"]
            verdicts = diagram["exactness_sum"] + diagram["exactness_quotient"]
            assert len(verdicts) == 12 and all(v["exact"] for v in verdicts), fid
            assert not diagram["problems"], fid
            checked += 1
        assert checked >= 5
        state["ok"] = True


def _candidate_keys(outcome):
    return {(g.free_rank, g.torsion) for g in outcome.candidates}


def test_criterion_6_order_symmetry_on_random_pairs(capsys):
    with criterion(capsys, 6, "100 random commuting-permutation pairs give "
                              "order-independent results") as state:
        rng = random.Random(20260815)
        for i in range(100):
            spec = commuting_layer_spec(rng, max_vertices=5, max_powers=3)
            a = iterated_ktheory(spec)
            b = iterated_ktheory(spec.swapped())
            for degree, x, y in (("K0", a.final.k0, b.final.k0),
                                 ("K1", a.final.k1, b.final.k1)):
                assert x.status == y.status, f"case {i} {degree}"
                assert _candidate_keys(x) == _candidate_keys(y), f"case {i} {degree}"
        state["ok"] = True


def test_criterion_7_fock_defects_within_tolerance(capsys):
    with criterion(capsys, 7, "Fock relation defects at degree 4 stay under "
                              "1e-10 for the flip pair and the rotation "
                              "unitaries, under 10s total") as state:
        start = time.perf_counter()
        reps = [build_fock(single_vertex_two_graph(2, 2), 4)]
        angles = (0.0, math.pi / 6, math.pi / 4)
        for alpha, beta in itertools.product(angles, repeat=2):
            reps.append(build_fock(rotation_unitary_chi(alpha, beta), 4))
        worst = 0.0
        for rep in reps:
            for check in fock_suite(rep):
                worst = max(worst, check.defect)
                assert check.passed and check.defect <= 1e-10, check.relation
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert worst <= 1e-10
        state["ok"] = True


def _minor_det(m: IntMatrix, rows, cols) -> int:
    a = [[m[r, c] for c in cols] for r in rows]
    k = len(rows)
    if k == 1:
        return a[0][0]
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _minor_gcd_oracle(m: IntMatrix):
    """Elementary divisors by the gcd-of-k-minors ladder (cofactor dets only,
    no row reduction); independent of the Smith normal form code."""
    ladder = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                g = math.gcd(g, _minor_det(m, rows, cols))
        ladder.append(g)
    rank = 0
    for k, g in enumerate(ladder, 1):
        if g != 0:
            rank = k
    factors, prev = [], 1
    for k in range(rank):
        factors.append(ladder[k] // prev)
        prev = ladder[k]
    return rank, tuple(f for f in factors if f > 1)


def _check_against_oracle(m: IntMatrix):
    rank, torsion = _minor_gcd_oracle(m)
    group = cokernel(m)
    assert group.free_rank == m.rows - rank, m.to_lists()
    assert group.torsion == torsion, m.to_lists()
    kernel = kernel_basis(m)
    assert kernel.cols == m.cols - rank, m.to_lists()
    if kernel.cols:
        product = m @ kernel
        assert all(
            product[i, j] == 0 for i in range(product.rows) for j in range(product.cols)
        ), m.to_lists()
        krank, ktorsion = _minor_gcd_oracle(kernel)
        # a saturated primitive basis: full column rank, no torsion in the quotient
        assert krank == kernel.cols and ktorsion == (), m.to_lists()


def test_criterion_8_integer_kernels_and_cokernels_vs_minor_oracle(capsys):
    with criterion(capsys, 8, "cokernel/kernel agree with the minor-gcd "
                              "oracle exhaustively (r*c<=6, entries in "
                              "[-3,3]) plus 20000 seeded 3x3; SNF "
                              "factorization invariants hold on 1000 random "
                              "6x6") as state:
        shapes = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3) if r * c <= 6]
        for r, c in shapes:
            for entries in itertools.product(range(-3, 4), repeat=r * c):
                m = IntMatrix([list(entries[i * c:(i + 1) * c]) for i in range(r)])
                _check_against_oracle(m)
        rng = random.Random(8)
        for _ in range(20000):
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            _check_against_oracle(m)
        rng = random.Random(6)
        import sympy

        for _ in range(1000):
            m = IntMatrix([[rng.randint(-20, 20) for _ in range(6)] for _ in range(6)])
            res = smith_normal_form(m)
            assert (res.U @ m @ res.V).to_lists() == res.S.to_lists()
            diag = res.diagonal
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
            for w in (res.U, res.V):
                assert abs(sympy.Matrix(w.to_lists()).det()) == 1
        state["ok"] = True


def test_criterion_9_extension_candidates_for_z2_by_z2(capsys):
    with criterion(capsys, 9, "the (Z/2 by Z/2) extension problem yields "
                              "exactly {Z/4, Z/2+Z/2}; assuming split picks "
                              "the direct sum and watermarks it") as state:
        z2 = FgAbGroup.from_divisors(0, [2])
        zero = GroupHom(z2, z2, IntMatrix([[0]]))
        seq = ExactSequence(
            nodes=(z2, z2, None, z2, z2, None),
            arrows=(zero, None, None, zero, None, None),
        )
        solved = solve_six_term(seq)
        for position in (2, 5):
            res = solved.resolution_at(position)
            assert res.status == AMBIGUOUS
            assert sorted(str(g) for g in res.candidates) == ["Z/2 + Z/2", "Z/4"]
        split = solve_six_term(seq, assume_split=True)
        for position in (2, 5):
            res = split.resolution_at(position)
            assert res.status == DETERMINED
            assert str(res.candidates[0]) == "Z/2 + Z/2"
            assert res.assumed_split
        state["ok"] = True
