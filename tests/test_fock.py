"""Fock representation tests: basis bookkeeping, relation defects on honest
builds, and corrupted negative controls."""

import numpy as np
import pytest
import scipy.sparse as sp

from cpk.abelian import PreconditionError
from cpk.exactseq import ResourceLimitError
from cpk.fock import (
    DEFAULT_TOL,
    DefectReport,
    build_fock,
    check_chi_commutation,
    check_covariance_defect,
    check_left_action_adjoint,
    check_reordering,
    check_toeplitz,
    fock_suite,
)
from cpk.model import (
    FiniteGraph,
    rotation_unitary_chi,
    single_vertex_two_graph,
    two_graph_from_permutations,
)
from support import chi_same_index


def rose(n: int) -> FiniteGraph:
    return FiniteGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(n)))


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


class TestBasis:
    def test_flip_2_2_count(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 2)
        assert rep.dimension == 17

    def test_torus_count(self):
        rep = build_fock(single_vertex_two_graph(1, 1), 3)
        assert rep.dimension == 10

    def test_vacuum_only(self):
        swap = two_graph_from_permutations(
            ("0", "1"), {"0": "1", "1": "0"}, {"0": "0", "1": "1"}
        )
        rep = build_fock(swap, 0)
        assert rep.dimension == 2
        assert all(w.letters == () for w in rep.words)

    def test_closed_form_count(self):
        # single vertex: sum of m^a n^b over a+b <= N
        for m, n, N in [(3, 2, 3), (2, 4, 2), (1, 5, 3)]:
            rep = build_fock(single_vertex_two_graph(m, n), N)
            want = sum(
                m ** a * n ** b
                for a in range(N + 1)
                for b in range(N + 1 - a)
            )
            assert rep.dimension == want

    def test_words_sorted_by_degree(self):
        rep = build_fock(single_vertex_two_graph(2, 3), 3)
        degs = [len(w.letters) for w in rep.words]
        assert degs == sorted(degs)
        # within a total degree, layer-2 count never decreases
        for k in range(3):
            block = [rep.bidegree(w)[1] for w in rep.words if len(w.letters) == k]
            assert block == sorted(block)

    def test_normal_form_only(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        for w in rep.words:
            layers = [rep.layer_of[x] for x in w.letters]
            assert layers == sorted(layers)

    def test_creator_degree_shift(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        for eid, mat in rep.creators.items():
            layer = rep.layer_of[eid]
            coo = mat.tocoo()
            for i, j in zip(coo.row, coo.col):
                a, b = rep.bidegree(rep.words[j])
                want = (a + 1, b) if layer == 1 else (a, b + 1)
                assert rep.bidegree(rep.words[i]) == want

    def test_permutation_entries_are_binary(self):
        rep = build_fock(single_vertex_two_graph(3, 2), 3)
        for mat in rep.creators.values():
            vals = mat.tocoo().data
            assert np.all((vals == 0) | (vals == 1))

    def test_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            build_fock(rose(10), 6)
        assert "1111111" in str(err.value)

    def test_negative_degree(self):
        with pytest.raises(PreconditionError):
            build_fock(rose(2), -1)

    def test_invalid_chi_rejected(self):
        spec = single_vertex_two_graph(2, 2)
        broken = type(spec)(spec.vertices, spec.edges1, spec.edges2, spec.chi[:-1])
        with pytest.raises(PreconditionError):
            build_fock(broken, 2)

    def test_non_unitary_rejected(self):
        u = rotation_unitary_chi(0.3, 0.7)
        bad = type(u)(u.m, u.n, u.matrix * 1.5)
        with pytest.raises(PreconditionError):
            build_fock(bad, 2)


class TestRelations:
    def test_rose_exact(self):
        rep = build_fock(rose(2), 4)
        assert all(r.defect == 0.0 for r in check_toeplitz(rep))
        assert check_covariance_defect(rep, 1).defect == 0.0
        assert check_left_action_adjoint(rep).defect == 0.0

    def test_flip_exact(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        assert all(r.defect == 0.0 for r in fock_suite(rep))

    def test_two_vertex_permutation_layers(self):
        spec = two_graph_from_permutations(
            ("0", "1"), {"0": "1", "1": "0"}, {"0": "0", "1": "1"}
        )
        rep = build_fock(spec, 3)
        assert all(r.defect == 0.0 for r in fock_suite(rep))
        # relative vacuum of layer 1 = words with no layer-1 letter: one
        # identity loop per vertex gives two pure layer-2 words per length
        vac = [w for w in rep.words if rep.bidegree(w)[0] == 0]
        assert len(vac) == 8
        assert {w.vertex for w in rep.words if not w.letters} == {"0", "1"}

    def test_unitary_chi_grid(self):
        for alpha in (0.0, np.pi / 6, np.pi / 4):
            for beta in (0.0, np.pi / 6, np.pi / 4):
                rep = build_fock(rotation_unitary_chi(alpha, beta), 3)
                reports = fock_suite(rep)
                assert all(r.defect <= 1e-12 for r in reports), (alpha, beta)

    def test_zero_angles_match_same_index_pairing(self):
        ru = build_fock(rotation_unitary_chi(0.0, 0.0), 3)
        rp = build_fock(
            single_vertex_two_graph(2, 2, chi=chi_same_index(2, 2)), 3
        )
        assert [w.letters for w in ru.words] == [w.letters for w in rp.words]
        for eid in ru.creators:
            diff = (ru.creators[eid] - rp.creators[eid]).tocoo()
            assert diff.nnz == 0 or np.allclose(diff.data, 0)

    def test_chi_commutation_requires_two_layers(self):
        rep = build_fock(rose(2), 2)
        with pytest.raises(PreconditionError):
            check_chi_commutation(rep)
        with pytest.raises(PreconditionError):
            check_reordering(rep)

    def test_report_fields(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 2)
        r = check_covariance_defect(rep, 2, tol=1e-6)
        assert isinstance(r, DefectReport)
        assert r.tolerance == 1e-6
        assert r.defect >= 0.0
        d = r.describe()
        assert set(d) == {"relation", "defect", "tolerance", "passed"}

    def test_default_tolerance(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 2)
        assert check_covariance_defect(rep).tolerance == DEFAULT_TOL


class TestNegativeControls:
    def test_corrupted_creator_breaks_toeplitz(self):
        rep = build_fock(rose(3), 3)
        rep.creators["e0"] = rep.creators["e0"] * 2.0
        reports = check_toeplitz(rep)
        assert any(r.defect >= 1.0 for r in reports)
        assert not all_pass(reports)

    def test_corrupted_creator_breaks_covariance(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        rep.creators["f0"] = rep.creators["f0"] * 1.5
        assert check_covariance_defect(rep, 2).defect > DEFAULT_TOL

    def test_corrupted_creator_breaks_adjoint(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        rep.creators["f1"] = rep.creators["f1"] * 1.2
        assert check_left_action_adjoint(rep).defect > DEFAULT_TOL

    def test_corrupted_creator_breaks_chi_commutation(self):
        # a chi that mixes generators notices a single rescaled creator
        rep = build_fock(rotation_unitary_chi(np.pi / 6, 0.0), 3)
        rep.creators["e1"] = rep.creators["e1"].multiply(0.5)
        assert check_chi_commutation(rep).defect > DEFAULT_TOL

    def test_zeroed_creator_breaks_reordering(self):
        rep = build_fock(rotation_unitary_chi(np.pi / 6, 0.0), 4)
        dim = rep.dimension
        rep.creators["f0"] = sp.csr_matrix((dim, dim), dtype=complex)
        assert check_reordering(rep).defect > DEFAULT_TOL
