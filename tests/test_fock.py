"""Fock representation tests: basis bookkeeping, relation defects on honest
builds, and corrupted negative controls."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cpk import fock
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
    _norm_bound,
)
from cpk.model import (
    FiniteGraph,
    UnitaryChi,
    rotation_unitary_chi,
    single_vertex_two_graph,
    two_graph_from_permutations,
)
from support import (
    basis_words,
    chi_same_index,
    reference_basis,
    reference_fock_suite,
    reference_operators,
)


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
        assert all(letters == () for letters, _ in basis_words(rep))

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
        degs = [len(letters) for letters, _ in basis_words(rep)]
        assert degs == sorted(degs)
        # within a total degree, layer-2 count never decreases
        for k in range(3):
            block = [b for b, deg in zip(rep.bidegrees[:, 1], degs) if deg == k]
            assert block == sorted(block)

    def test_normal_form_only(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        for letters, _ in basis_words(rep):
            layers = [rep.layer_of[x] for x in letters]
            assert layers == sorted(layers)

    def test_creator_degree_shift(self):
        rep = build_fock(single_vertex_two_graph(2, 2), 3)
        for eid, mat in rep.creators.items():
            layer = rep.layer_of[eid]
            coo = mat.tocoo()
            for i, j in zip(coo.row, coo.col):
                a, b = rep.bidegrees[j]
                want = (a + 1, b) if layer == 1 else (a, b + 1)
                assert tuple(rep.bidegrees[i]) == want

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
        vac = np.flatnonzero(rep.bidegrees[:, 0] == 0)
        assert len(vac) == 8
        assert {v for letters, v in basis_words(rep) if not letters} == {"0", "1"}

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
        assert ([letters for letters, _ in basis_words(ru)]
                == [letters for letters, _ in basis_words(rp)])
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


PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)
ENTRY = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def sub_blocks(draw, monomial=False):
    """A sparse complex matrix up to 40 x 40, possibly with explicit zeros
    and repeated positions, and the rows and columns of one sub-block."""
    n_rows = draw(st.integers(0, 40))
    n_cols = draw(st.integers(0, 40))
    if monomial:
        k = draw(st.integers(0, min(n_rows, n_cols)))
        r = draw(st.permutations(range(n_rows)))[:k]
        c = draw(st.permutations(range(n_cols)))[:k]
    elif n_rows and n_cols:
        cells = draw(st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            max_size=120,
        ))
        r, c = [i for i, _ in cells], [j for _, j in cells]
    else:
        r, c = [], []
    vals = draw(st.lists(ENTRY, min_size=len(r), max_size=len(r)))
    # squares and products of entries this small underflow to zero
    scale = draw(st.sampled_from([1.0, 1e-200]))
    mat = sp.coo_matrix(
        (scale * np.array(vals, dtype=complex),
         (np.array(r, dtype=np.intp), np.array(c, dtype=np.intp))),
        shape=(n_rows, n_cols),
    ).tocsr()
    rows = draw(st.lists(st.integers(0, n_rows - 1), unique=True)) if n_rows else []
    cols = draw(st.lists(st.integers(0, n_cols - 1), unique=True)) if n_cols else []
    return mat, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def spectral(dense) -> float:
    """The reference: the largest singular value."""
    return float(np.linalg.norm(dense, 2)) if dense.size else 0.0


class TestNorm:
    @PROPERTY
    @given(sub_blocks())
    def test_bound_lies_between_spectral_and_frobenius(self, block):
        mat, rows, cols = block
        bound = _norm_bound(mat[rows, :][:, cols])
        dense = mat.toarray()[np.ix_(rows, cols)]
        assert bound >= spectral(dense) * (1 - 1e-12)
        top = np.abs(dense).max(initial=0.0)
        # scaled by the largest entry, so that tiny entries do not underflow
        frobenius = top * np.linalg.norm(dense / top) if top else 0.0
        assert bound <= frobenius * (1 + 1e-12)
        if not np.any(dense):
            assert bound == 0.0

    @PROPERTY
    @given(sub_blocks(monomial=True))
    def test_bound_is_the_norm_on_monomial_blocks(self, block):
        mat, rows, cols = block
        bound = _norm_bound(mat[rows, :][:, cols])
        dense = mat.toarray()[np.ix_(rows, cols)]
        assert bound == pytest.approx(spectral(dense), rel=1e-12, abs=0.0)

    def test_zero_blocks(self):
        explicit = sp.csr_matrix(
            (np.zeros(3, dtype=complex), ([0, 1, 2], [2, 0, 1])), shape=(3, 3)
        )
        everything = np.arange(3)
        assert _norm_bound(explicit[everything, :][:, everything]) == 0.0
        assert _norm_bound(explicit[everything, :][:, everything[:0]]) == 0.0
        assert _norm_bound(explicit[everything[:0], :][:, everything]) == 0.0


@st.composite
def two_layer_specs(draw):
    """A flip with m, n <= 3, a commuting permutation pair on up to six
    vertices (a permutation and one of its powers, or two translations of a
    relabelled Z_a x Z_b), or a rotation unitary with random angles, its
    columns possibly multiplied by random phases."""
    kind = draw(st.sampled_from(["flip", "power", "translation", "rotation", "phased"]))
    if kind == "flip":
        return single_vertex_two_graph(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if kind in ("rotation", "phased"):
        angle = st.floats(0.0, 2 * np.pi)
        u = rotation_unitary_chi(draw(angle), draw(angle))
        if kind == "rotation":
            return u
        phases = np.exp(1j * np.array([draw(angle) for _ in range(4)]))
        return UnitaryChi(2, 2, u.matrix * phases)
    n = draw(st.integers(1, 6))
    if kind == "power":
        p1 = dict(enumerate(draw(st.permutations(range(n)))))
        p2 = {v: v for v in range(n)}
        for _ in range(draw(st.integers(0, 5))):
            p2 = {v: p1[w] for v, w in p2.items()}
    else:
        a = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        b = n // a
        label = draw(st.permutations(range(n)))
        p1, p2 = (
            {label[i * b + j]: label[(i + s) % a * b + (j + t) % b]
             for i in range(a) for j in range(b)}
            for s, t in draw(st.lists(
                st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)),
                min_size=2, max_size=2,
            ))
        )
    return two_graph_from_permutations(range(n), p1, p2)


class TestLeadingBlocks:
    # each example runs the suite twice, and the reference is cubic in the
    # generators, so fewer examples than the crossing property
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(two_layer_specs(), st.integers(0, 5), st.data())
    def test_checks_match_whole_operator_products(self, spec, degree, data):
        rep = build_fock(spec, degree)
        # a creator rescaled more on longer words gives defects that grow
        # with the degree, so a block one degree short changes the report
        victim = data.draw(st.sampled_from(sorted(rep.layer_of)))
        slope = data.draw(st.sampled_from([0.0, 0.25, 1e-12]))
        rep.creators[victim] = rep.creators[victim] @ sp.diags(1.0 + slope * rep.totals)
        got, want = fock_suite(rep), reference_fock_suite(rep)
        assert [r.relation for r in got] == [r.relation for r in want]
        for r, ref in zip(got, want):
            assert abs(r.defect - ref.defect) <= 1e-12, r.relation
            assert r.passed == ref.passed, r.relation


class CountingDict(dict):
    """A crossing table that counts its lookups."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestCrossings:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(two_layer_specs(), st.integers(0, 5))
    def test_operators_match_the_recursive_reference(self, spec, degree):
        rep = build_fock(spec, degree)
        # the order itself is pinned, since the reference reads the rep's own
        assert basis_words(rep) == reference_basis(rep)
        creators, annihilators = reference_operators(rep)
        adjoints = rep.annihilator(rep.dimension)
        for x in rep.layer_of:
            assert (rep.creators[x] != creators[x]).nnz == 0, x
            assert (adjoints[x] != annihilators[x]).nnz == 0, x
        # annihilators cross with chi and creators with its derived inverse
        assert check_left_action_adjoint(rep).defect <= 1e-12

    def test_lookups_grow_with_the_basis_not_the_word_length(self, monkeypatch):
        # on the torus a word e^a f^b crossed letter by letter costs a
        # lookups, so the total would grow like dimension * degree
        tables = []

        def counted(make):
            def wrapper(arg):
                tables.append(CountingDict(make(arg)))
                return tables[-1]
            return wrapper

        monkeypatch.setattr(fock, "_permutation_crossing",
                            counted(fock._permutation_crossing))
        monkeypatch.setattr(fock, "_inverse_crossing", counted(fock._inverse_crossing))
        rep = build_fock(single_vertex_two_graph(1, 1), 60)
        assert check_left_action_adjoint(rep).passed
        assert len(tables) == 2
        assert sum(t.lookups for t in tables) <= 3 * rep.dimension
