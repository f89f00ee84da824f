"""Fock representation tests: basis bookkeeping, relation defects on honest
builds, and corrupted negative controls."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse._compressed import _cs_matrix

from cpk import fock
from cpk.cli import parse_document
from cpk.abelian import PreconditionError
from cpk.exactseq import ResourceLimitError
from cpk.fixtures import fixture_document
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
    _block_bounds,
    _stack_residuals,
    _worst,
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
    chained_residuals,
    chi_same_index,
    norm_bound,
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

    @pytest.mark.parametrize("victim", ["f0", "f1"])
    def test_one_corrupted_entry_breaks_one_block(self, victim, monkeypatch):
        # T_f at a pure layer-1 word w of degree N-1 enters one inner product
        # (f, f), one chi commutation term T_f T_e with e w' = w, and one
        # triple T_f T_e T_e', which is the direct product of a word out of
        # normal order; so each check has a single nonzero residual
        bounds, block_bounds = [], fock._block_bounds

        def recorded(stack, rows):
            found = block_bounds(stack, rows)
            bounds.extend(found)
            return found

        monkeypatch.setattr(fock, "_block_bounds", recorded)
        degree = 4
        base = build_fock(single_vertex_two_graph(2, 2), degree)
        words = np.flatnonzero((base.bidegrees == (degree - 1, 0)).all(axis=1))
        assert len(words) == 8
        for word in words:
            rep = build_fock(single_vertex_two_graph(2, 2), degree)
            entries = rep.creators[victim].tocoo()
            entries.data[entries.col == word] *= 1.5
            assert np.count_nonzero(entries.col == word) == 1
            rep.creators[victim] = entries.tocsr()
            for check in (check_toeplitz, check_chi_commutation, check_reordering):
                bounds.clear()
                reports = check(rep)
                if isinstance(reports, DefectReport):
                    reports = [reports]
                assert sum(not r.passed for r in reports) == 1, (check.__name__, word)
                assert np.count_nonzero(bounds) == 1, (check.__name__, word)
            want = reference_fock_suite(rep)
            for r, ref in zip(fock_suite(rep), want):
                assert abs(r.defect - ref.defect) <= 1e-12, (r.relation, word)

    def test_several_chunks_match_the_reference(self, monkeypatch):
        # the rotation unitary at degree 6 bounds its chi commutation and
        # reordering residuals in more than one chunk each; with a budget of
        # 0, every residual of every check is a chunk of its own
        chunks, block_bounds, budget = [], fock._block_bounds, fock._budget

        def counted(stack, rows):
            chunks.append(stack.shape[0] // rows)
            return block_bounds(stack, rows)

        monkeypatch.setattr(fock, "_block_bounds", counted)
        rep = build_fock(rotation_unitary_chi(np.pi / 6, np.pi / 5), 6)
        rep.creators["f1"] = rep.creators["f1"] @ sp.diags(1.0 + 1e-9 * rep.totals)
        want = reference_fock_suite(rep)
        for one_per_chunk in (False, True):
            monkeypatch.setattr(fock, "_budget", (lambda rep: 0) if one_per_chunk else budget)
            for check in (check_chi_commutation, check_reordering):
                chunks.clear()
                assert check(rep).defect > DEFAULT_TOL
                assert len(chunks) > 1, check.__name__
            chunks.clear()
            got = fock_suite(rep)
            if one_per_chunk:
                assert set(chunks) == {1}, chunks
            for r, ref in zip(got, want):
                assert abs(r.defect - ref.defect) <= 1e-12, (r.relation, one_per_chunk)
                assert r.passed == ref.passed, (r.relation, one_per_chunk)


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


@st.composite
def block_stacks(draw, monomial=False):
    """A vertical CSR stack of 0-6 sub-blocks drawn by sub_blocks, each
    padded with zero rows and columns to the largest block's shape (which
    changes no bound), and that common number of rows."""
    blocks = [mat[rows, :][:, cols]
              for mat, rows, cols in draw(st.lists(sub_blocks(monomial), max_size=6))]
    n_rows = max((b.shape[0] for b in blocks), default=draw(st.integers(0, 3)))
    n_cols = max((b.shape[1] for b in blocks), default=draw(st.integers(0, 3)))
    padded = [
        sp.csr_matrix(
            (b.data, b.indices,
             np.concatenate([b.indptr, np.full(n_rows - b.shape[0], b.indptr[-1])])),
            shape=(n_rows, n_cols),
        )
        for b in blocks
    ]
    if padded:
        stack = sp.vstack(padded, format="csr")
    else:
        stack = sp.csr_matrix((0, n_cols), dtype=complex)
    return stack, n_rows, [b.toarray() for b in padded]


class TestNorm:
    @PROPERTY
    @given(block_stacks())
    def test_bound_lies_between_spectral_and_frobenius(self, drawn):
        stack, rows, dense_blocks = drawn
        bounds = _block_bounds(stack, rows)
        assert len(bounds) == (len(dense_blocks) if rows else 0)
        for bound, dense in zip(bounds, dense_blocks):
            assert bound >= spectral(dense) * (1 - 1e-12)
            top = np.abs(dense).max(initial=0.0)
            # scaled by the largest entry, so that tiny entries do not underflow
            frobenius = top * np.linalg.norm(dense / top) if top else 0.0
            assert bound <= frobenius * (1 + 1e-12)
            if not np.any(dense):
                assert bound == 0.0
            assert bound == pytest.approx(norm_bound(sp.csr_matrix(dense)), rel=1e-12, abs=0.0)

    @PROPERTY
    @given(block_stacks(monomial=True))
    def test_bound_is_the_norm_on_monomial_blocks(self, drawn):
        stack, rows, dense_blocks = drawn
        for bound, dense in zip(_block_bounds(stack, rows), dense_blocks):
            assert bound == pytest.approx(spectral(dense), rel=1e-12, abs=0.0)

    def test_zero_blocks(self):
        explicit = sp.csr_matrix(
            (np.zeros(6, dtype=complex), ([0, 1, 2, 3, 4, 5], [2, 0, 1, 0, 1, 2])),
            shape=(6, 3),
        )
        assert explicit.nnz == 6
        assert list(_block_bounds(explicit, 3)) == [0.0, 0.0]
        assert list(_block_bounds(explicit[:, :0], 3)) == [0.0, 0.0]
        assert list(_block_bounds(sp.csr_matrix((0, 3), dtype=complex), 0)) == []

    def test_huge_shape_with_few_entries(self):
        # one block's rows x columns is past 2**31, as on the torus at degree
        # 629 (198765 x 196878), and blocks x rows x columns far past it; a
        # position flattened to 32 bits would overflow, and an array sized
        # by rows times columns would not fit in memory
        n_blocks, rows, cols = 3, 200_000, 200_000
        at_rows = np.array([0, rows - 1, rows, 2 * rows + 5, 2 * rows + 5, 3 * rows - 1])
        at_cols = np.array([cols - 1, 0, 7, cols - 1, 3, cols - 1])
        vals = np.array([3, 4j, -2, 1e-200, 1, 5], dtype=complex)
        stack = sp.csr_matrix((vals, (at_rows, at_cols)), shape=(n_blocks * rows, cols))
        tracemalloc.start()
        try:
            bounds = _block_bounds(stack, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stack's own row pointers take 2.4 MB, one dense block 320 GB
        assert peak < 16 << 20
        want = [norm_bound(stack[i * rows:(i + 1) * rows]) for i in range(n_blocks)]
        assert list(bounds) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert list(bounds) == pytest.approx([4.0, 2.0, 5.0], rel=1e-12)


class TestChunks:
    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 100])
    def test_one_nonzero_residual_is_found_at_any_position(self, budget):
        # whether the residual ends a chunk, starts one, sits inside one or
        # is alone in the last one, the worst bound is its own
        unit = sp.csr_matrix(np.ones((1, 1), dtype=complex))
        cancelled, empty, hit = [(unit, 0, 1.0), (unit, 0, -1.0)], [], [(unit, 0, -2.0)]
        others = [cancelled, empty, cancelled, cancelled, empty, cancelled]
        assert _worst(others, 1, 1, budget) == 0.0
        for at in range(len(others) + 1):
            residuals = others[:at] + [hit] + others[at:]
            assert _worst(residuals, 1, 1, budget) == 2.0, at


# values with exact cancellations, so that sums and partial sums vanish
EXACT = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1j, -1j, 0.5 - 0.5j, -0.5 + 0.5j])
COEFF = st.sampled_from([1.0, -1.0, 0.5, -1j, 0.6 + 0.8j])


@st.composite
def residual_chunks(draw):
    """A chunk of residuals as _worst hands it on, with its rows and
    columns: each residual 1-4 terms, each term coeff times `rows` rows of a
    CSR stack that lists a row's columns in any order, at most once each,
    explicit zeros included. Positions repeat across terms and layers. In
    an aligned chunk every residual has the same number of terms, and a
    residual's terms share its first's pattern and rows, some its values
    too, so that partial sums cancel."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    aligned = draw(st.booleans())
    depth = draw(st.integers(1, 4))
    entry = st.one_of(EXACT, ENTRY)

    def pattern():
        height = rows * draw(st.integers(1, 3))
        picked = [draw(st.permutations(range(cols)))[:draw(st.integers(0, cols))]
                  for _ in range(height)]
        indptr = np.cumsum([0] + [len(p) for p in picked])
        return height, np.array([c for p in picked for c in p], dtype=np.int32), indptr

    def stack(shape):
        height, indices, indptr = shape
        data = np.array([draw(entry) for _ in indices], dtype=complex)
        return sp.csr_matrix((data, indices, indptr), shape=(height, cols))

    chunk = []
    for _ in range(draw(st.integers(1, 5))):
        shape = pattern()
        first = draw(st.integers(0, shape[0] - rows))
        terms = []
        for _ in range(depth if aligned else draw(st.integers(1, 4))):
            if not aligned:
                shape = pattern()
                first = draw(st.integers(0, shape[0] - rows))
            echo = aligned and terms and draw(st.booleans())
            terms.append((terms[0][0] if echo else stack(shape), first, draw(COEFF)))
        # as _worst keeps them: terms with entries in their rows
        terms = [t for t in terms if t[0].indptr[t[1]] < t[0].indptr[t[1] + rows]]
        if terms:
            chunk.append(terms)
    assume(chunk)
    return chunk, rows, cols


class TestOnePassSums:
    @PROPERTY
    @given(residual_chunks())
    def test_one_pass_sum_is_the_chained_scipy_sum(self, drawn):
        chunk, rows, cols = drawn
        got, want = _stack_residuals(chunk, rows, cols), chained_residuals(chunk, rows, cols)
        assert got.shape == want.shape
        # the same entries, stored in the same order
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(_block_bounds(got, rows), _block_bounds(want, rows))


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


class TestCosts:
    @pytest.mark.parametrize("fid, degree", [
        ("ex3.5-flip-2-2", 5),
        ("ex3.5-unitary-chi", 6),
        ("ex4.6-flip-3-3", 5),
    ])
    def test_reordering_takes_one_product_per_last_letter_and_one_more(
            self, fid, degree, monkeypatch):
        # L @ T_c for every c in one product, then each triple stack once,
        # however many chunks the residuals take
        log, matmul, block_bounds = [], _cs_matrix._matmul_sparse, fock._block_bounds

        def product(self, other):
            log.append("product")
            return matmul(self, other)

        def chunk(stack, rows):
            log.append("chunk")
            return block_bounds(stack, rows)

        monkeypatch.setattr(_cs_matrix, "_matmul_sparse", product)
        monkeypatch.setattr(fock, "_block_bounds", chunk)
        _, spec = parse_document(fixture_document(fid))
        rep = build_fock(spec, degree)
        log.clear()
        assert check_reordering(rep).passed
        assert log.count("chunk") > 1
        assert log.count("product") == len(rep.layer_of) + 1

    @pytest.mark.parametrize("fid, degree, made", [
        ("ex3.5-flip-2-2", 5, 75),
        ("ex3.5-unitary-chi", 6, 80),
    ])
    def test_scipy_matrices_made_by_the_suite(self, fid, degree, made, monkeypatch):
        # every compressed sparse matrix scipy makes, the build's included:
        # a fixed few per check, not a few per generator or relation (a
        # per-letter build with chained additions made 138 and 200)
        count, init = [], _cs_matrix.__init__

        def counted(self, *args, **kwargs):
            count.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_cs_matrix, "__init__", counted)
        _, spec = parse_document(fixture_document(fid))
        fock_suite(build_fock(spec, degree))
        assert len(count) == made

    def test_the_rep_holds_flat_tables_not_per_word_dicts(self):
        # a dict of crossings per word held about 545 bytes a word here,
        # the flat tables about 232
        tracemalloc.start()
        try:
            rep = build_fock(single_vertex_two_graph(1, 1), 150)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 270 * rep.dimension
