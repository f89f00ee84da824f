"""The factor-once exact core.

Property tests for the Smith normal form with tracked inverse transforms
and the per-command answer table that keeps it, for the one integer
product (a row combination over the left factor's nonzeros, and int64
under its no-overflow bound where the weighted work pays for it), for
block solves against one factorization (block reduce, generator round
trips, verify_exact witnesses), and deterministic guards on the number of
Smith normal form calls a diagram run makes and on the exact answers a
command repeats.
"""

import contextlib
import json
import sys
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpk import abelian, cli, exactseq
from cpk.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    PreconditionError,
    Presentation,
    factor,
    hom_image_lattice,
    hom_kernel_lattice,
    presented_cut,
    smith_normal_form,
)
from cpk.exactseq import ExactSequence, verify_exact
from support import (
    gen_lift,
    reference_smith_normal_form,
    solve_columns,
    subquotient,
    times_document,
)

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def int_matrices(draw, max_side=8, bound=10**6):
    """Matrices up to max_side square, with large entries or with small ones
    (so that ranks drop and nontrivial invariant factors appear)."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    top = draw(st.sampled_from([3, bound]))
    entry = st.integers(-top, top)
    data = draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return IntMatrix(data, cols=cols)


# ---------------------------------------------------------------------------
# Smith normal form certificates


@PROPERTY
@given(int_matrices())
def test_snf_certificates(m):
    res = smith_normal_form(m)
    assert res.U @ m @ res.V == res.S
    assert res.U @ res.Uinv == IntMatrix.identity(m.rows)
    assert res.V @ res.Vinv == IntMatrix.identity(m.cols)
    assert res.Uinv @ res.U == IntMatrix.identity(m.rows)
    diag = res.diagonal
    assert diag == tuple(res.S[i, i] for i in range(min(m.rows, m.cols)))
    off = [res.S[i, j] for i in range(m.rows) for j in range(m.cols) if i != j]
    assert not any(off)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


@PROPERTY
@given(int_matrices())
def test_cached_factorization_equals_a_fresh_one(m):
    fresh = smith_normal_form(m)
    first = factor(m)
    for name in ("U", "S", "V", "Uinv", "Vinv", "diagonal"):
        assert getattr(first, name) == getattr(fresh, name), name
    assert factor(m) is first


@st.composite
def sparse_unit_matrices(draw, max_side=24):
    """Matrices up to max_side square of 0 and +-1, the entries of graph
    inputs, with up to three entries of other sizes written over them."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    data = [[0] * cols for _ in range(rows)]
    if rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        units = st.lists(st.tuples(cell, st.sampled_from([1, -1])), max_size=3 * max(rows, cols))
        others = st.lists(st.tuples(cell, st.integers(-12, 12)), max_size=3)
        for (i, j), x in draw(units) + draw(others):
            data[i][j] = x
    return IntMatrix(data, cols=cols)


def assert_same_as_reference(m):
    res, ref = smith_normal_form(m), reference_smith_normal_form(m)
    for name in ("U", "S", "V", "Uinv", "Vinv", "diagonal"):
        assert getattr(res, name) == getattr(ref, name), name
    return res


@PROPERTY
@given(int_matrices() | sparse_unit_matrices())
def test_snf_equals_the_reference_elimination(m):
    # same pivots and the same operations in the same order: every
    # transform, S and the diagonal are exactly the reference's
    assert_same_as_reference(m)


@pytest.mark.parametrize(
    "rows, cols, diagonal",
    [
        ([[4, 6]], 2, (2,)),  # a column remainder restarts the pass
        ([[3], [5]], 1, (1,)),  # a row remainder restarts the pass
        ([[2, 0], [0, 3]], 2, (1, 6)),  # the divisibility fix
        ([[-2, 4], [6, -8]], 2, (2, 4)),  # negative pivots
        ([[0, 0, 0], [0, -3, 0], [0, 0, 0], [0, 6, 0]], 3, (3, 0, 0)),  # zero rows, columns
        ([[0, 0], [0, 0]], 2, (0, 0)),
        ([], 3, ()),  # 0 x k
        ([[], [], []], 0, ()),  # k x 0
        ([], 0, ()),
        ([[2**64 + 2, 2**70], [2**63, 3 * 2**65]], 2, (2, abs((2**64 + 2) * 3 * 2**65 - 2**133) // 2)),
        ([[-(2**65), 1, 0], [0, 2**100, -1]], 3, (1, 1)),  # past 2**63, with units
    ],
)
def test_snf_edge_cases_equal_the_reference(rows, cols, diagonal):
    res = assert_same_as_reference(IntMatrix(rows, cols=cols))
    assert res.diagonal == diagonal


def test_is_inverse_of_rejects_non_inverses():
    a = IntMatrix([[2, 1], [1, 1]])
    assert a.is_inverse_of(IntMatrix([[1, -1], [-1, 2]]))
    assert not a.is_inverse_of(IntMatrix([[1, 0], [0, 1]]))
    assert not IntMatrix([[1, 0]]).is_inverse_of(IntMatrix([[1], [0]]))
    assert IntMatrix.zeros(0, 0).is_inverse_of(IntMatrix.zeros(0, 0))


# ---------------------------------------------------------------------------
# int64 products under the no-overflow bound


def python_product(a, b) -> tuple:
    """The rows of a @ b, entry by entry in Python ints."""
    cols = b.columns()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def near(c: int):
    return st.integers(c - 9, c + 9) | st.integers(-c - 9, -c + 9)


ENTRIES = {"small": st.integers(-9, 9), "2^31": near(2**31), "2^40": near(2**40)}


@st.composite
def word_size_matrices(draw, rows, cols):
    """Entries all small, all near +-2^31 or +-2^40, or small but for one
    entry near +-2^62."""
    kind = draw(st.sampled_from(sorted(ENTRIES) + ["2^62"]))
    entry = ENTRIES["small" if kind == "2^62" else kind]
    data = draw(
        st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    if kind == "2^62":
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data[i][j] = draw(near(2**62))
    return IntMatrix(data, cols=cols)


@st.composite
def word_size_pairs(draw):
    """(A, B) from 8x8 to 16x16: two independent matrices, or A = I + e_i v^T
    with v_i = 0 and its inverse B = I - e_i v^T, sometimes off by one."""
    if draw(st.booleans()):
        r, k, c = (draw(st.integers(8, 16)) for _ in range(3))
        return draw(word_size_matrices(r, k)), draw(word_size_matrices(k, c))
    n = draw(st.integers(8, 16))
    i = draw(st.integers(0, n - 1))
    v = list(draw(word_size_matrices(1, n))._data[0])
    v[i] = 0
    a = [[int(p == q) + (v[q] if p == i else 0) for q in range(n)] for p in range(n)]
    b = [[int(p == q) - (v[q] if p == i else 0) for q in range(n)] for p in range(n)]
    if draw(st.booleans()):
        b[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
    return IntMatrix(a), IntMatrix(b)


def entry_bound(m) -> int:
    return max(abs(x) for row in m for x in row)


@PROPERTY
@given(word_size_pairs())
def test_word_size_products_equal_python_int_products(pair):
    # _word_product checks only the bound, so the bound alone decides whether
    # it runs in int64, and both paths give the exact product
    a, b = pair
    expected = python_product(a, b)
    tops = entry_bound(a), entry_bound(b)
    in_int64 = max(tops) < 2**63 and tops[0] * tops[1] * a.cols < 2**63
    word = abelian._word_product(a, b)
    assert (word is not None) == in_int64
    assert word is None or word == expected
    assert (a @ b)._data == expected
    square = a.rows == a.cols == b.cols
    assert a.is_inverse_of(b) == (square and expected == IntMatrix.identity(a.rows)._data)


@PROPERTY
@given(
    st.integers(8, 16), st.integers(8, 16), st.integers(8, 16),
    st.integers(1, 2**40), st.sampled_from([1, -1]),
)
def test_products_at_the_bound(r, k, c, top, sign):
    # constant matrices make every partial sum as large as the bound allows:
    # just below 2^63 the int64 path is exact, just past it the Python path
    # must take over
    below = (2**63 - 1) // (top * k)
    for other, in_int64 in ((below, True), (below + 1, False)):
        a = IntMatrix([[top] * k] * r)
        b = IntMatrix([[sign * other] * c] * k)
        expected = ((sign * k * top * other,) * c,) * r
        word = abelian._word_product(a, b)
        assert (word is not None) == in_int64
        assert word is None or word == expected
        assert (a @ b)._data == expected


@PROPERTY
@given(
    st.integers(8, 16), st.integers(8, 16), st.integers(8, 16),
    st.lists(near(2**63) | near(2**64) | near(2**100), min_size=1, max_size=4),
    st.booleans(),
)
def test_a_zero_factor_beside_entries_past_int64(r, k, c, big, zero_first):
    # the bound is 0 when one factor is zero, but the other factor's entries
    # may not fit in int64 at all: then the Python path must take the product
    zero = IntMatrix.zeros(r, k) if zero_first else IntMatrix.zeros(k, c)
    rows, cols = (k, c) if zero_first else (r, k)
    other = IntMatrix(
        [[big[(i * cols + j) % len(big)] for j in range(cols)] for i in range(rows)]
    )
    a, b = (zero, other) if zero_first else (other, zero)
    in_int64 = entry_bound(other) < 2**63
    word = abelian._word_product(a, b)
    assert (word is not None) == in_int64
    assert word is None or word == IntMatrix.zeros(r, c)._data
    assert (a @ b)._data == python_product(a, b) == IntMatrix.zeros(r, c)._data
    assert not a.is_inverse_of(b)


def wrapping_pair(n: int = 32) -> tuple:
    """(A, B) with A @ B = diag(1 - 2^64, 1, ..., 1), which int64 wraps to
    the identity. A is lower triangular of ones but for A[0][0] = 3, dense
    enough for @ to offer the product to int64; B is the inverse of that
    triangle of ones with its first column scaled by c, and 3 * c = 1 - 2^64."""
    c = -6148914691236517205
    a = IntMatrix([[(3 if i == 0 else 1) * (j <= i) for j in range(n)] for i in range(n)])
    b = IntMatrix(
        [[(c if j == 0 else 1) * ((i == j) - (i == j + 1)) for j in range(n)] for i in range(n)]
    )
    return a, b


@contextlib.contextmanager
def word_product_results():
    """The list of what each _word_product call returned inside the block."""
    results, word = [], abelian._word_product

    def spy(a, b):
        results.append(word(a, b))
        return results[-1]

    with mock.patch.object(abelian, "_word_product", spy):
        yield results


def test_a_product_that_wraps_in_int64_is_not_an_inverse():
    # (a @ b)[0, 0] = 1 - 2^64, which int64 wraps to 1; @ offers the product
    # to _word_product, whose bound sends it to Python
    a, b = wrapping_pair()
    assert abelian._int64_pays(a._data, a.cols, b.cols)
    with word_product_results() as results:
        assert not a.is_inverse_of(b)
        assert (a @ b)[0, 0] == 1 - 2**64
    assert results == [None, None]


# ---------------------------------------------------------------------------
# the row combination: exact at any density, int64 only where it pays


NONZERO_ENTRIES = {
    "unit": st.sampled_from([1, -1]),
    "small": st.integers(2, 9) | st.integers(-9, -2),
    "2^63": near(2**63),
    "2^100": near(2**100),
}


@st.composite
def matrices_of_any_density(draw, rows, cols):
    """Entries nonzero with a drawn density (0 to 1), each of a kind from a
    drawn mix of one or two of units, small ints and entries near +-2^63 or
    +-2^100; up to three rows are then zeroed. Past 8 rows or columns the
    matrix repeats a drawn block of at most 8x8, shifted by a drawn step
    every 8 rows, so that every entry is drawn by Hypothesis and shrinks."""
    density = draw(st.sampled_from([0, 1, 4, 10, 20]))
    kinds = draw(st.lists(st.sampled_from(sorted(NONZERO_ENTRIES)), min_size=1, max_size=2))
    entry = st.one_of([NONZERO_ENTRIES[kind] for kind in kinds])
    p, q = min(rows, 8), min(cols, 8)
    block = [
        [draw(entry) if draw(st.integers(0, 19)) < density else 0 for _ in range(q)]
        for _ in range(p)
    ]
    step = draw(st.integers(0, 7))
    data = [[block[i % p][(j + step * (i // p)) % q] for j in range(cols)] for i in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=3)) if rows else ():
        data[i] = [0] * cols
    return IntMatrix(data, cols=cols)


@st.composite
def products_of_any_density(draw):
    """Sides 0..12, or 26..40 so that dense enough products are offered to
    int64."""
    sides = st.integers(26, 40) if draw(st.booleans()) else st.integers(0, 12)
    r, k, c = draw(sides), draw(sides), draw(sides)
    return draw(matrices_of_any_density(r, k)), draw(matrices_of_any_density(k, c))


@PROPERTY
@given(products_of_any_density())
def test_products_of_any_density_equal_python_int_products(pair):
    # 0xk and kx0 factors, zero rows, and products on both sides of the
    # int64 dispatch, both inside and past the int64 bound
    a, b = pair
    out = a @ b
    assert (out.rows, out.cols) == (a.rows, b.cols)
    assert out._data == python_product(a, b)
    assert out == IntMatrix(python_product(a, b), cols=b.cols)


def test_rows_shared_with_the_right_factor_compare_and_hash_as_copies():
    b = IntMatrix([[1, -2, 3], [0, 5, 0], [7, 0, -9]])
    snapshot = b.to_lists()
    swap = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    shared = swap @ b
    assert [row is b._data[k] for row, k in zip(shared._data, (1, 2, 0))] == [True] * 3
    copy = IntMatrix([[0, 5, 0], [7, 0, -9], [1, -2, 3]])
    assert shared == copy and hash(shared) == hash(copy)
    assert {shared: "x"}[copy] == "x"
    assert shared != b and (swap @ shared) != shared
    assert IntMatrix.identity(3) @ b == b and hash(IntMatrix.identity(3) @ b) == hash(b)
    assert b.to_lists() == snapshot


def test_rows_longer_than_one_map_chain():
    # 600 nonzeros a row: the row combination cuts its chain of maps twice
    k = 600
    a = IntMatrix([[(-1) ** j * (2**70 + j) for j in range(k)], [1, -1, 3] * (k // 3)])
    b = IntMatrix([[j % 7 - 3, 1, -(j % 5)] for j in range(k)])
    assert k > 2 * abelian._CHAIN
    assert (a @ b)._data == python_product(a, b)


def dense_square(n: int, low: int) -> IntMatrix:
    """n x n with every entry in low..9."""
    return IntMatrix([[(i * 7 + j * 3) % (10 - low) + low for j in range(n)] for i in range(n)])


def test_only_work_that_pays_goes_to_int64():
    # int64: a dense 32x32x32 product with small entries, and a dense 8x8x8
    # one of non-unit entries (weighted work 8 * 64 * NON_UNIT_WEIGHT = 2^14)
    for n, low in ((32, 1), (8, 2)):
        dense = dense_square(n, low)
        with word_product_results() as results:
            assert (dense @ dense)._data == python_product(dense, dense)
        assert len(results) == 1 and results[0] is not None

    # Python ints: a 64x64 permutation, a zero matrix, and a 128x128 factor of
    # two units a row, whose work 2^15 is below twice the entries int64
    # converts; a dense 7x7x7 product of non-unit entries
    n = 64
    perm = IntMatrix([[int(j == (3 * i + 1) % n) for j in range(n)] for i in range(n)])
    square = IntMatrix([[(i * 5 + j) % 11 - 5 for j in range(n)] for i in range(n)])
    n = 128
    pairs = IntMatrix([[int(j in (i, (5 * i + 3) % n)) for j in range(n)] for i in range(n)])
    wide = dense_square(n, -9)
    small = dense_square(7, 2)
    with word_product_results() as results:
        assert (perm @ square)._data == python_product(perm, square)
        assert (IntMatrix.zeros(64, 64) @ square).is_zero()
        assert (pairs @ wide)._data == python_product(pairs, wide)
        assert (small @ small)._data == python_product(small, small)
    assert results == []


# ---------------------------------------------------------------------------
# presentations: block reduce and generator round trips


@st.composite
def presentations(draw):
    """A subquotient N/D of Z^n with D inside N by construction."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n + 1))
    small = st.integers(-3, 3)
    num = IntMatrix.from_columns(
        draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=k, max_size=k)),
        rows=n,
    )
    j = draw(st.integers(0, 3))
    coeffs = IntMatrix.from_columns(
        draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=j, max_size=j)),
        rows=k,
    )
    return subquotient(num, num @ coeffs), num


@st.composite
def presentations_and_vectors(draw):
    """A presentation plus ambient vectors, some inside the numerator (as
    combinations of its generators) and some arbitrary."""
    pres, num = draw(presentations())
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        if num.cols and draw(st.booleans()):
            c = draw(st.lists(st.integers(-4, 4), min_size=num.cols, max_size=num.cols))
            vectors.append((num @ IntMatrix.column_vector(c)).column(0))
        else:
            vectors.append(
                tuple(draw(st.lists(st.integers(-9, 9), min_size=num.rows, max_size=num.rows)))
            )
    return pres, vectors


def _single_reduce(pres, vector):
    try:
        return pres.reduce(vector)
    except PreconditionError:
        return None


@PROPERTY
@given(presentations_and_vectors())
def test_block_reduce_equals_single_reduces(case):
    # hom_to reduces whole blocks of columns: None marks a column outside
    # the numerator, where a single reduce raises
    pres, vectors = case
    singles = [_single_reduce(pres, v) for v in vectors]
    block = IntMatrix.from_columns(vectors, rows=pres.ambient)
    assert pres._coordinates(block) == singles
    for v, single in zip(vectors, singles):
        assert pres._coordinates(IntMatrix.column_vector(v)) == [single]


def test_hom_to_an_identity_basis_factors_no_identity():
    # solve(I, b) is b: the cokernel_of presentations have identity bases,
    # and reducing into one factors only the relations
    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    abelian.clear_factors()
    with mock.patch.object(abelian, "smith_normal_form", counting):
        source = Presentation.cokernel_of(IntMatrix([[2, 0], [0, 4]]))
        target = Presentation.cokernel_of(IntMatrix([[2, 0], [0, 2]]))
        hom = source.hom_to(target, IntMatrix.identity(2))
    assert hom.matrix == IntMatrix.identity(2)
    assert calls and not any(m.is_identity() for m in calls), calls


@PROPERTY
@given(presentations())
def test_gen_lift_reduce_round_trip(case):
    pres, _ = case
    n = pres.group.n_generators
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    assert [pres.reduce(gen_lift(pres, j)) for j in range(n)] == units
    assert pres._coordinates(pres.gen_lift_matrix()) == units
    den = pres.basis @ pres.rels
    assert all(not any(c) for c in pres._coordinates(den))


# ---------------------------------------------------------------------------
# verify_exact against the column-by-column check


@st.composite
def groups(draw):
    rank = draw(st.integers(0, 2))
    divisors = draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2))
    return FgAbGroup.from_divisors(rank, divisors)


@st.composite
def homs(draw, dom, cod):
    """A well-defined hom: a torsion generator of order d goes to a multiple
    of e / gcd(d, e) on a target generator of order e, and to 0 on a free one."""
    cols = []
    for d in dom.generator_orders():
        col = []
        for e in cod.generator_orders():
            if d == 0:
                col.append(draw(st.integers(-3, 3)))
            elif e == 0:
                col.append(0)
            else:
                col.append(draw(st.integers(-2, 2)) * (e // gcd(d, e)))
        cols.append(col)
    return GroupHom(dom, cod, IntMatrix.from_columns(cols, rows=cod.n_generators))


@st.composite
def cyclic_sequences(draw):
    n = draw(st.sampled_from([2, 4]))
    nodes = [draw(groups()) for _ in range(n)]
    arrows = [draw(homs(nodes[i], nodes[(i + 1) % n])) for i in range(n)]
    return ExactSequence(tuple(nodes), tuple(arrows))


def column_by_column(seq):
    """The exactness verdicts with one single-column solve per generator."""
    out = []
    n = len(seq)
    for i in range(n):
        im_lat = hom_image_lattice(seq.arrows[(i - 1) % n])
        ker_lat = hom_kernel_lattice(seq.arrows[i])
        witness = reason = None
        for col in im_lat.columns():
            if solve_columns(ker_lat, IntMatrix.column_vector(col)) is None:
                witness, reason = tuple(col), "image generator outside the kernel"
                break
        else:
            for col in ker_lat.columns():
                if solve_columns(im_lat, IntMatrix.column_vector(col)) is None:
                    witness, reason = tuple(col), "kernel generator not reached by the image"
                    break
        out.append((witness is None, witness, reason))
    return out


@PROPERTY
@given(cyclic_sequences())
def test_verify_exact_witness_matches_column_by_column(seq):
    expected = column_by_column(seq)
    assume(not all(exact for exact, _, _ in expected))
    got = [(r["exact"], r["witness"], r["reason"]) for r in verify_exact(seq)]
    assert got == expected


@PROPERTY
@given(cyclic_sequences())
def test_verify_exact_factors_each_arrow_once(seq):
    # im <= ker is read off the diagonal relations, and the kernel of an
    # arrow and the lattice it spans at the next node share one factorization
    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    abelian.clear_factors()
    with mock.patch.object(abelian, "smith_normal_form", counting):
        verify_exact(seq)
    assert len(calls) <= len(seq), calls


@PROPERTY
@given(st.data())
def test_kernel_lattice_is_the_presented_kernel_basis(data):
    # the preimage of ker f has one basis, shared by verify_exact and the cut
    dom, cod = data.draw(groups()), data.draw(groups())
    f = data.draw(homs(dom, cod))
    kernel = hom_kernel_lattice(f)
    assert smith_normal_form(kernel).rank == kernel.cols
    assert kernel == presented_cut(f)[1].basis


# ---------------------------------------------------------------------------
# Smith normal form calls per diagram run


def cyclic_pair_document(n: int, step: int) -> dict:
    names = [f"c{i}" for i in range(n)]
    return {
        "kind": "permutation",
        "vertices": names,
        "perm1": {names[i]: names[(i + 1) % n] for i in range(n)},
        "perm2": {names[i]: names[(i + step) % n] for i in range(n)},
    }


def snf_calls(monkeypatch, capsys, path) -> int:
    """smith_normal_form calls made by `cpk ktheory --route both`, counted
    at every cpk module that binds the name."""
    calls = []

    def counting(m):
        calls.append(m.rows * m.cols)
        return smith_normal_form(m)

    with monkeypatch.context() as patch:
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "cpk" or name.startswith("cpk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is smith_normal_form:
                    patch.setattr(module, attr, counting)
        rc = cli.main(["ktheory", path, "--route", "both"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0, report
    return len(calls)


def test_snf_calls_per_cyclic_pair_stay_bounded(tmp_path, monkeypatch, capsys):
    counts = {}
    for n in (16, 32):
        path = tmp_path / f"cyclic-{n}.json"
        path.write_text(json.dumps(cyclic_pair_document(n, 2)))
        counts[n] = snf_calls(monkeypatch, capsys, str(path))
    assert counts[16] <= 32, counts
    assert counts[32] <= counts[16], counts


def test_diagram_factors_each_distinct_matrix_once(tmp_path, capsys):
    # factor keeps every factorization for the command, so a matrix that
    # several presentations, cuts and exactness checks read (the 64 x 3
    # delta arrow, the 64 x 64 identity) is factored once
    path = tmp_path / "cyclic-64.json"
    path.write_text(json.dumps(cyclic_pair_document(64, 2)))
    calls = []

    def counting(m):
        calls.append(m)
        return smith_normal_form(m)

    with mock.patch.object(abelian, "smith_normal_form", counting):
        rc = cli.main(["ktheory", str(path), "--route", "both"])
    assert rc == 0, capsys.readouterr().out
    assert len(calls) == len(set(calls)), len(calls) - len(set(calls))


def exact_core_calls(monkeypatch, capsys, path) -> tuple:
    """(map cuts, extension_candidates calls, extension enumerations) made by
    one `cpk ktheory` command, counted at the module-level names that the
    bodies behind the answer table call."""
    counts = {"_cut": 0, "extension_candidates": 0, "_middle_groups": 0}

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted

    with monkeypatch.context() as patch:
        for module, name in ((abelian, "_cut"), (exactseq, "extension_candidates"),
                             (exactseq, "_middle_groups")):
            patch.setattr(module, name, counting(name, getattr(module, name)))
        rc = cli.main(["ktheory", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0, report
    return counts["_cut"], counts["extension_candidates"], counts["_middle_groups"]


def test_each_command_factors_afresh(tmp_path, monkeypatch, capsys):
    # the answer table lives for one cli.main call, so a repeated command
    # repeats every factorization, cut, Pimsner pair and extension
    # enumeration instead of reading the previous one's
    path = tmp_path / "cyclic-16.json"
    path.write_text(json.dumps(cyclic_pair_document(16, 2)))
    first = snf_calls(monkeypatch, capsys, str(path))
    assert first > 0
    assert snf_calls(monkeypatch, capsys, str(path)) == first
    path = tmp_path / "abstract.json"
    path.write_text(json.dumps(times_document(25, 25)))
    first = exact_core_calls(monkeypatch, capsys, path)
    assert all(first), first
    assert exact_core_calls(monkeypatch, capsys, path) == first


@pytest.mark.parametrize("multipliers", [(3, 5), (25, 25), (13, 25)])
def test_each_extension_is_enumerated_once_per_command(multipliers, tmp_path, capsys):
    # both bimodule orders, and every pair of descended cuts, ask for the
    # same extensions; the command's table answers each (sub, quot) once
    path = tmp_path / "abstract.json"
    path.write_text(json.dumps(times_document(*multipliers)))
    calls = []
    middle_groups = exactseq._middle_groups

    def counting(n_group, q_group):
        calls.append((n_group, q_group))
        return middle_groups(n_group, q_group)

    with mock.patch.object(exactseq, "_middle_groups", counting):
        rc = cli.main(["ktheory", str(path)])
    assert rc == 0, capsys.readouterr().out
    assert calls and len(calls) == len(set(calls)), calls
