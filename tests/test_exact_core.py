"""The factor-once exact core.

Property tests for the Smith normal form with tracked inverse transforms
and its per-command cache, for the int64 products under their no-overflow
bound, for block solves against one factorization
(block reduce, generator round trips, verify_exact witnesses), and
deterministic guards on the number of Smith normal form calls a diagram
run makes.
"""

import json
import sys
from math import gcd
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpk import abelian, cli
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
from support import gen_lift, solve_columns, subquotient

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
    # every product here has at least 512 multiply-adds, so the bound alone
    # decides the int64 path, and both paths give the exact product
    a, b = pair
    expected = python_product(a, b)
    tops = entry_bound(a), entry_bound(b)
    in_int64 = max(tops) < 2**63 and tops[0] * tops[1] * a.cols < 2**63
    assert (abelian._word_product(a, b) is not None) == in_int64
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
        assert (abelian._word_product(a, b) is not None) == in_int64
        assert (a @ b)._data == ((sign * k * top * other,) * c,) * r


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
    assert (abelian._word_product(a, b) is not None) == in_int64
    assert (a @ b)._data == python_product(a, b) == IntMatrix.zeros(r, c)._data
    assert not a.is_inverse_of(b)


def diag(first: int, n: int = 8) -> IntMatrix:
    return IntMatrix([[first if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])


def test_a_product_that_wraps_in_int64_is_not_an_inverse():
    # 3 * b = 1 - 2^64, which int64 wraps to 1; the bound sends it to Python
    a, b = diag(3), diag(-6148914691236517205)
    assert not a.is_inverse_of(b)
    assert (a @ b)[0, 0] == 1 - 2**64


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


def test_each_command_factors_afresh(tmp_path, monkeypatch, capsys):
    # the factor cache lives for one cli.main call, so a repeated command
    # repeats every factorization instead of reading the previous one's
    path = tmp_path / "cyclic-16.json"
    path.write_text(json.dumps(cyclic_pair_document(16, 2)))
    first = snf_calls(monkeypatch, capsys, str(path))
    assert first > 0
    assert snf_calls(monkeypatch, capsys, str(path)) == first
