"""The factor-once exact core.

Property tests for the Smith normal form with tracked inverse transforms,
for block solves against one factorization (block reduce, generator round
trips, verify_exact witnesses), and a deterministic guard on the number of
Smith normal form calls a diagram run makes.
"""

import json
import sys
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpk import cli
from cpk.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    PreconditionError,
    Presentation,
    hom_image_lattice,
    hom_kernel_lattice,
    smith_normal_form,
)
from cpk.exactseq import ExactSequence, verify_exact
from support import solve_columns

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


def test_is_inverse_of_rejects_non_inverses():
    a = IntMatrix([[2, 1], [1, 1]])
    assert a.is_inverse_of(IntMatrix([[1, -1], [-1, 2]]))
    assert not a.is_inverse_of(IntMatrix([[1, 0], [0, 1]]))
    assert not IntMatrix([[1, 0]]).is_inverse_of(IntMatrix([[1], [0]]))
    assert IntMatrix.zeros(0, 0).is_inverse_of(IntMatrix.zeros(0, 0))


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
    return Presentation.subquotient(num, num @ coeffs), num


@st.composite
def presentations_and_vectors(draw):
    """A presentation plus ambient vectors, some inside the numerator (as
    combinations of its generators) and some arbitrary."""
    pres, num = draw(presentations())
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        if num.cols and draw(st.booleans()):
            c = draw(st.lists(st.integers(-4, 4), min_size=num.cols, max_size=num.cols))
            vectors.append(num.apply(c))
        else:
            vectors.append(
                tuple(draw(st.lists(st.integers(-9, 9), min_size=num.rows, max_size=num.rows)))
            )
    return pres, vectors


def _single_reduce(pres, vector):
    try:
        return pres.reduce(vector)
    except PreconditionError as exc:
        return exc


@PROPERTY
@given(presentations_and_vectors())
def test_block_reduce_equals_single_reduces(case):
    pres, vectors = case
    singles = [_single_reduce(pres, v) for v in vectors]
    block = IntMatrix.from_columns(vectors, rows=pres.ambient)
    failures = [s for s in singles if isinstance(s, PreconditionError)]
    if failures:
        with pytest.raises(PreconditionError) as exc:
            pres.reduce_columns(block)
        assert str(exc.value) == str(failures[0])
    else:
        assert pres.reduce_columns(block) == singles
    for v, single in zip(vectors, singles):
        column = IntMatrix.column_vector(v)
        if isinstance(single, PreconditionError):
            with pytest.raises(PreconditionError) as exc:
                pres.reduce_columns(column)
            assert str(exc.value) == str(single)
        else:
            assert pres.reduce_columns(column) == [single]


@PROPERTY
@given(presentations())
def test_gen_lift_reduce_round_trip(case):
    pres, _ = case
    n = pres.group.n_generators
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    assert [pres.reduce(pres.gen_lift(j)) for j in range(n)] == units
    assert pres.reduce_columns(pres.gen_lift_matrix()) == units
    den = pres.basis @ pres.rels
    assert all(not any(c) for c in pres.reduce_columns(den))


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
    assert counts[16] <= 150, counts
    assert counts[32] <= counts[16], counts
