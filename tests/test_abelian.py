"""Tests for the exact integer core.

The Smith normal form and kernel computations are checked against oracles
that share no code with the implementation: elementary divisors via gcds of
k x k minors (Laplace-expansion determinants), kernels via direct membership
plus a saturation test on maximal minors.
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpk import abelian
from cpk.abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    PreconditionError,
    Presentation,
    cokernel,
    hom_cut,
    hom_equal,
    hom_well_defined,
    invariant_factors,
    kernel_basis,
    lattice_basis,
    presented_cut,
    smith_normal_form,
)
from support import (
    gen_lift,
    in_relation_lattice,
    induced_on_cokernel,
    induced_on_kernel,
    kernel_presentation_reference,
    lattice_contains,
    lattices_equal,
    solve_columns,
)

# ---------------------------------------------------------------------------
# oracles (independent of the implementation under test)


def laplace_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(sub)
    return total


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when all vanish)."""
    if k == 0:
        return 1
    g = 0
    data = m.to_lists()
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            sub = [tuple(data[i][j] for j in ci) for i in ri]
            g = math.gcd(g, laplace_det(sub))
    return g


def divisors_oracle(m: IntMatrix) -> tuple:
    """Elementary divisors d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = minors_gcd(m, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def check_kernel_against_oracle(m: IntMatrix):
    k = kernel_basis(m)
    # membership
    assert (m @ k).is_zero()
    # dimension: cols - rank, rank read off the minors
    rank = 0
    for t in range(1, min(m.rows, m.cols) + 1):
        if minors_gcd(m, t) != 0:
            rank = t
    assert k.cols == m.cols - rank
    if k.cols:
        # independence and saturation: gcd of maximal minors of the basis is 1
        g = minors_gcd(k, k.cols)
        assert g == 1, f"kernel basis not saturated (gcd of maximal minors {g})"


# ---------------------------------------------------------------------------
# frozen examples


def test_snf_frozen_example():
    res = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert res.diagonal == (2, 4)


def test_snf_zero_and_empty():
    assert smith_normal_form(IntMatrix.zeros(2, 3)).diagonal == (0, 0)
    assert smith_normal_form(IntMatrix([], cols=3)).diagonal == ()
    assert smith_normal_form(IntMatrix.zeros(3, 0)).diagonal == ()


def test_cokernel_frozen():
    assert cokernel(IntMatrix([[1, -1], [-1, 1]])) == FgAbGroup(1)
    assert cokernel(IntMatrix([[2, 0], [0, 3]])) == FgAbGroup(0, (6,))
    assert cokernel(IntMatrix.zeros(2, 0)) == FgAbGroup(2)


def test_invariant_factor_normalization():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 2, 2]) == (2, 2, 4)
    assert invariant_factors([1, 1]) == ()
    assert invariant_factors([12, 18]) == (6, 36)
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 2))  # not a chain


def test_group_str():
    assert str(FgAbGroup(0)) == "0"
    assert str(FgAbGroup(1)) == "Z"
    assert str(FgAbGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"


def test_lattice_membership():
    gens = IntMatrix.from_columns([(2, 0), (0, 3), (2, 3)])
    assert lattice_contains(gens, (2, 3))
    assert lattice_contains(gens, (4, -3))
    assert not lattice_contains(gens, (1, 0))
    basis = lattice_basis(gens)
    assert basis.cols == 2
    eq, witness = lattices_equal(basis, gens)
    assert eq and witness is None


def test_lattices_equal_witness():
    a = IntMatrix.from_columns([(2, 0)])
    b = IntMatrix.from_columns([(1, 0)])
    eq, witness = lattices_equal(a, b)
    assert not eq and witness == (1, 0)


def test_solve_columns():
    a = IntMatrix([[2, 0], [0, 3]])
    assert solve_columns(a, IntMatrix.column_vector((4, -3))) == IntMatrix([[2], [-1]])
    assert solve_columns(a, IntMatrix.column_vector((1, 0))) is None


def test_induced_on_cokernel_frozen():
    f = induced_on_cokernel(IntMatrix([[3]]), IntMatrix([[-2]]))
    assert f.dom == FgAbGroup(0, (2,))
    assert f.matrix == IntMatrix([[1]])


def test_induced_requires_commuting():
    b = IntMatrix([[0, 1], [0, 0]])
    m = IntMatrix([[1, 0], [0, 2]])
    with pytest.raises(PreconditionError) as exc:
        induced_on_cokernel(b, m)
    assert "[0,1]" in str(exc.value)


def test_hom_well_defined():
    z2, z3, z4 = FgAbGroup(0, (2,)), FgAbGroup(0, (3,)), FgAbGroup(0, (4,))
    assert not hom_well_defined(GroupHom(z2, z3, IntMatrix([[1]])))
    assert hom_well_defined(GroupHom(z2, z4, IntMatrix([[2]])))
    assert hom_well_defined(GroupHom(z4, z2, IntMatrix([[1]])))
    assert hom_equal(
        GroupHom(z2, z2, IntMatrix([[1]])), GroupHom(z2, z2, IntMatrix([[3]]))
    )


def test_hom_kernel_cokernel_frozen():
    doubling = GroupHom(FgAbGroup(1), FgAbGroup(1), IntMatrix([[2]]))
    assert hom_cut(doubling) == (FgAbGroup(0, (2,)), FgAbGroup(0))

    z4, z2 = FgAbGroup(0, (4,)), FgAbGroup(0, (2,))
    reduction = GroupHom(z4, z2, IntMatrix([[1]]))
    assert hom_cut(reduction) == (FgAbGroup(0), FgAbGroup(0, (2,)))

    # inclusion Z/2 -> Z/4 (1 maps to 2)
    inclusion = GroupHom(z2, z4, IntMatrix([[2]]))
    assert hom_cut(inclusion) == (FgAbGroup(0, (2,)), FgAbGroup(0))


def test_presentation_subquotient_frozen():
    num = IntMatrix.from_columns([(2, 0), (0, 2)])
    den = IntMatrix.from_columns([(2, 2), (4, 0)])
    pres = Presentation.subquotient(num, den)
    assert pres.group == FgAbGroup(0, (2,))
    with pytest.raises(PreconditionError):
        Presentation.subquotient(den, num)  # containment fails


def test_presentation_generator_roundtrip():
    pres = Presentation.cokernel_of(IntMatrix([[2, 0], [0, 3]]))
    n = pres.group.n_generators
    for j in range(n):
        coords = pres.reduce(gen_lift(pres, j))
        assert coords == tuple(1 if i == j else 0 for i in range(n))


def test_presentation_hom_to_rejects_bad_map():
    # multiplication by 1 does not map 2Z into 3Z
    a = Presentation.cokernel_of(IntMatrix([[2]]))
    b = Presentation.cokernel_of(IntMatrix([[3]]))
    with pytest.raises(PreconditionError):
        a.hom_to(b, IntMatrix([[1]]))
    f = a.hom_to(b, IntMatrix([[3]]))  # x -> 3x does descend
    assert f.matrix == IntMatrix([[0]])  # lands in 3Z, so the class is zero


def test_hom_shape_validation():
    with pytest.raises(DimensionError):
        GroupHom(FgAbGroup(2), FgAbGroup(1), IntMatrix([[1], [0]]))


# ---------------------------------------------------------------------------
# sweeps against the oracles


def all_small_matrices(rows, cols, lo=-2, hi=2):
    span = hi - lo + 1
    total = span ** (rows * cols)
    for code in range(total):
        entries = []
        x = code
        for _ in range(rows * cols):
            entries.append(lo + x % span)
            x //= span
        yield IntMatrix(
            [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols
        )


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_snf_matches_minor_oracle_exhaustive(shape):
    rows, cols = shape
    for m in all_small_matrices(rows, cols):
        res = smith_normal_form(m)
        got = tuple(d for d in res.diagonal if d != 0)
        assert got == divisors_oracle(m), f"mismatch on {m!r}"


def test_snf_matches_minor_oracle_random_3x3():
    rng = random.Random(20260815)
    for _ in range(1500):
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        res = smith_normal_form(m)
        got = tuple(d for d in res.diagonal if d != 0)
        assert got == divisors_oracle(m), f"mismatch on {m!r}"


def test_snf_random_6x6_postconditions_and_oracle():
    rng = random.Random(7)
    for _ in range(60):
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(6)] for _ in range(6)])
        res = smith_normal_form(m)  # internal asserts cover U m V = S etc.
        got = tuple(d for d in res.diagonal if d != 0)
        assert got == divisors_oracle(m)


def test_kernel_oracle_sweep():
    rng = random.Random(11)
    shapes = [(2, 3), (3, 2), (3, 3), (3, 5), (4, 4), (2, 5)]
    for _ in range(120):
        rows, cols = rng.choice(shapes)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        check_kernel_against_oracle(m)


def test_kernel_saturation_catches_rescaled_basis():
    # sanity check of the oracle itself: a doubled kernel basis must fail
    m = IntMatrix([[1, 1]])
    k = kernel_basis(m)
    k = k + k
    assert (m @ k).is_zero()
    assert minors_gcd(k, k.cols) != 1


def test_presentation_agrees_with_cokernel():
    rng = random.Random(3)
    for _ in range(80):
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)])
        pres = Presentation.cokernel_of(m)
        assert pres.group == cokernel(m)
        # denominator generators reduce to zero
        den = pres.basis @ pres.rels
        for j in range(den.cols):
            assert not any(pres.reduce(den.column(j)))
        # generator lifts reduce to unit coordinate vectors
        n = pres.group.n_generators
        for j in range(n):
            assert pres.reduce(gen_lift(pres, j)) == tuple(
                1 if i == j else 0 for i in range(n)
            )


def test_induced_map_functoriality():
    # polynomials in m commute with m; induced maps must compose
    rng = random.Random(5)
    for _ in range(40):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        eye = IntMatrix.identity(3)
        b1 = m @ m + m + m + eye
        b2 = -m + eye + eye + eye
        f1 = induced_on_cokernel(b1, m)
        f2 = induced_on_cokernel(b2, m)
        f12 = induced_on_cokernel(b1 @ b2, m)
        assert hom_equal(f12, f1.compose(f2))
        k1 = induced_on_kernel(b1, m)
        k2 = induced_on_kernel(b2, m)
        k12 = induced_on_kernel(b1 @ b2, m)
        assert hom_equal(k12, k1.compose(k2))


def test_hom_kernel_cokernel_random_consistency():
    # |ker| * |im| = |dom| for maps between finite groups, im = cod/coker
    rng = random.Random(13)
    for _ in range(60):
        d1 = rng.choice([2, 3, 4, 6])
        d2 = rng.choice([2, 3, 4, 6])
        c1 = rng.choice([2, 3, 4, 6])
        dom = FgAbGroup.from_divisors(0, [d1, d2])
        cod = FgAbGroup.from_divisors(0, [c1])
        entries = [[rng.randint(0, c1 - 1) for _ in range(dom.n_generators)]]
        f = GroupHom(dom, cod, IntMatrix(entries, cols=dom.n_generators))
        if not hom_well_defined(f):
            continue
        cok, ker = hom_cut(f)
        image_order = cod.torsion_order // cok.torsion_order
        assert ker.torsion_order * image_order == dom.torsion_order


@st.composite
def hom_pairs(draw):
    """Two homs between the same small groups: a matrix that may or may not
    be well defined on torsion, and the same matrix shifted by codomain
    relations and, sometimes, by a small perturbation."""
    group = st.builds(
        FgAbGroup.from_divisors,
        st.integers(0, 2),
        st.lists(st.integers(1, 12), max_size=3),
    )
    dom, cod = draw(group), draw(group)
    entry = st.integers(-30, 30)

    def matrix(rows, cols):
        return IntMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols=cols)

    f = matrix(cod.n_generators, dom.n_generators)
    if draw(st.booleans()):
        # make f well defined: d * f(g) must be a codomain relation
        cols = []
        for j, d in enumerate(dom.generator_orders()):
            col = list(f.column(j))
            for i, e in enumerate(cod.generator_orders()):
                if d:
                    col[i] *= e // math.gcd(d, e) if e else 0
            cols.append(col)
        f = IntMatrix.from_columns(cols, rows=cod.n_generators)
    rel = cod.relations()
    g = f + rel @ matrix(rel.cols, dom.n_generators)
    if draw(st.booleans()):
        g = g + matrix(cod.n_generators, dom.n_generators)
    return GroupHom(dom, cod, f), GroupHom(dom, cod, g)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(hom_pairs())
def test_relation_membership_agrees_with_lattice_reference(pair):
    f, g = pair
    torsion_images = [
        [d * x for x in f.matrix.column(j)]
        for j, d in enumerate(f.dom.generator_orders()) if d
    ]
    assert hom_well_defined(f) == in_relation_lattice(f.cod, torsion_images)
    assert hom_equal(f, g) == in_relation_lattice(f.cod, (f.matrix - g.matrix).columns())


def sympy_cokernel(m: IntMatrix) -> FgAbGroup:
    """Z^rows modulo the column span, from sympy's invariant factors."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    from sympy.polys.domains import ZZ

    flat = [x for row in m for x in row]
    factors = [abs(int(d)) for d in sympy_factors(sympy.Matrix(m.rows, m.cols, flat), domain=ZZ)]
    nonzero = [d for d in factors if d]
    return FgAbGroup.from_divisors(m.rows - len(nonzero), nonzero)


@st.composite
def mixed_homs(draw):
    """A hom between groups with free and torsion parts (at most 4
    generators each), made well defined on torsion about half the time."""
    group = st.builds(
        FgAbGroup.from_divisors,
        st.integers(0, 2),
        st.lists(st.integers(1, 12), max_size=2),
    )
    dom, cod = draw(group), draw(group)
    cols = []
    for d in dom.generator_orders():
        col = [draw(st.integers(-12, 12)) for _ in range(cod.n_generators)]
        if d and draw(st.booleans()):
            col = [x * (e // math.gcd(d, e)) if e else 0
                   for x, e in zip(col, cod.generator_orders())]
        cols.append(col)
    return GroupHom(dom, cod, IntMatrix.from_columns(cols, rows=cod.n_generators))


@pytest.mark.parametrize("cut", [hom_cut, presented_cut])
def test_a_cut_factors_its_map_once_even_past_the_cache_bound(cut, monkeypatch):
    # with no room in the factor cache, a second factorization of
    # M = [F | R_cod] would show as a second (3, 3) call
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        return smith_normal_form(m)

    monkeypatch.setattr(abelian, "FACTOR_CACHE_CELLS", 0)
    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    abelian.clear_factors()
    free = FgAbGroup.free(3)
    f = GroupHom(free, free, IntMatrix([[1, 1, 0], [0, 1, 1], [1, 2, 1]]))
    pieces = [getattr(p, "group", p) for p in cut(f)]
    assert calls == [(3, 3), (1, 0)]
    assert pieces == [FgAbGroup.free(1), FgAbGroup.free(1)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mixed_homs())
def test_group_cut_agrees_with_presentations_and_sympy(f):
    if not hom_well_defined(f):
        for cut in (hom_cut, presented_cut, kernel_presentation_reference):
            with pytest.raises(PreconditionError, match="^kernel of an ill-defined hom$"):
                cut(f)
        return
    cok, ker = hom_cut(f)
    cok_pres, ker_pres = presented_cut(f)
    assert cok == cok_pres.group
    assert ker == ker_pres.group == kernel_presentation_reference(f).group
    # the presented kernel: a basis of the preimage of ker f, whose
    # relations map exactly onto the domain relations
    assert ker_pres.basis @ ker_pres.rels == f.dom.relations()
    assert in_relation_lattice(f.cod, (f.matrix @ ker_pres.basis).columns())
    # sympy: coker f = coker M for M = [F | R_cod]; and with F @ R_dom =
    # R_cod @ Q, W = (R_dom; -Q) spans the relations of ker M -> ker f, so
    # coker W = ker f + im M, where im M is free of rank rank(M)
    m = IntMatrix.hstack(f.matrix, f.cod.relations())
    assert cok == sympy_cokernel(m)
    images = f.matrix @ f.dom.relations()
    free = f.cod.free_rank
    minus_q = [[-(x // d) for x in images.to_lists()[free + i]]
               for i, d in enumerate(f.cod.torsion)]
    w = IntMatrix(f.dom.relations().to_lists() + minus_q, cols=images.cols)
    assert (m @ w).is_zero()
    coker_w = sympy_cokernel(w)
    rank_m = m.rows - cok.free_rank
    assert ker == FgAbGroup(coker_w.free_rank - rank_m, coker_w.torsion)
