"""Tests for exact-sequence verification, extension enumeration, and the
six-term solver A0 -f0-> B0 -> X0 -> A1 -f1-> B1 -> X1 -> A0."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpk.abelian import FgAbGroup, GroupHom, IntMatrix, clear_factors, hom_cut
from cpk.exactseq import (
    AMBIGUOUS,
    DEFAULT_EXT_BOUND,
    DETERMINED,
    ExactSequence,
    ResourceLimitError,
    extension_candidates,
    solve_six_term,
    verify_exact,
)
from support import all_exact, substitute_solution

Z = FgAbGroup(1)
Z2 = FgAbGroup(0, (2,))
Z3 = FgAbGroup(0, (3,))
Z4 = FgAbGroup(0, (4,))
T = FgAbGroup(0)


def hom(dom, cod, entries):
    return GroupHom(dom, cod, IntMatrix(entries, cols=dom.n_generators))


def zero(dom, cod):
    return GroupHom.zero(dom, cod)


# ---------------------------------------------------------------------------
# verify_exact


def test_exact_quotient_sequence():
    # Z --x2--> Z --quot--> Z/2 --0--> 0 --0--> 0 --0--> (back to Z)
    seq = ExactSequence(
        nodes=(Z, Z, Z2, T, T, T),
        arrows=(
            hom(Z, Z, [[2]]),
            hom(Z, Z2, [[1]]),
            zero(Z2, T),
            zero(T, T),
            zero(T, T),
            zero(T, Z),
        ),
    )
    reports = verify_exact(seq)
    assert all_exact(reports)


def test_identity_chain_fails_in_the_middle():
    seq = ExactSequence(
        nodes=(Z, Z, Z, T, T, T),
        arrows=(
            hom(Z, Z, [[1]]),
            hom(Z, Z, [[1]]),
            zero(Z, T),
            zero(T, T),
            zero(T, T),
            zero(T, Z),
        ),
    )
    reports = verify_exact(seq)
    assert not reports[1]["exact"]
    assert reports[1]["witness"] is not None
    # node 2 also fails: the identity image is everything but so is the kernel
    # of the zero outgoing map, hence node 2 is exact; node 0 is not (kernel of
    # x1 is 0 but nothing comes in)
    assert reports[2]["exact"]
    assert reports[0]["exact"]  # im(0 -> Z) = 0 = ker(identity)


def test_all_zero_sequence_exact():
    seq = ExactSequence(
        nodes=(T,) * 6,
        arrows=(zero(T, T),) * 6,
    )
    assert all_exact(verify_exact(seq))


def test_arrow_endpoint_validation():
    from cpk.abelian import DimensionError

    with pytest.raises(DimensionError):
        ExactSequence(nodes=(Z, Z2), arrows=(hom(Z, Z, [[1]]), zero(Z2, Z)))


# ---------------------------------------------------------------------------
# extension_candidates


def test_extension_frozen_cases():
    assert [str(g) for g in extension_candidates(Z2, Z2)] == ["Z/2 + Z/2", "Z/4"]
    assert extension_candidates(T, FgAbGroup(2, (3,))) == (FgAbGroup(2, (3,)),)
    assert extension_candidates(Z3, Z) == (FgAbGroup(1, (3,)),)
    assert [str(g) for g in extension_candidates(Z, Z2)] == ["Z", "Z + Z/2"]
    assert extension_candidates(Z2, Z3) == (FgAbGroup(0, (6,)),)  # coprime: unique


def test_extension_split_always_present():
    rng = random.Random(99)
    for _ in range(40):
        n = FgAbGroup.from_divisors(rng.randint(0, 2), [rng.choice([1, 2, 3, 4])])
        q = FgAbGroup.from_divisors(rng.randint(0, 1), [rng.choice([1, 2, 3, 4, 6])])
        cands = extension_candidates(n, q)
        assert n.direct_sum(q) in cands
        # pairwise distinct canonical forms
        assert len({(g.free_rank, g.torsion) for g in cands}) == len(cands)


def test_extension_coprime_cyclic_unique():
    for a, b in [(2, 3), (3, 4), (4, 9), (5, 6)]:
        assert len(extension_candidates(FgAbGroup(0, (a,)), FgAbGroup(0, (b,)))) == 1


def test_vanishing_ext_skips_the_bound():
    # Ext(Q, N) = 0 leaves only the split group, whatever the torsion order
    big = FgAbGroup(0, (4999,))
    assert extension_candidates(big, FgAbGroup.trivial(), bound=1) == (big,)
    coprime = extension_candidates(FgAbGroup(0, (125,)), FgAbGroup(1, (64,)), bound=1)
    assert coprime == (FgAbGroup(1, (8000,)),)
    with pytest.raises(ResourceLimitError):
        extension_candidates(FgAbGroup(0, (2,)), FgAbGroup(0, (64,)), bound=1)


def test_a_tripped_bound_trips_on_every_call(monkeypatch):
    # answers are kept for the command, refusals are not
    monkeypatch.delenv("CPK_EXT_BOUND", raising=False)
    clear_factors()
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            extension_candidates(FgAbGroup(0, (2,)), FgAbGroup(0, (64,)), bound=1)
    cands = extension_candidates(Z2, Z2)
    assert extension_candidates(Z2, Z2, bound=DEFAULT_EXT_BOUND) is cands
    clear_factors()
    assert extension_candidates(Z2, Z2) is not cands


def test_extension_bound(monkeypatch):
    big = FgAbGroup(0, (100,))
    with pytest.raises(ResourceLimitError) as exc:
        extension_candidates(big, big)
    assert "CPK_EXT_BOUND" in str(exc.value)
    monkeypatch.setenv("CPK_EXT_BOUND", "20000")
    cands = extension_candidates(big, big)
    assert FgAbGroup(0, (100, 100)) in cands
    assert FgAbGroup(0, (10, 1000)) in cands


# ---------------------------------------------------------------------------
# solve_six_term


def test_solver_rose():
    # coefficient (Z, 0), K-map 1-n on degree zero
    for n in range(2, 6):
        x0, x1 = solve_six_term(hom_cut(hom(Z, Z, [[1 - n]])), hom_cut(zero(T, T)))
        assert x0.status == x1.status == DETERMINED
        assert x0.group == FgAbGroup.from_divisors(0, [n - 1])
        assert x1.group == T


def test_solver_free_quotient_splits():
    # N = Z/2 from the cokernel of f0, Q = Z from the kernel of the zero f1
    x0, x1 = solve_six_term(hom_cut(hom(Z, Z, [[2]])), hom_cut(zero(Z, Z)))
    assert x0.status == x1.status == DETERMINED
    assert x0.group == FgAbGroup(1, (2,))


def test_solver_ambiguous_and_assume_split():
    f0, f1 = hom(Z, Z, [[2]]), zero(Z2, Z2)
    x0, x1 = solve_six_term(hom_cut(f0), hom_cut(f1))
    assert x0.status == AMBIGUOUS
    assert {str(g) for g in x0.candidates} == {"Z/4", "Z/2 + Z/2"}
    assert x1.status == DETERMINED
    assert x1.group == Z2

    forced = solve_six_term(hom_cut(f0), hom_cut(f1), assume_split=True)
    assert all(x.status == DETERMINED for x in forced)
    assert forced[0].assumed_split
    assert forced[0].group == FgAbGroup(0, (2, 2))


def test_solver_all_zero_flanks():
    x0, x1 = solve_six_term(hom_cut(zero(T, T)), hom_cut(zero(T, T)))
    assert x0.status == x1.status == DETERMINED
    assert (x0.group, x1.group) == (T, T)


SMALL_GROUPS = st.builds(
    FgAbGroup.from_divisors, st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4]), max_size=2)
)


@st.composite
def well_defined_homs(draw):
    """A hom between two small groups: a generator of order d goes to a
    vector whose coordinate of order e is a multiple of e / gcd(d, e), and
    whose free coordinates are 0 when d > 0."""
    dom, cod = draw(SMALL_GROUPS), draw(SMALL_GROUPS)
    cols = []
    for d in dom.generator_orders():
        col = []
        for e in cod.generator_orders():
            if e:
                col.append(draw(st.integers(0, e - 1)) * (e // gcd(d, e)) % e)
            else:
                col.append(0 if d else draw(st.integers(-3, 3)))
        cols.append(col)
    return GroupHom(dom, cod, IntMatrix.from_columns(cols, rows=cod.n_generators))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(well_defined_homs(), well_defined_homs())
def test_solver_symmetry_and_substitution(f0, f1):
    out = solve_six_term(hom_cut(f0), hom_cut(f1))
    # reading the sequence from A1 on exchanges the two unknowns
    assert solve_six_term(hom_cut(f1), hom_cut(f0)) == out[::-1]
    split = solve_six_term(hom_cut(f0), hom_cut(f1), assume_split=True)
    assert all_exact(verify_exact(substitute_solution(f0, f1, split)))
    for x, s in zip(out, split):
        if x.status == DETERMINED:
            assert x.group == s.group
    if all(x.status == DETERMINED for x in out):
        assert all_exact(verify_exact(substitute_solution(f0, f1, out)))


def test_substitution_verifies_exact():
    cases = [
        (hom(Z, Z, [[-2]]), zero(T, T)),
        (hom(Z, Z, [[0]]), hom(Z, Z, [[0]])),
        (hom(Z, Z, [[2]]), zero(Z, Z)),
    ]
    for f0, f1 in cases:
        out = solve_six_term(hom_cut(f0), hom_cut(f1))
        assert all(x.status == DETERMINED for x in out)
        filled = substitute_solution(f0, f1, out)
        assert all_exact(verify_exact(filled))


def test_substitution_of_assumed_split_verifies():
    f0, f1 = hom(Z, Z, [[2]]), zero(Z2, Z2)
    out = solve_six_term(hom_cut(f0), hom_cut(f1), assume_split=True)
    filled = substitute_solution(f0, f1, out)
    assert all_exact(verify_exact(filled))
