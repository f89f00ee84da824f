"""Tests for exact-sequence verification, extension enumeration, and the
six-term solver with antipodal unknowns."""

import random

import pytest

from cpk.abelian import FgAbGroup, GroupHom, IntMatrix, PreconditionError
from cpk.exactseq import (
    AMBIGUOUS,
    DETERMINED,
    UNDERDETERMINED,
    ExactSequence,
    ResourceLimitError,
    all_exact,
    extension_candidates,
    solve_six_term,
    verify_exact,
)
from support import rotate, substitute_solution

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


def test_verify_needs_complete_sequence():
    seq = ExactSequence(nodes=(Z, None), arrows=(None, None))
    with pytest.raises(PreconditionError):
        verify_exact(seq)


# ---------------------------------------------------------------------------
# extension_candidates


def test_extension_frozen_cases():
    assert [str(g) for g in extension_candidates(Z2, Z2)] == ["Z/2 + Z/2", "Z/4"]
    assert extension_candidates(T, FgAbGroup(2, (3,))) == [FgAbGroup(2, (3,))]
    assert extension_candidates(Z3, Z) == [FgAbGroup(1, (3,))]
    assert [str(g) for g in extension_candidates(Z, Z2)] == ["Z", "Z + Z/2"]
    assert extension_candidates(Z2, Z3) == [FgAbGroup(0, (6,))]  # coprime: unique


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
    assert extension_candidates(big, FgAbGroup.trivial(), bound=1) == [big]
    coprime = extension_candidates(FgAbGroup(0, (125,)), FgAbGroup(1, (64,)), bound=1)
    assert coprime == [FgAbGroup(1, (8000,))]
    with pytest.raises(ResourceLimitError):
        extension_candidates(FgAbGroup(0, (2,)), FgAbGroup(0, (64,)), bound=1)


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


def pimsner_like(k0, k1, map0, map1):
    """nodes [K0A, K0A, ?, K1A, K1A, ?] with the two K-maps known."""
    return ExactSequence(
        nodes=(k0, k0, None, k1, k1, None),
        arrows=(map0, None, None, map1, None, None),
    )


def test_solver_rose():
    # coefficient (Z, 0), K-map 1-n on degree zero
    for n in range(2, 6):
        seq = pimsner_like(Z, T, hom(Z, Z, [[1 - n]]), zero(T, T))
        out = solve_six_term(seq)
        assert out.status == DETERMINED
        assert out.groups[2] == FgAbGroup.from_divisors(0, [n - 1])
        assert out.groups[5] == T


def test_solver_free_quotient_splits():
    # N = Z/2 out of position-0 data, Q = Z from the kernel of a zero map
    seq = ExactSequence(
        nodes=(Z, Z, None, Z, Z, None),
        arrows=(hom(Z, Z, [[2]]), None, None, zero(Z, Z), None, None),
    )
    out = solve_six_term(seq)
    assert out.status == DETERMINED
    assert out.groups[2] == FgAbGroup(1, (2,))


def test_solver_ambiguous_and_assume_split():
    seq = ExactSequence(
        nodes=(Z, Z, None, Z2, Z2, None),
        arrows=(hom(Z, Z, [[2]]), None, None, zero(Z2, Z2), None, None),
    )
    out = solve_six_term(seq)
    assert out.status == AMBIGUOUS
    res2 = out.resolution_at(2)
    assert res2.status == AMBIGUOUS
    assert {str(g) for g in res2.candidates} == {"Z/4", "Z/2 + Z/2"}
    assert out.resolution_at(5).status == DETERMINED
    assert out.resolution_at(5).group == Z2

    forced = solve_six_term(seq, assume_split=True)
    assert forced.status == DETERMINED
    assert forced.resolution_at(2).assumed_split
    assert forced.groups[2] == FgAbGroup(0, (2, 2))


def test_solver_all_zero_flanks():
    seq = ExactSequence(
        nodes=(T, T, None, T, T, None),
        arrows=(zero(T, T), None, None, zero(T, T), None, None),
    )
    out = solve_six_term(seq)
    assert out.status == DETERMINED
    assert out.groups == {2: T, 5: T}


def test_solver_layout_violations():
    # three unknowns
    seq = ExactSequence(nodes=(Z, None, None, Z, None, T), arrows=(None,) * 6)
    out = solve_six_term(seq)
    assert out.status == UNDERDETERMINED and out.explanation

    # adjacent unknowns
    seq = ExactSequence(nodes=(Z, None, None, Z, Z, Z), arrows=(None,) * 6)
    assert solve_six_term(seq).status == UNDERDETERMINED

    # missing flanking arrow
    seq = ExactSequence(
        nodes=(Z, Z, None, Z, Z, None),
        arrows=(hom(Z, Z, [[2]]), None, None, None, None, None),
    )
    out = solve_six_term(seq)
    assert out.status == UNDERDETERMINED
    assert "known arrows" in out.explanation

    # an arrow claiming to know an unknown node
    seq = ExactSequence(
        nodes=(Z, Z, None, Z, Z, None),
        arrows=(hom(Z, Z, [[2]]), None, zero(Z2, Z), zero(Z, Z), None, None),
    )
    out = solve_six_term(seq)
    assert out.status == UNDERDETERMINED


def test_solver_rotation_invariance():
    seq = ExactSequence(
        nodes=(Z, Z, None, Z2, Z2, None),
        arrows=(hom(Z, Z, [[3]]), None, None, zero(Z2, Z2), None, None),
    )
    out = solve_six_term(seq)
    rotated = solve_six_term(rotate(seq, 3))
    assert out.status == rotated.status
    for position, r in rotated.resolutions.items():
        partner = out.resolutions[(position + 3) % 6]
        assert r.status == partner.status
        assert r.candidates == partner.candidates


def test_substitution_verifies_exact():
    cases = [
        pimsner_like(Z, T, hom(Z, Z, [[-2]]), zero(T, T)),
        pimsner_like(Z, Z, hom(Z, Z, [[0]]), hom(Z, Z, [[0]])),
        ExactSequence(
            nodes=(Z, Z, None, Z, Z, None),
            arrows=(hom(Z, Z, [[2]]), None, None, zero(Z, Z), None, None),
        ),
    ]
    for seq in cases:
        out = solve_six_term(seq)
        assert out.status == DETERMINED
        filled = substitute_solution(seq, out)
        assert all_exact(verify_exact(filled))


def test_substitution_of_assumed_split_verifies():
    seq = ExactSequence(
        nodes=(Z, Z, None, Z2, Z2, None),
        arrows=(hom(Z, Z, [[2]]), None, None, zero(Z2, Z2), None, None),
    )
    out = solve_six_term(seq, assume_split=True)
    filled = substitute_solution(seq, out)
    assert all_exact(verify_exact(filled))
