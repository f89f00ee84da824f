"""Pipeline tests.

Frozen values below were computed by hand: single-stage groups from the
cokernel/kernel of 1 - M^t, two-stage groups from the extension problem over
the stage-one algebra, and the tensor/Tor oracle for single-vertex flips.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpk import ktheory
from cpk.abelian import FgAbGroup, GroupHom, IntMatrix, InternalError, PreconditionError
from cpk.exactseq import AMBIGUOUS, DETERMINED, UNDERDETERMINED, GroupOutcome, SolveOutcome
from cpk.ktheory import (
    DiagramReport,
    coefficient_ktheory,
    cuntz_pimsner_ktheory,
    diagram_report,
    iterated_ktheory,
    one_minus,
    pimsner_class_maps,
)
from cpk.model import (
    AbstractKData,
    FiniteGraph,
    TwoGraphSpec,
    single_vertex_two_graph,
    two_graph_from_permutations,
)
from support import as_abstract, kunneth_flip_oracle, permutation_bimodule, two_graph_specs
from test_model import commuting_layer_spec


def rose(n: int) -> FiniteGraph:
    return FiniteGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(n)))


def names(group: FgAbGroup) -> str:
    return str(group)


def candidate_names(outcome) -> set:
    return {str(g) for g in outcome.candidates}


def degree_cover_data(p1: int, p2: int) -> AbstractKData:
    # circle coefficients: K0 = Z and K1 = Z; a degree-p cover acts by p in
    # degree zero and by 1 in degree one.
    z = FgAbGroup.free(1)

    def times(k):
        return GroupHom(z, z, IntMatrix([[k]]))

    return AbstractKData(z, z, times(p1), times(1), times(p2), times(1))


# ---------------------------------------------------------------------------
# single stage


class TestSingleStage:
    def test_coefficients_of_graph(self):
        pair = coefficient_ktheory(rose(3))
        assert names(pair.k0.group) == "Z"
        assert pair.k1.group.is_trivial

    def test_rose_k_groups(self):
        # n loops on one vertex: K0 = Z/(n-1), K1 = 0
        for n in range(2, 13):
            pair = cuntz_pimsner_ktheory(pimsner_class_maps(rose(n)))
            assert pair.determined
            assert pair.k0.group == FgAbGroup.from_divisors(0, [n - 1])
            assert pair.k1.group.is_trivial

    def test_single_loop(self):
        # one loop: the circle algebra, K0 = K1 = Z
        pair = cuntz_pimsner_ktheory(pimsner_class_maps(rose(1)))
        assert names(pair.k0.group) == "Z"
        assert names(pair.k1.group) == "Z"

    def test_swap_bimodule(self):
        swap = permutation_bimodule(("0", "1"), {"0": "1", "1": "0"})
        pair = cuntz_pimsner_ktheory(pimsner_class_maps(swap))
        assert names(pair.k0.group) == "Z"
        assert names(pair.k1.group) == "Z"

    def test_sink_rejected(self):
        g = FiniteGraph(("a", "b"), (("e", "a", "b"), ("f", "a", "a")))
        with pytest.raises(PreconditionError) as err:
            pimsner_class_maps(g)
        assert "'b'" in str(err.value)

    def test_one_minus_requires_endomorphism(self):
        f = GroupHom(FgAbGroup.free(1), FgAbGroup.free(2), IntMatrix([[1], [0]]))
        with pytest.raises(PreconditionError):
            one_minus(f)

    def test_class_map_validation(self):
        data = degree_cover_data(2, 3)
        problem = pimsner_class_maps(data, 2)
        assert problem.class_map0.matrix[0, 0] == 3


# ---------------------------------------------------------------------------
# two-stage graph specs


class TestIteratedGraphs:
    def test_flip_matches_tensor_tor_oracle(self):
        for m, n in [(2, 2), (3, 3), (3, 5), (4, 6), (5, 3)]:
            res = iterated_ktheory(single_vertex_two_graph(m, n))
            oracle = kunneth_flip_oracle(m, n)
            assert res.final.determined, (m, n)
            assert res.final.groups == oracle.groups, (m, n)

    def test_flip_3_3_frozen(self):
        res = iterated_ktheory(single_vertex_two_graph(3, 3))
        assert names(res.stage1.k0.group) == "Z/2"
        assert res.stage1.k1.group.is_trivial
        assert names(res.final.k0.group) == "Z/2"
        assert names(res.final.k1.group) == "Z/2"

    def test_torus(self):
        res = iterated_ktheory(single_vertex_two_graph(1, 1))
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_commuting_swaps(self):
        spec = two_graph_from_permutations(
            ("0", "1"), {"0": "1", "1": "0"}, {"0": "1", "1": "0"}
        )
        res = iterated_ktheory(spec)
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_two_cycle_times_three_cycle(self):
        verts = tuple(f"{i}{j}" for i in range(2) for j in range(3))
        p1 = {f"{i}{j}": f"{(i + 1) % 2}{j}" for i in range(2) for j in range(3)}
        p2 = {f"{i}{j}": f"{i}{(j + 1) % 3}" for i in range(2) for j in range(3)}
        res = iterated_ktheory(two_graph_from_permutations(verts, p1, p2))
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_invalid_chi_rejected(self):
        spec = single_vertex_two_graph(2, 2)
        broken = type(spec)(spec.vertices, spec.edges1, spec.edges2, spec.chi[:-1])
        with pytest.raises(PreconditionError):
            iterated_ktheory(broken)


def disjoint_flip_pair() -> "TwoGraphSpec":
    """Two isolated vertices, layer sizes (1,3) at one and (3,1) at the other.

    The two-stage route cannot resolve the degree-one extension of Z/2 by
    Z/2, so K1 comes back as a candidate list while the diagram route pins
    the split answer.
    """
    pairs = [("a", f"b{i}") for i in (1, 2, 3)] + [(f"c{i}", "d") for i in (1, 2, 3)]
    return TwoGraphSpec(
        vertices=("u", "w"),
        edges1=(("a", "u", "u"), ("c1", "w", "w"), ("c2", "w", "w"), ("c3", "w", "w")),
        edges2=(("b1", "u", "u"), ("b2", "u", "u"), ("b3", "u", "u"), ("d", "w", "w")),
        chi=tuple(((x, y), (y, x)) for x, y in pairs),
    )


class TestAmbiguity:
    def test_iterated_reports_candidates(self):
        res = iterated_ktheory(disjoint_flip_pair())
        assert res.final.k0.status == DETERMINED
        assert names(res.final.k0.group) == "Z/2 + Z/2"
        assert res.final.k1.status == AMBIGUOUS
        assert candidate_names(res.final.k1) == {"Z/2 + Z/2", "Z/4"}

    def test_diagram_selects_a_candidate(self):
        rep = diagram_report(disjoint_flip_pair())
        assert rep.consistent
        assert names(rep.final.k1.group) == "Z/2 + Z/2"

    def test_assume_split_watermark(self):
        res = iterated_ktheory(disjoint_flip_pair(), assume_split=True)
        assert res.final.k1.status == DETERMINED
        assert res.final.k1.assumed_split
        assert names(res.final.k1.group) == "Z/2 + Z/2"


# ---------------------------------------------------------------------------
# abstract coefficient data


class TestAbstractMode:
    def test_stage_one_of_degree_p_cover(self):
        # O of the degree-p cover bimodule: K0 = Z + Z/(p-1), K1 = Z
        for p in (2, 3, 5):
            res = iterated_ktheory(degree_cover_data(p, p + 1))
            expected = FgAbGroup.from_divisors(1, [p - 1])
            assert res.stage1.k0.group == expected
            assert names(res.stage1.k1.group) == "Z"

    def test_coprime_pair_completes(self):
        res = iterated_ktheory(degree_cover_data(3, 5))
        for outcome in (res.final.k0, res.final.k1):
            assert outcome.status == AMBIGUOUS
            assert candidate_names(outcome) == {"Z^2", "Z^2 + Z/2"}

    def test_small_pairs_determined(self):
        for p1, p2 in [(2, 3), (2, 5), (2, 2)]:
            res = iterated_ktheory(degree_cover_data(p1, p2))
            assert res.final.determined, (p1, p2)
            assert names(res.final.k0.group) == "Z^2"
            assert names(res.final.k1.group) == "Z^2"

    def test_assume_split_narrows_to_one(self):
        res = iterated_ktheory(degree_cover_data(3, 5), assume_split=True)
        assert res.final.determined
        assert res.final.k0.assumed_split
        assert names(res.final.k0.group) == "Z^2 + Z/2"
        assert names(res.final.k1.group) == "Z^2 + Z/2"

    def test_order_symmetry_of_candidates(self):
        a = iterated_ktheory(degree_cover_data(3, 5))
        b = iterated_ktheory(degree_cover_data(5, 3))
        assert candidate_names(a.final.k0) == candidate_names(b.final.k0)
        assert candidate_names(a.final.k1) == candidate_names(b.final.k1)

    def test_nontrivial_ext_is_underdetermined(self):
        # stage-one K0 stacks torsion over torsion with a shared prime, so
        # the extension class (and with it the stage-two action) is unknown
        g = FgAbGroup.from_divisors(0, [2, 4])
        z2 = FgAbGroup.from_divisors(0, [2])
        data = AbstractKData(
            g, z2,
            GroupHom.identity(g), GroupHom.identity(z2),
            GroupHom.identity(g), GroupHom.identity(z2),
        )
        res = iterated_ktheory(data)
        assert res.final.k0.status == UNDERDETERMINED
        assert "not determined" in res.final.k0.explanation

    def test_noncommuting_actions_rejected(self):
        z2free = FgAbGroup.free(2)
        zero = FgAbGroup.trivial()
        data = AbstractKData(
            z2free, zero,
            GroupHom(z2free, z2free, IntMatrix([[1, 1], [0, 1]])),
            GroupHom.zero(zero, zero),
            GroupHom(z2free, z2free, IntMatrix([[1, 0], [1, 1]])),
            GroupHom.zero(zero, zero),
        )
        with pytest.raises(PreconditionError) as err:
            iterated_ktheory(data)
        assert "commute" in str(err.value)


# ---------------------------------------------------------------------------
# diagram route


class TestDiagram:
    def test_flip_2_2_ideal_sum(self):
        rep = diagram_report(single_vertex_two_graph(2, 2))
        assert names(rep.ij_k0.group) == "Z"
        assert rep.ij_k1.group.is_trivial
        assert rep.consistent and rep.all_verdicts_pass

    def test_flip_3_3_ideal_sum(self):
        rep = diagram_report(single_vertex_two_graph(3, 3))
        assert names(rep.ij_k0.group) == "Z + Z/2"
        assert rep.ij_k1.group.is_trivial

    def test_torus_ideal_sum(self):
        rep = diagram_report(single_vertex_two_graph(1, 1))
        assert names(rep.ij_k0.group) == "Z^2"
        assert names(rep.ij_k1.group) == "Z"
        assert names(rep.final.k0.group) == "Z^2"
        assert names(rep.final.k1.group) == "Z^2"

    def test_corner_table(self):
        rep = diagram_report(single_vertex_two_graph(3, 4))
        assert rep.corners["11"]["K0"] == "Z"
        assert rep.corners["13"]["K0"] == "Z/2"
        assert rep.corners["31"]["K0"] == "Z/3"
        assert rep.corners["33"]["K0"] == names(
            kunneth_flip_oracle(3, 4).k0.group
        )
        assert set(rep.corners) == {
            "11", "12", "13", "21", "22", "23", "31", "32", "33"
        }

    def test_exactness_reports_cover_all_nodes(self):
        rep = diagram_report(single_vertex_two_graph(4, 4))
        assert len(rep.sum_sequence) == 6
        assert len(rep.quotient_sequence) == 6
        assert all(r["exact"] for r in rep.sum_sequence)
        assert all(r["exact"] for r in rep.quotient_sequence)


# ---------------------------------------------------------------------------
# properties


class TestProperties:
    def test_oracle_agreement_sweep(self):
        for m in range(2, 7):
            for n in range(2, 7):
                res = iterated_ktheory(single_vertex_two_graph(m, n))
                assert res.final.groups == kunneth_flip_oracle(m, n).groups

    def test_random_commuting_permutation_specs(self):
        rng = random.Random(20260815)
        for _ in range(30):
            spec = commuting_layer_spec(rng, max_vertices=4, max_powers=2)
            res = iterated_ktheory(spec)
            # permutation layers keep every stage free, so no ambiguity
            assert res.final.determined
            rep = diagram_report(spec)
            assert rep.consistent, rep.problems
            assert names(rep.final.k0.group) == names(res.final.k0.group)
            assert names(rep.final.k1.group) == names(res.final.k1.group)

    def test_free_ranks_agree_in_both_degrees(self):
        # with trivial coefficient K1 the final K0 and K1 have equal rank
        rng = random.Random(7)
        specs = [commuting_layer_spec(rng, max_vertices=4, max_powers=2)
                 for _ in range(10)]
        specs += [single_vertex_two_graph(m, n) for m, n in [(2, 5), (3, 3)]]
        specs.append(disjoint_flip_pair())
        for spec in specs:
            res = iterated_ktheory(spec)
            r0 = min(g.free_rank for g in res.final.k0.candidates)
            r1 = min(g.free_rank for g in res.final.k1.candidates)
            assert r0 == r1

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        spec=st.one_of(
            two_graph_specs(),
            st.builds(commuting_layer_spec, st.randoms(use_true_random=False),
                      st.just(4), st.just(2)),
        ),
    )
    def test_graph_and_abstract_data_give_the_same_final_report(self, spec):
        # a graph spec is abstract K-data (Z^V, 0) with [E_i] acting by M_i^T.
        # A wrong split guess can make the two orders disagree, which both
        # data kinds must then report with the same error.
        def final(data, assume_split):
            try:
                return iterated_ktheory(data, assume_split).final.describe()
            except InternalError as err:
                return str(err)

        for assume_split in (False, True):
            assert final(spec, assume_split) == final(as_abstract(spec), assume_split)

    def test_oracle_values_frozen(self):
        assert names(kunneth_flip_oracle(2, 2).k0.group) == "0"
        assert names(kunneth_flip_oracle(3, 3).k0.group) == "Z/2"
        assert names(kunneth_flip_oracle(5, 9).k0.group) == "Z/4"
        assert names(kunneth_flip_oracle(5, 9).k1.group) == "Z/4"
        with pytest.raises(PreconditionError):
            kunneth_flip_oracle(1, 3)


# ---------------------------------------------------------------------------
# internal invariants raise InternalError, which python -O keeps


class TestInternalErrors:
    def test_disjoint_determined_orders(self):
        a = GroupOutcome.of(FgAbGroup.free(1))
        b = GroupOutcome.of(FgAbGroup(0, (2,)))
        with pytest.raises(InternalError, match="order symmetry"):
            ktheory._reconcile_outcome(a, b)

    def test_underdetermined_pimsner_sequence(self, monkeypatch):
        def broken(seq, assume_split=False, bound=None):
            return SolveOutcome(UNDERDETERMINED, explanation="no antipodal pair")

        monkeypatch.setattr(ktheory, "solve_six_term", broken)
        with pytest.raises(InternalError, match="no antipodal pair"):
            cuntz_pimsner_ktheory(pimsner_class_maps(rose(2)))

    def test_free_quotient_into_free_sub(self):
        with pytest.raises(InternalError, match="infinitely many"):
            next(ktheory._hom_elements(FgAbGroup.free(1), FgAbGroup(1, (2,))))

    def test_hom_elements_enumerate_the_q_torsion(self):
        homs = ktheory._hom_elements(FgAbGroup(0, (2,)), FgAbGroup(1, (4, 8)))
        assert [m.column(0) for m in homs] == [
            (0, 0, 0), (0, 0, 4), (0, 2, 0), (0, 2, 4)
        ]
