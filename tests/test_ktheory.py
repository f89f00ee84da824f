"""Pipeline tests.

Frozen values below were computed by hand: single-stage groups from the
cokernel/kernel of 1 - M^t, two-stage groups from the extension problem over
the stage-one algebra, and the tensor/Tor oracle for single-vertex flips.
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpk import abelian, cli, ktheory
from cpk.abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    InternalError,
    PreconditionError,
    Presentation,
    hom_cut,
    presented_cut,
)
from cpk.exactseq import (
    AMBIGUOUS,
    DEFAULT_EXT_BOUND,
    DETERMINED,
    UNDERDETERMINED,
    GroupOutcome,
    ResourceLimitError,
    solve_six_term,
)
from cpk.fixtures import fixture_document, fixture_ids, two_graph_document, write_fixtures
from cpk.ktheory import (
    DiagramReport,
    GraphLayers,
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
from support import (
    as_abstract,
    coupling_block,
    identity_hom,
    kunneth_flip_oracle,
    pair_determined,
    pair_groups,
    per_pair_iterated_ktheory,
    permutation_bimodule,
    two_graph_from_matrices,
    two_graph_specs,
)
from test_exact_core import groups, homs
from test_model import commuting_layer_spec


SCALAR_GROUPS = (
    FgAbGroup.free(1),
    FgAbGroup(0, (2,)),
    FgAbGroup(1, (2,)),
    FgAbGroup(0, (4,)),
    FgAbGroup.free(2),
    FgAbGroup(0, (2, 4)),
)


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
            maps = pimsner_class_maps(rose(n))
            cuts = [hom_cut(one_minus(f)) for f in maps]
            pair = cuntz_pimsner_ktheory(*cuts, False, DEFAULT_EXT_BOUND)
            assert pair_determined(pair)
            assert pair.k0.group == FgAbGroup.from_divisors(0, [n - 1])
            assert pair.k1.group.is_trivial

    def test_single_loop(self):
        # one loop: the circle algebra, K0 = K1 = Z
        maps = pimsner_class_maps(rose(1))
        cuts = [hom_cut(one_minus(f)) for f in maps]
        pair = cuntz_pimsner_ktheory(*cuts, False, DEFAULT_EXT_BOUND)
        assert names(pair.k0.group) == "Z"
        assert names(pair.k1.group) == "Z"

    def test_swap_bimodule(self):
        swap = permutation_bimodule(("0", "1"), {"0": "1", "1": "0"})
        maps = pimsner_class_maps(swap)
        cuts = [hom_cut(one_minus(f)) for f in maps]
        pair = cuntz_pimsner_ktheory(*cuts, False, DEFAULT_EXT_BOUND)
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

    def test_ill_defined_class_map_refused_by_the_cut(self):
        # on Z + Z/2, the Z/2 generator cannot go to the free generator
        g = FgAbGroup(1, (2,))
        bad = GroupHom(g, g, IntMatrix([[0, 1], [0, 0]]))
        with pytest.raises(PreconditionError):
            presented_cut(one_minus(bad))
        with pytest.raises(PreconditionError):
            cuts = [hom_cut(one_minus(f)) for f in (bad, GroupHom.zero(g, g))]
            cuntz_pimsner_ktheory(*cuts, False, DEFAULT_EXT_BOUND)


# ---------------------------------------------------------------------------
# two-stage graph specs


class TestIteratedGraphs:
    def test_flip_matches_tensor_tor_oracle(self):
        for m, n in [(2, 2), (3, 3), (3, 5), (4, 6), (5, 3)]:
            layers = GraphLayers(single_vertex_two_graph(m, n))
            res = iterated_ktheory(layers, False, DEFAULT_EXT_BOUND)
            oracle = kunneth_flip_oracle(m, n)
            assert pair_determined(res.final), (m, n)
            assert pair_groups(res.final) == pair_groups(oracle), (m, n)

    def test_flip_3_3_frozen(self):
        res = iterated_ktheory(GraphLayers(single_vertex_two_graph(3, 3)), False, DEFAULT_EXT_BOUND)
        assert names(res.stage1.k0.group) == "Z/2"
        assert res.stage1.k1.group.is_trivial
        assert names(res.final.k0.group) == "Z/2"
        assert names(res.final.k1.group) == "Z/2"

    def test_torus(self):
        res = iterated_ktheory(GraphLayers(single_vertex_two_graph(1, 1)), False, DEFAULT_EXT_BOUND)
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_commuting_swaps(self):
        spec = two_graph_from_permutations(
            ("0", "1"), {"0": "1", "1": "0"}, {"0": "1", "1": "0"}
        )
        res = iterated_ktheory(GraphLayers(spec), False, DEFAULT_EXT_BOUND)
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_two_cycle_times_three_cycle(self):
        verts = tuple(f"{i}{j}" for i in range(2) for j in range(3))
        p1 = {f"{i}{j}": f"{(i + 1) % 2}{j}" for i in range(2) for j in range(3)}
        p2 = {f"{i}{j}": f"{i}{(j + 1) % 3}" for i in range(2) for j in range(3)}
        layers = GraphLayers(two_graph_from_permutations(verts, p1, p2))
        res = iterated_ktheory(layers, False, DEFAULT_EXT_BOUND)
        assert names(res.final.k0.group) == "Z^2"
        assert names(res.final.k1.group) == "Z^2"

    def test_invalid_chi_rejected(self):
        spec = single_vertex_two_graph(2, 2)
        broken = type(spec)(spec.vertices, spec.edges1, spec.edges2, spec.chi[:-1])
        with pytest.raises(PreconditionError):
            iterated_ktheory(GraphLayers(broken), False, DEFAULT_EXT_BOUND)


def diagram_of(spec: TwoGraphSpec) -> DiagramReport:
    """The diagram cross-check of a graph pair against its two-stage answer."""
    layers = GraphLayers(spec)
    final = iterated_ktheory(layers, False, DEFAULT_EXT_BOUND).final
    return diagram_report(layers, final, coefficient_ktheory(spec))


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
        res = iterated_ktheory(GraphLayers(disjoint_flip_pair()), False, DEFAULT_EXT_BOUND)
        assert res.final.k0.status == DETERMINED
        assert names(res.final.k0.group) == "Z/2 + Z/2"
        assert res.final.k1.status == AMBIGUOUS
        assert candidate_names(res.final.k1) == {"Z/2 + Z/2", "Z/4"}

    def test_diagram_selects_a_candidate(self):
        rep = diagram_of(disjoint_flip_pair())
        assert not rep.problems
        assert names(rep.final.k1.group) == "Z/2 + Z/2"

    def test_assume_split_watermark(self):
        res = iterated_ktheory(GraphLayers(disjoint_flip_pair()), True, DEFAULT_EXT_BOUND)
        assert res.final.k1.status == DETERMINED
        assert res.final.k1.assumed_split
        assert names(res.final.k1.group) == "Z/2 + Z/2"


# ---------------------------------------------------------------------------
# abstract coefficient data


class TestAbstractMode:
    def test_stage_one_of_degree_p_cover(self):
        # O of the degree-p cover bimodule: K0 = Z + Z/(p-1), K1 = Z
        for p in (2, 3, 5):
            res = iterated_ktheory(degree_cover_data(p, p + 1), False, DEFAULT_EXT_BOUND)
            expected = FgAbGroup.from_divisors(1, [p - 1])
            assert res.stage1.k0.group == expected
            assert names(res.stage1.k1.group) == "Z"

    def test_coprime_pair_completes(self):
        res = iterated_ktheory(degree_cover_data(3, 5), False, DEFAULT_EXT_BOUND)
        for outcome in (res.final.k0, res.final.k1):
            assert outcome.status == AMBIGUOUS
            assert candidate_names(outcome) == {"Z^2", "Z^2 + Z/2"}

    def test_small_pairs_determined(self):
        for p1, p2 in [(2, 3), (2, 5), (2, 2)]:
            res = iterated_ktheory(degree_cover_data(p1, p2), False, DEFAULT_EXT_BOUND)
            assert pair_determined(res.final), (p1, p2)
            assert names(res.final.k0.group) == "Z^2"
            assert names(res.final.k1.group) == "Z^2"

    def test_assume_split_narrows_to_one(self):
        res = iterated_ktheory(degree_cover_data(3, 5), True, DEFAULT_EXT_BOUND)
        assert pair_determined(res.final)
        assert res.final.k0.assumed_split
        assert names(res.final.k0.group) == "Z^2 + Z/2"
        assert names(res.final.k1.group) == "Z^2 + Z/2"

    def test_refuted_split_assumption_is_invalid_input(self):
        spec = GraphLayers(two_graph_from_matrices([[1, 0], [1, 1]], [[1, 0], [2, 1]]))
        res = iterated_ktheory(spec, False, DEFAULT_EXT_BOUND)
        assert (names(res.final.k0.group), names(res.final.k1.group)) == ("Z^2", "Z^2")
        with pytest.raises(PreconditionError, match="split assumption does not hold"):
            iterated_ktheory(spec, True, DEFAULT_EXT_BOUND)

    def test_order_symmetry_of_candidates(self):
        a = iterated_ktheory(degree_cover_data(3, 5), False, DEFAULT_EXT_BOUND)
        b = iterated_ktheory(degree_cover_data(5, 3), False, DEFAULT_EXT_BOUND)
        assert candidate_names(a.final.k0) == candidate_names(b.final.k0)
        assert candidate_names(a.final.k1) == candidate_names(b.final.k1)

    def test_nontrivial_ext_is_underdetermined(self):
        # stage-one K0 stacks torsion over torsion with a shared prime, so
        # the extension class (and with it the stage-two action) is unknown
        g = FgAbGroup.from_divisors(0, [2, 4])
        z2 = FgAbGroup.from_divisors(0, [2])
        data = AbstractKData(
            g, z2,
            identity_hom(g), identity_hom(z2),
            identity_hom(g), identity_hom(z2),
        )
        res = iterated_ktheory(data, False, DEFAULT_EXT_BOUND)
        assert res.final.k0.status == UNDERDETERMINED
        assert "not determined" in res.final.k0.explanation

    def test_each_map_is_cut_once(self, tmp_path, monkeypatch, capsys):
        # 4 stage-one class maps get presented cuts, whose pieces the second
        # class acts on. The 24 couplings Z -> Z/24 of the first order form a
        # single class (delta(h) = h - 2h is onto), so with the 3 one-action
        # sides 4 descended actions get a group cut (27 cut every coupling),
        # group_cut over the generator orders of the two pieces
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        presented, grouped, snfs, builds = [], [], [], []

        def counting(calls, original):
            def counted(*args):
                calls.append(args)
                return original(*args)
            return counted

        for name, calls in (("presented_cut", presented), ("group_cut", grouped)):
            wrapped = counting(calls, getattr(abelian, name))
            for module in (abelian, ktheory):
                monkeypatch.setattr(module, name, wrapped)
        monkeypatch.setattr(
            abelian, "smith_normal_form", counting(snfs, abelian.smith_normal_form)
        )
        monkeypatch.setattr(
            abelian.Presentation, "__init__",
            counting(builds, abelian.Presentation.__init__),
        )
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(workloads.abstract_doc(25, 2)))
        assert cli.main(["ktheory", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert (len(presented), len(grouped)) == (4, 4)
        # presented cuts of every descended action took 82 and 65, group
        # cuts of every coupling 35 and 11, and a presentation of each split
        # group N + Q 8 and 7; cut on the pieces' own generators, the split
        # group is neither presented nor factored
        assert len(snfs) == 7
        assert len(builds) == 6

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
            iterated_ktheory(data, False, DEFAULT_EXT_BOUND)
        assert "commute" in str(err.value)


# ---------------------------------------------------------------------------
# diagram route


class TestDiagram:
    def test_flip_2_2_ideal_sum(self):
        rep = diagram_of(single_vertex_two_graph(2, 2))
        assert names(rep.ij_k0.group) == "Z"
        assert rep.ij_k1.group.is_trivial
        assert not rep.problems

    def test_flip_3_3_ideal_sum(self):
        rep = diagram_of(single_vertex_two_graph(3, 3))
        assert names(rep.ij_k0.group) == "Z + Z/2"
        assert rep.ij_k1.group.is_trivial

    def test_torus_ideal_sum(self):
        rep = diagram_of(single_vertex_two_graph(1, 1))
        assert names(rep.ij_k0.group) == "Z^2"
        assert names(rep.ij_k1.group) == "Z"
        assert names(rep.final.k0.group) == "Z^2"
        assert names(rep.final.k1.group) == "Z^2"

    def test_corner_table(self):
        rep = diagram_of(single_vertex_two_graph(3, 4))
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
        rep = diagram_of(single_vertex_two_graph(4, 4))
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
                layers = GraphLayers(single_vertex_two_graph(m, n))
                res = iterated_ktheory(layers, False, DEFAULT_EXT_BOUND)
                assert pair_groups(res.final) == pair_groups(kunneth_flip_oracle(m, n))

    def test_random_commuting_permutation_specs(self):
        rng = random.Random(20260815)
        for _ in range(30):
            spec = commuting_layer_spec(rng, max_vertices=4, max_powers=2)
            layers = GraphLayers(spec)
            res = iterated_ktheory(layers, False, DEFAULT_EXT_BOUND)
            # permutation layers keep every stage free, so no ambiguity
            assert pair_determined(res.final)
            rep = diagram_report(layers, res.final, coefficient_ktheory(spec))
            assert not rep.problems, rep.problems
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
            res = iterated_ktheory(GraphLayers(spec), False, DEFAULT_EXT_BOUND)
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
                return iterated_ktheory(data, assume_split, DEFAULT_EXT_BOUND).final.describe()
            except (InternalError, PreconditionError) as err:
                return str(err)

        for assume_split in (False, True):
            assert final(GraphLayers(spec), assume_split) == final(
                as_abstract(spec), assume_split
            )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        groups=st.tuples(*[st.sampled_from(SCALAR_GROUPS)] * 2),
        scalars=st.tuples(*[st.sampled_from((-1, 0, 2, 3))] * 4),
        assume_split=st.booleans(),
        bound=st.sampled_from((1, 4, 4096)),
    )
    def test_cut_once_matches_the_per_pair_reference(self, groups, scalars, assume_split,
                                                     bound):
        # scalar actions commute and are well defined on every group
        def scalar(group, c):
            n = group.n_generators
            return GroupHom(group, group, IntMatrix(
                [[c if i == j else 0 for j in range(n)] for i in range(n)], cols=n
            ))

        k0, k1 = groups
        a10, a11, a20, a21 = scalars
        data = AbstractKData(k0, k1, scalar(k0, a10), scalar(k1, a11),
                             scalar(k0, a20), scalar(k1, a21))

        def run(solver):
            try:
                res = solver(data, assume_split, bound)
            except (InternalError, PreconditionError, ResourceLimitError) as err:
                return type(err), str(err)
            return res.stage1, res.stage1_other, res.final, res.notes

        assert run(iterated_ktheory) == run(per_pair_iterated_ktheory)

    def test_oracle_values_frozen(self):
        assert names(kunneth_flip_oracle(2, 2).k0.group) == "0"
        assert names(kunneth_flip_oracle(3, 3).k0.group) == "Z/2"
        assert names(kunneth_flip_oracle(5, 9).k0.group) == "Z/4"
        assert names(kunneth_flip_oracle(5, 9).k1.group) == "Z/4"
        with pytest.raises(PreconditionError):
            kunneth_flip_oracle(1, 3)


# ---------------------------------------------------------------------------
# couplings up to conjugation: P_h = [[1, h], [0, 1]] conjugates the action
# [[A, c], [0, B]] on N + Q to the one with coupling c + delta(h),
# delta(h) = h B - A h


def reduced(columns, group: FgAbGroup) -> tuple:
    """Coupling columns with each entry reduced mod the group's orders, as
    _hom_elements lists them."""
    orders = group.generator_orders()
    return tuple(tuple(x % d if d else x for x, d in zip(col, orders)) for col in columns)


def hom_count(quot: FgAbGroup, sub: FgAbGroup) -> int:
    total = 1
    for q in quot.generator_orders():
        for d in sub.torsion:
            total *= math.gcd(q, d)
    return total


@st.composite
def split_pieces(draw):
    """(N, Q, A, B): nontrivial groups with Hom(Q, N) finite and small, and
    actions A on N and B on Q that are well defined on torsion."""
    sub = draw(groups().filter(lambda g: not g.is_trivial))
    quot = draw(groups().filter(lambda g: not g.is_trivial))
    assume(not (quot.free_rank and sub.free_rank))
    assume(hom_count(quot, sub) <= 32)
    return sub, quot, draw(homs(sub, sub)), draw(homs(quot, quot))


@st.composite
def commuting_kdata(draw):
    """Abstract K-data with commuting classes, well defined on torsion, that
    often reach many couplings: K0 = Z^r, on which the second class is a
    polynomial in the first, so stage one has a finite cokernel piece; and
    half the time the first class fixes K1, which makes all of K1 the
    kernel piece and lets the second class act on K1 by any map."""
    k0 = FgAbGroup.free(draw(st.integers(1, 2)))
    k1 = draw(st.sampled_from(SCALAR_GROUPS + (FgAbGroup(0, (3,)),)))
    a10 = draw(homs(k0, k0))
    c0, c1, c2 = (draw(st.integers(-2, 2)) for _ in range(3))
    m = a10.matrix
    poly = [[c0 * e + c1 * x + c2 * y for e, x, y in zip(*rows)]
            for rows in zip(IntMatrix.identity(m.rows), m, m @ m)]
    a20 = GroupHom(k0, k0, IntMatrix(poly, cols=m.cols))
    if draw(st.booleans()):
        a11, a21 = identity_hom(k1), draw(homs(k1, k1))
    else:
        a11 = draw(homs(k1, k1))
        a21 = a11.compose(a11) if draw(st.booleans()) else identity_hom(k1)
    return AbstractKData(k0, k1, a10, a11, a20, a21)


class TestCouplingClasses:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(pieces=split_pieces(), data=st.data())
    def test_classes_are_the_cosets_of_the_conjugation_image(self, pieces, data):
        sub, quot, a, b = pieces
        count, couplings = ktheory._hom_elements(quot, sub)
        couplings = list(couplings)

        def add(x, y):
            return reduced([[s + t for s, t in zip(cx, cy)] for cx, cy in zip(x, y)], sub)

        def delta(h):
            hm = IntMatrix.from_columns(h, rows=sub.n_generators)
            return reduced((hm @ b.matrix - a.matrix @ hm).columns(), sub)

        # im(delta) by brute force, and the first coupling of each coset
        image = {delta(h) for h in couplings}
        first = {}
        for c in couplings:
            first.setdefault(frozenset(add(c, x) for x in image), c)
        assert ktheory._coupling_classes(quot, sub, a.matrix, b.matrix) == (
            count, list(first.values())
        )
        assert count == len(couplings) == hom_count(quot, sub)

        g_pres = Presentation.direct_sum(
            Presentation.cokernel_of(sub.relations()),
            Presentation.cokernel_of(quot.relations()),
        )

        def act(c) -> GroupHom:
            return g_pres.hom_to(g_pres, coupling_block(a.matrix, c, b.matrix))

        def cut(c) -> tuple:
            return hom_cut(one_minus(act(c)))

        # the conjugation identity, as maps and on the cut
        c, h = data.draw(st.sampled_from(couplings)), data.draw(st.sampled_from(couplings))
        eye_sub = IntMatrix.identity(sub.n_generators)
        eye_quot = IntMatrix.identity(quot.n_generators)
        p_h = coupling_block(eye_sub, h, eye_quot)
        p_h_inv = coupling_block(eye_sub, [[-x for x in col] for col in h], eye_quot)
        moved = add(c, delta(h))
        conjugated = p_h @ coupling_block(a.matrix, c, b.matrix) @ p_h_inv
        assert g_pres.hom_to(g_pres, conjugated) == act(moved)
        assert cut(c) == cut(moved)

        # every coupling's outcome is some representative's, and the first
        # refusal over all couplings is the first over the representatives
        paired = cut(couplings[0])

        def union(cs):
            try:
                pairs = [solve_six_term(cut(c), paired, False, DEFAULT_EXT_BOUND) for c in cs]
            except ResourceLimitError as err:
                return str(err)
            return tuple(ktheory._union_outcomes([p[k] for p in pairs]) for k in (0, 1))

        reps = list(first.values())
        assert {cut(c) for c in couplings} == {cut(r) for r in reps}
        assert union(couplings) == union(reps)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=commuting_kdata(), assume_split=st.booleans(),
           bound=st.sampled_from((4, 4096)))
    def test_class_representatives_match_every_coupling(self, data, assume_split, bound):
        # per_pair_iterated_ktheory solves every coupling pair; the package
        # solves one pair of class representatives
        def run(solver):
            try:
                res = solver(data, assume_split, bound)
            except (InternalError, PreconditionError, ResourceLimitError) as err:
                return type(err), str(err)
            return res.stage1, res.stage1_other, res.final, res.notes

        assert run(iterated_ktheory) == run(per_pair_iterated_ktheory)

    def test_each_cut_pair_is_solved_once(self, monkeypatch):
        # class representatives can still share a cut; within one order
        # each distinct (cut0, cut1) pair reaches the six-term solve once
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        orders, active = [], []
        two_stage_order, solve = ktheory._two_stage_order, ktheory.cuntz_pimsner_ktheory

        def order(*args):
            orders.append([])
            active.append(orders[-1])
            try:
                return two_stage_order(*args)
            finally:
                active.pop()

        def solving(cut0, cut1, *rest):
            if active:
                active[-1].append((cut0, cut1))
            return solve(cut0, cut1, *rest)

        monkeypatch.setattr(ktheory, "_two_stage_order", order)
        monkeypatch.setattr(ktheory, "cuntz_pimsner_ktheory", solving)
        for p1, p2 in ((4, 4), (5, 9)):
            _, data = cli.parse_document(workloads.abstract_doc(p1, p2))
            iterated_ktheory(data, False, DEFAULT_EXT_BOUND)
        assert len(orders) == 4 and all(orders)
        for pairs in orders:
            assert len(pairs) == len(set(pairs)), pairs

    def test_cap_counts_couplings_not_classes(self, tmp_path, monkeypatch, capsys):
        # stage one of abstract_doc(514, 2) is Z/513 by Z: 513 couplings,
        # all in one class (delta(h) = h - 2h is onto), still refused
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        path = tmp_path / "doc.json"
        path.write_text(json.dumps(workloads.abstract_doc(514, 2)))
        assert cli.main(["ktheory", str(path)]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "resource-limit"
        assert report["error"] == (
            "coupling enumeration would scan 513 homomorphisms (cap 512)"
        )
        monkeypatch.setattr(ktheory, "_COUPLING_CAP", 1024)
        count, reps = ktheory._coupling_classes(
            FgAbGroup.free(1), FgAbGroup(0, (513,)), IntMatrix([[2]]), IntMatrix([[1]])
        )
        assert (count, reps) == (513, [((0,),)])


# ---------------------------------------------------------------------------
# internal invariants raise InternalError, which python -O keeps


class TestInternalErrors:
    def test_disjoint_determined_orders(self):
        a = GroupOutcome.of(FgAbGroup.free(1))
        b = GroupOutcome.of(FgAbGroup(0, (2,)))
        with pytest.raises(InternalError, match="order symmetry"):
            ktheory._reconcile_outcome(a, b)

    def test_disjoint_orders_refute_a_split_assumption(self):
        a = GroupOutcome.of(FgAbGroup.free(1), assumed_split=True)
        b = GroupOutcome.of(FgAbGroup(0, (2,)))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(PreconditionError, match="split assumption does not hold"):
                ktheory._reconcile_outcome(x, y)

    def test_free_quotient_into_free_sub(self):
        with pytest.raises(InternalError, match="infinitely many"):
            next(ktheory._hom_elements(FgAbGroup.free(1), FgAbGroup(1, (2,))))

    def test_hom_elements_enumerate_the_q_torsion(self):
        count, homs = ktheory._hom_elements(FgAbGroup(0, (2,)), FgAbGroup(1, (4, 8)))
        assert [columns[0] for columns in homs] == [
            (0, 0, 0), (0, 0, 4), (0, 2, 0), (0, 2, 4)
        ]
        assert count == 4


# ---------------------------------------------------------------------------
# the two routes of `cpk ktheory`

# the parts of a ktheory report that come from the two-stage route alone
TWO_STAGE_KEYS = ("coefficient", "toeplitz_corner", "stage1", "final", "notes")
KTHEORY_KINDS = ("graph", "two_graph", "permutation", "abstract_kdata")


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(str(d))
    return d


def ktheory_report(path, *options):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ktheory", str(path), *options])
    return code, json.loads(out.getvalue())


def routes_agree(path, *options):
    """Run `--route iterated` and `--route both` on one document and check
    that the diagram cross-check adds to the report but changes nothing the
    two-stage route computed; returns the exit code and the both-route report."""
    code_i, it = ktheory_report(path, "--route", "iterated", *options)
    code_b, both = ktheory_report(path, "--route", "both", *options)
    assert code_i == code_b, (it, both)
    assert it["assumptions"] == both["assumptions"]
    assert it.get("error") == both.get("error")
    for key in TWO_STAGE_KEYS:
        assert it["results"].get(key) == both["results"].get(key), key
    return code_b, both


class TestRoutes:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        spec=st.builds(commuting_layer_spec, st.randoms(use_true_random=False),
                       st.just(4), st.just(2)),
    )
    def test_routes_agree_on_random_commuting_permutation_specs(
        self, tmp_path_factory, spec
    ):
        path = tmp_path_factory.getbasetemp() / "routes.json"
        path.write_text(json.dumps(two_graph_document(spec)))
        code, both = routes_agree(path)
        assert code == 0, both
        assert both["results"]["diagram"]["consistent"]

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize(
        "fid", [f for f in fixture_ids() if fixture_document(f)["kind"] in KTHEORY_KINDS]
    )
    def test_routes_agree_on_every_fixture(self, fixdir, fid, split):
        options = ["--assume-split"] if split else []
        code, both = routes_agree(fixdir / f"{fid}.json", *options)
        assert code == 0, both
        assert "final" in both["results"]

    def test_routes_agree_when_the_split_assumption_is_refuted(self, tmp_path):
        path = tmp_path / "refuted.json"
        spec = two_graph_from_matrices([[1, 0], [1, 1]], [[1, 0], [2, 1]])
        path.write_text(json.dumps(two_graph_document(spec)))
        code, both = routes_agree(path, "--assume-split")
        assert code == 1
        assert "split assumption does not hold" in both["error"]

    def test_routes_agree_on_a_tripped_extension_bound(self, tmp_path, monkeypatch):
        # the two-stage route runs before the diagram sequences, so under
        # both routes the bound trips at the same point with the same error
        monkeypatch.setenv("CPK_EXT_BOUND", "1")
        path = tmp_path / "flips.json"
        path.write_text(json.dumps(two_graph_document(disjoint_flip_pair())))
        code, both = routes_agree(path)
        assert code == 4
        assert both["status"] == "resource-limit"
        assert both["results"] == {}


def pipeline_calls(monkeypatch, argv) -> dict:
    """iterated_ktheory and diagram_report calls made by one `cpk` command,
    counted at every cpk module that binds the names."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets = []
    for name in ("iterated_ktheory", "diagram_report"):
        calls[name] = 0
        fn = getattr(ktheory, name)
        targets.append((fn, counting(name, fn)))
    with monkeypatch.context() as patch:
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "cpk" or name.startswith("cpk.")):
                continue
            for attr, value in list(vars(module).items()):
                for fn, wrapper in targets:
                    if value is fn:
                        patch.setattr(module, attr, wrapper)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    assert code == 0, out.getvalue()
    return calls


@pytest.mark.parametrize("route", ["iterated", "both"])
@pytest.mark.parametrize(
    "fid", ["ex3.4-z2xz3", "ex4.6-flip-3-3", "ex4.7-abstract-p2"]
)
def test_one_two_stage_run_per_command(fixdir, monkeypatch, fid, route):
    kind = fixture_document(fid)["kind"]
    calls = pipeline_calls(
        monkeypatch, ["ktheory", str(fixdir / f"{fid}.json"), "--route", route]
    )
    # abstract K-data has no diagram, whatever the route
    diagrams = 1 if route == "both" and kind != "abstract_kdata" else 0
    assert calls == {"iterated_ktheory": 1, "diagram_report": diagrams}, kind
