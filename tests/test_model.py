"""Tests for graph models, chi validation, pullbacks, and abstract K-data."""

import random

import numpy as np
import pytest

from cpk.abelian import FgAbGroup, GroupHom, IntMatrix, PreconditionError
from cpk.model import (
    AbstractKData,
    FiniteGraph,
    TwoGraphSpec,
    UnitaryChi,
    chi_flip,
    pullback_graph,
    rotation_unitary_chi,
    single_vertex_two_graph,
    two_graph_from_permutations,
    validate_chi,
    validate_graph,
    vertex_matrix,
)
from support import (
    chi_from_permutation,
    chi_same_index,
    identity_hom,
    permutation_bimodule,
    permutation_unitary_chi,
    swapped_spec,
)


def rose(n, vertex="v"):
    return FiniteGraph((vertex,), tuple((f"e{i}", vertex, vertex) for i in range(n)))


# ---------------------------------------------------------------------------
# graphs


def test_validate_graph_strict_ok():
    assert validate_graph(rose(2), strict=True).valid


def test_validate_graph_sink_and_source():
    g = FiniteGraph(("v", "w"), (("a", "v", "w"),))
    report = validate_graph(g, strict=True)
    assert not report.valid
    msgs = " ".join(report.semantic)
    assert "'w'" in msgs and "sink" in msgs
    assert "'v'" in msgs and "source" in msgs
    assert validate_graph(g, strict=False).valid  # lax only checks references


def test_validate_graph_structural():
    g = FiniteGraph(("v",), (("a", "v", "nope"),))
    report = validate_graph(g)
    assert report.structural and not report.valid
    g2 = FiniteGraph(("v",), (("a", "v", "v"), ("a", "v", "v")))
    assert any("duplicate" in m for m in validate_graph(g2).structural)


def test_vertex_matrix_frozen():
    assert vertex_matrix(rose(2)) == IntMatrix([[2]])
    two_cycle = FiniteGraph(("v", "w"), (("a", "v", "w"), ("b", "w", "v")))
    assert vertex_matrix(two_cycle) == IntMatrix([[0, 1], [1, 0]])
    assert vertex_matrix(rose(5)) == IntMatrix([[5]])


def test_permutation_bimodule():
    assert vertex_matrix(permutation_bimodule(["v"], {"v": "v"})) == IntMatrix([[1]])
    swap = permutation_bimodule(["v", "w"], {"v": "w", "w": "v"})
    assert vertex_matrix(swap) == IntMatrix([[0, 1], [1, 0]])
    cyc = permutation_bimodule("abc", {"a": "b", "b": "c", "c": "a"})
    assert vertex_matrix(cyc) == IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(PreconditionError):
        permutation_bimodule(["v", "w"], {"v": "v", "w": "v"})


def test_permutation_bimodule_is_strict_valid():
    g = permutation_bimodule("abcd", {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert validate_graph(g, strict=True).valid


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_identity_cover():
    g = FiniteGraph(("v", "w"), (("a", "v", "w"), ("b", "w", "v"), ("c", "v", "v")))
    lift = pullback_graph(g, {"v": "v", "w": "w"})
    assert len(lift.edges) == len(g.edges)
    assert vertex_matrix(lift) == vertex_matrix(g)


def test_pullback_trivial_double_cover_of_rose():
    for n in (1, 2, 3):
        lift = pullback_graph(rose(n), {"x0": "v", "x1": "v"})
        assert len(lift.vertices) == 2
        assert len(lift.edges) == 4 * n


def test_pullback_double_cover_of_two_cycle():
    g = FiniteGraph(("v", "w"), (("a", "v", "w"), ("b", "w", "v")))
    lift = pullback_graph(g, {"v0": "v", "v1": "v", "w0": "w", "w1": "w"})
    assert len(lift.edges) == 8


def test_pullback_requires_surjective():
    with pytest.raises(PreconditionError) as exc:
        pullback_graph(rose(2, vertex="v"), {"x": "v", "y": "v", "z": "u"})
    assert "unknown" in str(exc.value)
    g = FiniteGraph(("v", "w"), (("a", "v", "w"), ("b", "w", "v")))
    with pytest.raises(PreconditionError) as exc:
        pullback_graph(g, {"x": "v"})
    assert "surjective" in str(exc.value)


def test_pullback_fiber_row_sums():
    # row sums of the lifted matrix over a fiber = fiber size * base entry
    rng = random.Random(2)
    for _ in range(25):
        nv = rng.randint(1, 3)
        vertices = [f"v{i}" for i in range(nv)]
        edges = []
        for k in range(rng.randint(nv, nv + 4)):
            edges.append((f"e{k}", rng.choice(vertices), rng.choice(vertices)))
        g = FiniteGraph(tuple(vertices), tuple(edges))
        cover = {}
        for v in vertices:
            for c in range(rng.randint(1, 3)):
                cover[f"{v}^{c}"] = v
        lift = pullback_graph(g, cover)
        m = vertex_matrix(g)
        mt = vertex_matrix(lift)
        cvs = list(cover)
        for xi, x in enumerate(cvs):
            for w in vertices:
                fiber = [yi for yi, y in enumerate(cvs) if cover[y] == w]
                got = sum(mt[xi, yi] for yi in fiber)
                base = m[g.vertices.index(cover[x]), g.vertices.index(w)]
                assert got == len(fiber) * base


# ---------------------------------------------------------------------------
# chi


def test_chi_flip_valid():
    spec = single_vertex_two_graph(2, 2)
    assert len(spec.chi) == 4
    assert validate_chi(spec).valid


def test_chi_flip_sizes():
    assert len(chi_flip(1, 1)) == 1
    assert len(chi_flip(3, 5)) == 15


def test_chi_same_index_valid():
    spec = single_vertex_two_graph(2, 2, chi=chi_same_index(2, 2))
    assert validate_chi(spec).valid
    with pytest.raises(PreconditionError):
        chi_same_index(2, 3)


def test_chi_missing_pair_detected():
    spec = single_vertex_two_graph(2, 2, chi=chi_flip(2, 2)[:-1])
    report = validate_chi(spec)
    assert not report.valid
    assert any("no chi image" in m for m in report.semantic)
    assert any("not in the chi range" in m for m in report.semantic)


def test_chi_duplicate_detected():
    pairs = chi_flip(2, 2)
    spec = single_vertex_two_graph(2, 2, chi=pairs[:-1] + (pairs[0],))
    report = validate_chi(spec)
    assert any("twice" in m for m in report.semantic)


def test_chi_endpoint_violation_detected():
    # two vertices, one loop pair at each; pair a loop at v with a loop at w
    spec = TwoGraphSpec(
        ("v", "w"),
        (("a_v", "v", "v"), ("a_w", "w", "w")),
        (("b_v", "v", "v"), ("b_w", "w", "w")),
        (
            (("a_v", "b_v"), ("b_w", "a_w")),  # source moves from v to w
            (("a_w", "b_w"), ("b_v", "a_v")),
        ),
    )
    report = validate_chi(spec)
    assert not report.valid
    assert any("source" in m for m in report.semantic)


def test_chi_unknown_edge_is_structural():
    spec = single_vertex_two_graph(1, 1, chi=((("e0", "f9"), ("f0", "e0")),))
    report = validate_chi(spec)
    assert report.structural


def test_chi_from_permutation():
    pairs = chi_from_permutation({("e0", "f0"): ("f0", "e0")})
    assert pairs == ((("e0", "f0"), ("f0", "e0")),)
    with pytest.raises(PreconditionError):
        chi_from_permutation(
            [(("e0", "f0"), ("f0", "e0")), (("e0", "f0"), ("f1", "e0"))]
        )


def test_two_graph_from_permutations():
    spec = two_graph_from_permutations(
        ["v", "w"], {"v": "w", "w": "v"}, {"v": "w", "w": "v"}
    )
    assert validate_chi(spec).valid
    with pytest.raises(PreconditionError):
        two_graph_from_permutations(
            "abc", {"a": "b", "b": "a", "c": "c"}, {"a": "a", "b": "c", "c": "b"}
        )


def test_swapped_spec_still_valid():
    spec = two_graph_from_permutations(
        "abcdef",
        {"a": "b", "b": "a", "c": "d", "d": "c", "e": "f", "f": "e"},
        {"a": "c", "c": "e", "e": "a", "b": "d", "d": "f", "f": "b"},
    )
    assert validate_chi(spec).valid
    assert validate_chi(swapped_spec(spec)).valid
    assert swapped_spec(swapped_spec(spec)) == spec


def commuting_layer_spec(rng, max_vertices=5, max_powers=3):
    """Random spec whose layers are unions of powers of one permutation."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    images = vertices[:]
    rng.shuffle(images)
    sigma = dict(zip(vertices, images))

    def power(k):
        out = {}
        for v in vertices:
            w = v
            for _ in range(k):
                w = sigma[w]
            out[v] = w
        return out

    def layer(tag, exponents):
        edges = []
        chi_lookup = {}
        for a in exponents:
            pa = power(a)
            for v in vertices:
                edges.append((f"{tag}{a}_{v}", v, pa[v]))
        return edges

    cap = min(max_powers, nv + 1)
    exps1 = rng.sample(range(0, nv + 1), rng.randint(1, cap))
    exps2 = rng.sample(range(0, nv + 1), rng.randint(1, cap))
    edges1 = layer("a", exps1)
    edges2 = layer("b", exps2)
    powers = {k: power(k) for k in set(exps1) | set(exps2)}
    chi = []
    for a in exps1:
        for b in exps2:
            for v in vertices:
                chi.append(
                    (
                        (f"a{a}_{v}", f"b{b}_{powers[a][v]}"),
                        (f"b{b}_{v}", f"a{a}_{powers[b][v]}"),
                    )
                )
    return TwoGraphSpec(tuple(vertices), tuple(edges1), tuple(edges2), tuple(chi))


def test_random_commuting_layer_specs_validate():
    rng = random.Random(42)
    for _ in range(40):
        spec = commuting_layer_spec(rng)
        assert validate_chi(spec).valid
        m1 = vertex_matrix(spec.graph1())
        m2 = vertex_matrix(spec.graph2())
        assert m1 @ m2 == m2 @ m1


# ---------------------------------------------------------------------------
# abstract K-data


def kdata_cyclic(p1, p2):
    z = FgAbGroup(1)
    one = identity_hom(z)

    def times(k):
        return GroupHom(z, z, IntMatrix([[k]]))

    return AbstractKData(z, z, times(p1), one, times(p2), one)


def test_abstract_kdata_valid():
    assert kdata_cyclic(2, 3).validate().valid


def test_abstract_kdata_bad_torsion_action():
    z2 = FgAbGroup(0, (2,))
    z4 = FgAbGroup(0, (4,))
    bad = GroupHom(z2, z2, IntMatrix([[1]]))
    data = AbstractKData(
        z2, z2, bad, identity_hom(z2), identity_hom(z2), identity_hom(z2)
    )
    assert data.validate().valid  # identity is fine on Z/2
    shifted = AbstractKData(
        z4, z4, identity_hom(z4), identity_hom(z4),
        identity_hom(z4), identity_hom(z4),
    )
    assert shifted.validate().valid
    mismatched = AbstractKData(
        z4, z4, identity_hom(z2), identity_hom(z4),
        identity_hom(z4), identity_hom(z4),
    )
    assert not mismatched.validate().valid


def test_abstract_kdata_noncommuting():
    z = FgAbGroup(2)
    a = GroupHom(z, z, IntMatrix([[1, 1], [0, 1]]))
    b = GroupHom(z, z, IntMatrix([[1, 0], [1, 1]]))
    data = AbstractKData(z, FgAbGroup(0), a, GroupHom.zero(FgAbGroup(0), FgAbGroup(0)),
                         b, GroupHom.zero(FgAbGroup(0), FgAbGroup(0)))
    report = data.validate()
    assert any("commute" in m for m in report.semantic)


# ---------------------------------------------------------------------------
# unitary chi


def test_rotation_unitary_is_unitary():
    for alpha in (0.0, np.pi / 6, 1.1):
        for beta in (0.0, np.pi / 4, 2.7):
            assert rotation_unitary_chi(alpha, beta).validate().valid


def test_rotation_zero_angles_is_identity():
    u = rotation_unitary_chi(0.0, 0.0)
    assert np.allclose(u.matrix, np.eye(4))
    same = permutation_unitary_chi(single_vertex_two_graph(2, 2, chi_same_index(2, 2)))
    assert np.allclose(u.matrix, same.matrix)


def test_nonunitary_flagged():
    bad = UnitaryChi(2, 2, np.eye(4) * 2.0)
    assert not bad.validate().valid
    wrong_shape = UnitaryChi(2, 2, np.eye(3))
    assert wrong_shape.validate().structural
    assert not UnitaryChi(1, 1, np.array([[np.nan]])).validate().valid


def test_permutation_unitary_of_flip():
    u = permutation_unitary_chi(single_vertex_two_graph(2, 2))
    assert u.validate().valid
    # flip sends e_i (x) f_j to f_j (x) e_i
    for i in range(2):
        for j in range(2):
            assert u.coefficient(j, i, i, j) == 1.0
    assert np.sum(np.abs(u.matrix)) == 4.0
