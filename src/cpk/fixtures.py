"""Bundled desk-scale fixtures, and the JSON document builders and the
indented JSON writer they share with the command line layer.

Fixture ids are stable, opaque strings; every document is schema-valid and
every two-layer fixture resolves without ambiguity.
"""

import math
import os
from json.encoder import encode_basestring_ascii

from .model import (
    AbstractKData,
    FiniteGraph,
    TwoGraphSpec,
    UnitaryChi,
    rotation_unitary_chi,
    single_vertex_two_graph,
)


def graph_document(g: FiniteGraph) -> dict:
    return {
        "kind": "graph",
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "rng": e.rng} for e in g.edges],
    }


def two_graph_document(spec: TwoGraphSpec) -> dict:
    return {
        "kind": "two_graph",
        "vertices": list(spec.vertices),
        "edges1": [{"id": e.id, "src": e.src, "rng": e.rng} for e in spec.edges1],
        "edges2": [{"id": e.id, "src": e.src, "rng": e.rng} for e in spec.edges2],
        "chi": [[list(pair), list(image)] for pair, image in spec.chi],
    }


def permutation_document(vertices, perm1: dict, perm2: dict) -> dict:
    return {
        "kind": "permutation",
        "vertices": list(vertices),
        "perm1": dict(perm1),
        "perm2": dict(perm2),
    }


def abstract_document(data: AbstractKData) -> dict:
    def group(g):
        return {"rank": g.free_rank, "torsion": list(g.torsion)}

    def action(f):
        return f.matrix.to_lists()

    return {
        "kind": "abstract_kdata",
        "K0": group(data.k0),
        "K1": group(data.k1),
        "action1": {"K0": action(data.action1_k0), "K1": action(data.action1_k1)},
        "action2": {"K0": action(data.action2_k0), "K1": action(data.action2_k1)},
    }


def unitary_document(u: UnitaryChi) -> dict:
    return {
        "kind": "unitary_chi",
        "m": u.m,
        "n": u.n,
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row] for row in u.matrix
        ],
    }


def cover_document(vertices, cover_map: dict) -> dict:
    return {
        "kind": "cover",
        "vertices": list(vertices),
        "map": dict(cover_map),
    }


def _circle() -> FiniteGraph:
    return FiniteGraph(("v",), (("loop", "v", "v"),))


def _rose(n: int) -> FiniteGraph:
    return FiniteGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(n)))


def _swap_graph() -> FiniteGraph:
    return FiniteGraph(("0", "1"), (("s0", "0", "1"), ("s1", "1", "0")))


def _two_cycle() -> FiniteGraph:
    return FiniteGraph(("a", "b"), (("ab", "a", "b"), ("ba", "b", "a")))


def _abstract_times(p1: int, p2: int) -> AbstractKData:
    from .abelian import FgAbGroup, GroupHom, IntMatrix

    z = FgAbGroup.free(1)

    def times(k):
        return GroupHom(z, z, IntMatrix([[k]]))

    return AbstractKData(z, z, times(p1), times(1), times(p2), times(1))


_REGISTRY = (
    (
        "ex1.2.1-circle",
        "one vertex with a single loop; the classical Toeplitz quotient",
        lambda: graph_document(_circle()),
    ),
    (
        "ex1.2.2-cuntz-2",
        "one vertex with two loops",
        lambda: graph_document(_rose(2)),
    ),
    (
        "ex1.2.3-swap-crossed-product",
        "two vertices exchanged by a single permutation bimodule",
        lambda: graph_document(_swap_graph()),
    ),
    (
        "ex2.2-two-cycle",
        "directed 2-cycle, base graph for the bundled double cover",
        lambda: graph_document(_two_cycle()),
    ),
    (
        "ex2.2-double-cover",
        "2-fold cover map onto the 2-cycle",
        lambda: cover_document(
            ("a0", "a1", "b0", "b1"),
            {"a0": "a", "a1": "a", "b0": "b", "b1": "b"},
        ),
    ),
    (
        "ex3.4-commuting-swaps",
        "two commuting swap permutations on two vertices",
        lambda: permutation_document(
            ("0", "1"), {"0": "1", "1": "0"}, {"0": "1", "1": "0"}
        ),
    ),
    (
        "ex3.4-z2xz3",
        "commuting 2-cycle and 3-cycle on six vertices",
        lambda: permutation_document(
            tuple(f"{i}{j}" for i in range(2) for j in range(3)),
            {f"{i}{j}": f"{(i + 1) % 2}{j}" for i in range(2) for j in range(3)},
            {f"{i}{j}": f"{i}{(j + 1) % 3}" for i in range(2) for j in range(3)},
        ),
    ),
    (
        "ex3.5-flip-2-2",
        "single vertex, two loops per layer, flip pairing",
        lambda: two_graph_document(single_vertex_two_graph(2, 2)),
    ),
    (
        "ex3.5-unitary-chi",
        "rotation-block unitary pairing with angles (pi/4, 0) on (2,2)",
        lambda: unitary_document(rotation_unitary_chi(math.pi / 4, 0.0)),
    ),
    (
        "ex4.5-torus",
        "one loop per layer; commuting pair of circle bimodules",
        lambda: two_graph_document(single_vertex_two_graph(1, 1)),
    ),
    (
        "ex4.6-flip-3-3",
        "single vertex, three loops per layer, flip pairing",
        lambda: two_graph_document(single_vertex_two_graph(3, 3)),
    ),
    (
        "ex4.7-abstract-p2",
        "abstract coefficient K-data: degree-2 and degree-3 cover classes "
        "acting on (Z, Z)",
        lambda: abstract_document(_abstract_times(2, 3)),
    ),
)


def fixture_ids():
    return [fid for fid, _, _ in _REGISTRY]


def fixture_description(fid: str) -> str:
    for name, desc, _ in _REGISTRY:
        if name == fid:
            return desc
    raise KeyError(f"unknown fixture id {fid!r}")


def fixture_document(fid: str) -> dict:
    for name, _, make in _REGISTRY:
        if name == fid:
            return make()
    raise KeyError(f"unknown fixture id {fid!r}")


def indented_json(value) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for
    the types a report or document holds: dicts with str keys, lists and
    tuples, str, int, float, bool and None. json takes its C encoder only
    without an indent, so this writer exists to keep the same bytes at C
    speed for strings and numbers.

    >>> print(indented_json({"b": [1, 2.5, None], "a": {"x": True}, "c": []}))
    {
      "a": {
        "x": true
      },
      "b": [
        1,
        2.5,
        null
      ],
      "c": []
    }
    """
    parts = []
    _put_json(value, "\n", parts)
    return "".join(parts)


def _put_json(value, newline: str, parts: list) -> None:
    """Append the text of value to parts; newline starts its own lines."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _put_json(value[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _put_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value in (math.inf, -math.inf):
            parts.append("Infinity" if value > 0 else "-Infinity")
        else:
            parts.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_fixtures(directory: str):
    """Materialize every fixture as <id>.json; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for fid in fixture_ids():
        path = os.path.join(directory, f"{fid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(indented_json(fixture_document(fid)) + "\n")
        paths.append(path)
    return paths
