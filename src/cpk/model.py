"""Concrete bimodule models over finite-dimensional commutative coefficients.

A finite graph presents a bimodule over functions-on-vertices with one basis
vector per edge. Two edge layers plus a bijection chi on composable pairs
present a pair of bimodules with a commutation isomorphism (a rank-2 graph
when chi is a permutation pairing). Abstract K-data skips the combinatorics
and supplies the induced maps on K-groups directly. UnitaryChi carries a
non-permutation commutation unitary; it is accepted by the Fock checks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    PreconditionError,
    hom_equal,
    hom_well_defined,
)
from .exactseq import ResourceLimitError

PULLBACK_CAP = 200_000


class Edge(NamedTuple):
    id: str
    src: str
    rng: str


@dataclass(frozen=True)
class ValidationReport:
    """structural problems = malformed document; semantic = hypothesis
    violations (sinks, sources, broken chi)."""

    structural: tuple = ()
    semantic: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.structural and not self.semantic

    def messages(self) -> list:
        return list(self.structural) + list(self.semantic)

    def require(self) -> None:
        """Raise PreconditionError naming every problem, if there is one."""
        if not self.valid:
            raise PreconditionError("; ".join(self.messages()))


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class FiniteGraph:
    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple(Edge(str(e[0]), str(e[1]), str(e[2])) for e in self.edges)
        )


def validate_graph(g: FiniteGraph, strict: bool = False) -> ValidationReport:
    """Referential integrity always; under strict, also no sinks or sources.

    Every vertex must emit at least one edge (injective left action) and
    receive at least one (full module) for the Pimsner pipeline hypotheses.
    """
    structural = []
    semantic = []
    vset = set(g.vertices)
    if len(vset) != len(g.vertices):
        structural.append("duplicate vertex ids")
    seen = set()
    for e in g.edges:
        if e.id in seen:
            structural.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.src not in vset:
            structural.append(f"edge {e.id!r} has unknown source vertex {e.src!r}")
        if e.rng not in vset:
            structural.append(f"edge {e.id!r} has unknown range vertex {e.rng!r}")
    if strict and not structural:
        emits = {v: 0 for v in g.vertices}
        receives = {v: 0 for v in g.vertices}
        for e in g.edges:
            emits[e.src] += 1
            receives[e.rng] += 1
        for v in g.vertices:
            if emits[v] == 0:
                semantic.append(f"vertex {v!r} emits no edge (sink)")
            if receives[v] == 0:
                semantic.append(f"vertex {v!r} receives no edge (source)")
    return ValidationReport(tuple(structural), tuple(semantic))


def vertex_matrix(g: FiniteGraph) -> IntMatrix:
    """M(v, w) = number of edges from v to w, rows and columns in vertex order.

    >>> vertex_matrix(FiniteGraph(("v",), (("a", "v", "v"), ("b", "v", "v"))))
    IntMatrix([[2]], cols=1)
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    counts = [[0] * n for _ in range(n)]
    for e in g.edges:
        counts[idx[e.src]][idx[e.rng]] += 1
    return IntMatrix(counts, cols=n)


def pullback_graph(g: FiniteGraph, p: dict) -> FiniteGraph:
    """Pull back along a surjection p from cover vertices onto g's vertices.

    Cover edges are all triples (x, e, y) with src(e) = p(x) and
    rng(e) = p(y), running x -> y. Their number is counted from the fibres
    first and refused past PULLBACK_CAP.
    """
    cover = tuple(str(v) for v in p)
    mapping = {str(k): str(v) for k, v in p.items()}
    base = set(g.vertices)
    for v, image in mapping.items():
        if image not in base:
            raise PreconditionError(f"cover vertex {v!r} maps to unknown vertex {image!r}")
    if set(mapping.values()) != base:
        missing = sorted(base - set(mapping.values()))
        raise PreconditionError(f"cover map is not surjective; missed {missing}")
    fiber = {v: [] for v in g.vertices}
    for x in cover:
        fiber[mapping[x]].append(x)
    count = sum(len(fiber[e.src]) * len(fiber[e.rng]) for e in g.edges)
    if count > PULLBACK_CAP:
        raise ResourceLimitError(f"pullback would hold {count} edges (cap {PULLBACK_CAP})")
    edges = [(f"{x}|{e.id}|{y}", x, y) for x in cover
             for e in g.edges if e.src == mapping[x] for y in fiber[e.rng]]
    return FiniteGraph(cover, tuple(edges))


# ---------------------------------------------------------------------------
# two-layer specs with chi


@dataclass(frozen=True)
class TwoGraphSpec:
    """Two edge layers over one vertex set and a bijection chi sending each
    composable (layer-1, layer-2) pair to a composable (layer-2, layer-1)
    pair with the same endpoints."""

    vertices: tuple
    edges1: tuple
    edges2: tuple
    chi: tuple  # of ((e1_id, e2_id), (f2_id, f1_id))

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        object.__setattr__(
            self, "edges1", tuple(Edge(str(e[0]), str(e[1]), str(e[2])) for e in self.edges1)
        )
        object.__setattr__(
            self, "edges2", tuple(Edge(str(e[0]), str(e[1]), str(e[2])) for e in self.edges2)
        )
        object.__setattr__(
            self,
            "chi",
            tuple(
                ((str(d[0]), str(d[1])), (str(i[0]), str(i[1]))) for d, i in self.chi
            ),
        )

    def graph1(self) -> FiniteGraph:
        return FiniteGraph(self.vertices, self.edges1)

    def graph2(self) -> FiniteGraph:
        return FiniteGraph(self.vertices, self.edges2)

    def chi_map(self) -> dict:
        return {d: i for d, i in self.chi}


def _composable(first: FiniteGraph, second: FiniteGraph) -> set:
    return {
        (a.id, b.id)
        for a in first.edges
        for b in second.edges
        if a.rng == b.src
    }


def validate_chi(spec: TwoGraphSpec) -> ValidationReport:
    """Layer validity, bijectivity and endpoint preservation of chi, and the
    forced consequence that the two vertex matrices commute."""
    g1, g2 = spec.graph1(), spec.graph2()
    r1 = validate_graph(g1, strict=True)
    r2 = validate_graph(g2, strict=True)
    structural = [f"layer 1: {m}" for m in r1.structural]
    structural += [f"layer 2: {m}" for m in r2.structural]
    semantic = [f"layer 1: {m}" for m in r1.semantic]
    semantic += [f"layer 2: {m}" for m in r2.semantic]
    ids1 = {e.id for e in spec.edges1} & {e.id for e in spec.edges2}
    if ids1:
        structural.append(f"edge ids shared between layers: {sorted(ids1)}")
    if structural:
        return ValidationReport(tuple(structural), tuple(semantic))

    by1 = {e.id: e for e in spec.edges1}
    by2 = {e.id: e for e in spec.edges2}
    domain_pairs = _composable(g1, g2)
    image_pairs = _composable(g2, g1)
    seen_domain = set()
    seen_image = set()
    for d, im in spec.chi:
        if d[0] not in by1 or d[1] not in by2 or im[0] not in by2 or im[1] not in by1:
            structural.append(f"chi entry {d} -> {im} references unknown edge ids")
            continue
        if d not in domain_pairs:
            semantic.append(f"chi domain pair {d} is not composable in layer order 1,2")
            continue
        if im not in image_pairs:
            semantic.append(f"chi image pair {im} is not composable in layer order 2,1")
            continue
        if d in seen_domain:
            semantic.append(f"chi maps the pair {d} twice")
        if im in seen_image:
            semantic.append(f"chi hits the pair {im} twice")
        seen_domain.add(d)
        seen_image.add(im)
        e1, e2 = by1[d[0]], by2[d[1]]
        f2, f1 = by2[im[0]], by1[im[1]]
        if f2.src != e1.src:
            semantic.append(
                f"chi pair {d} -> {im} moves the source: {e1.src!r} vs {f2.src!r}"
            )
        if f1.rng != e2.rng:
            semantic.append(
                f"chi pair {d} -> {im} moves the range: {e2.rng!r} vs {f1.rng!r}"
            )
    for d in sorted(domain_pairs - seen_domain):
        semantic.append(f"composable pair {d} has no chi image")
    for im in sorted(image_pairs - seen_image):
        semantic.append(f"composable pair {im} is not in the chi range")
    if not structural and not semantic:
        m1, m2 = vertex_matrix(g1), vertex_matrix(g2)
        if m1 @ m2 != m2 @ m1:
            semantic.append("vertex matrices do not commute")  # unreachable if chi ok
    return ValidationReport(tuple(structural), tuple(semantic))


def chi_flip(m: int, n: int) -> tuple:
    """Pairing (e_i, f_j) -> (f_j, e_i) on a single vertex with m + n loops."""
    if m < 1 or n < 1:
        raise PreconditionError("need at least one edge in each layer")
    return tuple(
        ((f"e{i}", f"f{j}"), (f"f{j}", f"e{i}")) for i in range(m) for j in range(n)
    )


def single_vertex_two_graph(m: int, n: int, chi: Optional[tuple] = None) -> TwoGraphSpec:
    """m loops e0..e_{m-1} and n loops f0..f_{n-1} on one vertex; flip chi
    by default."""
    if chi is None:
        chi = chi_flip(m, n)
    v = "v"
    return TwoGraphSpec(
        (v,),
        tuple((f"e{i}", v, v) for i in range(m)),
        tuple((f"f{j}", v, v) for j in range(n)),
        chi,
    )


def two_graph_from_permutations(vertices, perm1, perm2) -> TwoGraphSpec:
    """Canonical two-layer spec for two commuting vertex permutations.

    Layer i has one edge v -> perm_i(v); the canonical chi pairs the only
    length-two path of each mixed bidegree from a vertex, which exists
    exactly when the permutations commute.
    """
    vertices = tuple(str(v) for v in vertices)
    p1 = {str(k): str(v) for k, v in dict(perm1).items()}
    p2 = {str(k): str(v) for k, v in dict(perm2).items()}
    for p in (p1, p2):
        if set(p) != set(vertices) or set(p.values()) != set(vertices):
            raise PreconditionError("permutation does not match the vertex set")
    for v in vertices:
        if p2[p1[v]] != p1[p2[v]]:
            raise PreconditionError(f"permutations do not commute at vertex {v!r}")
    edges1 = tuple((f"a_{v}", v, p1[v]) for v in vertices)
    edges2 = tuple((f"b_{v}", v, p2[v]) for v in vertices)
    chi = tuple(
        ((f"a_{v}", f"b_{p1[v]}"), (f"b_{v}", f"a_{p2[v]}")) for v in vertices
    )
    return TwoGraphSpec(vertices, edges1, edges2, chi)


# ---------------------------------------------------------------------------
# abstract K-data


@dataclass(frozen=True)
class AbstractKData:
    """K-groups of the coefficients plus the induced class of each bimodule
    on each degree, supplied directly instead of derived from a graph."""

    k0: FgAbGroup
    k1: FgAbGroup
    action1_k0: GroupHom
    action1_k1: GroupHom
    action2_k0: GroupHom
    action2_k1: GroupHom

    def validate(self) -> ValidationReport:
        semantic = []
        for name, action, group in (
            ("action1_k0", self.action1_k0, self.k0),
            ("action1_k1", self.action1_k1, self.k1),
            ("action2_k0", self.action2_k0, self.k0),
            ("action2_k1", self.action2_k1, self.k1),
        ):
            if action.dom != group or action.cod != group:
                semantic.append(f"{name} is not an endomorphism of {group}")
            elif not hom_well_defined(action):
                semantic.append(f"{name} is not well defined on torsion")
        if not semantic:
            for degree, a, b in (
                ("K0", self.action1_k0, self.action2_k0),
                ("K1", self.action1_k1, self.action2_k1),
            ):
                if not hom_equal(a.compose(b), b.compose(a)):
                    semantic.append(f"actions do not commute on {degree}")
        return ValidationReport((), tuple(semantic))

    def swapped(self) -> "AbstractKData":
        return AbstractKData(
            self.k0, self.k1, self.action2_k0, self.action2_k1,
            self.action1_k0, self.action1_k1,
        )


# ---------------------------------------------------------------------------
# non-permutation commutation unitaries


@dataclass(frozen=True)
class UnitaryChi:
    """A commutation unitary on a single vertex with m + n loops.

    Column index i*n + j is the mixed word e_i (x) f_j; row index k*m + l is
    f_k (x) e_l. Accepted by the Fock relation checks only; no K-theory route
    is defined for a non-permutation chi.
    """

    m: int
    n: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)

    def validate(self, tol: float = 1e-12) -> ValidationReport:
        structural = []
        semantic = []
        size = self.m * self.n
        if self.matrix.shape != (size, size):
            structural.append(
                f"matrix shape {self.matrix.shape} does not match m*n = {size}"
            )
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite fails below
                defect = np.max(
                    np.abs(self.matrix.conj().T @ self.matrix - np.eye(size))
                )
            if not (defect <= tol):
                semantic.append(f"matrix is not unitary (defect {defect:.3e})")
        return ValidationReport(tuple(structural), tuple(semantic))

    def coefficient(self, k: int, l: int, i: int, j: int) -> complex:
        """<f_k (x) e_l, chi(e_i (x) f_j)>."""
        return complex(self.matrix[k * self.m + l, i * self.n + j])


def rotation_unitary_chi(alpha: float, beta: float) -> UnitaryChi:
    """The two-angle family on (m, n) = (2, 2): block rotations by alpha on
    the first two coordinates and beta on the last two. Both angles zero
    gives the identity, the same-index pairing."""
    c1, s1 = np.cos(alpha), np.sin(alpha)
    c2, s2 = np.cos(beta), np.sin(beta)
    mat = np.array(
        [
            [c1, -s1, 0, 0],
            [s1, c1, 0, 0],
            [0, 0, c2, -s2],
            [0, 0, s2, c2],
        ],
        dtype=complex,
    )
    return UnitaryChi(2, 2, mat)
