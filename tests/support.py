"""Helpers that only the tests use: oracles, builders and wrappers around
the package's exact core."""

from math import gcd

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from cpk.abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    PreconditionError,
    Presentation,
    cokernel,
    hom_cokernel_presentation,
    hom_kernel_presentation,
    hom_well_defined,
    kernel_basis,
)
from cpk.exactseq import DETERMINED, UNDERDETERMINED, ExactSequence, SolveOutcome
from cpk.ktheory import KPair
from cpk.model import AbstractKData, FiniteGraph, TwoGraphSpec, UnitaryChi, vertex_matrix

# ---------------------------------------------------------------------------
# lattices and induced maps


def solve_columns(a: IntMatrix, b: IntMatrix):
    """Solve a @ X = b over the integers; None when no solution exists."""
    xs = Lattice(a).solve(b)
    if None in xs:
        return None
    return IntMatrix.from_columns(xs, rows=a.cols)


def in_relation_lattice(group: FgAbGroup, columns) -> bool:
    """Do all the columns lie in the relation lattice of the group? Tested
    by SNF membership in Lattice(group.relations())."""
    columns = [c for c in columns if any(c)]
    if not columns:
        return True
    rel = group.relations()
    if rel.cols == 0:
        return False
    block = IntMatrix.from_columns(columns, rows=rel.rows)
    return Lattice(rel).first_outside(block) is None


def lattice_contains(gens: IntMatrix, vector) -> bool:
    """Is the vector in the subgroup of Z^rows generated by the columns?"""
    return Lattice(gens).first_outside(IntMatrix.column_vector(vector)) is None


def lattices_equal(a: IntMatrix, b: IntMatrix):
    """Mutual containment of two column-generated lattices.

    Returns (equal, witness) where witness is a generator of one lattice that
    is missing from the other (None when equal).
    """
    for gens, vectors in ((a, b), (b, a)):
        j = Lattice(gens).first_outside(vectors)
        if j is not None:
            return False, vectors.column(j)
    return True, None


def _require_commuting(b: IntMatrix, m: IntMatrix) -> None:
    if b.rows != b.cols or m.rows != m.cols or b.rows != m.rows:
        raise DimensionError("induced maps need square matrices of equal size")
    left = b @ m
    right = m @ b
    if left != right:
        for i in range(left.rows):
            for j in range(left.cols):
                if left[i, j] != right[i, j]:
                    raise PreconditionError(
                        f"matrices do not commute: (B@M)[{i},{j}] = {left[i, j]} "
                        f"but (M@B)[{i},{j}] = {right[i, j]}"
                    )


def induced_on_cokernel(b: IntMatrix, m: IntMatrix) -> GroupHom:
    """The endomorphism of Z^n/im(m) induced by b (requires b @ m = m @ b)."""
    _require_commuting(b, m)
    pres = Presentation.cokernel_of(m)
    return pres.hom_to(pres, b)


def induced_on_kernel(b: IntMatrix, m: IntMatrix) -> GroupHom:
    """The endomorphism of ker(m) (a free group) induced by b."""
    _require_commuting(b, m)
    pres = Presentation.kernel_of(m)
    return pres.hom_to(pres, b)


# ---------------------------------------------------------------------------
# exact sequences


def rotate(seq: ExactSequence, k: int) -> ExactSequence:
    """The same cyclic sequence read from node k on."""
    n = len(seq.nodes)
    return ExactSequence(
        tuple(seq.nodes[(i + k) % n] for i in range(n)),
        tuple(seq.arrows[(i + k) % n] for i in range(n)),
    )


def substitute_solution(seq: ExactSequence, outcome: SolveOutcome) -> ExactSequence:
    """Fill the unknown nodes with the resolved groups and canonical maps.

    Only valid for Determined (or assume-split) outcomes; the substituted
    node is the split model coker(f) + ker(h) with the inclusion and
    projection written out in canonical generator coordinates, so the result
    can be fed to verify_exact.
    """
    if outcome.status == UNDERDETERMINED:
        raise PreconditionError("nothing to substitute on an underdetermined outcome")
    nodes = list(seq.nodes)
    arrows = list(seq.arrows)
    n = len(seq)
    for u, res in outcome.resolutions.items():
        if res.status != DETERMINED:
            raise PreconditionError("cannot substitute an ambiguous node")
        f = seq.arrows[(u - 2) % n]
        h = seq.arrows[(u + 1) % n]
        sub_pres = hom_cokernel_presentation(f)
        quot_pres = hom_kernel_presentation(h)
        middle = Presentation.direct_sum(
            Presentation.cokernel_of(sub_pres.group.relations()),
            Presentation.cokernel_of(quot_pres.group.relations()),
        )
        big = middle.group
        assert big == res.certificate.sub.direct_sum(res.certificate.quotient)
        nodes[u] = big
        n_sub = sub_pres.group.n_generators
        n_quot = quot_pres.group.n_generators
        prev = seq.nodes[(u - 1) % n]
        incl_cols = []
        for k in range(prev.n_generators):
            unit = [1 if i == k else 0 for i in range(prev.n_generators)]
            incl_cols.append(middle.reduce(list(sub_pres.reduce(unit)) + [0] * n_quot))
        arrows[(u - 1) % n] = GroupHom(
            prev, big, IntMatrix.from_columns(incl_cols, rows=big.n_generators)
        )
        nxt = seq.nodes[(u + 1) % n]
        lifts = quot_pres.gen_lift_matrix()
        proj_cols = []
        for t in range(big.n_generators):
            ambient = middle.gen_lift(t)
            proj_cols.append(lifts.apply(ambient[n_sub:]))
        arrows[u] = GroupHom(
            big, nxt, IntMatrix.from_columns(proj_cols, rows=nxt.n_generators)
        )
        assert hom_well_defined(arrows[(u - 1) % n])
        assert hom_well_defined(arrows[u])
    return ExactSequence(tuple(nodes), tuple(arrows))


# ---------------------------------------------------------------------------
# models and oracles


def permutation_bimodule(vertices, perm) -> FiniteGraph:
    """The graph of a coefficient-permuting automorphism: one edge per
    vertex, running v -> perm[v], so the vertex matrix is the permutation
    matrix."""
    vertices = tuple(str(v) for v in vertices)
    mapping = {str(k): str(v) for k, v in dict(perm).items()}
    if set(mapping) != set(vertices) or set(mapping.values()) != set(vertices):
        raise PreconditionError("perm is not a bijection of the vertex set")
    edges = [(f"e_{v}", v, mapping[v]) for v in vertices]
    return FiniteGraph(vertices, tuple(edges))


def chi_same_index(m: int, n: int) -> tuple:
    """Pairing (e_i, f_j) -> (f_i, e_j); needs m = n to be a bijection."""
    if m != n:
        raise PreconditionError("same-index pairing needs equal layer sizes")
    return tuple(
        ((f"e{i}", f"f{j}"), (f"f{i}", f"e{j}")) for i in range(m) for j in range(n)
    )


def chi_from_permutation(pairing) -> tuple:
    """Normalize an explicit pair bijection into the chi field."""
    items = [(tuple(map(str, d)), tuple(map(str, i))) for d, i in
             (pairing.items() if isinstance(pairing, dict) else pairing)]
    domain = [d for d, _ in items]
    image = [i for _, i in items]
    if len(set(domain)) != len(domain) or len(set(image)) != len(image):
        raise PreconditionError("pairing is not a bijection")
    if len(domain) != len(image):
        raise PreconditionError("pairing sizes do not match")
    return tuple(items)


def permutation_unitary_chi(spec: TwoGraphSpec) -> UnitaryChi:
    """The 0/1 unitary of a single-vertex permutation chi."""
    if len(spec.vertices) != 1:
        raise PreconditionError("only single-vertex specs have a global unitary")
    m, n = len(spec.edges1), len(spec.edges2)
    ids1 = [e.id for e in spec.edges1]
    ids2 = [e.id for e in spec.edges2]
    i1 = {eid: i for i, eid in enumerate(ids1)}
    i2 = {eid: i for i, eid in enumerate(ids2)}
    mat = np.zeros((m * n, m * n), dtype=complex)
    for (e1, e2), (f2, f1) in spec.chi:
        mat[i2[f2] * m + i1[f1], i1[e1] * n + i2[e2]] = 1.0
    return UnitaryChi(m, n, mat)


def two_graph_from_matrices(m1, m2, order=list) -> TwoGraphSpec:
    """A two-layer spec over vertices v0..v{n-1} with commuting vertex
    matrices m1 and m2: one edge per unit of each entry, and chi pairing the
    (1,2)-paths between each pair of vertices with the (2,1)-paths in the
    sequence `order` puts them in."""
    n = len(m1)
    vertices = tuple(f"v{i}" for i in range(n))

    def edges(m, prefix):
        return tuple(
            (f"{prefix}{i}_{j}_{k}", vertices[i], vertices[j])
            for i in range(n) for j in range(n) for k in range(m[i][j])
        )

    edges1, edges2 = edges(m1, "e"), edges(m2, "f")
    chi = []
    for u in vertices:
        for w in vertices:
            forward = [(a[0], b[0]) for a in edges1 for b in edges2
                       if (a[1], a[2], b[2]) == (u, b[1], w)]
            backward = [(b[0], a[0]) for b in edges2 for a in edges1
                        if (b[1], b[2], a[2]) == (u, a[1], w)]
            chi += zip(forward, order(backward))
    return TwoGraphSpec(vertices, edges1, edges2, tuple(chi))


@st.composite
def two_graph_specs(draw) -> TwoGraphSpec:
    """General multi-vertex 2-graphs: 2-4 vertices, M1 with entries in
    {0, 1, 2} and no zero row or column, M2 one of M1^2, M1 + I and M1 with
    entries at most 6, and chi a random endpoint-preserving bijection."""
    n = draw(st.integers(min_value=2, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    m1 = np.array(draw(
        st.lists(row, min_size=n, max_size=n).filter(
            lambda m: all(any(r) for r in m) and all(any(c) for c in zip(*m))
        )
    ))
    options = [m for m in (m1 @ m1, m1 + np.eye(n, dtype=int), m1) if m.max() <= 6]
    m2 = draw(st.sampled_from(options))
    return two_graph_from_matrices(
        m1.tolist(), m2.tolist(), lambda paths: draw(st.permutations(paths))
    )


def as_abstract(spec: TwoGraphSpec) -> AbstractKData:
    """A two-layer graph spec as abstract K-data: coefficient K-theory
    (Z^V, 0), with [E_i] acting by the transposed vertex matrix M_i^T."""
    k0, k1 = FgAbGroup.free(len(spec.vertices)), FgAbGroup.trivial()
    zero = GroupHom.zero(k1, k1)
    m1t = vertex_matrix(spec.graph1()).transpose()
    m2t = vertex_matrix(spec.graph2()).transpose()
    return AbstractKData(k0, k1, GroupHom(k0, k0, m1t), zero, GroupHom(k0, k0, m2t), zero)


def evans_ktheory(m1: IntMatrix, m2: IntMatrix) -> KPair:
    """Evans' homology formula for a row-finite 2-graph without sources:
    K0 = coker d1 + ker d2 and K1 = ker d1 / im d2, where
    d1 = (1 - M1^T, 1 - M2^T) and d2 = (-(1 - M2^T); 1 - M1^T)."""
    eye = IntMatrix.identity(m1.rows)
    l1, l2 = eye - m1.transpose(), eye - m2.transpose()
    d1 = IntMatrix.hstack(l1, l2)
    d2 = IntMatrix.vstack(-l2, l1)
    k0 = cokernel(d1).direct_sum(FgAbGroup.free(kernel_basis(d2).cols))
    k1 = cokernel(solve_columns(kernel_basis(d1), d2))  # d2 in kernel coordinates
    return KPair.of_groups(k0, k1)


def kunneth_flip_oracle(m: int, n: int) -> KPair:
    """Independent tensor/Tor formula for single-vertex flip specs.

    K0 = Z_{m-1} (x) Z_{n-1} and K1 = Tor(Z_{m-1}, Z_{n-1}), both cyclic of
    order gcd(m-1, n-1).
    """
    if m < 2 or n < 2:
        raise PreconditionError("oracle needs m, n >= 2")
    g = gcd(m - 1, n - 1)
    return KPair.of_groups(
        FgAbGroup.from_divisors(0, [g]), FgAbGroup.from_divisors(0, [g])
    )


# ---------------------------------------------------------------------------
# Fock operators rebuilt word by word


def prepend_crossing(rep, f_id, letters):
    """Normalize f (x) letters, crossing f past leading layer-1 letters
    with the inverse of chi, letter by letter. Returns {letter tuple:
    coefficient}."""
    if not letters or rep.layer_of[letters[0]] == 2:
        return {(f_id,) + tuple(letters): 1.0 + 0j}
    head, rest = letters[0], letters[1:]
    out = {}
    for e2, f2, c in rep.crossing_inv.get((f_id, head), ()):
        for tail, c2 in prepend_crossing(rep, f2, rest).items():
            key = (e2,) + tail
            out[key] = out.get(key, 0j) + c * c2
    return out


def pull_front(rep, letters):
    """Move the first layer-2 letter to the front with forward chi, letter
    by letter. Returns {(front letter, remaining letters): coefficient}."""
    if rep.layer_of[letters[0]] == 2:
        return {(letters[0], tuple(letters[1:])): 1.0 + 0j}
    head, rest = letters[0], letters[1:]
    out = {}
    for (mid, tail), c in pull_front(rep, rest).items():
        for f2, e2, c2 in rep.crossing_fwd.get((head, mid), ()):
            key = (f2, (e2,) + tail)
            out[key] = out.get(key, 0j) + c * c2
    return out


def basis_words(rep):
    """The basis as (letters, vertex) pairs, rebuilt from the (first letter,
    suffix index) table."""
    words = []
    for x, t, v in zip(rep.first, rep.suffix, rep.vertex):
        words.append(((x,) + words[t][0] if x is not None else (), v))
    return words


def reference_basis(rep):
    """Every normal-form word as (letters, vertex): layer-1 paths grown by
    appending letters, each then extended by layer-2 paths, sorted by
    (length, layer-2 count, letters, vertex position)."""

    def walk(paths, edges):
        levels = [paths]
        while levels[-1]:
            levels.append([
                (letters + (e.id,), start, e.rng)
                for letters, start, end in levels[-1]
                if len(letters) < rep.degree
                for e in edges if e.src == end
            ])
        return levels[:-1]

    layer1 = [p for level in walk([((), v, v) for v in rep.vertices], rep.edges1)
              for p in level]
    words = [(b, letters, start)
             for b, level in enumerate(walk(layer1, rep.edges2))
             for letters, start, _ in level]
    vpos = {v: i for i, v in enumerate(rep.vertices)}
    words.sort(key=lambda w: (len(w[1]), w[0], w[1], vpos[w[2]]))
    return [(letters, start) for _, letters, start in words]


def reference_operators(rep):
    """Every creator and annihilator of a FockRep, rebuilt word by word from
    the recursive crossings above. Returns (creators, annihilators), each a
    dict from edge id to a CSR matrix."""
    edge = {e.id: e for e in rep.edges1 + rep.edges2}
    words = basis_words(rep)
    index = {w: i for i, w in enumerate(words)}

    def operator(entries):
        rows, cols, vals = [], [], []
        for target, col, coeff in entries:
            rows.append(index[target])
            cols.append(col)
            vals.append(coeff)
        shape = (rep.dimension, rep.dimension)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=complex).tocsr()

    creators, annihilators = {}, {}
    for x, layer in rep.layer_of.items():
        shorter = [(j, letters) for j, (letters, vertex) in enumerate(words)
                   if len(letters) < rep.degree and edge[x].rng == vertex]
        if layer == 1:
            creators[x] = operator(
                (((x,) + letters, edge[x].src), j, 1.0) for j, letters in shorter
            )
        else:
            creators[x] = operator(
                ((out, edge[out[0]].src), j, coeff)
                for j, letters in shorter
                for out, coeff in prepend_crossing(rep, x, letters).items()
                if coeff != 0
            )
        entries = []
        for j, (letters, _) in enumerate(words):
            if layer == 1:
                pulled = {(letters[0], letters[1:]): 1.0} if letters else {}
            else:
                pulled = pull_front(rep, letters) if rep.bidegrees[j, 1] else {}
            for (front, rest), coeff in pulled.items():
                if front == x and coeff != 0:
                    vertex = edge[rest[0]].src if rest else edge[front].rng
                    entries.append(((rest, vertex), j, coeff))
        annihilators[x] = operator(entries)
    return creators, annihilators
