"""Helpers that only the tests use: oracles, builders and wrappers around
the package's exact core."""

from math import gcd

import numpy as np
import scipy.sparse as sp

from cpk.abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    PreconditionError,
    Presentation,
    hom_cokernel_presentation,
    hom_kernel_presentation,
    hom_well_defined,
)
from cpk.exactseq import DETERMINED, UNDERDETERMINED, ExactSequence, SolveOutcome
from cpk.fock import Word
from cpk.ktheory import KPair
from cpk.model import FiniteGraph, TwoGraphSpec, UnitaryChi

# ---------------------------------------------------------------------------
# lattices and induced maps


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
    for res in outcome.resolutions:
        if res.status != DETERMINED:
            raise PreconditionError("cannot substitute an ambiguous node")
        u = res.position
        f = seq.arrows[(u - 2) % n]
        h = seq.arrows[(u + 1) % n]
        sub_pres = hom_cokernel_presentation(f)
        quot_pres = hom_kernel_presentation(h)
        middle = Presentation.direct_sum(
            Presentation.of_group(sub_pres.group), Presentation.of_group(quot_pres.group)
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


def reference_operators(rep):
    """Every creator and annihilator of a FockRep, rebuilt word by word from
    the recursive crossings above. Returns (creators, annihilators), each a
    dict from edge id to a CSR matrix."""
    edge = {e.id: e for e in rep.edges1 + rep.edges2}

    def operator(entries):
        rows, cols, vals = [], [], []
        for target, col, coeff in entries:
            rows.append(rep.index[target])
            cols.append(col)
            vals.append(coeff)
        shape = (rep.dimension, rep.dimension)
        return sp.coo_matrix((vals, (rows, cols)), shape=shape, dtype=complex).tocsr()

    creators, annihilators = {}, {}
    for x, layer in rep.layer_of.items():
        shorter = [(j, w) for j, w in enumerate(rep.words)
                   if len(w.letters) < rep.degree and edge[x].rng == w.vertex]
        if layer == 1:
            creators[x] = operator(
                (Word((x,) + w.letters, edge[x].src), j, 1.0) for j, w in shorter
            )
        else:
            creators[x] = operator(
                (Word(letters, edge[letters[0]].src), j, coeff)
                for j, w in shorter
                for letters, coeff in prepend_crossing(rep, x, w.letters).items()
                if coeff != 0
            )
        entries = []
        for j, w in enumerate(rep.words):
            if layer == 1:
                pulled = {(w.letters[0], w.letters[1:]): 1.0} if w.letters else {}
            else:
                pulled = pull_front(rep, w.letters) if rep.bidegree(w)[1] else {}
            for (front, rest), coeff in pulled.items():
                if front == x and coeff != 0:
                    vertex = edge[rest[0]].src if rest else edge[front].rng
                    entries.append((Word(rest, vertex), j, coeff))
        annihilators[x] = operator(entries)
    return creators, annihilators
