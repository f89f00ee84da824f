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
    InternalError,
    PreconditionError,
    Presentation,
    SnfResult,
    cokernel,
    factor,
    hom_cut,
    hom_kernel_lattice,
    hom_well_defined,
    kernel_basis,
    presented_cut,
    solve,
)
from cpk.exactseq import (
    DETERMINED,
    UNDERDETERMINED,
    ExactSequence,
    GroupOutcome,
    ResourceLimitError,
    ext_trivial,
    solve_six_term,
)
from cpk.fock import DEFAULT_TOL, DefectReport
from cpk.ktheory import (
    _COUPLING_CAP,
    IteratedResult,
    KPair,
    _hom_elements,
    _reconcile_pairs,
    _union_outcomes,
    one_minus,
)
from cpk.model import AbstractKData, FiniteGraph, TwoGraphSpec, UnitaryChi, vertex_matrix

# ---------------------------------------------------------------------------
# lattices and induced maps


def identity_hom(group: FgAbGroup) -> GroupHom:
    return GroupHom(group, group, IntMatrix.identity(group.n_generators))


def gen_lift(pres: Presentation, j: int) -> tuple:
    """Ambient representative of the j-th canonical generator."""
    return pres.gen_lift_matrix().column(j)


def first_outside(gens: IntMatrix, vectors: IntMatrix):
    """Index of the first column of vectors outside the lattice spanned by
    the columns of gens, or None."""
    for j, x in enumerate(solve(gens, vectors)):
        if x is None:
            return j
    return None


def lattice_basis(gens: IntMatrix) -> IntMatrix:
    """A basis (independent columns) of the lattice spanned by the columns."""
    res = factor(gens)
    uinv = res.Uinv
    cols = [[uinv[i, j] * res.diagonal[j] for i in range(gens.rows)] for j in range(res.rank)]
    return IntMatrix.from_columns(cols, rows=gens.rows)


def subquotient(numerator: IntMatrix, denominator: IntMatrix) -> Presentation:
    """The presentation of N/D from generating columns of N and of D, D
    inside N: a basis of N from lattice_basis, D solved in it."""
    basis = lattice_basis(numerator)
    xs = solve(basis, denominator)
    if None in xs:
        raise PreconditionError("denominator is not inside the numerator lattice")
    return Presentation(basis, IntMatrix.from_columns(xs, rows=basis.cols))


def solve_columns(a: IntMatrix, b: IntMatrix):
    """Solve a @ X = b over the integers; None when no solution exists."""
    xs = solve(a, b)
    if None in xs:
        return None
    return IntMatrix.from_columns(xs, rows=a.cols)


def in_relation_lattice(group: FgAbGroup, columns) -> bool:
    """Do all the columns lie in the relation lattice of the group? Tested
    by solving them against group.relations()."""
    columns = [c for c in columns if any(c)]
    if not columns:
        return True
    rel = group.relations()
    if rel.cols == 0:
        return False
    block = IntMatrix.from_columns(columns, rows=rel.rows)
    return first_outside(rel, block) is None


def lattice_contains(gens: IntMatrix, vector) -> bool:
    """Is the vector in the subgroup of Z^rows generated by the columns?"""
    return first_outside(gens, IntMatrix.column_vector(vector)) is None


def lattices_equal(a: IntMatrix, b: IntMatrix):
    """Mutual containment of two column-generated lattices.

    Returns (equal, witness) where witness is a generator of one lattice that
    is missing from the other (None when equal).
    """
    for gens, vectors in ((a, b), (b, a)):
        j = first_outside(gens, vectors)
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
    _, pres = presented_cut(GroupHom(FgAbGroup.free(m.cols), FgAbGroup.free(m.rows), m))
    return pres.hom_to(pres, b)


def kernel_presentation_reference(f: GroupHom) -> Presentation:
    """ker(f) as a presented subquotient of Z^{dom gens}, by a route apart
    from the package's cut: kernel_basis, lattice_basis and solve."""
    if not hom_well_defined(f):
        raise PreconditionError("kernel of an ill-defined hom")
    return subquotient(hom_kernel_lattice(f), f.dom.relations())


# ---------------------------------------------------------------------------
# exact sequences


def all_exact(reports) -> bool:
    return all(r["exact"] for r in reports)


def substitute_solution(f0: GroupHom, f1: GroupHom, outcomes) -> ExactSequence:
    """The sequence A0 -f0-> B0 -> X0 -> A1 -f1-> B1 -> X1 -> A0 with the
    solved groups X0, X1 filled in, together with canonical maps.

    Only valid for Determined (or assume-split) outcomes; each substituted
    node is the split model coker(f) + ker(h) with the inclusion and
    projection written out in canonical generator coordinates, so the result
    can be fed to verify_exact.
    """
    nodes = []
    arrows = []
    for (f, h), res in zip(((f0, f1), (f1, f0)), outcomes):
        if res.status != DETERMINED:
            raise PreconditionError("cannot substitute an ambiguous node")
        sub_pres, _ = presented_cut(f)
        _, quot_pres = presented_cut(h)
        middle = Presentation.direct_sum(
            Presentation.cokernel_of(sub_pres.group.relations()),
            Presentation.cokernel_of(quot_pres.group.relations()),
        )
        big = middle.group
        assert big == res.certificate.sub.direct_sum(res.certificate.quotient)
        n_sub = sub_pres.group.n_generators
        n_quot = quot_pres.group.n_generators
        incl_cols = []
        for k in range(f.cod.n_generators):
            unit = [1 if i == k else 0 for i in range(f.cod.n_generators)]
            incl_cols.append(middle.reduce(list(sub_pres.reduce(unit)) + [0] * n_quot))
        incl = GroupHom(f.cod, big, IntMatrix.from_columns(incl_cols, rows=big.n_generators))
        lifts = quot_pres.gen_lift_matrix()
        proj_cols = []
        for t in range(big.n_generators):
            ambient = gen_lift(middle, t)
            proj_cols.append((lifts @ IntMatrix.column_vector(ambient[n_sub:])).column(0))
        proj = GroupHom(big, h.dom, IntMatrix.from_columns(proj_cols, rows=h.dom.n_generators))
        assert hom_well_defined(incl)
        assert hom_well_defined(proj)
        nodes += [f.dom, f.cod, big]
        arrows += [f, incl, proj]
    return ExactSequence(tuple(nodes), tuple(arrows))


# ---------------------------------------------------------------------------
# models and oracles


def coupling_block(top_left: IntMatrix, coupling, bottom_right: IntMatrix) -> IntMatrix:
    """[[top_left, coupling], [0, bottom_right]], with the coupling given as
    its tuple of columns."""
    rows = IntMatrix.block_diag(top_left, bottom_right).to_lists()
    for j, column in enumerate(coupling):
        for i, x in enumerate(column):
            rows[i][top_left.cols + j] = x
    return IntMatrix(rows)


def every_descended_action(sub_pres, quot_pres, a_sub, a_quot, assume_split):
    """(actions, reason): the stage-two actions on a stage-one group
    compatible with the actions on its pieces, one per coupling in
    Hom(quot, sub) (``_hom_elements``), with no classes taken; or
    ([], reason) when the action is not determined by the input. A
    reference for ``ktheory._descended_actions``, which keeps one action per
    conjugacy class.
    """
    sub, quot = sub_pres.group, quot_pres.group
    if quot.is_trivial or sub.is_trivial:
        pres, action = (sub_pres, a_sub) if quot.is_trivial else (quot_pres, a_quot)
        return [pres.hom_to(pres, action)], None
    act_sub = sub_pres.hom_to(sub_pres, a_sub).matrix
    act_quot = quot_pres.hom_to(quot_pres, a_quot).matrix
    g_pres = Presentation.direct_sum(
        Presentation.cokernel_of(sub.relations()), Presentation.cokernel_of(quot.relations())
    )
    if assume_split:
        couplings = [((0,) * sub.n_generators,) * quot.n_generators]
    elif not ext_trivial(quot, sub):
        return [], (
            "stage-one K-group is an extension with nontrivial class group; "
            "the induced action on it is not determined by the input"
        )
    elif quot.free_rank > 0 and sub.free_rank > 0:
        return [], (
            "infinitely many couplings between the free quotient piece and the "
            "infinite subgroup piece are compatible with the input"
        )
    else:
        _, couplings = _hom_elements(quot, sub)
    blocks = [coupling_block(act_sub, c, act_quot) for c in couplings]
    return [g_pres.hom_to(g_pres, b) for b in blocks], None


def per_pair_iterated_ktheory(data: AbstractKData, assume_split: bool, bound: int):
    """iterated_ktheory on abstract K-data in the per-pair formulation: every
    coupling gets its own action (every_descended_action, no conjugacy
    classes), and each single-stage K-pair is solved from the class maps
    themselves, cutting 1 - a with ``hom_cut`` inside the coupling loop, so
    both maps of every (a0, a1) pair are cut again. A reference for the
    package, which cuts each map once and solves one coupling per class.
    """

    def single_stage(a0: GroupHom, a1: GroupHom) -> KPair:
        return KPair(*solve_six_term(
            hom_cut(one_minus(a0)), hom_cut(one_minus(a1)), assume_split, bound
        ))

    data.validate().require()
    both = (data, data.swapped())
    stage1, other = (single_stage(d.action1_k0, d.action1_k1) for d in both)
    finals = []
    for d in both:
        (cok0, ker0), (cok1, ker1) = (
            presented_cut(one_minus(a)) for a in (d.action1_k0, d.action1_k1)
        )
        m0, m1 = d.action2_k0.matrix, d.action2_k1.matrix
        acts0, why0 = every_descended_action(cok0, ker1, m0, m1, assume_split)
        acts1, why1 = every_descended_action(cok1, ker0, m1, m0, assume_split)
        if why0 or why1:
            under = GroupOutcome(UNDERDETERMINED, (), None, False, why0 or why1)
            finals.append(KPair(under, under))
            continue
        if len(acts0) * len(acts1) > _COUPLING_CAP:
            raise ResourceLimitError(
                f"{len(acts0) * len(acts1)} coupling combinations exceed the cap "
                f"{_COUPLING_CAP}"
            )
        pairs = [single_stage(a0, a1) for a0 in acts0 for a1 in acts1]
        finals.append(KPair(
            _union_outcomes([p.k0 for p in pairs]), _union_outcomes([p.k1 for p in pairs])
        ))
    final = _reconcile_pairs(*finals)
    notes = []
    if finals[0].k0.status != final.k0.status or finals[0].k1.status != final.k1.status:
        notes.append("order comparison narrowed the candidate list")
    notes.append("both bimodule orders computed and reconciled")
    return IteratedResult(stage1, other, final, tuple(notes))


def pair_determined(pair: KPair) -> bool:
    return pair.k0.status == DETERMINED and pair.k1.status == DETERMINED


def pair_groups(pair: KPair) -> tuple:
    return (pair.k0.group, pair.k1.group)


def times_document(p1, p2):
    """Abstract K-data (Z, Z): bimodule i multiplies K0 by p_i, fixes K1."""
    z = {"rank": 1, "torsion": []}
    return {"kind": "abstract_kdata", "K0": z, "K1": z,
            "action1": {"K0": [[p1]], "K1": [[1]]},
            "action2": {"K0": [[p2]], "K1": [[1]]}}


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


def swapped_spec(spec: TwoGraphSpec) -> TwoGraphSpec:
    """The same data with the layer roles exchanged (chi inverted)."""
    return TwoGraphSpec(
        spec.vertices,
        spec.edges2,
        spec.edges1,
        tuple(((f2, f1), (e1, e2)) for (e1, e2), (f2, f1) in spec.chi),
    )


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


# ---------------------------------------------------------------------------
# Fock relation checks on whole operators


def norm_bound(block) -> float:
    """The bound of cpk.fock._block_bounds on one sparse matrix A, by whole
    matrix sums: min(sqrt(|A|_1 |A|_inf), |A|_F), or 0.0 when A has no
    nonzero entry. A stores each position at most once."""
    sub = abs(block)
    if not sub.count_nonzero():
        return 0.0
    one_inf = np.sqrt(sub.sum(axis=0).max()) * np.sqrt(sub.sum(axis=1).max())
    return float(min(one_inf, np.hypot.reduce(sub.data)))


def chained_residuals(chunk, rows: int, cols: int) -> sp.csr_matrix:
    """The residuals of a chunk stacked vertically by chaining scipy's +:
    layer j holds the j-th term of every residual, copied from its stack's
    rows (empty rows where a residual has fewer terms), and the layers are
    added in order. The reference for cpk.fock._stack_residuals."""
    total = None
    for j in range(max(map(len, chunk))):
        data, indices, indptr = [], [], [np.zeros(1, dtype=np.int64)]
        for terms in chunk:
            if j < len(terms):
                stack, first, coeff = terms[j]
                ptr = stack.indptr[first:first + rows + 1]
                data.append(np.multiply(stack.data[ptr[0]:ptr[-1]], coeff))
                indices.append(stack.indices[ptr[0]:ptr[-1]])
                indptr.append(indptr[-1][-1] + ptr[1:] - ptr[0])
            else:
                indptr.append(np.full(rows, indptr[-1][-1]))
        layer = sp.csr_matrix(
            (np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
            shape=(len(chunk) * rows, cols),
        )
        total = layer if total is None else total + layer
    return total


def _subblock_norm(mat, rows, cols) -> float:
    return norm_bound(mat.tocsr()[rows, :][:, cols])


def reference_fock_suite(rep, tol=DEFAULT_TOL):
    """fock_suite's reports, each check forming full dim x dim products and
    only then cutting its block out with index arrays: degrees <= N-1 for
    Toeplitz and covariance, <= N-2 for chi commutation and the adjoint,
    <= N-3 for reordering."""
    dim = rep.dimension
    everything = np.arange(dim)
    below = {k: np.where(rep.bidegrees.sum(axis=1) <= rep.degree - k)[0]
             for k in (1, 2, 3)}
    reports = []

    def report(name, defect):
        reports.append(DefectReport(name, defect, tol, defect <= tol))

    idx = below[1]
    for layer, edges in ((1, rep.edges1), (2, rep.edges2)):
        if not edges:
            continue
        inner = 0.0
        for e in edges:
            te = rep.creators[e.id]
            for f in edges:
                d = te.getH() @ rep.creators[f.id]
                if e.id == f.id:
                    d = d - rep.projections[e.rng]
                inner = max(inner, _subblock_norm(d, idx, idx))
        compat = 0.0
        for e in edges:
            te = rep.creators[e.id]
            d = rep.projections[e.src] @ te - te
            compat = max(compat, _subblock_norm(d, everything, idx))
        report(f"inner product, layer {layer}", inner)
        report(f"source compatibility, layer {layer}", compat)

    for layer, edges in ((1, rep.edges1), (2, rep.edges2)):
        if not edges:
            continue
        total = sp.csr_matrix((dim, dim), dtype=complex)
        for e in edges:
            te = rep.creators[e.id]
            total = total + te @ te.getH()
        vacuum = (rep.bidegrees[:, layer - 1] == 0).astype(float)
        expected = sp.eye(dim, dtype=complex, format="csr") - sp.diags(
            vacuum, format="csr", dtype=complex
        )
        report(f"covariance, layer {layer}", _subblock_norm(total - expected, idx, idx))

    if rep.edges2:
        idx = below[2]
        worst = 0.0
        for e in rep.edges1:
            for f in rep.edges2:
                d = rep.creators[e.id] @ rep.creators[f.id]
                for f2, e2, c in rep.crossing_fwd.get((e.id, f.id), ()):
                    d = d - c * (rep.creators[f2] @ rep.creators[e2])
                worst = max(worst, _subblock_norm(d, everything, idx))
        report("chi commutation", worst)

        idx = below[3]
        gens = [e.id for e in rep.edges1] + [f.id for f in rep.edges2]
        worst = 0.0
        for g1 in gens:
            for g2 in gens:
                for g3 in gens:
                    if {rep.layer_of[g] for g in (g1, g2, g3)} != {1, 2}:
                        continue
                    d = rep.creators[g1] @ rep.creators[g2] @ rep.creators[g3]
                    for (h1, h2, h3), c in rep.normal_order((g1, g2, g3)).items():
                        d = d - c * (rep.creators[h1] @ rep.creators[h2]
                                     @ rep.creators[h3])
                    worst = max(worst, _subblock_norm(d, everything, idx))
        report("normal ordering associativity", worst)

    idx = below[2]
    worst = 0.0
    adjoints = rep.annihilator(dim)
    for edge_id, te in rep.creators.items():
        d = adjoints[edge_id] - te.getH()
        worst = max(worst, _subblock_norm(d, idx, idx))
    report("left action adjoint", worst)
    return reports


# ---------------------------------------------------------------------------
# the Smith elimination as it stood before its pivot scan stopped at the
# first unit and its column steps touched only the pivot row: an oracle
# that must return exactly the same U, S, V, Uinv, Vinv and diagonal


def _eye_lists(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _frozen(rows: list, cols: int) -> IntMatrix:
    return IntMatrix._of_rows(tuple([tuple(row) for row in rows]), cols)


def reference_smith_normal_form(m: IntMatrix) -> SnfResult:
    """Compute U, S, V with U @ m @ V = S diagonal, d1 | d2 | ... >= 0.

    Pivoting always promotes a nonzero entry of minimal absolute value, which
    keeps intermediate entries small in practice. Every elementary operation
    on U or V is mirrored by its inverse on Uinv or Vinv. The result is
    certified on every call: U @ Uinv = I and V @ Vinv = I (so both
    transforms are unimodular), U @ m = S @ Vinv (which with V @ Vinv = I is
    the factorization identity), and the divisibility chain.

    >>> reference_smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    r, c = m.rows, m.cols
    a = m.to_lists()
    u = _eye_lists(r)
    uinv_t = _eye_lists(r)  # rows are the columns of Uinv
    v_t = _eye_lists(c)  # rows are the columns of V
    vinv = _eye_lists(c)

    def add_row(i, j, q):  # row_i += q * row_j; on Uinv col_j -= q * col_i
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        uinv_t[j] = [x - q * y for x, y in zip(uinv_t[j], uinv_t[i])]

    def add_col(j, k, q):  # col_j += q * col_k; on Vinv row_k -= q * row_j
        for row in a:
            row[j] += q * row[k]
        v_t[j] = [x + q * y for x, y in zip(v_t[j], v_t[k])]
        vinv[k] = [x - q * y for x, y in zip(vinv[k], vinv[j])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        uinv_t[i], uinv_t[j] = uinv_t[j], uinv_t[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        uinv_t[i] = [-x for x in uinv_t[i]]

    t = 0
    while t < min(r, c):
        best = None
        pi = pj = -1
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            if a[t][t] < 0:
                negate_row(t)
            restart = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)  # strictly smaller pivot
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot is alone in its row and column; force divisibility,
            # which a unit pivot has already
            d = a[t][t]
            if d == 1:
                break
            bad = -1
            for i in range(t + 1, r):
                if any(x % d != 0 for x in a[i][t + 1 :]):
                    bad = i
                    break
            if bad >= 0:
                add_row(t, bad, 1)
                continue
            break
        t += 1

    diag = tuple([a[i][i] for i in range(min(r, c))])
    for i, d in enumerate(diag):
        later = diag[i + 1] if i + 1 < len(diag) else 0
        if d < 0 or (later != 0 and (d == 0 or later % d != 0)):
            raise InternalError(f"SNF divisibility chain broken: {diag}")
    # S is built from the diagonal alone, so the identity below also
    # certifies that every off-diagonal entry was cleared
    s_rows = tuple([
        tuple([diag[i] if j == i else 0 for j in range(c)]) for i in range(r)
    ])
    s_vinv = tuple([
        tuple([diag[i] * x for x in vinv[i]]) if i < len(diag) else (0,) * c
        for i in range(r)
    ])
    result = SnfResult(
        U=_frozen(u, r),
        S=IntMatrix._of_rows(s_rows, c),
        V=_frozen(v_t, c).transpose(),
        Uinv=_frozen(uinv_t, r).transpose(),
        Vinv=_frozen(vinv, c),
        diagonal=diag,
    )
    if not result.U.is_inverse_of(result.Uinv):
        raise InternalError("SNF transform U is not unimodular: U @ Uinv != I")
    if not result.V.is_inverse_of(result.Vinv):
        raise InternalError("SNF transform V is not unimodular: V @ Vinv != I")
    if (result.U @ m)._data != s_vinv:
        raise InternalError("SNF factorization identity U @ M @ V == S failed")
    return result
