"""Truncated Fock representations and numerical relation checks.

Words are composable edge paths in normal form, every layer-1 letter before
every layer-2 letter; a layer-2 creation crosses leading layer-1 letters via
the inverse of chi, and a layer-2 annihilation pulls the first layer-2
letter to the front via chi. A word is stored only as its first letter and
the index of its suffix, the word one letter shorter; the basis is sorted
shortest first, so each word's crossings are one chi step from those of its
suffix, computed once, and memory follows the basis size, not its letters.
Relations are checked on sub-blocks strictly below the truncation boundary,
where they hold exactly up to rounding: Toeplitz and covariance on degrees
<= N-1, chi commutation and the adjoint on degrees <= N-2, reordering on
degrees <= N-3. Since the basis is sorted shortest first, each block is a
leading prefix of the basis, so a check multiplies only the leading columns
of its rightmost factor. Where a block is empty (N <= 2 for reordering,
N <= 1 for chi commutation and the adjoint, N = 0 for all) the relation
is reported as defect 0.0, a vacuous pass.

Each check batches its products over generators instead of forming one
small sparse matrix per relation. With L creators stacked vertically, L @ X
holds T_a X for every stacked generator a as a D-row block, so one scipy
call gives a whole family of products: T_e T_f for every layer-1 e, and
T_f T_e for every layer-2 f (chi commutation), T_a T_b T_c for all a
(reordering, one call per pair b, c). The Toeplitz inner products take
the conjugate transpose of the layer's creators side by side, covariance
one product per layer, and the adjoint compares each creator's leading
block with a row range of the annihilators side by side, conjugate
transposed. A residual is a signed sum of row ranges of such stacks,
read straight from their CSR arrays; residuals are stacked vertically with
duplicate positions summed, and _block_bounds bounds every block of a
stack in one numpy pass. Memory: the residuals are gathered in chunks of
at most as many entries as all the creators hold (a larger residual is a
chunk of its own), and the triple products a chunk reads are made for it
and dropped after it, so a check holds L, the chunk and the few stacks it
reads, never all k^3 products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .abelian import PreconditionError
from .exactseq import ResourceLimitError
from .model import (
    FiniteGraph,
    TwoGraphSpec,
    UnitaryChi,
    validate_chi,
    validate_graph,
    vertex_matrix,
)

DEFAULT_TOL = 1e-10
BASIS_CAP = 200_000


@dataclass(frozen=True)
class DefectReport:
    """defect is a certified upper bound on the operator norm of the
    relation's residual, so passed proves the relation within tolerance."""

    relation: str
    defect: float
    tolerance: float
    passed: bool

    def describe(self) -> dict:
        return {
            "relation": self.relation,
            "defect": self.defect,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _block_bounds(stack: sp.csr_matrix, rows: int) -> np.ndarray:
    """For each block of `rows` consecutive rows of a CSR stack, a certified
    upper bound on its operator norm: min(sqrt(|A|_1 |A|_inf), |A|_F), both
    of which dominate the spectral norm. A bound equals the norm when its
    block has at most one nonzero per row and column, and it is exactly 0.0
    when the block has no nonzero entry. A stack of no rows has no blocks.

    Precondition: the stack stores each position at most once, as sparse
    products, sums and slices leave it; a position stored twice would have
    its parts' magnitudes added, not the parts themselves.

    One numpy pass over the stored entries: row sums by add.reduceat over
    the row pointers, column sums by bincount keyed by (block, column),
    Frobenius norms by hypot.reduceat. The largest array has one slot per
    (block, column), no more than the stack has rows when blocks are no
    wider than tall, as every residual of the relation checks is; nothing
    is sized by rows times columns."""
    bounds = np.zeros(stack.shape[0] // rows if rows else 0)
    indptr, cols = stack.indptr, stack.shape[1]
    mags = np.abs(stack.data[:indptr[-1]])
    lengths = np.diff(indptr)
    filled = np.flatnonzero(lengths)
    if not len(filled):
        return bounds
    # every row between two filled rows is empty, so the sums stop in time
    row_sums = np.add.reduceat(mags, indptr[filled])
    row_block = filled // rows
    firsts = np.flatnonzero(np.diff(row_block, prepend=-1))
    blocks = row_block[firsts]
    key = np.repeat(row_block, lengths[filled]) * cols + stack.indices[:indptr[-1]]
    col_sums = np.bincount(key, weights=mags, minlength=len(bounds) * cols)
    one_inf = (np.sqrt(col_sums.reshape(len(bounds), cols).max(axis=1)[blocks])
               * np.sqrt(np.maximum.reduceat(row_sums, firsts)))
    # hypot squares nothing, so tiny entries cannot underflow to a zero bound
    frobenius = np.hypot.reduceat(mags, indptr[blocks * rows])
    bounds[blocks] = np.minimum(one_inf, frobenius)
    return bounds


class FockRep:
    """Creation operators for both layers on the degree-capped path space.

    Basis word k is first[k] (an edge id) prepended to word suffix[k], or the
    empty path at vertex[k] when first[k] is None; vertex[k] is its source
    vertex and bidegrees[k] its (layer-1, layer-2) letter counts. Words are
    sorted by (length, layer-2 count, letters, vertex position).

    creators maps edge id to a sparse matrix; vertex projections are diagonal
    over each word's source vertex. Layer-2 matrices embed the chi crossing,
    so their entries are products of chi unitary coefficients. Each word's
    crossings are computed once, by one chi step from those of its suffix,
    so the build costs one pass over the basis.
    """

    def __init__(self, vertices, edges1, edges2, degree, crossing):
        self.vertices = tuple(vertices)
        self.edges1 = tuple(edges1)
        self.edges2 = tuple(edges2)
        self.degree = degree
        # chi both ways, keyed by letter pairs:
        #   fwd[(e, f)] -> ((f', e', coeff), ...)    chi itself
        #   inv[(f, e)] -> ((e', f', coeff), ...)    its inverse
        self.crossing_fwd = crossing
        self.crossing_inv = _inverse_crossing(crossing)
        self.layer_of = {e.id: 1 for e in self.edges1}
        self.layer_of.update({f.id: 2 for f in self.edges2})
        by_rng = {v: [x for x in self.edges1 + self.edges2 if x.rng == v]
                  for v in self.vertices}
        prepend = self._enumerate_words(by_rng)
        self.totals = self.bidegrees.sum(axis=1)
        crossed, self._pulled = self._cross_basis(prepend, by_rng)
        self.creators = {
            x: _matrix(((k, j, c) for j, terms in crossed[x].items()
                        for k, c in terms.items() if c != 0), self.dimension)
            for x in self.layer_of
        }
        self.projections = {
            v: sp.diags(
                [1.0 if u == v else 0.0 for u in self.vertex],
                format="csr", dtype=complex,
            )
            for v in self.vertices
        }

    # -- basis ------------------------------------------------------------

    def _count_words(self) -> int:
        """The basis size: the entry sum of M1^a M2^b over a + b <= N, from
        row vectors ones @ M1^a @ M2^b. Raises as soon as the running total
        passes BASIS_CAP, so a huge degree is refused in bounded time."""
        m1t = vertex_matrix(FiniteGraph(self.vertices, self.edges1)).transpose()
        m2t = vertex_matrix(FiniteGraph(self.vertices, self.edges2)).transpose()
        total = 0
        row1 = (1,) * len(self.vertices)
        for a in range(self.degree + 1):
            row = row1
            for b in range(self.degree + 1 - a):
                if not any(row):
                    break
                total += sum(row)
                if total > BASIS_CAP:
                    raise ResourceLimitError(
                        f"basis would hold at least {total} words (cap {BASIS_CAP}); "
                        f"lower the degree"
                    )
                row = m2t.apply(row)
            row1 = m1t.apply(row1)
        return total

    def _enumerate_words(self, by_rng):
        """Fill first, suffix, vertex and bidegrees level by level: word k of
        length L + 1 is first[k] prepended to word suffix[k] of length L. A
        layer-2 letter goes only in front of words without layer-1 letters,
        so every word is in normal form. Each level is ordered by (layer-2
        count, letters); the letters compare as (first letter, letter rank of
        the suffix within its level), so no letter tuple is ever built.
        Returns prepend[x][t] -> k, the index of the word x.t."""
        self._count_words()
        letter_rank = {x: r for r, x in enumerate(sorted(self.layer_of))}
        self.first = [None] * len(self.vertices)
        self.suffix = [None] * len(self.vertices)
        self.vertex = list(self.vertices)
        ones = [0] * len(self.vertices)
        twos = [0] * len(self.vertices)
        prepend = {x: {} for x in self.layer_of}
        # rank[t - start]: the letter rank of word t within its level
        start, rank = 0, [0] * len(self.vertices)
        for _ in range(self.degree):
            end = len(self.first)
            made = sorted(
                (letter_rank[x.id], rank[t - start], x, t)
                for t in range(start, end)
                for x in by_rng[self.vertex[t]]
                if self.layer_of[x.id] == 1 or ones[t] == 0
            )
            layer2 = [twos[t] + (self.layer_of[x.id] == 2) for _, _, x, t in made]
            order = sorted(range(len(made)), key=layer2.__getitem__)
            for i in order:
                _, _, x, t = made[i]
                prepend[x.id][t] = len(self.first)
                self.first.append(x.id)
                self.suffix.append(t)
                self.vertex.append(x.src)
                ones.append(ones[t] + (self.layer_of[x.id] == 1))
                twos.append(layer2[i])
            start, rank = end, order
        self.bidegrees = np.column_stack((ones, twos))
        return prepend

    # -- chi crossings and operators ----------------------------------------

    def _cross_basis(self, prepend, by_rng):
        """Every chi crossing. Words come shortest first, so the suffix t of
        every word e.t is done before the word, and crossing the leading
        layer-1 letter e is one chi step applied to the crossings of t,
        with prepend[x][t] -> k locating each word x.t.

          crossed[x][j] -> {k: coeff}: x (x) word j in normal form, a layer-2
                           x crossed past leading layer-1 letters by chi^-1;
          pulled[j]     -> {(front, k): coeff}: word j with its first letter
                           of each layer in front (by chi), the rest being word k.

        Returns crossed and pulled.
        """
        short = self.leading(self.degree - 1)
        crossed = {x: {} for x in self.layer_of}
        pulled = []
        for j, (x, t) in enumerate(zip(self.first, self.suffix)):
            terms = {}
            if x is not None:
                terms[(x, t)] = 1.0 + 0j
                if self.layer_of[x] == 1:
                    # layer-1 fronts of t have no chi entry and add nothing
                    for (mid, u), c in pulled[t].items():
                        for f2, e2, c2 in self.crossing_fwd.get((x, mid), ()):
                            key = (f2, prepend[e2][u])
                            terms[key] = terms.get(key, 0j) + c * c2
            pulled.append(terms)
            if j >= short:
                continue
            for y in by_rng[self.vertex[j]]:
                if j in prepend[y.id]:
                    crossed[y.id][j] = {prepend[y.id][j]: 1.0 + 0j}
                    continue
                terms = {}
                for e2, f2, c in self.crossing_inv.get((y.id, x), ()):
                    for u, c2 in crossed[f2][t].items():
                        k = prepend[e2][u]
                        terms[k] = terms.get(k, 0j) + c * c2
                crossed[y.id][j] = terms
        return crossed, pulled

    def annihilator(self, n: int) -> dict:
        """Every edge's adjoint on the leading n x n block, built
        combinatorially, without transposing anything, in one pass over the
        table of pulled fronts. A pulled remainder is shorter than its word,
        so every nonzero of the block's columns lies in its rows.

        Layer 1 strips a leading letter. Layer 2 pulls the first layer-2
        letter back to the front using chi in the forward direction; the two
        directions are mutually inverse exactly when chi is unitary, which is
        what check_left_action_adjoint exploits.
        """
        entries = {x: [] for x in self.layer_of}
        for j, terms in enumerate(self._pulled[:n]):
            for (front, k), coeff in terms.items():
                if coeff != 0:
                    entries[front].append((k, j, coeff))
        return {x: _matrix(triples, n) for x, triples in entries.items()}

    def normal_order(self, letters):
        """Formal normal ordering of a generator word via chi inverse.
        Returns {normal letter tuple: coefficient}; non-composable crossings
        vanish."""
        letters = tuple(letters)
        for i in range(len(letters) - 1):
            if self.layer_of[letters[i]] == 2 and self.layer_of[letters[i + 1]] == 1:
                out = {}
                for e2, f2, c in self.crossing_inv.get(
                    (letters[i], letters[i + 1]), ()
                ):
                    swapped = letters[:i] + (e2, f2) + letters[i + 2:]
                    for key, c2 in self.normal_order(swapped).items():
                        out[key] = out.get(key, 0j) + c * c2
                return out
        return {letters: 1.0 + 0j}

    def leading(self, max_total: int) -> int:
        """The number of words of total degree <= max_total: the basis is
        sorted shortest first, so they are words [0, n)."""
        return int(np.count_nonzero(self.totals <= max_total))

    @property
    def dimension(self) -> int:
        return len(self.first)


def _matrix(entries, size: int) -> sp.csr_matrix:
    """The size x size matrix with coeff at (row, column) for each (row,
    column, coeff) triple; repeated positions sum."""
    rows, cols, vals = [], [], []
    for row, col, coeff in entries:
        rows.append(row)
        cols.append(col)
        vals.append(coeff)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size), dtype=complex).tocsr()


def _permutation_crossing(spec: TwoGraphSpec):
    return {(e1, e2): ((f2, f1, 1.0 + 0j),)
            for (e1, e2), (f2, f1) in spec.chi_map().items()}


def _unitary_crossing(u: UnitaryChi):
    return {
        (f"e{i}", f"f{j}"): tuple(
            (f"f{k}", f"e{l}", u.coefficient(k, l, i, j))
            for k in range(u.n)
            for l in range(u.m)
            if u.coefficient(k, l, i, j) != 0
        )
        for i in range(u.m)
        for j in range(u.n)
    }


def _inverse_crossing(fwd):
    """The inverse of a unitary chi is its conjugate transpose: each
    (f', e', c) in fwd[(e, f)] gives (e, f, conj(c)) in inv[(f', e')]."""
    inv = {}
    for (e, f), images in fwd.items():
        for f2, e2, c in images:
            inv.setdefault((f2, e2), []).append((e, f, c.conjugate()))
    return inv


def build_fock(spec, N: int) -> FockRep:
    """Enumerate all normal-form words of total degree <= N and assemble the
    creation operators. The basis size is counted up front in exact integer
    arithmetic and refused as soon as the count passes the cap."""
    if N < 0:
        raise PreconditionError("truncation degree must be >= 0")
    if isinstance(spec, FiniteGraph):
        validate_graph(spec, strict=True).require()
        return FockRep(spec.vertices, spec.edges, (), N, {})
    if isinstance(spec, TwoGraphSpec):
        validate_chi(spec).require()
        return FockRep(
            spec.vertices, spec.edges1, spec.edges2, N, _permutation_crossing(spec)
        )
    if isinstance(spec, UnitaryChi):
        spec.validate().require()
        g1 = FiniteGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(spec.m)))
        g2 = FiniteGraph(("v",), tuple((f"f{j}", "v", "v") for j in range(spec.n)))
        return FockRep(("v",), g1.edges, g2.edges, N, _unitary_crossing(spec))
    raise PreconditionError(f"unsupported spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# relation checks


def _resolve(tol: Optional[float]) -> float:
    return DEFAULT_TOL if tol is None else tol


def _report(name, defect, tol) -> DefectReport:
    return DefectReport(name, defect, tol, defect <= tol)


def _left_stack(rep: FockRep, gens):
    """The creators of gens stacked vertically, and the first row of each
    generator's block: the D rows of stack @ X from at[a] on are T_a X."""
    at = {x: i * rep.dimension for i, x in enumerate(gens)}
    return sp.vstack([rep.creators[x] for x in gens], format="csr"), at


def _budget(rep: FockRep) -> int:
    """The most entries a chunk of residuals gathers: as many as all the
    creators hold, so a check's memory stays of the order of the rep's."""
    return sum(m.nnz for m in rep.creators.values())


def _stack_residuals(chunk, rows: int, cols: int) -> sp.csr_matrix:
    """The residuals of a chunk stacked vertically in CSR, rows x cols
    each, duplicate positions summed. Layer j holds the j-th term of every
    residual, copied straight from its stack's arrays (empty rows where a
    residual has fewer terms), and scipy adds the layers."""
    total = None
    for j in range(max(map(len, chunk))):
        spans = [terms[j][0].indptr[terms[j][1]:terms[j][1] + rows + 1] if j < len(terms)
                 else None for terms in chunk]
        size = sum(int(ptr[-1] - ptr[0]) for ptr in spans if ptr is not None)
        # the index type scipy itself would choose, so that it copies nothing
        index = np.int32 if max(size, len(chunk) * rows, cols) < 2**31 else np.int64
        data = np.empty(size, dtype=complex)
        indices = np.empty(size, dtype=index)
        indptr = np.zeros(len(chunk) * rows + 1, dtype=index)
        filled = 0
        for i, (terms, ptr) in enumerate(zip(chunk, spans)):
            if ptr is not None:
                stack, _, coeff = terms[j]
                lo, hi = ptr[0], ptr[-1]
                np.multiply(stack.data[lo:hi], coeff, out=data[filled:filled + hi - lo])
                indices[filled:filled + hi - lo] = stack.indices[lo:hi]
                indptr[i * rows + 1:(i + 1) * rows + 1] = ptr[1:] + (filled - lo)
                filled += hi - lo
            else:
                indptr[i * rows + 1:(i + 1) * rows + 1] = filled
        layer = sp.csr_matrix((data, indices, indptr), shape=(len(chunk) * rows, cols))
        total = layer if total is None else total + layer
    return total


def _worst(residuals, rows: int, cols: int, budget: int, made=None) -> float:
    """The largest _block_bounds over a stream of rows x cols residuals.

    Each residual is a list of (stack, first, coeff) terms: coeff times rows
    [first, first + rows) of a CSR stack, read straight from its arrays.
    Residuals are stacked vertically, one block each, with duplicate
    positions summed before any magnitude is taken, in chunks of at most
    `budget` entries (a residual larger than that is a chunk of its own).
    When a chunk is bounded, the products in `made` that the next residual
    does not read are dropped. A residual without entries has bound 0.0
    and takes no block."""
    worst, chunk, size = 0.0, [], 0
    for terms in residuals:
        terms = [(stack, first, coeff) for stack, first, coeff in terms
                 if stack.indptr[first] < stack.indptr[first + rows]]
        if not terms:
            continue
        entries = sum(int(stack.indptr[first + rows] - stack.indptr[first])
                      for stack, first, _ in terms)
        if chunk and size + entries > budget:
            worst = max(worst, _block_bounds(_stack_residuals(chunk, rows, cols), rows).max())
            chunk, size = [], 0
            if made is not None:
                reads = {id(stack) for stack, _, _ in terms}
                for key in [k for k, stack in made.items() if id(stack) not in reads]:
                    del made[key]
        chunk.append(terms)
        size += entries
    if chunk:
        worst = max(worst, _block_bounds(_stack_residuals(chunk, rows, cols), rows).max())
    return float(worst)


def check_toeplitz(rep: FockRep, tol: Optional[float] = None):
    """T_e* T_f = delta P_rng(e) within each layer, and P_src(e) T_e = T_e,
    on the sub-block of degrees <= N-1. Per layer, the creators' leading
    columns stacked vertically give every source residual in one product,
    and side by side, conjugate transposed, times one creator's leading
    columns, every inner product T_e* T_f with that f."""
    tol = _resolve(tol)
    n = rep.leading(rep.degree - 1)
    dim, budget = rep.dimension, _budget(rep)
    reports = []
    for layer, edges in ((1, rep.edges1), (2, rep.edges2)):
        if not edges:
            continue
        blocks = [rep.creators[e.id][:, :n] for e in edges]
        adjoint = sp.hstack(blocks, format="csr").getH().tocsr()
        grams = [adjoint @ block for block in blocks]
        inner = _worst(
            ([(grams[j], i * n, 1.0)]
             + ([(rep.projections[e.rng], 0, -1.0)] if i == j else [])
             for j in range(len(edges)) for i, e in enumerate(edges)),
            n, n, budget,
        )
        cols = sp.vstack(blocks, format="csr")
        sources = sp.diags(np.concatenate([rep.projections[e.src].diagonal() for e in edges]))
        compat = _block_bounds((sources @ cols - cols).tocsr(), dim).max(initial=0.0)
        reports.append(_report(f"inner product, layer {layer}", inner, tol))
        reports.append(_report(f"source compatibility, layer {layer}", float(compat), tol))
    return reports


def check_covariance_defect(rep: FockRep, layer: int = 1,
                            tol: Optional[float] = None) -> DefectReport:
    """Sum of T_e T_e* over the layer equals 1 minus the projection onto
    words with no letter from that layer, on degrees <= N-1. The creators'
    leading rows side by side, times their conjugate transpose, give the
    sum in one product."""
    tol = _resolve(tol)
    edges = rep.edges1 if layer == 1 else rep.edges2
    if not edges:
        raise PreconditionError(f"layer {layer} has no edges")
    n = rep.leading(rep.degree - 1)
    rows = sp.hstack([rep.creators[e.id] for e in edges], format="csr")[:n]
    total = rows @ rows.getH()
    vacuum = (rep.bidegrees[:n, layer - 1] == 0).astype(float)
    expected = sp.eye(n, dtype=complex, format="csr") - sp.diags(
        vacuum, format="csr", dtype=complex
    )
    defect = _block_bounds((total - expected).tocsr(), n).max(initial=0.0)
    return _report(f"covariance, layer {layer}", float(defect), tol)


def check_chi_commutation(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """T_e T_f = sum of chi coefficients times T_f' T_e' on degrees <= N-2;
    non-composable products must vanish. One layer's creators stacked
    vertically, times one creator of the other layer (its leading columns),
    give every product of the two layers ending in it, one scipy call per
    generator."""
    tol = _resolve(tol)
    if not rep.edges2:
        raise PreconditionError("single-layer representation has no chi")
    n = rep.leading(rep.degree - 2)
    left1, at1 = _left_stack(rep, [e.id for e in rep.edges1])
    left2, at2 = _left_stack(rep, [f.id for f in rep.edges2])
    ef = {f.id: left1 @ rep.creators[f.id][:, :n] for f in rep.edges2}
    fe = {e.id: left2 @ rep.creators[e.id][:, :n] for e in rep.edges1}
    residuals = (
        [(ef[f.id], at1[e.id], 1.0)]
        + [(fe[e2], at2[f2], -c) for f2, e2, c in rep.crossing_fwd.get((e.id, f.id), ())]
        for e in rep.edges1 for f in rep.edges2
    )
    return _report("chi commutation",
                   _worst(residuals, rep.dimension, n, _budget(rep)), tol)


def check_left_action_adjoint(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """Compare each conjugate-transposed creator against the combinatorial
    annihilator on degrees <= N-2. The annihilator crosses with forward chi
    while the creator used the inverse, so agreement certifies unitarity of
    the crossing, not just consistent bookkeeping. The bound is the same for
    a matrix and its conjugate transpose, so each residual is taken as the
    creator's leading block minus a row range of the annihilators side by
    side, conjugate transposed in one call."""
    tol = _resolve(tol)
    n = rep.leading(rep.degree - 2)
    adjoints = rep.annihilator(n)
    conj = sp.hstack(list(adjoints.values()), format="csr").getH().tocsr()
    residuals = ([(rep.creators[x][:n, :n], 0, 1.0), (conj, i * n, -1.0)]
                 for i, x in enumerate(adjoints))
    return _report("left action adjoint", _worst(residuals, n, n, _budget(rep)), tol)


def check_reordering(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """Associativity of normal ordering: for every mixed length-3 generator
    word, the direct operator product equals the symbolically normal-ordered
    combination, on degrees <= N-3. A word already in normal order is its
    own normal form, so its residual is identically zero and is skipped.

    L times one pair product T_b T_c (on the leading columns) gives every
    triple product T_a T_b T_c with that pair, so the products take at most
    2k^2 scipy calls per chunk, not a few per word; each residual is a
    signed sum of row ranges of these triple stacks. A triple stack is made
    for the chunk of residuals that reads it and dropped once the chunk is
    bounded, and no pair product outlives the triple stack made from it."""
    tol = _resolve(tol)
    if not rep.edges2:
        raise PreconditionError("single-layer representation has no chi")
    n = rep.leading(rep.degree - 3)
    dim = rep.dimension
    left, at = _left_stack(rep, rep.layer_of)
    cols = {c: rep.creators[c][:, :n] for c in rep.layer_of}
    triples = {}

    def triple(b, c):
        if (b, c) not in triples:
            triples[b, c] = left @ (rep.creators[b] @ cols[c])
        return triples[b, c]

    def residuals():
        # words sharing their last two letters are adjacent, so a chunk
        # reads few triple stacks
        for b, c, a in itertools.product(rep.layer_of, repeat=3):
            layers = [rep.layer_of[g] for g in (a, b, c)]
            if layers == sorted(layers):
                continue
            terms = [(triple(b, c), at[a], 1.0)]
            for (h1, h2, h3), coeff in rep.normal_order((a, b, c)).items():
                terms.append((triple(h2, h3), at[h1], -coeff))
            yield terms

    worst = _worst(residuals(), dim, n, _budget(rep), triples)
    return _report("normal ordering associativity", worst, tol)


def fock_suite(rep: FockRep, tol: Optional[float] = None):
    """Every applicable relation check, in a fixed order."""
    reports = list(check_toeplitz(rep, tol))
    reports.append(check_covariance_defect(rep, 1, tol))
    if rep.edges2:
        reports.append(check_covariance_defect(rep, 2, tol))
        reports.append(check_chi_commutation(rep, tol))
        reports.append(check_reordering(rep, tol))
    reports.append(check_left_action_adjoint(rep, tol))
    return reports
