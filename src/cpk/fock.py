"""Truncated Fock representations and numerical relation checks.

Words are composable edge paths in normal form, every layer-1 letter before
every layer-2 letter; a layer-2 creation crosses leading layer-1 letters via
the inverse of chi, and a layer-2 annihilation pulls the first layer-2
letter to the front via chi. A word is stored only as its first letter and
the index of its suffix, the word one letter shorter; the basis is sorted
shortest first, so each word's crossings are one chi step from those of its
suffix, computed once for a whole level (word length) of the basis in numpy
and kept in flat arrays, and memory follows the basis size, not its letters.
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
T_f T_e for every layer-2 f (chi commutation), T_b T_c for every b
(reordering). Reordering then multiplies k copies of L along the diagonal
by that stack, which gives T_a T_b T_c for every a and b: two calls per
last letter c. The Toeplitz inner products take the conjugate transpose of
the layer's creators side by side, covariance one product per layer, and
the adjoint compares each creator's leading block with a row range of the
annihilators side by side, conjugate transposed. A residual is a signed
sum of row ranges of such stacks, read straight from their CSR arrays;
residuals are stacked vertically with duplicate positions summed, and
_block_bounds bounds every block of a stack in one numpy pass. Memory: the
residuals are gathered in chunks of at most as many entries as all the
creators hold (a larger residual is a chunk of its own), and the triple
stacks a chunk reads are made for it and dropped after it, so a check
holds L, the chunk and the few stacks it reads, never all k^3 products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    a level of the basis at a time, so the build costs one pass over the
    basis. The rep keeps no table per word: the pulled fronts that
    annihilator reads are four flat arrays sorted by word.
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
        self._enumerate_words(by_rng)
        self.totals = self.bidegrees.sum(axis=1)
        self.creators, self._pulled = self._cross_basis()
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
        the suffix within its level), so no letter tuple is ever built."""
        self._count_words()
        letter_rank = {x: r for r, x in enumerate(sorted(self.layer_of))}
        self.first = [None] * len(self.vertices)
        self.suffix = [None] * len(self.vertices)
        self.vertex = list(self.vertices)
        ones = [0] * len(self.vertices)
        twos = [0] * len(self.vertices)
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
                self.first.append(x.id)
                self.suffix.append(t)
                self.vertex.append(x.src)
                ones.append(ones[t] + (self.layer_of[x.id] == 1))
                twos.append(layer2[i])
            start, rank = end, order
        self.bidegrees = np.column_stack((ones, twos))

    # -- chi crossings and operators ----------------------------------------

    def _cross_basis(self):
        """Every chi crossing, in flat arrays, one level (word length) at a
        time: the suffix t of a word x.t lies one level down, so crossing x
        is one chi step applied to the crossings of t, made for a whole
        level at once. Letters are coded by their position in layer_of.

          pulled:  (word, front, target, coeff) arrays sorted by word: word j
                   with its first letter of each layer in front (by chi), the
                   rest being word target. A nonempty word has its own (first
                   letter, suffix) entry with coeff 1 and, if it has letters
                   of both layers, the layer-2 fronts of its suffix pulled
                   past its first letter.
          crossed: (word, letter, target, coeff) arrays, kept for one level:
                   y (x) word j in normal form, for layer-2 y and the words j
                   of degree <= N-1 whose first letter is in layer 1, which y
                   really crosses by chi^-1. Any other y (x) j is the word y.j.

        Terms with one key are summed in the order, and with the rounding,
        of a word-by-word build that fills a dict by terms[key] += c * c2
        (_accumulate, _times), so every coefficient is bit for bit the same.

        Returns the creators, each the words x.t (rows) over their suffixes
        t (columns) plus the crossed entries of its letter, and pulled.
        """
        letters = list(self.layer_of)
        size, words = len(letters), len(self.first)
        code = {x: i for i, x in enumerate(letters)}
        # the empty word's first letter is coded -1, which is in no layer
        layer1 = np.array([self.layer_of[x] == 1 for x in letters] + [False])
        first = np.array([-1 if x is None else code[x] for x in self.first])
        suffix = np.array([-1 if t is None else t for t in self.suffix])
        plain = np.arange(len(self.vertices), words)
        own = (plain, first[plain], suffix[plain], np.ones(len(plain), dtype=complex))
        creators, pulled = [(own[1], plain, own[2], own[3])], [own]
        fwd = _flat_crossing(self.crossing_fwd, code)
        inv = _flat_crossing(self.crossing_inv, code)
        vertex = {v: i for i, v in enumerate(self.vertices)}
        source = np.array([vertex[v] for v in self.vertex])
        codes2 = np.array([code[y.id] for y in self.edges2], dtype=int)
        rngs2 = np.array([vertex[y.rng] for y in self.edges2], dtype=int)
        mixed = self.bidegrees.min(axis=1) > 0
        # word x.t is the one whose key is t * size + x
        keys = suffix * size + first
        by_key = np.argsort(keys)
        keys = keys[by_key]

        def word(x, t):
            return by_key[np.searchsorted(keys, t * size + x)]

        starts = np.searchsorted(self.totals, np.arange(self.degree + 2))
        below = crossed = (np.zeros(0, dtype=int),) * 3 + (np.zeros(0, dtype=complex),)
        for level in range(1, self.degree + 1) if self.edges2 else ():
            at_level = np.arange(starts[level], starts[level + 1])
            # the words x.t of both layers: each layer-2 front of t (t's own
            # first letter, when that is in layer 2) pulled past x by chi
            j = at_level[mixed[at_level]]
            t = suffix[j]
            alone = ~layer1[first[t]]
            ones = np.ones(np.count_nonzero(alone), dtype=complex)
            row, (front, rest, coeff) = _read(below[0], below[1:], t, alone,
                                              (first[t[alone]], suffix[t[alone]], ones))
            pair = first[j[row]] * size + front
            image, img = _ranges(fwd.start[pair], fwd.count[pair])
            j, front = j[row[image]], fwd.left[img]
            target = word(fwd.right[img], rest[image])
            kept, coeff = _accumulate((j * size + front) * words + target,
                                      _times(coeff[image], fwd.coeff[img]))
            below = (j[kept], front[kept], target[kept], coeff)
            pulled.append(below)
            if level == self.degree:
                continue
            # y (x) x.t for layer-2 y and layer-1 x: chi^-1 takes y x to x' y',
            # and y' (x) t is a crossing one level down, or the word y'.t when
            # t has no layer-1 letter
            j = at_level[layer1[first[at_level]]]
            row, y = np.nonzero(source[j][:, None] == rngs2)
            pair = codes2[y] * size + first[j[row]]
            image, img = _ranges(inv.start[pair], inv.count[pair])
            group = (j[row] * size + codes2[y])[image]
            t, y = suffix[j[row[image]]], inv.right[img]
            alone = ~layer1[first[t]]
            ones = np.ones(np.count_nonzero(alone), dtype=complex)
            row, (rest, coeff) = _read(crossed[0] * size + crossed[1], crossed[2:],
                                       t * size + y, alone, (word(y[alone], t[alone]), ones))
            group, img = group[row], img[row]
            target = word(inv.left[img], rest)
            kept, coeff = _accumulate(group * words + target, _times(inv.coeff[img], coeff))
            crossed = (group[kept] // size, group[kept] % size, target[kept], coeff)
            nonzero = coeff != 0
            creators.append(tuple(crossed[k][nonzero] for k in (1, 2, 0, 3)))
        pulled = tuple(map(np.concatenate, zip(*pulled)))
        by_word = np.argsort(pulled[0], kind="stable")
        return (_split(letters, *map(np.concatenate, zip(*creators)), words),
                tuple(a[by_word] for a in pulled))

    def annihilator(self, n: int) -> dict:
        """Every edge's adjoint on the leading n x n block: the entries of
        the words below n in the table of pulled fronts, a prefix of it,
        split on the front letter. A pulled remainder is shorter than its
        word, so every nonzero of the block's columns lies in its rows.

        Layer 1 strips a leading letter. Layer 2 pulls the first layer-2
        letter back to the front using chi in the forward direction; the two
        directions are mutually inverse exactly when chi is unitary, which is
        what check_left_action_adjoint exploits.
        """
        cut = np.searchsorted(self._pulled[0], n)
        word, front, target, coeff = (a[:cut] for a in self._pulled)
        nonzero = coeff != 0
        return _split(list(self.layer_of), front[nonzero], target[nonzero],
                      word[nonzero], coeff[nonzero], n)

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


def _matrix(rows, cols, vals, size: int) -> sp.csr_matrix:
    """The size x size matrix with vals[i] at (rows[i], cols[i]); repeated
    positions sum."""
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size), dtype=complex).tocsr()


def _split(letters, owner, rows, cols, vals, size: int) -> dict:
    """One size x size matrix per letter, in order: letter i holds the
    entries (rows, cols, vals) whose owner is i."""
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(len(letters) + 1))
    return {x: _matrix(rows[order[a:b]], cols[order[a:b]], vals[order[a:b]], size)
            for x, a, b in zip(letters, bounds, bounds[1:])}


class _FlatCrossing(NamedTuple):
    """A crossing table in arrays: the images (left, right, coeff) of the
    letter pair (x, y), coded p = x * size + y, are the positions start[p]
    to start[p] + count[p] - 1, in the table's order."""

    start: np.ndarray
    count: np.ndarray
    left: np.ndarray
    right: np.ndarray
    coeff: np.ndarray


def _flat_crossing(table, code) -> _FlatCrossing:
    size = len(code)
    start = np.zeros(size * size, dtype=int)
    count = np.zeros(size * size, dtype=int)
    images = []
    for (x, y), row in table.items():
        start[code[x] * size + code[y]] = len(images)
        count[code[x] * size + code[y]] = len(row)
        images.extend(row)
    return _FlatCrossing(
        start, count,
        np.array([code[a] for a, _, _ in images], dtype=int),
        np.array([code[b] for _, b, _ in images], dtype=int),
        np.array([c for _, _, c in images], dtype=complex),
    )


def _ranges(start, count):
    """The positions start[i] .. start[i] + count[i] - 1 for every i in
    turn, and the i of each: many slices of one flat table at once."""
    rows = np.repeat(np.arange(len(count)), count)
    return rows, np.arange(len(rows)) + np.repeat(start - np.cumsum(count) + count, count)


def _read(keys, columns, query, alone, singles):
    """For each query in turn, the rows of a table (columns, sorted keys)
    with its key, or for a query marked alone the next row of singles
    instead: the index of the query each row answers, and the rows."""
    lo = np.searchsorted(keys, query)
    count = np.searchsorted(keys, query, side="right") - lo
    lo[alone] = len(keys) + np.arange(np.count_nonzero(alone))
    count[alone] = 1
    rows, at = _ranges(lo, count)
    return rows, [np.concatenate((c, s))[at] for c, s in zip(columns, singles)]


def _times(a, b) -> np.ndarray:
    """a * b elementwise, rounded as Python's complex product rounds it;
    numpy's own complex multiply may fuse the real products."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _accumulate(keys, values):
    """The sums of the values of equal keys, each added in turn to 0j, as
    terms[key] = terms.get(key, 0j) + value would leave them, and the
    position of each key's first value, in the order of first values."""
    _, firsts, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    sums = np.zeros(len(order), dtype=complex)
    np.add.at(sums, rank[inverse], values)
    return firsts[order], sums


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


def _diagonal_copies(m: sp.csr_matrix, copies: int) -> sp.csr_matrix:
    """copies of a CSR matrix along the diagonal, built from its arrays."""
    rows, cols = m.shape
    shift = np.arange(copies)[:, None]
    indptr = np.append(0, (m.indptr[1:] + m.indptr[-1] * shift).ravel())
    return sp.csr_matrix(
        (np.tile(m.data, copies), (m.indices + cols * shift).ravel(), indptr),
        shape=(rows * copies, cols * copies),
    )


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

    L @ T_c (its leading columns) holds T_b T_c for every b, and k copies of
    L along the diagonal, made once per check, times that hold T_a T_b T_c
    for every a and b. So the products take two scipy calls per last letter
    c, at most 2k per chunk, and each residual is a signed sum of row ranges
    of these triple stacks. Words are walked with c outermost; a triple
    stack is made for the chunk of residuals that reads it and dropped once
    the chunk is bounded, and no pair stack outlives the triple stack made
    from it."""
    tol = _resolve(tol)
    if not rep.edges2:
        raise PreconditionError("single-layer representation has no chi")
    n = rep.leading(rep.degree - 3)
    gens = list(rep.layer_of)
    left, at = _left_stack(rep, gens)
    # row block (b, a) of outer @ (L @ X) is T_a T_b X
    outer = _diagonal_copies(left, len(gens))
    triples = {}

    def triple(c):
        if c not in triples:
            triples[c] = outer @ (left @ rep.creators[c][:, :n])
        return triples[c]

    def residuals():
        for c, b, a in itertools.product(gens, repeat=3):
            layers = [rep.layer_of[g] for g in (a, b, c)]
            if layers == sorted(layers):
                continue
            terms = [(triple(c), at[b] * len(gens) + at[a], 1.0)]
            for (h1, h2, h3), coeff in rep.normal_order((a, b, c)).items():
                terms.append((triple(h3), at[h2] * len(gens) + at[h1], -coeff))
            yield terms

    worst = _worst(residuals(), rep.dimension, n, _budget(rep), triples)
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
