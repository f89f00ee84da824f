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

Each check makes a small, fixed number of scipy objects, whatever the
number of generators and relations. Every matrix it hands to scipy is built
straight from CSR arrays: the creators' leading rows and columns stacked
vertically (_stack), the conjugate transposes of a stack's blocks
(_adjoints) and copies of a stack along the diagonal (_diagonal_copies).
With L a stack of k creators, k copies of L along the diagonal times a
stack of k blocks X_c hold L @ X_c for every c, one scipy product for a
whole family: every Toeplitz inner product T_e* T_f of a layer, every chi
commutation product T_e T_f (and T_f T_e), and every T_b T_c of reordering,
whose triples T_a T_b T_c then take one more product per last letter c.
Covariance is one product (_gram), the adjoint check none.

A residual is a signed sum of row ranges of such stacks, read straight from
their CSR arrays. _worst, the one path from residuals to a bound, gathers
them in chunks, sums each chunk in one pass over one copy of its terms'
entries (_stack_residuals), with the rounding and entry order that chained
scipy additions give, so that every bound is bit for bit theirs, and
bounds every block in one _block_bounds pass. Memory: a chunk gathers at
most as many entries as all the creators hold (a larger residual is a chunk
of its own). Reordering holds the copies of L, the layer-2 triple stacks, one
layer-1 triple stack at a time, the rows of L @ T_c not yet used and the
chunk; no chunk drops or remakes a stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .abelian import PreconditionError
from .exactseq import ResourceLimitError
from .model import (
    DEFAULT_TOL,
    FiniteGraph,
    TwoGraphSpec,
    UnitaryChi,
    validate_chi,
    validate_graph,
    vertex_matrix,
)

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
        # P_v is 1 on the words at vertex v: one diagonal entry per word
        at = {v: i for i, v in enumerate(self.vertices)}
        words = np.arange(self.dimension)
        self.projections = _split(self.vertices, np.array([at[v] for v in self.vertex]),
                                  words, words, np.ones(len(words), dtype=complex), len(words))

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


def _index_type(*sizes):
    """The index type scipy itself chooses for a matrix of these sizes."""
    return np.int32 if max(sizes) < 2**31 else np.int64


def _csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """A CSR matrix straight from its arrays, its indices in the type scipy
    itself would choose, so that scipy copies nothing."""
    index = _index_type(*shape, len(data))
    return sp.csr_matrix((data, indices.astype(index, copy=False),
                          indptr.astype(index, copy=False)), shape=shape)


def _split(letters, owner, rows, cols, vals, size: int) -> dict:
    """One size x size CSR matrix per letter, in order: letter i holds the
    entries (rows, cols, vals) whose owner is i, each row's by column. No
    position repeats within a letter. scipy converts the letters' matrices,
    stacked vertically, from coordinates in one pass, and each letter's is
    a row range of that stack."""
    stacked = sp.coo_matrix((vals, (owner.astype(np.int64) * size + rows, cols)),
                            shape=(len(letters) * size, size)).tocsr()
    ptr = stacked.indptr
    return {x: _csr(stacked.data[ptr[i * size]:ptr[(i + 1) * size]],
                    stacked.indices[ptr[i * size]:ptr[(i + 1) * size]],
                    ptr[i * size:(i + 1) * size + 1] - ptr[i * size], (size, size))
            for i, x in enumerate(letters)}


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


def _report(name, defect, tol) -> DefectReport:
    return DefectReport(name, defect, tol, defect <= tol)


def _rows(m: sp.csr_matrix) -> np.ndarray:
    """The row of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.shape[0], dtype=m.indptr.dtype), m.indptr[1:] - m.indptr[:-1])


def _regroup(data, rows, cols, shape) -> sp.csr_matrix:
    """The CSR matrix with data[i] at (rows[i], cols[i]), each row listing
    its entries in their given order: one stable sort by row."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    if (rows[1:] < rows[:-1]).any():
        # each entry's position packed in below its row makes every key
        # unique, so a plain in-place sort is stable
        shift = len(rows).bit_length()
        order = rows.astype(np.int64) << shift
        order |= np.arange(len(rows))
        order.sort()
        order &= (1 << shift) - 1
        data, cols = data[order], cols[order]
    return _csr(data, cols, indptr, shape)


def _leading(data, indices, indptr, cols: int):
    """The arrays of a CSR matrix cut to its leading `cols` columns."""
    keep = indices < cols
    if keep.all():
        return data, indices, indptr
    return data[keep], indices[keep], np.concatenate(([0], np.cumsum(keep)))[indptr]


def _stack(mats, rows: int, cols: int = None) -> sp.csr_matrix:
    """The leading `rows` rows, and `cols` columns (all when None), of CSR
    matrices of one width, stacked vertically, from their arrays."""
    ends = [m.indptr[rows] for m in mats]
    shifts = np.cumsum([0] + ends[:-1])
    arrays = (np.concatenate([m.data[:end] for m, end in zip(mats, ends)]),
              np.concatenate([m.indices[:end] for m, end in zip(mats, ends)]),
              np.concatenate([[0]] + [m.indptr[1:rows + 1] + shift
                                      for m, shift in zip(mats, shifts)]))
    if cols is None:
        cols = mats[0].shape[1]
    return _csr(*_leading(*arrays, cols), (rows * len(mats), cols))


def _columns(m: sp.csr_matrix, cols: int) -> sp.csr_matrix:
    """The leading `cols` columns of a CSR matrix, from its arrays."""
    return _csr(*_leading(m.data, m.indices, m.indptr, cols), (m.shape[0], cols))


def _blocks(stack: sp.csr_matrix, blocks: int):
    """For every stored entry of a CSR stack of `blocks` equal blocks, its
    row within its block and the column it takes when the blocks stand side
    by side."""
    height, width = stack.shape[0] // blocks, stack.shape[1]
    row = _rows(stack)
    column = row // height
    row -= column * height
    column *= width
    column += stack.indices
    return row, column


def _adjoints(stack: sp.csr_matrix, blocks: int, placed=None) -> sp.csr_matrix:
    """The conjugate transposes of the blocks of a CSR stack of `blocks`
    equal blocks, stacked vertically, from its arrays and the _blocks
    placement of its entries (computed when not `placed`). Each row lists
    its entries by column, as scipy's own transposition leaves them."""
    row, column = _blocks(stack, blocks) if placed is None else placed
    return _regroup(np.conj(stack.data), column, row,
                    (blocks * stack.shape[1], stack.shape[0] // blocks))


def _gram(stack: sp.csr_matrix, blocks: int) -> sp.csr_matrix:
    """B_1 B_1* + ... + B_k B_k* over the k = `blocks` equal blocks of a CSR
    stack: the blocks side by side times their conjugate transposes stacked
    vertically (_adjoints), one scipy product of two matrices built from
    the stack's arrays."""
    row, column = _blocks(stack, blocks)
    adjoints = _adjoints(stack, blocks, (row, column))
    beside = _regroup(stack.data, row, column,
                      (stack.shape[0] // blocks, blocks * stack.shape[1]))
    del row, column
    return beside @ adjoints


def _left_stack(rep: FockRep, gens):
    """The creators of gens stacked vertically, and the first row of each
    generator's block: the D rows of stack @ X from at[a] on are T_a X."""
    at = {x: i * rep.dimension for i, x in enumerate(gens)}
    return _stack([rep.creators[x] for x in gens], rep.dimension), at


def _diagonal_copies(m: sp.csr_matrix, copies: int) -> sp.csr_matrix:
    """copies of a CSR matrix along the diagonal, built from its arrays:
    row block i of copies @ X is m times row block i of X."""
    if copies == 1:
        return m
    rows, cols = m.shape
    shift = np.arange(copies, dtype=_index_type(rows * copies, cols * copies, m.nnz * copies))
    shift = shift[:, None]
    indptr = np.append(0, (m.indptr[1:] + m.indptr[-1] * shift).ravel())
    return _csr(np.tile(m.data, copies), (m.indices + cols * shift).ravel(), indptr,
                (rows * copies, cols * copies))


def _budget(rep: FockRep) -> int:
    """The most entries a chunk of residuals gathers: as many as all the
    creators hold, so a check's memory stays of the order of the rep's."""
    return sum(m.nnz for m in rep.creators.values())


def _stack_residuals(chunk, rows: int, cols: int) -> sp.csr_matrix:
    """The residuals of a chunk stacked vertically in CSR, rows x cols
    each, summed in one pass over one copy of their terms' entries.

    Layer j holds the j-th term of every residual. The sum is bit for bit
    the one that chaining scipy's + over the layers gives, and so is every
    bound: each position adds its terms in layer order, (t0 + t1) + t2 and
    so on, and each row lists its entries in the order scipy leaves. An
    addition merges by column when both sides list every row by increasing
    column; otherwise it lists a row's entries, then the positions the
    added layer brings in its own order, and reverses the row. Either way
    it drops the sums that are exactly zero. Precondition: a term's rows
    store each position at most once."""
    depth = max(map(len, chunk))
    spans = [(terms[j], i, j) for j in range(depth) for i, terms in enumerate(chunk)
             if j < len(terms)]
    ptrs = [stack.indptr[first:first + rows + 1] for (stack, first, _), _, _ in spans]
    sizes = [int(ptr[-1] - ptr[0]) for ptr in ptrs]
    data = np.empty(sum(sizes), dtype=complex)
    indices = np.empty(sum(sizes), dtype=_index_type(cols))
    at = 0
    for ((stack, _, coeff), _, _), ptr, size in zip(spans, ptrs, sizes):
        np.multiply(stack.data[ptr[0]:ptr[-1]], coeff, out=data[at:at + size])
        indices[at:at + size] = stack.indices[ptr[0]:ptr[-1]]
        at += size
    # lengths[t, r]: the entries of row r of term t
    lengths = np.diff(np.concatenate(ptrs).reshape(len(ptrs), rows + 1))
    shape = (len(chunk) * rows, cols)
    # an aligned chunk is summed elementwise: the sort's index arrays would
    # raise its peak memory by about 60%
    if len(spans) == depth * len(chunk):
        total = _aligned_sum(data, indices, lengths, depth, shape)
        if total is not None:
            return total
    # the stacked row and column of every entry, as one key
    key = np.repeat((np.array([i for _, i, _ in spans]) * rows)[:, None] + np.arange(rows),
                    lengths.ravel())
    key *= cols
    key += indices
    ends = np.cumsum(np.bincount([j for _, _, j in spans], weights=sizes)).astype(int)
    return _sorted_sum(data, key, ends, shape)


def _aligned_sum(data, indices, lengths, depth: int, shape):
    """_stack_residuals when every residual has `depth` terms and each term
    lists the same columns, row by row, as its residual's first, as the
    honest residuals of a permutation chi do: the sum is elementwise, and
    the rows keep the first term's order, reversed by each addition unless
    that order is by increasing column. None when the terms differ, or
    when a sum is exactly zero before the last layer (a position that
    leaves the sum may come back in a new place)."""
    residuals = len(lengths) // depth
    each = int(lengths[:residuals].sum())
    if not ((lengths.reshape(depth, -1) == lengths[:residuals].ravel()).all()
            and (indices.reshape(depth, -1) == indices[:each]).all()):
        return None
    values = data.reshape(depth, -1)
    sums = values[0]
    for j in range(1, depth):
        sums = sums + values[j] if j == 1 else np.add(sums, values[j], out=sums)
        if j < depth - 1 and not sums.all():
            return None
    kept = np.flatnonzero(sums) if depth > 1 else np.arange(each)
    # term t of the first layer is residual t's, so its row r is stacked
    # row t * rows + r: the entry's place among the rows' ends
    row = np.searchsorted(np.cumsum(lengths[:residuals]), kept, side="right")
    flip = depth % 2 == 0 and not _by_column(indices[:each], lengths[:residuals])
    flip = slice(None, None, -1 if flip else 1)
    return _regroup(sums[kept][flip], row[flip], indices[kept][flip], shape)


def _by_column(indices, lengths) -> bool:
    """Whether every row lists its columns in increasing order, given the
    rows' lengths in order."""
    if lengths.max(initial=0) < 2:
        return True
    ends = np.cumsum(lengths)
    increasing = np.diff(indices) > 0
    increasing[ends[(ends > 0) & (ends < len(indices))] - 1] = True
    return bool(increasing.all())


def _sorted_sum(data, key, ends, shape) -> sp.csr_matrix:
    """_stack_residuals in general, for two layers or more (a chunk of one
    layer is aligned): each entry's stacked row and column as one key,
    layer j being entries ends[j - 1] to ends[j]. The positions are the
    distinct keys in order; the layers are added in turn, as scipy adds
    them, with a slot per position whose order is its row's order."""
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    position = np.empty(len(key), dtype=np.intp)
    position[order] = np.cumsum(new) - 1
    keys = key[order][new]
    del order, new
    row = keys // shape[1]
    sums = np.zeros(len(keys), dtype=complex)
    alive = np.zeros(len(keys), dtype=bool)
    slot = np.zeros(len(keys), dtype=np.int64)
    start = 0
    for j, end in enumerate(ends):
        at = position[start:end]
        # scipy merges by column when the layer and the sum so far both
        # list every row by increasing column
        merged = j > 0 and (np.diff(key[start:end]) > 0).all()
        if merged:
            held = np.flatnonzero(alive)
            same = row[held[1:]] == row[held[:-1]]
            merged = (slot[held[1:]] > slot[held[:-1]])[same].all()
        if not merged:
            # new positions go after the others of their rows
            born = np.flatnonzero(~alive[at])
            slot[at[born]] = j * len(key) + born
        sums[at] += data[start:end]
        alive[at] = True
        if j:
            alive &= sums != 0
            if merged:
                slot = np.arange(len(keys))
            else:
                np.negative(slot, out=slot)
        start = end
    kept = np.flatnonzero(alive)
    kept = kept[np.argsort(slot[kept])]
    return _regroup(sums[kept], row[kept], keys[kept] % shape[1], shape)


def _worst(residuals, rows: int, cols: int, budget: int) -> float:
    """The largest _block_bounds over a stream of rows x cols residuals.

    Each residual is a list of (stack, first, coeff) terms: coeff times rows
    [first, first + rows) of a CSR stack, read straight from its arrays.
    Residuals are stacked vertically, one block each, with duplicate
    positions summed before any magnitude is taken, in chunks of at most
    `budget` entries (a residual larger than that is a chunk of its own).
    A chunk holds references to the stacks it reads and copies their rows
    only when it is bounded, so no stack is dropped or remade for a chunk.
    A residual without entries has bound 0.0 and takes no block."""
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
        chunk.append(terms)
        size += entries
    if chunk:
        worst = max(worst, _block_bounds(_stack_residuals(chunk, rows, cols), rows).max())
    return float(worst)


def check_toeplitz(rep: FockRep, tol: float = DEFAULT_TOL):
    """T_e* T_f = delta P_rng(e) within each layer, and P_src(e) T_e = T_e,
    on the sub-block of degrees <= N-1. Per layer, the creators' leading
    columns stacked vertically give every source residual as a row range,
    and k copies of their conjugate transposes along the diagonal, times
    that stack, every inner product T_e* T_f in one product."""
    n = rep.leading(rep.degree - 1)
    dim, budget = rep.dimension, _budget(rep)
    reports = []
    for layer, edges in ((1, rep.edges1), (2, rep.edges2)):
        if not edges:
            continue
        k = len(edges)
        blocks = _stack([rep.creators[e.id] for e in edges], dim, n)
        # row block j * k + i of grams is T_i* T_j
        grams = _diagonal_copies(_adjoints(blocks, k), k) @ blocks
        inner = _worst(
            ([(grams, (j * k + i) * n, 1.0)]
             + ([(rep.projections[e.rng], 0, -1.0)] if i == j else [])
             for j in range(k) for i, e in enumerate(edges)),
            n, n, budget,
        )
        # P_src(e) is a 0/1 diagonal, so P_src(e) T_e - T_e is exactly
        # -(1 - P_src(e)) T_e: the rows of T_e at words of another source
        outside = np.concatenate([rep.projections[e.src].diagonal() != 1 for e in edges])
        lengths = np.diff(blocks.indptr) * outside
        _, at = _ranges(blocks.indptr[:-1], lengths)
        stray = _csr(blocks.data[at], blocks.indices[at],
                     np.concatenate(([0], np.cumsum(lengths))), blocks.shape)
        compat = _worst(([(stray, i * dim, -1.0)] for i in range(k)), dim, n, budget)
        reports.append(_report(f"inner product, layer {layer}", inner, tol))
        reports.append(_report(f"source compatibility, layer {layer}", compat, tol))
    return reports


def check_covariance_defect(rep: FockRep, layer: int = 1,
                            tol: float = DEFAULT_TOL) -> DefectReport:
    """Sum of T_e T_e* over the layer equals 1 minus the projection onto
    words with no letter from that layer, on degrees <= N-1. The creators'
    leading rows side by side, times their conjugate transposes stacked
    vertically, give the sum in one product."""
    edges = rep.edges1 if layer == 1 else rep.edges2
    if not edges:
        raise PreconditionError(f"layer {layer} has no edges")
    n = rep.leading(rep.degree - 1)
    total = _gram(_stack([rep.creators[e.id] for e in edges], n), len(edges))
    # 1 minus the relative vacuum: 1 on the words with a letter of the layer
    lettered = rep.bidegrees[:n, layer - 1] > 0
    expected = _csr(np.ones(np.count_nonzero(lettered), dtype=complex), np.flatnonzero(lettered),
                    np.concatenate(([0], np.cumsum(lettered))), (n, n))
    defect = _worst([[(total, 0, 1.0), (expected, 0, -1.0)]], n, n, _budget(rep))
    return _report(f"covariance, layer {layer}", defect, tol)


def check_chi_commutation(rep: FockRep, tol: float = DEFAULT_TOL) -> DefectReport:
    """T_e T_f = sum of chi coefficients times T_f' T_e' on degrees <= N-2;
    non-composable products must vanish. Copies of one layer's creators
    stacked vertically, along the diagonal, times the other layer's leading
    columns stacked vertically, give every product of the two layers in
    that order: one scipy product per direction."""
    if not rep.edges2:
        raise PreconditionError("single-layer representation has no chi")
    n, dim = rep.leading(rep.degree - 2), rep.dimension
    ones, twos = [e.id for e in rep.edges1], [f.id for f in rep.edges2]
    left1, at1 = _left_stack(rep, ones)
    left2, at2 = _left_stack(rep, twos)
    # row block (f, e) of ef is T_e T_f, and row block (e, f) of fe is T_f T_e
    ef = _diagonal_copies(left1, len(twos)) @ _columns(left2, n)
    fe = _diagonal_copies(left2, len(ones)) @ _columns(left1, n)
    residuals = (
        [(ef, at2[f] * len(ones) + at1[e], 1.0)]
        + [(fe, at1[e2] * len(twos) + at2[f2], -c)
           for f2, e2, c in rep.crossing_fwd.get((e, f), ())]
        for e in ones for f in twos
    )
    return _report("chi commutation", _worst(residuals, dim, n, _budget(rep)), tol)


def check_left_action_adjoint(rep: FockRep, tol: float = DEFAULT_TOL) -> DefectReport:
    """Compare each conjugate-transposed creator against the combinatorial
    annihilator on degrees <= N-2. The annihilator crosses with forward chi
    while the creator used the inverse, so agreement certifies unitarity of
    the crossing, not just consistent bookkeeping. The bound is the same for
    a matrix and its conjugate transpose, so each residual is taken as the
    creator's leading block minus the annihilator's conjugate transpose:
    row block i of two stacks built from arrays."""
    n, letters = rep.leading(rep.degree - 2), list(rep.layer_of)
    conj = _adjoints(_stack(list(rep.annihilator(n).values()), n), len(letters))
    leading = _stack([rep.creators[x] for x in letters], n, n)
    residuals = ([(leading, i * n, 1.0), (conj, i * n, -1.0)] for i in range(len(letters)))
    return _report("left action adjoint", _worst(residuals, n, n, _budget(rep)), tol)


def check_reordering(rep: FockRep, tol: float = DEFAULT_TOL) -> DefectReport:
    """Associativity of normal ordering: for every mixed length-3 generator
    word, the direct operator product equals the symbolically normal-ordered
    combination, on degrees <= N-3. A word already in normal order is its
    own normal form, so its residual is identically zero and is skipped.

    With L the creators stacked vertically, k copies of L along the
    diagonal, made once per check, times the leading columns of L hold
    L @ T_c, that is T_b T_c for every b and c, in one product; the same
    copies times the rows of one c hold T_a T_b T_c for every a and b. Each
    residual is a signed sum of row ranges of these triple stacks. A word
    out of normal order has a layer-2 letter, so its normal form ends in
    one: the layer-2 stacks are made once for the check. With c outermost,
    each layer-1 stack is made once, for its own run of residuals, so the
    check takes one scipy product per letter and one more, k + 1 in all.
    The rows of each c are copied out of the first product and dropped
    once their stack is made, so at most one layer-1 stack is held."""
    if not rep.edges2:
        raise PreconditionError("single-layer representation has no chi")
    n = rep.leading(rep.degree - 3)
    gens = list(rep.layer_of)
    k, span = len(gens), len(gens) * rep.dimension
    left, at = _left_stack(rep, gens)
    # row block (b, a) of outer @ (L @ X) is T_a T_b X
    outer = _diagonal_copies(left, k)
    leading = _columns(left, n)
    del left  # outer holds its copies
    # rows [at[c] * k, at[c] * k + span) of inner are L @ T_c
    inner = outer @ leading
    del leading
    pending = {}
    for c in gens:
        ptr = inner.indptr[at[c] * k:at[c] * k + span + 1]
        pending[c] = _csr(inner.data[ptr[0]:ptr[-1]].copy(),
                          inner.indices[ptr[0]:ptr[-1]].copy(), ptr - ptr[0], (span, n))
    del inner
    layer2 = {f.id: outer @ pending.pop(f.id) for f in rep.edges2}

    def residuals():
        for c in gens:
            last = layer2[c] if c in layer2 else outer @ pending.pop(c)
            for b, a in itertools.product(gens, repeat=2):
                layers = [rep.layer_of[g] for g in (a, b, c)]
                if layers == sorted(layers):
                    continue
                terms = [(last, at[b] * k + at[a], 1.0)]
                for (h1, h2, h3), coeff in rep.normal_order((a, b, c)).items():
                    terms.append((layer2[h3], at[h2] * k + at[h1], -coeff))
                yield terms

    worst = _worst(residuals(), rep.dimension, n, _budget(rep))
    return _report("normal ordering associativity", worst, tol)


def fock_suite(rep: FockRep, tol: float = DEFAULT_TOL):
    """Every applicable relation check, in a fixed order."""
    reports = list(check_toeplitz(rep, tol))
    reports.append(check_covariance_defect(rep, 1, tol))
    if rep.edges2:
        reports.append(check_covariance_defect(rep, 2, tol))
        reports.append(check_chi_commutation(rep, tol))
        reports.append(check_reordering(rep, tol))
    reports.append(check_left_action_adjoint(rep, tol))
    return reports
