"""Truncated Fock representations and numerical relation checks.

Words are composable edge paths in normal form, every layer-1 letter before
every layer-2 letter; a layer-2 creation crosses leading layer-1 letters via
the inverse of chi. Relations are checked on sub-blocks strictly below the
truncation boundary, where they hold exactly up to rounding.
"""

from __future__ import annotations

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


class Word(NamedTuple):
    letters: tuple
    vertex: str  # source vertex of the path; the vacuum vertex when empty


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


def _subblock_norm(mat: sp.spmatrix, rows, cols) -> float:
    """A certified upper bound on the operator norm of a sub-block A:
    min(sqrt(|A|_1 |A|_inf), |A|_F), both of which dominate the spectral
    norm. It equals the norm when A has at most one nonzero per row and
    column, and it is 0.0 when A has no nonzero entry."""
    sub = abs(mat.tocsr()[rows, :][:, cols])
    if not sub.count_nonzero():
        return 0.0
    one_inf = np.sqrt(sub.sum(axis=0).max()) * np.sqrt(sub.sum(axis=1).max())
    # hypot squares nothing, so tiny entries cannot underflow to a zero bound
    return float(min(one_inf, np.hypot.reduce(sub.data)))


class FockRep:
    """Creation operators for both layers on the degree-capped path space.

    creators maps edge id to a sparse matrix; vertex projections are diagonal
    over each word's source vertex. Layer-2 matrices embed the chi crossing,
    so their entries are products of chi unitary coefficients.
    """

    def __init__(self, vertices, edges1, edges2, degree, crossing, chi_kind):
        self.vertices = tuple(vertices)
        self.edges1 = tuple(edges1)
        self.edges2 = tuple(edges2)
        self.degree = degree
        self.chi_kind = chi_kind  # None | "permutation" | "unitary"
        # crossing holds chi both ways, keyed by letter pairs:
        #   fwd[(e, f)] -> ((f', e', coeff), ...)    chi itself
        #   inv[(f, e)] -> ((e', f', coeff), ...)    its inverse
        self.crossing_fwd, self.crossing_inv = crossing
        self.layer_of = {e.id: 1 for e in self.edges1}
        self.layer_of.update({f.id: 2 for f in self.edges2})
        self._edge = {e.id: e for e in self.edges1 + self.edges2}
        self.words = self._enumerate_words()
        self.index = {w: i for i, w in enumerate(self.words)}
        self.totals = np.array([len(w.letters) for w in self.words])
        self.creators = {}
        for e in self.edges1:
            self.creators[e.id] = self._layer1_creator(e)
        for f in self.edges2:
            self.creators[f.id] = self._layer2_creator(f)
        self.projections = {
            v: sp.diags(
                [1.0 if w.vertex == v else 0.0 for w in self.words],
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

    def _enumerate_words(self):
        """Every layer-1 path, then each of them extended by layer-2 paths,
        level by level, so a deep basis needs no deep recursion."""
        self._count_words()

        def walk(paths, edges):
            by_src = {v: [e for e in edges if e.src == v] for v in self.vertices}
            out = []
            level = paths
            while level:
                out.extend(level)
                level = [
                    (letters + (e.id,), start, e.rng)
                    for letters, start, end in level
                    if len(letters) < self.degree
                    for e in by_src[end]
                ]
            return out

        layer1 = walk([((), v, v) for v in self.vertices], self.edges1)
        words = [Word(letters, start)
                 for letters, start, _ in walk(layer1, self.edges2)]
        vpos = {v: i for i, v in enumerate(self.vertices)}
        return tuple(sorted(words, key=lambda w: (
            len(w.letters), self.bidegree(w)[1], w.letters, vpos[w.vertex])))

    def bidegree(self, w: Word) -> tuple:
        b = sum(1 for x in w.letters if self.layer_of[x] == 2)
        return (len(w.letters) - b, b)

    # -- creation operators -------------------------------------------------

    def _operator(self, entries) -> sp.csr_matrix:
        """The matrix with coeff at (index of target word, column) for each
        (target word, column, coeff) triple; repeated positions sum."""
        rows, cols, vals = [], [], []
        for target, col, coeff in entries:
            rows.append(self.index[target])
            cols.append(col)
            vals.append(coeff)
        dim = len(self.words)
        return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()

    def _layer1_creator(self, e) -> sp.csr_matrix:
        return self._operator(
            (Word((e.id,) + w.letters, e.src), j, 1.0)
            for j, w in enumerate(self.words)
            if len(w.letters) < self.degree and e.rng == w.vertex
        )

    def _prepend_crossing(self, f_id, letters):
        """Normalize f (x) letters, crossing f past leading layer-1 letters
        with the inverse of chi. Returns {letter tuple: coefficient}."""
        if not letters or self.layer_of[letters[0]] == 2:
            return {(f_id,) + tuple(letters): 1.0 + 0j}
        head, rest = letters[0], letters[1:]
        out = {}
        for e2, f2, c in self.crossing_inv.get((f_id, head), ()):
            for tail, c2 in self._prepend_crossing(f2, rest).items():
                key = (e2,) + tail
                out[key] = out.get(key, 0j) + c * c2
        return out

    def _layer2_creator(self, f) -> sp.csr_matrix:
        return self._operator(
            (Word(letters, self._edge[letters[0]].src), j, coeff)
            for j, w in enumerate(self.words)
            if len(w.letters) < self.degree and f.rng == w.vertex
            for letters, coeff in self._prepend_crossing(f.id, w.letters).items()
            if coeff != 0
        )

    def annihilator(self, edge_id) -> sp.csr_matrix:
        """The adjoint built combinatorially, without transposing anything.

        Layer 1 strips a leading letter. Layer 2 pulls the first layer-2
        letter back to the front using chi in the forward direction; the two
        directions are mutually inverse exactly when chi is unitary, which is
        what check_left_action_adjoint exploits.
        """
        layer = self.layer_of[edge_id]
        entries = []
        for j, w in enumerate(self.words):
            if layer == 1:
                pulled = {(w.letters[0], w.letters[1:]): 1.0} if w.letters else {}
            else:
                pulled = self._pull_front(w.letters) if self.bidegree(w)[1] else {}
            for (front, rest), coeff in pulled.items():
                if front == edge_id and coeff != 0:
                    vertex = self._edge[rest[0]].src if rest else self._edge[front].rng
                    entries.append((Word(rest, vertex), j, coeff))
        return self._operator(entries)

    def _pull_front(self, letters):
        """Move the first layer-2 letter to the front with forward chi.
        Returns {(front letter, remaining letters): coefficient}."""
        if self.layer_of[letters[0]] == 2:
            return {(letters[0], tuple(letters[1:])): 1.0 + 0j}
        head, rest = letters[0], letters[1:]
        out = {}
        for (mid, tail), c in self._pull_front(rest).items():
            for f2, e2, c2 in self.crossing_fwd.get((head, mid), ()):
                key = (f2, (e2,) + tail)
                out[key] = out.get(key, 0j) + c * c2
        return out

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

    def degree_mask(self, max_total: int) -> np.ndarray:
        return self.totals <= max_total

    @property
    def dimension(self) -> int:
        return len(self.words)


def _permutation_crossing(spec: TwoGraphSpec):
    fwd = {}
    inv = {}
    for (e1, e2), (f2, f1) in spec.chi_map().items():
        fwd[(e1, e2)] = ((f2, f1, 1.0 + 0j),)
        inv[(f2, f1)] = ((e1, e2, 1.0 + 0j),)
    return fwd, inv


def _unitary_crossing(u: UnitaryChi):
    m, n = u.m, u.n
    fwd = {}
    inv = {}
    for i in range(m):
        for j in range(n):
            entries = []
            for k in range(n):
                for l in range(m):
                    c = u.coefficient(k, l, i, j)
                    if c != 0:
                        entries.append((f"f{k}", f"e{l}", complex(c)))
            fwd[(f"e{i}", f"f{j}")] = tuple(entries)
    for k in range(n):
        for l in range(m):
            entries = []
            for i in range(m):
                for j in range(n):
                    c = u.coefficient(k, l, i, j)
                    if c != 0:
                        entries.append((f"e{i}", f"f{j}", complex(np.conjugate(c))))
            inv[(f"f{k}", f"e{l}")] = tuple(entries)
    return fwd, inv


def build_fock(spec, N: int) -> FockRep:
    """Enumerate all normal-form words of total degree <= N and assemble the
    creation operators. The basis size is counted up front in exact integer
    arithmetic and refused as soon as the count passes the cap."""
    if N < 0:
        raise PreconditionError("truncation degree must be >= 0")
    if isinstance(spec, FiniteGraph):
        validate_graph(spec, strict=True).require()
        return FockRep(spec.vertices, spec.edges, (), N, ({}, {}), None)
    if isinstance(spec, TwoGraphSpec):
        validate_chi(spec).require()
        return FockRep(
            spec.vertices, spec.edges1, spec.edges2, N,
            _permutation_crossing(spec), "permutation",
        )
    if isinstance(spec, UnitaryChi):
        spec.validate().require()
        g1 = FiniteGraph(("v",), tuple((f"e{i}", "v", "v") for i in range(spec.m)))
        g2 = FiniteGraph(("v",), tuple((f"f{j}", "v", "v") for j in range(spec.n)))
        return FockRep(
            ("v",), g1.edges, g2.edges, N, _unitary_crossing(spec), "unitary",
        )
    raise PreconditionError(f"unsupported spec type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# relation checks


def _resolve(tol: Optional[float]) -> float:
    return DEFAULT_TOL if tol is None else tol


def _report(name, defect, tol) -> DefectReport:
    return DefectReport(name, defect, tol, defect <= tol)


def check_toeplitz(rep: FockRep, tol: Optional[float] = None):
    """T_e* T_f = delta P_rng(e) within each layer, and P_src(e) T_e = T_e,
    on the sub-block of degrees <= N-1."""
    tol = _resolve(tol)
    mask = rep.degree_mask(rep.degree - 1)
    idx = np.where(mask)[0]
    everything = np.arange(rep.dimension)
    reports = []
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
        reports.append(_report(f"inner product, layer {layer}", inner, tol))
        reports.append(_report(f"source compatibility, layer {layer}", compat, tol))
    return reports


def check_covariance_defect(rep: FockRep, layer: int = 1,
                            tol: Optional[float] = None) -> DefectReport:
    """Sum of T_e T_e* over the layer equals 1 minus the projection onto
    words with no letter from that layer, on degrees <= N-1."""
    tol = _resolve(tol)
    edges = rep.edges1 if layer == 1 else rep.edges2
    if not edges:
        raise PreconditionError(f"layer {layer} has no edges")
    dim = rep.dimension
    total = sp.csr_matrix((dim, dim), dtype=complex)
    for e in edges:
        te = rep.creators[e.id]
        total = total + te @ te.getH()
    vacuum = np.array(
        [1.0 if rep.bidegree(w)[layer - 1] == 0 else 0.0 for w in rep.words]
    )
    expected = sp.eye(dim, dtype=complex, format="csr") - sp.diags(
        vacuum, format="csr", dtype=complex
    )
    idx = np.where(rep.degree_mask(rep.degree - 1))[0]
    defect = _subblock_norm(total - expected, idx, idx)
    return _report(f"covariance, layer {layer}", defect, tol)


def check_chi_commutation(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """T_e T_f = sum of chi coefficients times T_f' T_e' on degrees <= N-2;
    non-composable products must vanish."""
    tol = _resolve(tol)
    if rep.chi_kind is None:
        raise PreconditionError("single-layer representation has no chi")
    idx = np.where(rep.degree_mask(rep.degree - 2))[0]
    everything = np.arange(rep.dimension)
    worst = 0.0
    for e in rep.edges1:
        for f in rep.edges2:
            d = rep.creators[e.id] @ rep.creators[f.id]
            for f2, e2, c in rep.crossing_fwd.get((e.id, f.id), ()):
                d = d - c * (rep.creators[f2] @ rep.creators[e2])
            worst = max(worst, _subblock_norm(d, everything, idx))
    return _report("chi commutation", worst, tol)


def check_left_action_adjoint(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """Compare each conjugate-transposed creator against the combinatorial
    annihilator on degrees <= N-2. The annihilator crosses with forward chi
    while the creator used the inverse, so agreement certifies unitarity of
    the crossing, not just consistent bookkeeping."""
    tol = _resolve(tol)
    idx = np.where(rep.degree_mask(rep.degree - 2))[0]
    worst = 0.0
    for edge_id, te in rep.creators.items():
        d = rep.annihilator(edge_id) - te.getH()
        worst = max(worst, _subblock_norm(d, idx, idx))
    return _report("left action adjoint", worst, tol)


def check_reordering(rep: FockRep, tol: Optional[float] = None) -> DefectReport:
    """Associativity of normal ordering: for every mixed length-3 generator
    word, the direct operator product equals the symbolically normal-ordered
    combination, on degrees <= N-3."""
    tol = _resolve(tol)
    if rep.chi_kind is None:
        raise PreconditionError("single-layer representation has no chi")
    idx = np.where(rep.degree_mask(rep.degree - 3))[0]
    everything = np.arange(rep.dimension)
    gens = [e.id for e in rep.edges1] + [f.id for f in rep.edges2]
    worst = 0.0
    for g1 in gens:
        for g2 in gens:
            for g3 in gens:
                layers = {rep.layer_of[g] for g in (g1, g2, g3)}
                if layers != {1, 2}:
                    continue
                d = rep.creators[g1] @ rep.creators[g2] @ rep.creators[g3]
                for (h1, h2, h3), c in rep.normal_order((g1, g2, g3)).items():
                    d = d - c * (rep.creators[h1] @ rep.creators[h2]
                                 @ rep.creators[h3])
                worst = max(worst, _subblock_norm(d, everything, idx))
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
