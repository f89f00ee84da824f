"""Truncated Fock representations and numerical relation checks.

Words are composable edge paths in normal form, every layer-1 letter before
every layer-2 letter; a layer-2 creation crosses leading layer-1 letters via
the inverse of chi, and a layer-2 annihilation pulls the first layer-2
letter to the front via chi. The basis is sorted shortest first, so each
word's crossings are one chi step from those of its suffix, computed once.
Relations are checked on sub-blocks strictly below the truncation boundary,
where they hold exactly up to rounding.
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
        self.words, self._bidegrees = self._enumerate_words()
        self.index = {w: i for i, w in enumerate(self.words)}
        self.totals = np.array([len(w.letters) for w in self.words])
        crossed, self._pulled = self._cross_basis()
        self.creators = {
            x: self._operator((k, j, c) for j, terms in crossed[x].items()
                              for k, c in terms.items() if c != 0)
            for x in self.layer_of
        }
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
        level by level, so a deep basis needs no deep recursion. Returns the
        sorted words and their bidegrees: walk gives one list per number of
        letters added, so the layer-2 walk counts each word's layer-2 letters."""
        self._count_words()

        def walk(paths, edges):
            by_src = {v: [e for e in edges if e.src == v] for v in self.vertices}
            levels = [paths]
            while levels[-1]:
                levels.append([
                    (letters + (e.id,), start, e.rng)
                    for letters, start, end in levels[-1]
                    if len(letters) < self.degree
                    for e in by_src[end]
                ])
            return levels[:-1]

        layer1 = [p for level in walk([((), v, v) for v in self.vertices], self.edges1)
                  for p in level]
        words = [(Word(letters, start), b)
                 for b, level in enumerate(walk(layer1, self.edges2))
                 for letters, start, _ in level]
        vpos = {v: i for i, v in enumerate(self.vertices)}
        words.sort(key=lambda wb: (
            len(wb[0].letters), wb[1], wb[0].letters, vpos[wb[0].vertex]))
        return (tuple(w for w, _ in words),
                tuple((len(w.letters) - b, b) for w, b in words))

    def bidegree(self, w: Word) -> tuple:
        return self._bidegrees[self.index[w]]

    # -- chi crossings and operators ----------------------------------------

    def _cross_basis(self):
        """Every chi crossing. Words come shortest first, so the suffix t of
        every word e.t is done before the word, and crossing the leading
        layer-1 letter e is one chi step applied to the crossings of t.

          prepend[x][t] -> k: word k is x.t; filled first, since crossing
                           word j needs it on later words of the same length;
          crossed[x][j] -> {k: coeff}: x (x) word j in normal form, a layer-2
                           x crossed past leading layer-1 letters by chi^-1;
          pulled[j]     -> {(front, k): coeff}: word j with its first letter
                           of each layer in front (by chi), the rest being word k.

        Returns crossed and pulled.
        """
        prepend = {x: {} for x in self.layer_of}
        front = {}
        by_rng = {v: [x for x in self.edges1 + self.edges2 if x.rng == v]
                  for v in self.vertices}
        for j, w in enumerate(self.words):
            if len(w.letters) < self.degree:
                for x in by_rng[w.vertex]:
                    if self.layer_of[x.id] == 1 or self._bidegrees[j][0] == 0:
                        k = self.index[Word((x.id,) + w.letters, x.src)]
                        prepend[x.id][j] = k
                        front[k] = (x.id, j)

        crossed = {x: {} for x in self.layer_of}
        pulled = []
        for j, w in enumerate(self.words):
            terms = {}
            if w.letters:
                x, t = front[j]
                terms[(x, t)] = 1.0 + 0j
                if self.layer_of[x] == 1:
                    # layer-1 fronts of t have no chi entry and add nothing
                    for (mid, u), c in pulled[t].items():
                        for f2, e2, c2 in self.crossing_fwd.get((x, mid), ()):
                            key = (f2, prepend[e2][u])
                            terms[key] = terms.get(key, 0j) + c * c2
            pulled.append(terms)
            if len(w.letters) == self.degree:
                continue
            for x in by_rng[w.vertex]:
                if j in prepend[x.id]:
                    crossed[x.id][j] = {prepend[x.id][j]: 1.0 + 0j}
                    continue
                e, t = front[j]
                terms = {}
                for e2, f2, c in self.crossing_inv.get((x.id, e), ()):
                    for u, c2 in crossed[f2][t].items():
                        k = prepend[e2][u]
                        terms[k] = terms.get(k, 0j) + c * c2
                crossed[x.id][j] = terms
        return crossed, pulled

    def _operator(self, entries) -> sp.csr_matrix:
        """The matrix with coeff at (row, column) for each (row, column,
        coeff) triple; repeated positions sum."""
        rows, cols, vals = [], [], []
        for row, col, coeff in entries:
            rows.append(row)
            cols.append(col)
            vals.append(coeff)
        dim = len(self.words)
        return sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex).tocsr()

    def annihilator(self, edge_id) -> sp.csr_matrix:
        """The adjoint built combinatorially, without transposing anything,
        from the table of pulled fronts.

        Layer 1 strips a leading letter. Layer 2 pulls the first layer-2
        letter back to the front using chi in the forward direction; the two
        directions are mutually inverse exactly when chi is unitary, which is
        what check_left_action_adjoint exploits.
        """
        return self._operator(
            (k, j, coeff)
            for j, terms in enumerate(self._pulled)
            for (front, k), coeff in terms.items()
            if front == edge_id and coeff != 0
        )

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
    if not rep.edges2:
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
    if not rep.edges2:
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
