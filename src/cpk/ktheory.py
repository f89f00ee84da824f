"""The K-theory pipeline.

Single-stage K-groups of the Cuntz-Pimsner algebra of a bimodule, the
two-stage computation for the algebra of a commuting pair (the second
bimodule amplified over the first algebra), and the nine-corner diagram
with both six-term sequences, which cross-checks a two-stage answer for a
pair of graph layers.

Every single-stage K-pair comes from Pimsner's six-term sequence
K0(A) -(1-[E])-> K0(A) -> K0(O_E) -> K1(A) -(1-[E])-> K1(A) -> K1(O_E) -> K0(A),
solved from its two maps 1 - [E]. Degree-zero coefficients of a graph model
are Z^V with the bimodule class acting by the transpose vertex matrix, and
its degree-one coefficients are 0. Graph specs and abstract K-data share one
two-stage order: the presented cut of 1 - [E] on each coefficient degree
(presented_cut), with the second class acting on its pieces. Both bimodule
orders are always computed and reconciled, and extension ambiguity is
propagated as explicit candidate lists. The solvers read only groups: every
map 1 - [E] whose pieces nothing acts on gets the group cut (hom_cut). Each
map is cut once, and both cuts read one factorization of [F | R_cod].

On a split stage-one group N + Q the second class is known only up to a
coupling c in Hom(Q, N). The automorphism [[1, h], [0, 1]] conjugates the
action with coupling c to the one with coupling c + h B - A h, and
conjugate actions give the same groups (the classification of extensions
that split over Z; Weibel, An Introduction to Homological Algebra, 1994,
section 3.4). So one coupling per class is cut and solved; the coupling cap
still counts every coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Optional, Union

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    InternalError,
    PreconditionError,
    Presentation,
    hom_cut,
    presented_cut,
    solve,
)
from .exactseq import (
    AMBIGUOUS,
    DETERMINED,
    UNDERDETERMINED,
    ExactSequence,
    ExtensionCertificate,
    GroupOutcome,
    ResourceLimitError,
    ext_trivial,
    solve_six_term,
    verify_exact,
)
from .model import (
    AbstractKData,
    FiniteGraph,
    TwoGraphSpec,
    validate_chi,
    validate_graph,
    vertex_matrix,
)

_COUPLING_CAP = 512

BimoduleModel = Union[FiniteGraph, TwoGraphSpec, AbstractKData]


# ---------------------------------------------------------------------------
# outcome containers


@dataclass(frozen=True)
class KPair:
    k0: GroupOutcome
    k1: GroupOutcome

    @staticmethod
    def of_groups(g0: FgAbGroup, g1: FgAbGroup) -> "KPair":
        return KPair(GroupOutcome.of(g0), GroupOutcome.of(g1))

    def describe(self) -> dict:
        return {"K0": self.k0.describe(), "K1": self.k1.describe()}


# ---------------------------------------------------------------------------
# single stage


def coefficient_ktheory(model: BimoduleModel) -> KPair:
    """(Z^V, 0) for anything carried by a finite vertex set; abstract K-data
    passes through."""
    if isinstance(model, AbstractKData):
        return KPair.of_groups(model.k0, model.k1)
    if not isinstance(model, (FiniteGraph, TwoGraphSpec)):
        raise PreconditionError(f"unsupported model type {type(model).__name__}")
    return KPair.of_groups(FgAbGroup.free(len(model.vertices)), FgAbGroup.trivial())


def pimsner_class_maps(graph: FiniteGraph) -> tuple:
    """The class of a graph bimodule acting on the coefficient K-groups, as
    the pair of homs (on K0, on K1): [E] acts on K0 = Z^V by the transpose
    vertex matrix and by zero on the trivial K1. Strict graph validity (no
    sinks, no sources) is required.
    """
    if not isinstance(graph, FiniteGraph):
        raise PreconditionError(f"unsupported bimodule type {type(graph).__name__}")
    validate_graph(graph, strict=True).require()
    k0 = FgAbGroup.free(len(graph.vertices))
    k1 = FgAbGroup.trivial()
    return GroupHom(k0, k0, vertex_matrix(graph).transpose()), GroupHom.zero(k1, k1)


def one_minus(f: GroupHom) -> GroupHom:
    if f.dom != f.cod:
        raise PreconditionError("1 - f needs an endomorphism")
    eye = IntMatrix.identity(f.dom.n_generators)
    return GroupHom(f.dom, f.cod, eye - f.matrix)


def cuntz_pimsner_ktheory(
    cut0: tuple,
    cut1: tuple,
    assume_split: bool = False,
    bound: Optional[int] = None,
) -> KPair:
    """K-groups of the Cuntz-Pimsner algebra from Pimsner's six-term sequence,
    given the cuts cut_d = (coker, ker) of 1 - [E] on coefficient K_d as
    groups: hom_cut(one_minus(f)), or the groups of presented_cut's pieces.

    K0 sits in 0 -> coker(1-[E]_0) -> K0 -> ker(1-[E]_1) -> 0 and K1 in the
    degree-swapped extension; ambiguity propagates as candidates. A class map
    that is not an endomorphism or not well defined on torsion never gets
    here: one_minus and the cut refuse it.
    """
    return KPair(*solve_six_term(cut0, cut1, assume_split, bound))


# ---------------------------------------------------------------------------
# the two-stage route


@dataclass(frozen=True)
class IteratedResult:
    stage1: KPair  # the algebra of the first-listed bimodule
    stage1_other: KPair  # single-stage algebra of the second bimodule
    final: KPair
    notes: tuple = ()


def _union_outcomes(outcomes) -> GroupOutcome:
    groups = {g for o in outcomes for g in o.candidates}
    cands = tuple(sorted(groups, key=lambda g: (g.free_rank, g.torsion)))
    status = DETERMINED if len(cands) == 1 else AMBIGUOUS
    assumed = any(o.assumed_split for o in outcomes)
    return GroupOutcome(status, cands, outcomes[0].certificate, assumed)


def _reconcile_outcome(x: GroupOutcome, y: GroupOutcome) -> GroupOutcome:
    """Merge the two bimodule orders: the true group lies in both candidate
    sets, so intersect. Disjoint sets refute a split assumption when one was
    made, and otherwise mean an internal error."""
    if x.status == UNDERDETERMINED:
        return y if y.status != UNDERDETERMINED else x
    if y.status == UNDERDETERMINED:
        return x
    inter = tuple(g for g in x.candidates if g in y.candidates)
    if not inter:
        if x.assumed_split or y.assumed_split:
            sets = " and ".join(
                "{" + ", ".join(str(g) for g in o.candidates) + "}" for o in (x, y)
            )
            raise PreconditionError(
                "the split assumption does not hold: the two bimodule orders "
                f"give disjoint candidate sets {sets}"
            )
        raise InternalError("order symmetry violated: disjoint candidate sets")
    status = DETERMINED if len(inter) == 1 else AMBIGUOUS
    return GroupOutcome(status, inter, x.certificate, x.assumed_split or y.assumed_split)


def _reconcile_pairs(a: KPair, b: KPair) -> KPair:
    return KPair(_reconcile_outcome(a.k0, b.k0), _reconcile_outcome(a.k1, b.k1))


class GraphLayers:
    """A two-layer graph spec with its vertex-lattice maps l1 = 1 - M1^T,
    l2 = 1 - M2^T and theta = (l1; -l2), and their presented cuts
    (presented_cut of each as a map between free groups).

    Built once per spec (chi is validated here) and shared by both bimodule
    orders, the ideal sum and the diagram route, so each presentation and
    its factorizations are computed once.
    """

    def __init__(self, spec: TwoGraphSpec):
        validate_chi(spec).require()
        self.spec = spec
        eye = IntMatrix.identity(len(spec.vertices))
        self.m1t = vertex_matrix(spec.graph1()).transpose()
        self.m2t = vertex_matrix(spec.graph2()).transpose()
        self.l1 = eye - self.m1t
        self.l2 = eye - self.m2t
        self.theta = IntMatrix.vstack(self.l1, -self.l2)
        free = FgAbGroup.free(len(spec.vertices))
        self.cok1, self.ker1 = presented_cut(GroupHom(free, free, self.l1))
        self.cok2, self.ker2 = presented_cut(GroupHom(free, free, self.l2))
        theta = GroupHom(free, free.direct_sum(free), self.theta)
        self.cok_theta, self.ker_theta = presented_cut(theta)


def _hom_elements(quotient: FgAbGroup, sub: FgAbGroup) -> tuple:
    """(count, couplings): the number of homomorphisms Q -> N, and an
    iterator over all of them, the zero map first, each as its tuple of
    columns (one per Q generator, in N generator coordinates).

    Only called when the set is finite: a free Q generator can go to any
    element of a finite N; a torsion generator of order q must land in the
    q-torsion subgroup of N. Torsion coordinates lie in range(d), free ones
    are 0. The set is counted, and refused above the cap, before any of it
    is built.
    """
    orders = quotient.generator_orders()
    if sub.free_rank and 0 in orders:
        raise InternalError("a free quotient generator has infinitely many images")
    total = 1
    for q in orders:
        for d in sub.torsion:
            total *= gcd(q, d)  # images of one generator in Z/d; gcd(0, d) = d
    if total > _COUPLING_CAP:
        raise ResourceLimitError(
            f"coupling enumeration would scan {total} homomorphisms (cap {_COUPLING_CAP})"
        )
    per_gen = []
    for q in orders:
        # free N coordinates stay 0; with them present, q > 0 (checked above)
        ranges = [range(1)] * sub.free_rank
        ranges += [range(0, d, d // gcd(q, d)) for d in sub.torsion]
        per_gen.append(list(product(*ranges)))
    return total, product(*per_gen)


def _add_couplings(x: tuple, y: tuple, orders: tuple) -> tuple:
    """The sum of two couplings (column tuples), reduced mod N's orders."""
    return tuple([
        tuple([(s + t) % d if d else s + t for s, t, d in zip(cx, cy, orders)])
        for cx, cy in zip(x, y)
    ])


def _coupling_classes(quotient: FgAbGroup, sub: FgAbGroup, a: IntMatrix,
                      b: IntMatrix) -> tuple:
    """(count, representatives): the number of couplings c in Hom(Q, N),
    and the first coupling of each class c + im(delta), in the order of
    _hom_elements (so the zero coupling comes first).

    A and B are the actions on N and Q, and delta(h) = h B - A h: the
    automorphism [[1, h], [0, 1]] of N + Q conjugates the action
    [[A, c], [0, B]] to the one with coupling c + delta(h) (see the module
    docstring), so one coupling per class gives every outcome.

    im(delta) is spanned by delta of the generators of Hom(Q, N), one per
    (Q generator of order q, N torsion generator of order d), with
    d / gcd(q, d) in that entry; it is kept as a set of reduced couplings.
    """
    count, couplings = _hom_elements(quotient, sub)
    n_sub, n_quot = sub.n_generators, quotient.n_generators
    orders = sub.generator_orders()
    zero = ((0,) * n_sub,) * n_quot
    image = {zero}
    for i, q in enumerate(quotient.generator_orders()):
        for j, d in enumerate(sub.torsion):
            rows = [[0] * n_quot for _ in range(n_sub)]
            rows[sub.free_rank + j][i] = d // gcd(q, d)
            h = IntMatrix(rows, cols=n_quot)
            step = delta = _add_couplings(zero, tuple((h @ b - a @ h).columns()), orders)
            # image + <delta>: the cosets image + k delta, until k delta is in image
            base = tuple(image)
            while step not in image:
                image.update([_add_couplings(x, step, orders) for x in base])
                step = _add_couplings(step, delta, orders)
    seen = set()
    reps = []
    for c in couplings:
        if c not in seen:
            reps.append(c)
            seen.update([_add_couplings(c, x, orders) for x in image])
    return count, reps


def _descended_actions(sub_pres, quot_pres, a_sub, a_quot, assume_split):
    """The stage-two actions on a stage-one K-group G in
    0 -> sub -> G -> quot -> 0 compatible with the actions a_sub, a_quot
    (ambient matrices) induced on the two pieces, one per conjugacy class.

    Returns ([GroupHom], count, None), where count is the number of
    compatible actions (all of Hom(quot, sub) when G splits) and the list
    holds one per class (_coupling_classes); or ([], 0, reason) when the
    action is genuinely not determined by the input. When a piece is
    trivial, only the other piece's action is computed.
    """
    sub, quot = sub_pres.group, quot_pres.group
    if quot.is_trivial or sub.is_trivial:
        pres, action = (sub_pres, a_sub) if quot.is_trivial else (quot_pres, a_quot)
        return [pres.hom_to(pres, action)], 1, None
    act_sub = sub_pres.hom_to(sub_pres, a_sub)
    act_quot = quot_pres.hom_to(quot_pres, a_quot)
    g_pres = Presentation.cokernel_of(IntMatrix.block_diag(sub.relations(), quot.relations()))
    n_sub, n_quot = sub.n_generators, quot.n_generators

    def block(coupling: IntMatrix) -> IntMatrix:
        top = IntMatrix.hstack(act_sub.matrix, coupling)
        bottom = IntMatrix.hstack(IntMatrix.zeros(n_quot, n_sub), act_quot.matrix)
        return IntMatrix.vstack(top, bottom)

    if assume_split:
        action = g_pres.hom_to(g_pres, block(IntMatrix.zeros(n_sub, n_quot)))
        return [action], 1, None
    if not ext_trivial(quot, sub):
        return [], 0, (
            "stage-one K-group is an extension with nontrivial class group; "
            "the induced action on it is not determined by the input"
        )
    if quot.free_rank > 0 and sub.free_rank > 0:
        return [], 0, (
            "infinitely many couplings between the free quotient piece and the "
            "infinite subgroup piece are compatible with the input"
        )
    count, reps = _coupling_classes(quot, sub, act_sub.matrix, act_quot.matrix)
    blocks = [block(IntMatrix.from_columns(c, rows=n_sub)) for c in reps]
    return g_pres.homs_to(g_pres, blocks), count, None


def _two_stage_order(cut0, cut1, action0: IntMatrix, action1: IntMatrix,
                     assume_split, bound) -> KPair:
    """One order of the two-stage computation: the final K-groups from the
    first bimodule's stage-one K-groups and the second bimodule's class
    acting on them.

    cut_d is presented_cut of 1 - [E] on coefficient K_d, and action_d the
    second class on K_d as an ambient matrix. Stage-one K0 sits in
    0 -> coker_0 -> K0 -> ker_1 -> 0 and K1 in
    0 -> coker_1 -> K1 -> ker_0 -> 0. The compatible actions are taken up to
    conjugation by the automorphisms [[1, h], [0, 1]] of a split stage-one
    group (_coupling_classes): conjugate actions give the same groups, so
    one representative per class is cut into groups (hom_cut). Each distinct
    pair of cuts, in first-seen order, is run through the Pimsner sequence
    once, and the outcomes are joined; the first pair's certificate is
    kept. The cap counts every coupling pair, not only the classes.
    """
    (cok0, ker0), (cok1, ker1) = cut0, cut1
    acts0, n0, why0 = _descended_actions(cok0, ker1, action0, action1, assume_split)
    acts1, n1, why1 = _descended_actions(cok1, ker0, action1, action0, assume_split)
    if why0 or why1:
        under = GroupOutcome(UNDERDETERMINED, (), None, False, why0 or why1)
        return KPair(under, under)
    if n0 * n1 > _COUPLING_CAP:
        raise ResourceLimitError(
            f"{n0 * n1} coupling combinations exceed the cap {_COUPLING_CAP}"
        )
    cuts0, cuts1 = (dict.fromkeys(hom_cut(one_minus(a)) for a in acts) for acts in (acts0, acts1))
    pairs = [cuntz_pimsner_ktheory(c0, c1, assume_split, bound) for c0 in cuts0 for c1 in cuts1]
    return KPair(_union_outcomes([p.k0 for p in pairs]), _union_outcomes([p.k1 for p in pairs]))


def iterated_ktheory(
    spec: Union[GraphLayers, AbstractKData],
    assume_split: bool = False,
    bound: Optional[int] = None,
) -> IteratedResult:
    """K-theory of the algebra built in two stages, second bimodule over the
    first algebra. Both orders are computed; Determined answers must agree
    and candidate lists are intersected (the truth lies in both)."""
    notes = []
    if isinstance(spec, GraphLayers):
        stage1 = KPair.of_groups(spec.cok1.group, spec.ker1.group)
        other = KPair.of_groups(spec.cok2.group, spec.ker2.group)
        # coefficient K1 is 0: the empty cut of 1 - 0 on it, acted on by 0
        zero = GroupHom.zero(FgAbGroup.trivial(), FgAbGroup.trivial())
        empty = presented_cut(zero)
        orders = [
            ((spec.cok1, spec.ker1), empty, spec.m2t, zero.matrix),
            ((spec.cok2, spec.ker2), empty, spec.m1t, zero.matrix),
        ]
    elif isinstance(spec, AbstractKData):
        spec.validate().require()
        data = (spec, spec.swapped())  # the first bimodule, then the second
        cuts = [[presented_cut(one_minus(a)) for a in (d.action1_k0, d.action1_k1)] for d in data]
        stage1, other = (
            cuntz_pimsner_ktheory(*[(cok.group, ker.group) for cok, ker in c], assume_split, bound)
            for c in cuts
        )
        orders = [(*c, d.action2_k0.matrix, d.action2_k1.matrix) for c, d in zip(cuts, data)]
    else:
        raise PreconditionError(f"unsupported spec type {type(spec).__name__}")
    final_a, final_b = (_two_stage_order(*o, assume_split, bound) for o in orders)
    final = _reconcile_pairs(final_a, final_b)
    if final_a.k0.status != final.k0.status or final_a.k1.status != final.k1.status:
        notes.append("order comparison narrowed the candidate list")
    notes.append("both bimodule orders computed and reconciled")
    return IteratedResult(stage1, other, final, tuple(notes))


# ---------------------------------------------------------------------------
# the nine-corner diagram route


@dataclass(frozen=True)
class DiagramReport:
    corners: dict
    sum_sequence: list  # exactness reports, coefficient row against the ideal sum
    quotient_sequence: list  # exactness reports, ideal sum against the final algebra
    ij_k0: GroupOutcome
    ij_k1: GroupOutcome
    final: KPair
    problems: tuple  # every non-exact node and every disagreement with two_stage


def _presented_sequence(nodes, matrices) -> ExactSequence:
    homs = []
    n = len(nodes)
    for i, mat in enumerate(matrices):
        homs.append(nodes[i].hom_to(nodes[(i + 1) % n], mat))
    return ExactSequence(tuple(p.group for p in nodes), tuple(homs))


def diagram_report(layers: GraphLayers, two_stage: KPair, coefficient: KPair) -> DiagramReport:
    """Fill the nine corners and verify both six-term cross-check sequences.

    The ideal-sum K-groups are presented directly as the cokernel and kernel
    of the stacked map Theta = (l1; -l2) on Z^V -> Z^{2V}. The final-algebra
    K0 = coker [l2 | l1] + ker Theta and K1 = ker [l2 | l1] / im Theta are
    read from the one cut of [l2 | l1] : Z^{2V} -> Z^V, and its sequence
    uses candidate boundary maps (simplest signs). Both
    sequences are verified exact node by node. Exactness of the sum sequence
    is what certifies each ideal-sum group as an extension of the flanking
    cokernel by the flanking kernel, so no group is enumerated here. The
    final groups are cross-checked against `two_stage`, the final K-pair the
    two-stage route already computed; any mismatch or non-exact node is
    reported as a problem, never silent. The four corners KK-equivalent to
    the coefficients read `coefficient`, the pair coefficient_ktheory gives.
    """
    nv = len(layers.spec.vertices)
    eye = IntMatrix.identity(nv)
    l1, l2, theta = layers.l1, layers.l2, layers.theta
    cok1, ker1, cok2, ker2 = layers.cok1, layers.ker1, layers.cok2, layers.ker2
    cok_theta, ker_theta = layers.cok_theta, layers.ker_theta

    free_v = Presentation.cokernel_of(IntMatrix.zeros(nv, 0))
    zero_pres = Presentation.cokernel_of(IntMatrix.zeros(0, 0))
    sum_corner = Presentation.direct_sum(cok1, cok2)
    ker_corner = Presentation.direct_sum(ker1, ker2)

    # coefficient row vs the ideal sum:
    #   K0(A) -> K0(I+J) -> K0(O1)+K0(O2) -> K1(A) -> K1(I+J) -> K1(O1)+K1(O2)
    sum_nodes = [free_v, cok_theta, sum_corner, zero_pres, ker_theta, ker_corner]
    sum_mats = [
        IntMatrix.vstack(l1, IntMatrix.zeros(nv, nv)),
        IntMatrix.identity(2 * nv),
        IntMatrix.zeros(0, 2 * nv),
        IntMatrix.zeros(nv, 0),
        IntMatrix.vstack(eye, eye),
        IntMatrix.hstack(eye, -eye),
    ]
    sum_seq = _presented_sequence(sum_nodes, sum_mats)
    delta_cok, delta_ker = hom_cut(sum_seq.arrows[5])
    sum_reports = verify_exact(sum_seq)

    # ideal sum vs the final algebra:
    #   K0(I+J) -> K0(A) -> K0(final) -> K1(I+J) -> K1(A) -> K1(final)
    # both final groups come from the one cut of [l2 | l1] : Z^{2V} -> Z^V
    l21 = IntMatrix.hstack(l2, l1)
    cok21, ker21 = presented_cut(GroupHom(FgAbGroup.free(2 * nv), FgAbGroup.free(nv), l21))
    k0_final_pres = Presentation.direct_sum(cok21, ker_theta)
    theta_coords = solve(ker21.basis, theta)
    if None in theta_coords:
        raise PreconditionError("denominator is not inside the numerator lattice")
    k1_final_pres = Presentation(
        ker21.basis, IntMatrix.from_columns(theta_coords, rows=ker21.basis.cols)
    )
    quot_nodes = [cok_theta, free_v, k0_final_pres, ker_theta, zero_pres, k1_final_pres]
    quot_mats = [
        l21,
        IntMatrix.vstack(eye, IntMatrix.zeros(nv, nv)),
        IntMatrix.hstack(IntMatrix.zeros(nv, nv), eye),
        IntMatrix.zeros(0, nv),
        IntMatrix.zeros(2 * nv, 0),
        IntMatrix.identity(2 * nv),
    ]
    quot_seq = _presented_sequence(quot_nodes, quot_mats)
    quot_reports = verify_exact(quot_seq)

    # the exactness of sum_seq, checked below, certifies both extensions
    ij_k0 = GroupOutcome.of(cok_theta.group, ExtensionCertificate(delta_cok, sum_corner.group))
    ij_k1 = GroupOutcome.of(ker_theta.group, ExtensionCertificate(FgAbGroup.trivial(), delta_ker))
    problems = []
    for name, reports in (("sum", sum_reports), ("quotient", quot_reports)):
        for r in reports:
            if not r["exact"]:
                problems.append(
                    f"{name} sequence fails exactness at node {r['node']} "
                    f"({r['group']}): {r['reason']}, witness {r['witness']}"
                )

    diagram_final = KPair.of_groups(k0_final_pres.group, k1_final_pres.group)
    for degree, mine, theirs in (
        (0, diagram_final.k0, two_stage.k0),
        (1, diagram_final.k1, two_stage.k1),
    ):
        if theirs.status == DETERMINED and mine.group != theirs.group:
            problems.append(
                f"K{degree}: diagram route gives {mine.group} but the "
                f"two-stage route gives {theirs.group}"
            )
        elif theirs.status == AMBIGUOUS and mine.group not in theirs.candidates:
            problems.append(
                f"K{degree}: diagram group {mine.group} is not among the "
                f"two-stage candidates"
            )

    # corner identifications use K(compacts tensor B) = K(B)
    coeff = (str(coefficient.k0.group), str(coefficient.k1.group))
    corners = {
        "11": {"K0": coeff[0], "K1": coeff[1], "note": "compacts over the coefficients"},
        "12": {"K0": coeff[0], "K1": coeff[1],
               "note": "Toeplitz of layer 1, KK-equivalent to the coefficients"},
        "21": {"K0": coeff[0], "K1": coeff[1],
               "note": "Toeplitz of layer 2, KK-equivalent to the coefficients"},
        "22": {"K0": coeff[0], "K1": coeff[1],
               "note": "iterated Toeplitz, KK-equivalent to the coefficients"},
        "13": {"K0": str(cok1.group), "K1": str(ker1.group),
               "note": "layer-1 quotient algebra (amplified)"},
        "23": {"K0": str(cok1.group), "K1": str(ker1.group),
               "note": "Toeplitz over the layer-1 algebra"},
        "31": {"K0": str(cok2.group), "K1": str(ker2.group),
               "note": "layer-2 quotient algebra (amplified)"},
        "32": {"K0": str(cok2.group), "K1": str(ker2.group),
               "note": "Toeplitz over the layer-2 algebra"},
        "33": {"K0": str(diagram_final.k0.group), "K1": str(diagram_final.k1.group),
               "note": "the iterated quotient algebra"},
    }
    return DiagramReport(
        corners=corners,
        sum_sequence=sum_reports,
        quotient_sequence=quot_reports,
        ij_k0=ij_k0,
        ij_k1=ij_k1,
        final=diagram_final,
        problems=tuple(problems),
    )
