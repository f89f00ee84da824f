"""The K-theory pipeline.

Single-stage K-groups of the Cuntz-Pimsner algebra of a bimodule, the
two-stage computation for the algebra of a commuting pair (the second
bimodule amplified over the first algebra), and the nine-corner diagram
route with both six-term cross-check sequences.

Degree-zero coefficients of a graph model are Z^V with the bimodule class
acting by the transpose vertex matrix, and its degree-one coefficients are
0; the solver consumes 1 - [E]. Graph specs and abstract K-data share one
two-stage order: the presented cokernel and kernel of 1 - [E] on each
coefficient degree, with the second class acting on them. Both bimodule
orders are always computed and reconciled, and extension ambiguity is
propagated as explicit candidate lists.
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
    hom_cokernel,
    hom_cokernel_presentation,
    hom_kernel,
    hom_kernel_presentation,
    hom_well_defined,
    kernel_basis,
)
from .exactseq import (
    AMBIGUOUS,
    DETERMINED,
    UNDERDETERMINED,
    ExactSequence,
    ExtensionCertificate,
    GroupOutcome,
    ResourceLimitError,
    all_exact,
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

    @property
    def determined(self) -> bool:
        return self.k0.status == DETERMINED and self.k1.status == DETERMINED

    @property
    def groups(self) -> tuple:
        return (self.k0.group, self.k1.group)

    def describe(self) -> dict:
        return {"K0": self.k0.describe(), "K1": self.k1.describe()}


@dataclass(frozen=True)
class PimsnerProblem:
    """Coefficient K-groups plus the bimodule class acting on each degree."""

    coeff_k0: FgAbGroup
    coeff_k1: FgAbGroup
    class_map0: GroupHom
    class_map1: GroupHom

    def __post_init__(self):
        for name, f, g in (
            ("class_map0", self.class_map0, self.coeff_k0),
            ("class_map1", self.class_map1, self.coeff_k1),
        ):
            if f.dom != g or f.cod != g:
                raise PreconditionError(f"{name} is not an endomorphism of {g}")
            if not hom_well_defined(f):
                raise PreconditionError(f"{name} is not well defined on torsion")


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


def pimsner_class_maps(model: Union[FiniteGraph, AbstractKData],
                       bimodule: int = 1) -> PimsnerProblem:
    """The class of the bimodule acting on the coefficient K-groups.

    Graph models: [E] acts on K0 = Z^V by the transpose vertex matrix and by
    zero on the trivial K1. Abstract mode: the stored actions of bimodule 1
    or 2. Strict graph validity (no sinks, no sources) is required.
    """
    if isinstance(model, AbstractKData):
        if bimodule == 1:
            return PimsnerProblem(model.k0, model.k1, model.action1_k0, model.action1_k1)
        if bimodule == 2:
            return PimsnerProblem(model.k0, model.k1, model.action2_k0, model.action2_k1)
        raise PreconditionError("bimodule selector must be 1 or 2")
    if not isinstance(model, FiniteGraph):
        raise PreconditionError(f"unsupported bimodule type {type(model).__name__}")
    validate_graph(model, strict=True).require()
    k0 = FgAbGroup.free(len(model.vertices))
    k1 = FgAbGroup.trivial()
    return PimsnerProblem(
        k0,
        k1,
        GroupHom(k0, k0, vertex_matrix(model).transpose()),
        GroupHom.zero(k1, k1),
    )


def one_minus(f: GroupHom) -> GroupHom:
    if f.dom != f.cod:
        raise PreconditionError("1 - f needs an endomorphism")
    eye = IntMatrix.identity(f.dom.n_generators)
    return GroupHom(f.dom, f.cod, eye - f.matrix)


def _pimsner_sequence(problem: PimsnerProblem) -> ExactSequence:
    return ExactSequence(
        nodes=(problem.coeff_k0, problem.coeff_k0, None,
               problem.coeff_k1, problem.coeff_k1, None),
        arrows=(one_minus(problem.class_map0), None, None,
                one_minus(problem.class_map1), None, None),
    )


def cuntz_pimsner_ktheory(
    problem: PimsnerProblem, assume_split: bool = False, bound: Optional[int] = None
) -> KPair:
    """K-groups of the Cuntz-Pimsner algebra from the six-term layout.

    K0 sits in 0 -> coker(1-[E]_0) -> K0 -> ker(1-[E]_1) -> 0 and K1 in the
    degree-swapped extension; ambiguity propagates as candidates.
    """
    out = solve_six_term(_pimsner_sequence(problem), assume_split, bound)
    if out.status == UNDERDETERMINED:
        raise InternalError(f"the Pimsner sequence has a bad layout: {out.explanation}")
    return KPair(out.resolution_at(2), out.resolution_at(5))


# ---------------------------------------------------------------------------
# the two-stage route


@dataclass(frozen=True)
class IteratedResult:
    coefficient: KPair
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
    sets, so intersect; disjoint sets would mean an internal error."""
    if x.status == UNDERDETERMINED:
        return y if y.status != UNDERDETERMINED else x
    if y.status == UNDERDETERMINED:
        return x
    inter = tuple(g for g in x.candidates if g in y.candidates)
    if not inter:
        raise InternalError("order symmetry violated: disjoint candidate sets")
    status = DETERMINED if len(inter) == 1 else AMBIGUOUS
    return GroupOutcome(status, inter, x.certificate, x.assumed_split or y.assumed_split)


def _reconcile_pairs(a: KPair, b: KPair) -> KPair:
    return KPair(_reconcile_outcome(a.k0, b.k0), _reconcile_outcome(a.k1, b.k1))


class GraphLayers:
    """A two-layer graph spec with its vertex-lattice maps l1 = 1 - M1^T,
    l2 = 1 - M2^T and theta = (l1; -l2), and their presented cokernels and
    kernels.

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
        self.cok1 = Presentation.cokernel_of(self.l1)
        self.ker1 = Presentation.kernel_of(self.l1)
        self.cok2 = Presentation.cokernel_of(self.l2)
        self.ker2 = Presentation.kernel_of(self.l2)
        self.cok_theta = Presentation.cokernel_of(self.theta)
        self.ker_theta = Presentation.kernel_of(self.theta)


def _layers(spec: Union[TwoGraphSpec, GraphLayers]) -> GraphLayers:
    return spec if isinstance(spec, GraphLayers) else GraphLayers(spec)


def _hom_elements(quotient: FgAbGroup, sub: FgAbGroup):
    """All homomorphisms Q -> N as matrices (columns per Q generator).

    Only called when the set is finite: a free Q generator can go to any
    element of a finite N; a torsion generator of order q must land in the
    q-torsion subgroup of N. The set is counted, and refused above the cap,
    before any of it is built.
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
    for cols in product(*per_gen):
        yield IntMatrix.from_columns(cols, rows=sub.n_generators)


def _descended_actions(sub_pres, quot_pres, a_sub, a_quot, assume_split):
    """A stage-one K-group G in 0 -> sub -> G -> quot -> 0 together with all
    stage-two actions on G compatible with the actions a_sub, a_quot (ambient
    matrices) induced on the two pieces.

    Returns (group, [GroupHom], None), or (None, [], reason) when the action
    is genuinely not determined by the input. When a piece is trivial, only
    the other piece's action is computed.
    """
    sub, quot = sub_pres.group, quot_pres.group
    if quot.is_trivial or sub.is_trivial:
        pres, action = (sub_pres, a_sub) if quot.is_trivial else (quot_pres, a_quot)
        return pres.group, [pres.hom_to(pres, action)], None
    act_sub = sub_pres.hom_to(sub_pres, a_sub)
    act_quot = quot_pres.hom_to(quot_pres, a_quot)
    g_pres = Presentation.direct_sum(
        Presentation.cokernel_of(sub.relations()), Presentation.cokernel_of(quot.relations())
    )
    n_sub, n_quot = sub.n_generators, quot.n_generators

    def block(coupling: IntMatrix) -> IntMatrix:
        top = IntMatrix.hstack(act_sub.matrix, coupling)
        bottom = IntMatrix.hstack(IntMatrix.zeros(n_quot, n_sub), act_quot.matrix)
        return IntMatrix.vstack(top, bottom)

    if assume_split:
        action = g_pres.hom_to(g_pres, block(IntMatrix.zeros(n_sub, n_quot)))
        return g_pres.group, [action], None
    if not ext_trivial(quot, sub):
        return (
            None,
            [],
            "stage-one K-group is an extension with nontrivial class group; "
            "the induced action on it is not determined by the input",
        )
    if quot.free_rank > 0 and sub.free_rank > 0:
        return (
            None,
            [],
            "infinitely many couplings between the free quotient piece and the "
            "infinite subgroup piece are compatible with the input",
        )
    actions = [g_pres.hom_to(g_pres, block(c)) for c in _hom_elements(quot, sub)]
    return g_pres.group, actions, None


def _two_stage_order(pieces0, pieces1, action0: IntMatrix, action1: IntMatrix,
                     assume_split, bound) -> KPair:
    """One order of the two-stage computation: the final K-groups from the
    first bimodule's stage-one K-groups and the second bimodule's class
    acting on them.

    pieces_d is the presented (cokernel, kernel) of 1 - [E] on coefficient
    K_d, and action_d the second class on K_d as an ambient matrix. Stage-one
    K0 sits in 0 -> coker_0 -> K0 -> ker_1 -> 0 and K1 in
    0 -> coker_1 -> K1 -> ker_0 -> 0. Every action compatible with the
    pieces is run through the Pimsner sequence and the outcomes are joined.
    """
    (cok0, ker0), (cok1, ker1) = pieces0, pieces1
    g0, acts0, why0 = _descended_actions(cok0, ker1, action0, action1, assume_split)
    g1, acts1, why1 = _descended_actions(cok1, ker0, action1, action0, assume_split)
    if why0 or why1:
        under = GroupOutcome(UNDERDETERMINED, (), None, False, why0 or why1)
        return KPair(under, under)
    if len(acts0) * len(acts1) > _COUPLING_CAP:
        raise ResourceLimitError(
            f"{len(acts0) * len(acts1)} coupling combinations exceed the cap "
            f"{_COUPLING_CAP}"
        )
    k0_outs = []
    k1_outs = []
    for a0 in acts0:
        for a1 in acts1:
            pair = cuntz_pimsner_ktheory(
                PimsnerProblem(g0, g1, a0, a1), assume_split, bound
            )
            k0_outs.append(pair.k0)
            k1_outs.append(pair.k1)
    return KPair(_union_outcomes(k0_outs), _union_outcomes(k1_outs))


def _pieces(f: GroupHom) -> tuple:
    """The presented cokernel and kernel of 1 - f."""
    one_minus_f = one_minus(f)
    return hom_cokernel_presentation(one_minus_f), hom_kernel_presentation(one_minus_f)


def iterated_ktheory(
    spec: Union[TwoGraphSpec, GraphLayers, AbstractKData],
    assume_split: bool = False,
    bound: Optional[int] = None,
) -> IteratedResult:
    """K-theory of the algebra built in two stages, second bimodule over the
    first algebra. Both orders are computed; Determined answers must agree
    and candidate lists are intersected (the truth lies in both)."""
    notes = []
    if isinstance(spec, (TwoGraphSpec, GraphLayers)):
        layers = _layers(spec)
        coeff = coefficient_ktheory(layers.spec)
        stage1 = KPair.of_groups(layers.cok1.group, layers.ker1.group)
        other = KPair.of_groups(layers.cok2.group, layers.ker2.group)
        # coefficient K1 is 0: empty pieces, acted on by a 0 x 0 matrix
        empty = (Presentation.cokernel_of(IntMatrix.zeros(0, 0)),) * 2
        zero = IntMatrix.zeros(0, 0)
        orders = [
            ((layers.cok1, layers.ker1), empty, layers.m2t, zero),
            ((layers.cok2, layers.ker2), empty, layers.m1t, zero),
        ]
    elif isinstance(spec, AbstractKData):
        spec.validate().require()
        coeff = coefficient_ktheory(spec)
        stage1 = cuntz_pimsner_ktheory(pimsner_class_maps(spec, 1), assume_split, bound)
        other = cuntz_pimsner_ktheory(pimsner_class_maps(spec, 2), assume_split, bound)
        orders = [
            (_pieces(d.action1_k0), _pieces(d.action1_k1),
             d.action2_k0.matrix, d.action2_k1.matrix)
            for d in (spec, spec.swapped())
        ]
    else:
        raise PreconditionError(f"unsupported spec type {type(spec).__name__}")
    final_a, final_b = (_two_stage_order(*o, assume_split, bound) for o in orders)
    final = _reconcile_pairs(final_a, final_b)
    if final_a.k0.status != final.k0.status or final_a.k1.status != final.k1.status:
        notes.append("order comparison narrowed the candidate list")
    notes.append("both bimodule orders computed and reconciled")
    return IteratedResult(coeff, stage1, other, final, tuple(notes))


def ideal_sum_ktheory(spec: Union[TwoGraphSpec, GraphLayers]) -> KPair:
    """K of the ideal sum I + J inside the iterated algebra: the cokernel and
    kernel of the stacked map Theta = (l1; -l2) on the vertex lattice."""
    layers = _layers(spec)
    return KPair.of_groups(layers.cok_theta.group, layers.ker_theta.group)


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
    iterated: IteratedResult
    consistent: bool
    problems: tuple

    @property
    def all_verdicts_pass(self) -> bool:
        return all_exact(self.sum_sequence) and all_exact(self.quotient_sequence)


def _presented_sequence(nodes, matrices) -> ExactSequence:
    homs = []
    n = len(nodes)
    for i, mat in enumerate(matrices):
        homs.append(nodes[i].hom_to(nodes[(i + 1) % n], mat))
    return ExactSequence(tuple(p.group for p in nodes), tuple(homs))


def diagram_report(
    spec: Union[TwoGraphSpec, GraphLayers],
    assume_split: bool = False,
    bound: Optional[int] = None,
) -> DiagramReport:
    """Fill the nine corners and verify both six-term cross-check sequences.

    The ideal-sum K-groups are presented directly as the cokernel and kernel
    of the stacked map Theta = (l1; -l2) on Z^V -> Z^{2V}; the final-algebra
    presentations come from candidate boundary maps (simplest signs). Both
    sequences are verified exact node by node. Exactness of the sum sequence
    is what certifies each ideal-sum group as an extension of the flanking
    cokernel by the flanking kernel, so those groups are never enumerated;
    `bound` only reaches the two-stage route. The final groups are
    cross-checked against the two-stage route; any mismatch or non-exact
    node is reported as a problem, never silent.
    """
    layers = _layers(spec)
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
    sum_reports = verify_exact(sum_seq)

    # ideal sum vs the final algebra:
    #   K0(I+J) -> K0(A) -> K0(final) -> K1(I+J) -> K1(A) -> K1(final)
    k0_final_pres = Presentation.direct_sum(
        Presentation.cokernel_of(IntMatrix.hstack(l1, l2)), ker_theta
    )
    k1_final_pres = Presentation.subquotient(
        kernel_basis(IntMatrix.hstack(l2, l1)), theta
    )
    quot_nodes = [cok_theta, free_v, k0_final_pres, ker_theta, zero_pres, k1_final_pres]
    quot_mats = [
        IntMatrix.hstack(l2, l1),
        IntMatrix.vstack(eye, IntMatrix.zeros(nv, nv)),
        IntMatrix.hstack(IntMatrix.zeros(nv, nv), eye),
        IntMatrix.zeros(0, nv),
        IntMatrix.zeros(2 * nv, 0),
        IntMatrix.identity(2 * nv),
    ]
    quot_seq = _presented_sequence(quot_nodes, quot_mats)
    quot_reports = verify_exact(quot_seq)

    # the exactness of sum_seq, checked below, certifies both extensions
    delta_hom = sum_seq.arrows[5]
    ij_k0 = GroupOutcome.of(
        cok_theta.group, ExtensionCertificate(hom_cokernel(delta_hom), sum_corner.group)
    )
    ij_k1 = GroupOutcome.of(
        ker_theta.group, ExtensionCertificate(FgAbGroup.trivial(), hom_kernel(delta_hom))
    )
    problems = []
    for name, reports in (("sum", sum_reports), ("quotient", quot_reports)):
        for r in reports:
            if not r["exact"]:
                problems.append(
                    f"{name} sequence fails exactness at node {r['node']} "
                    f"({r['group']}): {r['reason']}, witness {r['witness']}"
                )

    iterated = iterated_ktheory(layers, assume_split, bound)
    diagram_final = KPair.of_groups(k0_final_pres.group, k1_final_pres.group)
    for degree, mine, theirs in (
        (0, diagram_final.k0, iterated.final.k0),
        (1, diagram_final.k1, iterated.final.k1),
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
    coeff = (str(FgAbGroup.free(nv)), str(FgAbGroup.trivial()))
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
        iterated=iterated,
        consistent=not problems,
        problems=tuple(problems),
    )
