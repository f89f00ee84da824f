"""Cyclic exact sequences of finitely generated abelian groups.

Provides verification of exactness (image = kernel at every node, as honest
subgroup lattices), enumeration of all middle groups of an extension
0 -> N -> G -> Q -> 0, and a solver for the standard cyclic six-term layout
with two antipodal unknown nodes. Ambiguous extensions are a first-class
outcome, never silently resolved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Optional

from .abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    PreconditionError,
    Presentation,
    cokernel,
    hom_cokernel,
    hom_cokernel_presentation,
    hom_image_lattice,
    hom_kernel,
    hom_kernel_lattice,
    hom_kernel_presentation,
    hom_well_defined,
)

DETERMINED = "Determined"
AMBIGUOUS = "AmbiguousExtension"
UNDERDETERMINED = "Underdetermined"

DEFAULT_EXT_BOUND = 4096
_ENUM_CAP = 200_000


class ResourceLimitError(RuntimeError):
    """An enumeration bound was exceeded; the message says how to raise it."""


class UsageError(ValueError):
    """An environment setting holds a value the program cannot use."""


def ext_bound() -> int:
    """The torsion-product bound: CPK_EXT_BOUND if set, else the default."""
    raw = os.environ.get("CPK_EXT_BOUND")
    if raw is None:
        return DEFAULT_EXT_BOUND
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"CPK_EXT_BOUND must be a positive integer, got {raw!r}")
    return value


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class ExactSequence:
    """Cyclically ordered nodes with arrows nodes[i] -> nodes[(i+1) % n].

    None marks an unknown node or arrow. Arrow endpoints are validated
    against adjacent nodes whenever both are known.
    """

    nodes: tuple
    arrows: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        n = len(self.nodes)
        if len(self.arrows) != n:
            raise DimensionError("need as many arrows as nodes (cyclic layout)")
        if n < 2 or n % 2:
            raise DimensionError("cyclic sequence length must be even and >= 2")
        for i, f in enumerate(self.arrows):
            if f is None:
                continue
            src, dst = self.nodes[i], self.nodes[(i + 1) % n]
            if src is not None and f.dom != src:
                raise DimensionError(f"arrow {i} domain does not match node {i}")
            if dst is not None and f.cod != dst:
                raise DimensionError(f"arrow {i} codomain does not match node {(i + 1) % n}")

    def __len__(self):
        return len(self.nodes)

    @property
    def complete(self) -> bool:
        return all(x is not None for x in self.nodes) and all(
            x is not None for x in self.arrows
        )

    def rotate(self, k: int) -> "ExactSequence":
        n = len(self.nodes)
        return ExactSequence(
            tuple(self.nodes[(i + k) % n] for i in range(n)),
            tuple(self.arrows[(i + k) % n] for i in range(n)),
        )


def verify_exact(seq: ExactSequence) -> list:
    """Per-node exactness reports: im(incoming) = ker(outgoing) as subgroups.

    Both sides live in the generator coordinates Z^{gens} of the node and are
    compared by mutual SNF lattice membership, each side factored once and
    tested against all generators of the other. A failing node's report
    holds the first failing generator as witness and which inclusion broke.
    """
    if not seq.complete:
        raise PreconditionError("verify_exact needs all nodes and arrows known")
    n = len(seq)
    for i, f in enumerate(seq.arrows):
        if not hom_well_defined(f):
            raise PreconditionError(f"arrow {i} is not well defined on torsion")
    reports = []
    for i in range(n):
        incoming = seq.arrows[(i - 1) % n]
        outgoing = seq.arrows[i]
        im_lat = hom_image_lattice(incoming)
        ker_lat = hom_kernel_lattice(outgoing)
        exact = True
        witness = None
        reason = None
        j = Lattice(ker_lat).first_outside(im_lat)
        if j is not None:
            exact, witness = False, im_lat.column(j)
            reason = "image generator outside the kernel"
        else:
            j = Lattice(im_lat).first_outside(ker_lat)
            if j is not None:
                exact, witness = False, ker_lat.column(j)
                reason = "kernel generator not reached by the image"
        reports.append(
            {
                "node": i,
                "group": str(seq.nodes[i]),
                "exact": exact,
                "witness": witness,
                "reason": reason,
            }
        )
    return reports


def all_exact(reports) -> bool:
    return all(r["exact"] for r in reports)


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class ExtensionCertificate:
    """The data 0 -> sub -> G -> quotient -> 0 behind a resolved node."""

    sub: FgAbGroup
    quotient: FgAbGroup


def _class_reps(n_group: FgAbGroup, q: int):
    """Representatives of N / qN in generator coordinates of N."""
    ranges = [range(q)] * n_group.free_rank
    ranges += [range(gcd(q, d)) for d in n_group.torsion]
    return product(*ranges)


def _middle_group(n_group: FgAbGroup, q_group: FgAbGroup, nus) -> FgAbGroup:
    """Middle group of the extension with class data nus (one rep per
    torsion factor of Q); the free part of Q splits off."""
    n_gens = n_group.n_generators
    t = len(q_group.torsion)
    cols = [list(c) + [0] * t for c in n_group.relations().columns()]
    for j, q in enumerate(q_group.torsion):
        col = [-x for x in nus[j]] + [0] * t
        col[n_gens + j] = q
        cols.append(col)
    rel = IntMatrix.from_columns(cols, rows=n_gens + t)
    g = cokernel(rel)
    return FgAbGroup.from_divisors(g.free_rank + q_group.free_rank, g.torsion)


def extension_candidates(
    n_group: FgAbGroup, q_group: FgAbGroup, bound: Optional[int] = None
) -> list:
    """All iso-classes G fitting into 0 -> N -> G -> Q -> 0.

    Every extension is classified by one class datum per torsion factor of Q
    (an element of N/qN); enumerating those and collecting the middle groups
    gives exactly the realizable set. Result is sorted by (free rank,
    invariant factors) and always contains the split group N + Q.

    >>> from cpk.abelian import FgAbGroup
    >>> [str(g) for g in extension_candidates(FgAbGroup(0, (2,)), FgAbGroup(0, (2,)))]
    ['Z/2 + Z/2', 'Z/4']
    """
    if bound is None:
        bound = ext_bound()
    torsion_product = n_group.torsion_order * q_group.torsion_order
    if torsion_product > bound:
        raise ResourceLimitError(
            f"extension enumeration needs torsion order product {torsion_product} "
            f"> bound {bound}; set CPK_EXT_BOUND higher to allow it"
        )
    total = 1
    for q in q_group.torsion:
        count = q**n_group.free_rank
        for d in n_group.torsion:
            count *= gcd(q, d)
        total *= count
    if total > _ENUM_CAP:
        raise ResourceLimitError(
            f"extension enumeration would scan {total} classes (cap {_ENUM_CAP})"
        )
    seen = {}
    for nus in product(*[_class_reps(n_group, q) for q in q_group.torsion]):
        g = _middle_group(n_group, q_group, nus)
        seen[(g.free_rank, g.torsion)] = g
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# the six-term solver


@dataclass(frozen=True)
class NodeResolution:
    position: int
    status: str  # DETERMINED or AMBIGUOUS
    candidates: tuple
    certificate: ExtensionCertificate
    assumed_split: bool = False

    @property
    def group(self) -> FgAbGroup:
        if self.status != DETERMINED:
            raise PreconditionError("no single group on an ambiguous node")
        return self.candidates[0]


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # DETERMINED | AMBIGUOUS | UNDERDETERMINED
    resolutions: tuple = ()
    explanation: Optional[str] = None

    @property
    def groups(self) -> dict:
        return {r.position: r.group for r in self.resolutions}

    def resolution_at(self, position: int) -> NodeResolution:
        for r in self.resolutions:
            if r.position == position:
                return r
        raise KeyError(position)


def solve_six_term(
    seq: ExactSequence, assume_split: bool = False, bound: Optional[int] = None
) -> SolveOutcome:
    """Resolve the two antipodal unknown nodes of a cyclic sequence.

    Each unknown G sits in 0 -> coker(f) -> G -> ker(h) -> 0 where f is the
    known arrow two steps upstream and h the known arrow just downstream.
    The node is Determined exactly when one candidate middle group exists
    (in particular whenever the quotient is free); otherwise every candidate
    is reported. A layout violation yields an Underdetermined outcome with
    an explanation rather than an exception.
    """
    n = len(seq)
    half = n // 2
    unknown_nodes = [i for i, g in enumerate(seq.nodes) if g is None]
    if len(unknown_nodes) != 2 or unknown_nodes[1] - unknown_nodes[0] != half:
        return SolveOutcome(
            UNDERDETERMINED,
            explanation=(
                f"need exactly two antipodal unknown nodes, got positions "
                f"{unknown_nodes}"
            ),
        )
    resolutions = []
    for u in unknown_nodes:
        for a in ((u - 1) % n, u):
            if seq.arrows[a] is not None:
                return SolveOutcome(
                    UNDERDETERMINED,
                    explanation=f"arrow {a} touches the unknown node {u} but is marked known",
                )
        f = seq.arrows[(u - 2) % n]
        h = seq.arrows[(u + 1) % n]
        if f is None or h is None:
            return SolveOutcome(
                UNDERDETERMINED,
                explanation=(
                    f"unknown node {u} needs known arrows at positions "
                    f"{(u - 2) % n} and {(u + 1) % n}"
                ),
            )
        if not hom_well_defined(f) or not hom_well_defined(h):
            raise PreconditionError("flanking arrow is not well defined on torsion")
        sub = hom_cokernel(f)
        quot = hom_kernel(h)
        cert = ExtensionCertificate(sub=sub, quotient=quot)
        if assume_split:
            resolutions.append(
                NodeResolution(u, DETERMINED, (sub.direct_sum(quot),), cert, True)
            )
            continue
        cands = extension_candidates(sub, quot, bound)
        status = DETERMINED if len(cands) == 1 else AMBIGUOUS
        resolutions.append(NodeResolution(u, status, tuple(cands), cert))
    overall = (
        DETERMINED if all(r.status == DETERMINED for r in resolutions) else AMBIGUOUS
    )
    return SolveOutcome(overall, tuple(resolutions))


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
