"""Cyclic exact sequences of finitely generated abelian groups.

Provides verification of exactness (image = kernel at every node, as honest
subgroup lattices), enumeration of all middle groups of an extension
0 -> N -> G -> Q -> 0, and a solver for the standard cyclic six-term layout
with two antipodal unknown nodes. The solver resolves each unknown node to
a GroupOutcome, the same record the K-theory reports carry: one group, or
every extension candidate. Ambiguous extensions are a first-class outcome,
never silently resolved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from math import gcd
from typing import Optional

from .abelian import (
    DimensionError,
    FgAbGroup,
    IntMatrix,
    Lattice,
    PreconditionError,
    cokernel,
    hom_cokernel,
    hom_image_lattice,
    hom_kernel,
    hom_kernel_lattice,
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
    """An option or environment setting holds a value the program cannot use."""


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


def ext_trivial(quotient: FgAbGroup, sub: FgAbGroup) -> bool:
    """Ext(Q, N) = 0, i.e. N/qN vanishes for every invariant factor q of Q."""
    for q in quotient.torsion:
        if sub.free_rank > 0:
            return False
        if any(gcd(q, d) != 1 for d in sub.torsion):
            return False
    return True


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
    invariant factors) and always contains the split group N + Q. When
    Ext(Q, N) vanishes that is the only one, found without enumerating.

    >>> from cpk.abelian import FgAbGroup
    >>> [str(g) for g in extension_candidates(FgAbGroup(0, (2,)), FgAbGroup(0, (2,)))]
    ['Z/2 + Z/2', 'Z/4']
    """
    if bound is None:
        bound = ext_bound()  # read first, so a bad setting is always reported
    if ext_trivial(q_group, n_group):
        return [n_group.direct_sum(q_group)]
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
class GroupOutcome:
    """One K-group, either pinned down or a list of extension candidates."""

    status: str  # DETERMINED | AMBIGUOUS | UNDERDETERMINED
    candidates: tuple = ()
    certificate: Optional[ExtensionCertificate] = None
    assumed_split: bool = False
    explanation: Optional[str] = None

    @staticmethod
    def of(group: FgAbGroup, certificate=None, assumed_split=False) -> "GroupOutcome":
        return GroupOutcome(DETERMINED, (group,), certificate, assumed_split)

    @property
    def group(self) -> FgAbGroup:
        if self.status != DETERMINED:
            raise PreconditionError(f"no single group available (status {self.status})")
        return self.candidates[0]

    def describe(self) -> dict:
        out = {"status": self.status, "candidates": [str(g) for g in self.candidates]}
        if self.status == DETERMINED:
            out["group"] = str(self.group)
        if self.certificate is not None:
            out["extension"] = {
                "sub": str(self.certificate.sub),
                "quotient": str(self.certificate.quotient),
            }
        if self.assumed_split:
            out["assumption"] = "split-extension"
        if self.explanation:
            out["explanation"] = self.explanation
        return out


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # DETERMINED | AMBIGUOUS | UNDERDETERMINED
    resolutions: dict = field(default_factory=dict)  # position -> GroupOutcome
    explanation: Optional[str] = None

    @property
    def groups(self) -> dict:
        return {u: r.group for u, r in self.resolutions.items()}

    def resolution_at(self, position: int) -> GroupOutcome:
        return self.resolutions[position]


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
    resolutions = {}
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
            resolutions[u] = GroupOutcome.of(sub.direct_sum(quot), cert, True)
            continue
        cands = extension_candidates(sub, quot, bound)
        status = DETERMINED if len(cands) == 1 else AMBIGUOUS
        resolutions[u] = GroupOutcome(status, tuple(cands), cert)
    overall = (
        DETERMINED
        if all(r.status == DETERMINED for r in resolutions.values())
        else AMBIGUOUS
    )
    return SolveOutcome(overall, resolutions)
