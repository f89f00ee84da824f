"""Cyclic exact sequences of finitely generated abelian groups.

Provides verification of exactness (image = kernel at every node, as honest
subgroup lattices, from one factorization per arrow), enumeration of all
middle groups of an extension 0 -> N -> G -> Q -> 0, and a solver for the
one six-term layout of Pimsner's sequence:
A0 -f0-> B0 -> X0 -> A1 -f1-> B1 -> X1 -> A0 with the groups X0, X1
unknown. The solver reads only the cut (coker f_d, ker f_d) of each known
map, never the map itself, and resolves each unknown to a GroupOutcome, the
same record the K-theory reports carry: one group, or every extension
candidate. Ambiguous extensions are a first-class outcome, never silently
resolved.
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
    IntMatrix,
    PreconditionError,
    _in_relations,
    cokernel,
    hom_image_lattice,
    hom_kernel_lattice,
    hom_well_defined,
    once_per_command,
    solve,
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

    Every arrow's endpoints are validated against its adjacent nodes.
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
            if f.dom != self.nodes[i]:
                raise DimensionError(f"arrow {i} domain does not match node {i}")
            if f.cod != self.nodes[(i + 1) % n]:
                raise DimensionError(f"arrow {i} codomain does not match node {(i + 1) % n}")

    def __len__(self):
        return len(self.nodes)


def verify_exact(seq: ExactSequence) -> list:
    """Per-node exactness reports: im(incoming) = ker(outgoing) as subgroups.

    Both sides live in the generator coordinates Z^{gens} of the node, as
    the preimage [F_in | R] of the image and the preimage K of the kernel.
    A column of [F_in | R] lies in K exactly when F_out maps it into the
    next node's relation lattice, which is diagonal, so im <= ker needs no
    factorization. K is solved in one block against the lattice [F_in | R],
    which is the previous arrow's [F | R_cod], so a sequence of n arrows
    factors n matrices. A failing node's report holds the first failing
    generator as witness and which inclusion broke.
    """
    n = len(seq)
    for i, f in enumerate(seq.arrows):
        if not hom_well_defined(f):
            raise PreconditionError(f"arrow {i} is not well defined on torsion")
    reports = []
    for i in range(n):
        incoming = seq.arrows[(i - 1) % n]
        outgoing = seq.arrows[i]
        im_lat = hom_image_lattice(incoming)
        witness = reason = None
        for col, image in zip(im_lat.columns(), (outgoing.matrix @ im_lat).columns()):
            if not _in_relations(outgoing.cod, [image]):
                witness, reason = col, "image generator outside the kernel"
                break
        else:
            ker_lat = hom_kernel_lattice(outgoing)
            for col, x in zip(ker_lat.columns(), solve(im_lat, ker_lat)):
                if x is None:
                    witness, reason = col, "kernel generator not reached by the image"
                    break
        reports.append(
            {
                "node": i,
                "group": str(seq.nodes[i]),
                "exact": witness is None,
                "witness": witness,
                "reason": reason,
            }
        )
    return reports


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


def _middle_groups(n_group: FgAbGroup, q_group: FgAbGroup):
    """(free rank, torsion) of the middle group of every extension class,
    one class datum per torsion factor of Q; the free part of Q splits off."""
    n_gens = n_group.n_generators
    t = len(q_group.torsion)
    base = [list(c) + [0] * t for c in n_group.relations().columns()]
    for nus in product(*[_class_reps(n_group, q) for q in q_group.torsion]):
        cols = list(base)
        for j, q in enumerate(q_group.torsion):
            col = [-x for x in nus[j]] + [0] * t
            col[n_gens + j] = q
            cols.append(col)
        g = cokernel(IntMatrix.from_columns(cols, rows=n_gens + t))
        yield g.free_rank + q_group.free_rank, g.torsion


@once_per_command
def extension_candidates(n_group: FgAbGroup, q_group: FgAbGroup, bound: int) -> tuple:
    """All iso-classes G fitting into 0 -> N -> G -> Q -> 0.

    Every extension is classified by one class datum per torsion factor of Q
    (an element of N/qN); enumerating those and collecting the middle groups
    gives exactly the realizable set. Result is sorted by (free rank,
    invariant factors) and always contains the split group N + Q. When
    Ext(Q, N) vanishes that is the only one, found without enumerating;
    otherwise a torsion order product above bound is refused. Each
    (N, Q, bound) is answered once per command.

    >>> from cpk.abelian import FgAbGroup
    >>> z2 = FgAbGroup(0, (2,))
    >>> [str(g) for g in extension_candidates(z2, z2, DEFAULT_EXT_BOUND)]
    ['Z/2 + Z/2', 'Z/4']
    """
    if ext_trivial(q_group, n_group):
        return (n_group.direct_sum(q_group),)
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
    return tuple([FgAbGroup(*k) for k in sorted(set(_middle_groups(n_group, q_group)))])


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


@once_per_command
def solve_six_term(cut0: tuple, cut1: tuple, assume_split: bool, bound: int) -> tuple:
    """The unknown groups (X0, X1) of the cyclic exact sequence

        A0 -f0-> B0 -> X0 -> A1 -f1-> B1 -> X1 -> A0,

    given cut_d = (coker f_d, ker f_d) as groups. X0 sits in
    0 -> coker(f0) -> X0 -> ker(f1) -> 0 and X1 in
    0 -> coker(f1) -> X1 -> ker(f0) -> 0. Each is Determined exactly when one
    candidate middle group exists (in particular whenever the quotient is
    free); otherwise every candidate under bound is reported, or the split
    group under assume_split. X0 is solved first. Each distinct pair of cuts
    is solved once per command.
    """
    outcomes = []
    for (sub, _), (_, quot) in ((cut0, cut1), (cut1, cut0)):
        cert = ExtensionCertificate(sub=sub, quotient=quot)
        if assume_split:
            outcomes.append(GroupOutcome.of(sub.direct_sum(quot), cert, True))
            continue
        cands = extension_candidates(sub, quot, bound)
        status = DETERMINED if len(cands) == 1 else AMBIGUOUS
        outcomes.append(GroupOutcome(status, cands, cert))
    return tuple(outcomes)
