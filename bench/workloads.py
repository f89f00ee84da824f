"""Seeded document generators and closed-form oracles for the cpk benchmark.

A workload is a repeating *round*: a fixed list of document shapes (slots)
whose content (labels, orbit structure, angles, parameters, order) comes
from the seed. Fixing the shapes per round keeps the cost mix of a run
almost independent of the seed, so medians and tails are comparable between
seeds and commits.

Every document carries the answer expected from it, computed here from the
parameters it was generated from and never by calling cpk. ``check`` compares
a cpk report against that answer and returns the list of disagreements.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("ktheory-graph", "ktheory-abstract", "fock-check")

# ktheory-graph: Kunneth flip documents (the minority) and commuting
# permutation pairs, each a tuple of orbit sizes. Orbit shapes, labels and
# order are random; the orbit sizes are fixed because the cost of a document
# follows them. The six 6-vertex orbits hold the median, the two 10-vertex
# documents (four orbits each) the tail.
GRAPH_ROUND = (
    "flip", "flip", "flip", (4,), (2, 2),
    (6,), (6,), (6,), (6,), (6,), (6,),
    (2, 2, 2, 4), (2, 2, 2, 4),
)

# ktheory-abstract: one round pairs a shuffle of P_RANGE with another
# shuffle of it, so every multiplier appears once per round on each side.
P_RANGE = range(2, 26)

# fock-check: (kind, shape, degree). Five (2,2) flips at degree 5 hold the
# median and two rotation unitaries at degree 6 (dimension 769) the tail.
FOCK_ROUND = (
    ("flip", (2, 2), 3),
    ("rotation", None, 3),
    ("permutation", (2,), 4),
    ("flip", (2, 2), 4),
    ("flip", (2, 2), 5),
    ("flip", (2, 2), 5),
    ("flip", (2, 2), 5),
    ("flip", (2, 2), 5),
    ("flip", (2, 2), 5),
    ("permutation", (3,), 4),
    ("flip", (2, 3), 4),
    ("flip", (3, 3), 4),
    ("rotation", None, 6),
    ("rotation", None, 6),
)


@dataclass
class Doc:
    """One generated document: cpk arguments, the JSON body, the oracle."""

    name: str
    command: str
    options: list
    body: dict
    expect: dict = field(default_factory=dict)

    def argv(self, path: str) -> list:
        return [self.command, path] + list(self.options)


# ---------------------------------------------------------------------------
# generators


def _label(rng: random.Random) -> str:
    return f"{rng.randrange(16 ** 4):04x}"


def _orbit(rng: random.Random, size: int):
    """A transitive pair of commuting permutations on range(size): an a x b
    grid of two cyclic shifts, or one cycle with a shift by a random step."""
    divisors = [a for a in range(2, size) if size % a == 0]
    if divisors and rng.random() < 0.5:
        a = rng.choice(divisors)
        b = size // a
        p1 = [((i + 1) % a) * b + j for i in range(a) for j in range(b)]
        p2 = [i * b + (j + 1) % b for i in range(a) for j in range(b)]
    else:
        step = rng.randrange(size)
        p1 = [(i + 1) % size for i in range(size)]
        p2 = [(i + step) % size for i in range(size)]
    if rng.random() < 0.5:
        p1, p2 = p2, p1
    return p1, p2


def permutation_doc(rng: random.Random, sizes) -> dict:
    """A disjoint union of Z^2 orbits of the given sizes, vertices shuffled."""
    p1, p2 = [], []
    for size in sizes:
        base = len(p1)
        o1, o2 = _orbit(rng, size)
        p1 += [base + x for x in o1]
        p2 += [base + x for x in o2]
    n = len(p1)
    names = [f"v{_label(rng)}{i}" for i in range(n)]
    rng.shuffle(names)
    order = list(range(n))
    rng.shuffle(order)
    return {
        "kind": "permutation",
        "vertices": [names[i] for i in order],
        "perm1": {names[i]: names[p1[i]] for i in order},
        "perm2": {names[i]: names[p2[i]] for i in order},
    }


def flip_doc(rng: random.Random, m: int, n: int) -> dict:
    """One vertex, m layer-1 loops, n layer-2 loops, the flip pairing."""
    tag = _label(rng)
    v = f"w{tag}"
    e = [f"e{tag}_{i}" for i in range(m)]
    f = [f"f{tag}_{j}" for j in range(n)]
    return {
        "kind": "two_graph",
        "vertices": [v],
        "edges1": [{"id": x, "src": v, "rng": v} for x in e],
        "edges2": [{"id": y, "src": v, "rng": v} for y in f],
        "chi": [[[x, y], [y, x]] for x in e for y in f],
    }


def rotation_doc(rng: random.Random) -> dict:
    """A (2,2) unitary chi: two plane rotations with angles away from the
    axes, times a global phase."""
    a, b = rng.uniform(0.2, 1.37), rng.uniform(0.2, 1.37)
    theta = rng.uniform(0, 2 * math.pi)
    phase = complex(math.cos(theta), math.sin(theta))
    c1, s1, c2, s2 = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    rows = [[c1, -s1, 0, 0], [s1, c1, 0, 0], [0, 0, c2, -s2], [0, 0, s2, c2]]
    matrix = [[[(x * phase).real, (x * phase).imag] for x in row] for row in rows]
    return {"kind": "unitary_chi", "m": 2, "n": 2, "matrix": matrix}


def abstract_doc(p1: int, p2: int) -> dict:
    """K-data (Z, Z); bimodule i multiplies K0 by p_i and fixes K1."""
    z = {"rank": 1, "torsion": []}
    return {
        "kind": "abstract_kdata",
        "K0": z,
        "K1": z,
        "action1": {"K0": [[p1]], "K1": [[1]]},
        "action2": {"K0": [[p2]], "K1": [[1]]},
    }


def _ktheory(name, body, expect) -> Doc:
    return Doc(name, "ktheory", ["--route", "both"], body, expect)


def _graph_round(rng: random.Random, r: int) -> list:
    docs = []
    for i, slot in enumerate(GRAPH_ROUND):
        name = f"r{r:03d}-{i:02d}"
        if slot == "flip":
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            docs.append(_ktheory(name, flip_doc(rng, m, n), {"flip": (m, n)}))
        else:
            docs.append(_ktheory(name, permutation_doc(rng, slot), {"orbits": len(slot)}))
    rng.shuffle(docs)
    return docs


def _abstract_round(rng: random.Random, r: int) -> list:
    p1s, p2s = list(P_RANGE), list(P_RANGE)
    rng.shuffle(p1s)
    rng.shuffle(p2s)
    return [
        Doc(f"r{r:03d}-{i:02d}", "ktheory", [], abstract_doc(p1, p2),
            {"multipliers": (p1, p2)})
        for i, (p1, p2) in enumerate(zip(p1s, p2s))
    ]


def _fock(name, body, degree, expect) -> Doc:
    return Doc(name, "fock-check", ["--degree", str(degree)], body,
               dict(expect, degree=degree))


def _fock_slot(rng: random.Random, name: str, kind, shape, degree) -> Doc:
    if kind == "flip":
        m, n = shape if rng.random() < 0.5 else shape[::-1]
        return _fock(name, flip_doc(rng, m, n), degree, {"loops": (m, n)})
    if kind == "rotation":
        return _fock(name, rotation_doc(rng), degree, {"loops": (2, 2)})
    return _fock(name, permutation_doc(rng, shape), degree, {"vertices": sum(shape)})


def _fock_round(rng: random.Random, r: int) -> list:
    docs = [
        _fock_slot(rng, f"r{r:03d}-{i:02d}", *slot)
        for i, slot in enumerate(FOCK_ROUND)
    ]
    rng.shuffle(docs)
    return docs


_ROUNDS = {
    "ktheory-graph": _graph_round,
    "ktheory-abstract": _abstract_round,
    "fock-check": _fock_round,
}


def round_stream(workload: str, seed: int):
    """The endless sequence of rounds (lists of documents) drawn from seed."""
    rng = random.Random(f"{workload}/{seed}")
    for r in itertools.count():
        yield _ROUNDS[workload](rng, r)


def warmup_doc(workload: str, seed: int) -> Doc:
    """One small document of the workload's own command, run before timing."""
    rng = random.Random(f"{workload}/{seed}/warmup")
    if workload == "ktheory-graph":
        return _ktheory("warmup", permutation_doc(rng, (4,)), {"orbits": 1})
    if workload == "ktheory-abstract":
        return Doc("warmup", "ktheory", [], abstract_doc(3, 5), {"multipliers": (3, 5)})
    return _fock("warmup", flip_doc(rng, 2, 2), 3, {"loops": (2, 2)})


def cyclic_pair_doc(n: int, step: int) -> Doc:
    """One n-cycle and its step-th power: the profile case for SNF callers."""
    names = [f"c{i}" for i in range(n)]
    body = {
        "kind": "permutation",
        "vertices": names,
        "perm1": {names[i]: names[(i + 1) % n] for i in range(n)},
        "perm2": {names[i]: names[(i + step) % n] for i in range(n)},
    }
    return _ktheory(f"cyclic-{n}-{step}", body, {"orbits": 1})


# ---------------------------------------------------------------------------
# oracles


def parse_group(text: str) -> tuple:
    """'Z^2 + Z/3' -> (2, (3,)); '0' -> (0, ())."""
    if text == "0":
        return (0, ())
    rank = 0
    torsion = []
    for part in text.split(" + "):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unparsable group {text!r}")
    return (rank, tuple(sorted(torsion)))


def _cyclic(order: int) -> tuple:
    return (0, (order,) if order > 1 else ())


def _expect_groups(problems, outcome, degree, status, groups):
    got = [parse_group(c) for c in outcome["candidates"]]
    if outcome["status"] != status:
        problems.append(f"final {degree}: status {outcome['status']}, expected {status}")
    if len(set(got)) != len(got) or set(got) != set(groups):
        problems.append(
            f"final {degree}: candidates {outcome['candidates']}, expected "
            f"{sorted(groups)}"
        )


def _check_graph(expect, results, problems):
    if "flip" in expect:
        m, n = expect["flip"]
        want = [_cyclic(math.gcd(m - 1, n - 1))]
    else:
        want = [(2 * expect["orbits"], ())]
    for degree in ("K0", "K1"):
        _expect_groups(problems, results["final"][degree], degree, "Determined", want)
    if "orbits" in expect:
        diagram = results["diagram"]
        if diagram["consistent"] is not True:
            problems.append("diagram route not consistent")
        verdicts = diagram["exactness_sum"] + diagram["exactness_quotient"]
        if len(verdicts) != 12 or not all(v["exact"] is True for v in verdicts):
            problems.append("not all 12 exactness verdicts pass")


def _check_abstract(expect, results, problems):
    p1, p2 = expect["multipliers"]
    g = math.gcd(p1 - 1, p2 - 1)
    want = [(2, (d,) if d > 1 else ()) for d in range(1, g + 1) if g % d == 0]
    status = "Determined" if g == 1 else "AmbiguousExtension"
    for degree in ("K0", "K1"):
        _expect_groups(problems, results["final"][degree], degree, status, want)


def fock_dimension(expect) -> int:
    """Words of total degree <= N: one per bidegree and vertex for a
    permutation pair, m^a n^b of bidegree (a, b) on one vertex."""
    big_n = expect["degree"]
    if "vertices" in expect:
        return expect["vertices"] * (big_n + 1) * (big_n + 2) // 2
    m, n = expect["loops"]
    return sum(m**a * n**b for a in range(big_n + 1) for b in range(big_n + 1 - a))


def _check_fock(expect, results, problems):
    if results["all_passed"] is not True:
        problems.append("not all relation checks passed")
    checks = results["checks"]
    tol = results["tolerance"]
    if not checks:
        problems.append("no relation checks reported")
    for c in checks:
        if not (c["defect"] <= tol and c["passed"] is True):
            problems.append(f"{c['relation']}: defect {c['defect']} > {tol}")
    want = fock_dimension(expect)
    if results["dimension"] != want:
        problems.append(f"dimension {results['dimension']}, expected {want}")


def check(doc: Doc, code, report) -> list:
    """Disagreements between one cpk run and the document's oracle."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        results = report["results"]
        if doc.command == "fock-check":
            _check_fock(doc.expect, results, problems)
        elif "multipliers" in doc.expect:
            _check_abstract(doc.expect, results, problems)
        else:
            _check_graph(doc.expect, results, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report does not have the expected shape: {exc!r}")
    return problems
