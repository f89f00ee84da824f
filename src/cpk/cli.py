"""JSON-document command line front end.

Five commands: validate, ktheory, fock-check, pullback, examples. Each one
prints a single report, as JSON by default or as a flat text mirror of the
same content under --format text. Exit codes: 0 success, 1 semantic problem
or failed relation check, 2 malformed input or a bad environment setting,
3 the two K-theory routes disagree, 4 a resource cap tripped, 5 an internal
certificate check failed.
"""

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    InternalError,
    PreconditionError,
)
from .exactseq import ResourceLimitError, UsageError, ext_bound
from .fixtures import (
    fixture_description,
    fixture_document,
    fixture_ids,
    graph_document,
    write_fixtures,
)
from .fock import DEFAULT_TOL, build_fock, fock_suite
from .ktheory import (
    GraphLayers,
    coefficient_ktheory,
    cuntz_pimsner_ktheory,
    diagram_report,
    ideal_sum_ktheory,
    iterated_ktheory,
    pimsner_class_maps,
)
from .model import (
    AbstractKData,
    FiniteGraph,
    TwoGraphSpec,
    UnitaryChi,
    pullback_graph,
    two_graph_from_permutations,
    validate_chi,
    validate_graph,
)

KINDS = ("graph", "two_graph", "permutation", "abstract_kdata", "unitary_chi", "cover")


class SchemaError(ValueError):
    """The document does not have the expected JSON shape."""


# ---------------------------------------------------------------------------
# document parsing


def _require(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise SchemaError(f"{ctx}: missing key {key!r}")
    return doc[key]


def _str_list(value, ctx: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{ctx}: expected a list of strings")
    return value


def _int_value(value, ctx: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{ctx}: expected an integer")
    return value


def _number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{ctx}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{ctx}: expected a finite number")
    return number


def _parse_edges(value, ctx: str) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(f"{ctx}: expected a list of edge objects")
    edges = []
    for i, item in enumerate(value):
        where = f"{ctx}[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{where}: expected an object with id/src/rng")
        eid = _require(item, "id", where)
        src = _require(item, "src", where)
        rng = _require(item, "rng", where)
        for name, v in (("id", eid), ("src", src), ("rng", rng)):
            if not isinstance(v, str):
                raise SchemaError(f"{where}: {name} must be a string")
        edges.append((eid, src, rng))
    return tuple(edges)


def _parse_chi(value, ctx: str) -> tuple:
    if not isinstance(value, list):
        raise SchemaError(f"{ctx}: expected a list of [[e,f],[f',e']] entries")
    rules = []
    for i, item in enumerate(value):
        where = f"{ctx}[{i}]"
        ok = (
            isinstance(item, list)
            and len(item) == 2
            and all(
                isinstance(half, list)
                and len(half) == 2
                and all(isinstance(x, str) for x in half)
                for half in item
            )
        )
        if not ok:
            raise SchemaError(f"{where}: expected [[e, f], [f', e']] of edge ids")
        rules.append((tuple(item[0]), tuple(item[1])))
    return tuple(rules)


def _parse_perm(value, ctx: str) -> dict:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise SchemaError(f"{ctx}: expected an object mapping vertex to vertex")
    return dict(value)


def _parse_abstract_group(value, ctx: str) -> FgAbGroup:
    if not isinstance(value, dict):
        raise SchemaError(f"{ctx}: expected {{rank, torsion}}")
    rank = _int_value(_require(value, "rank", ctx), f"{ctx}.rank")
    torsion = _require(value, "torsion", ctx)
    if not isinstance(torsion, list):
        raise SchemaError(f"{ctx}.torsion: expected a list of integers")
    divisors = [_int_value(d, f"{ctx}.torsion[{i}]") for i, d in enumerate(torsion)]
    try:
        # the listed torsion must already be the invariant-factor chain, so
        # that action matrices refer to the generators as written
        return FgAbGroup(rank, tuple(divisors))
    except ValueError as exc:
        raise PreconditionError(f"{ctx}: {exc}") from exc


def _parse_int_matrix(value, ctx: str) -> IntMatrix:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{ctx}: expected a matrix as a list of integer rows")
    rows = [
        [_int_value(x, f"{ctx}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise SchemaError(f"{ctx}: ragged matrix rows")
    return IntMatrix(rows)


def _parse_action(value, ctx: str, k0: FgAbGroup, k1: FgAbGroup) -> tuple:
    if not isinstance(value, dict):
        raise SchemaError(f"{ctx}: expected {{K0, K1}} matrices")
    m0 = _parse_int_matrix(_require(value, "K0", ctx), f"{ctx}.K0")
    m1 = _parse_int_matrix(_require(value, "K1", ctx), f"{ctx}.K1")
    try:
        return GroupHom(k0, k0, m0), GroupHom(k1, k1, m1)
    except DimensionError as exc:
        raise PreconditionError(f"{ctx}: {exc}") from exc


def _parse_complex_matrix(value, ctx: str):
    import numpy as np

    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(f"{ctx}: expected a matrix as a list of rows")
    out = []
    for i, row in enumerate(value):
        entries = []
        for j, cell in enumerate(row):
            where = f"{ctx}[{i}][{j}]"
            if not isinstance(cell, list) or len(cell) != 2:
                raise SchemaError(f"{where}: expected [re, im]")
            entries.append(complex(_number(cell[0], where), _number(cell[1], where)))
        out.append(entries)
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise SchemaError(f"{ctx}: ragged matrix rows")
    return np.array(out, dtype=complex)


def parse_document(doc):
    """Structural checks plus materialization into a model object.

    Raises SchemaError for shape problems and PreconditionError for data
    that is well formed but mathematically inconsistent.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document root must be a JSON object")
    kind = _require(doc, "kind", "document")
    if kind not in KINDS:
        raise SchemaError(f"unknown document kind {kind!r}; expected one of {KINDS}")

    if kind == "graph":
        vertices = _str_list(_require(doc, "vertices", kind), "vertices")
        edges = _parse_edges(_require(doc, "edges", kind), "edges")
        return kind, FiniteGraph(tuple(vertices), edges)

    if kind == "two_graph":
        vertices = _str_list(_require(doc, "vertices", kind), "vertices")
        edges1 = _parse_edges(_require(doc, "edges1", kind), "edges1")
        edges2 = _parse_edges(_require(doc, "edges2", kind), "edges2")
        chi = _parse_chi(_require(doc, "chi", kind), "chi")
        return kind, TwoGraphSpec(tuple(vertices), edges1, edges2, chi)

    if kind == "permutation":
        vertices = _str_list(_require(doc, "vertices", kind), "vertices")
        perm1 = _parse_perm(_require(doc, "perm1", kind), "perm1")
        perm2 = _parse_perm(_require(doc, "perm2", kind), "perm2")
        return kind, two_graph_from_permutations(tuple(vertices), perm1, perm2)

    if kind == "abstract_kdata":
        k0 = _parse_abstract_group(_require(doc, "K0", kind), "K0")
        k1 = _parse_abstract_group(_require(doc, "K1", kind), "K1")
        a1k0, a1k1 = _parse_action(_require(doc, "action1", kind), "action1", k0, k1)
        a2k0, a2k1 = _parse_action(_require(doc, "action2", kind), "action2", k0, k1)
        return kind, AbstractKData(k0, k1, a1k0, a1k1, a2k0, a2k1)

    if kind == "unitary_chi":
        m = _int_value(_require(doc, "m", kind), "m")
        n = _int_value(_require(doc, "n", kind), "n")
        if m < 1 or n < 1:
            raise PreconditionError("m and n must be at least 1")
        matrix = _parse_complex_matrix(_require(doc, "matrix", kind), "matrix")
        return kind, UnitaryChi(m, n, matrix)

    # cover: vertex fibers of a surjection onto a base graph
    vertices = _str_list(_require(doc, "vertices", kind), "vertices")
    cover_map = _parse_perm(_require(doc, "map", kind), "map")
    if set(vertices) != set(cover_map):
        raise SchemaError("cover: vertices and map keys must coincide")
    return kind, cover_map


# ---------------------------------------------------------------------------
# report plumbing


def _load_document(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    doc = json.loads(raw.decode("utf-8"))
    return doc, digest


def _input_block(path: str, digest: str, kind) -> dict:
    return {"path": str(path), "sha256": digest, "kind": kind}


def _report(command: str, options: dict) -> dict:
    return {
        "tool": "cpk",
        "version": __version__,
        "command": command,
        "options": options,
        "assumptions": [],
        "results": {},
        "status": "ok",
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _flatten(prefix: str, value, lines: list):
    if isinstance(value, dict):
        if not value:
            lines.append(f"{prefix}: {{}}")
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{prefix}: []")
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix}: {json.dumps(value)}")


def _emit(report: dict, fmt: str):
    report = _jsonable(report)
    if fmt == "text":
        lines = []
        _flatten("", report, lines)
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


_STATUS_CODES = {
    "ok": 0,
    "invalid": 1,
    "defect": 1,
    "malformed": 2,
    "route-inconsistency": 3,
    "resource-limit": 4,
    "internal-error": 5,
}


def _finish(report: dict, fmt: str) -> int:
    _emit(report, fmt)
    return _STATUS_CODES[report["status"]]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    doc, digest = _load_document(args.file)
    report = _report("validate", {"strict": bool(args.strict)})
    problems = []
    kind = doc.get("kind") if isinstance(doc, dict) else None
    try:
        kind, model = parse_document(doc)
        if kind == "graph":
            problems = validate_graph(model, strict=args.strict).messages()
        elif kind in ("two_graph", "permutation"):
            problems = validate_chi(model).messages()
        elif kind in ("abstract_kdata", "unitary_chi"):
            problems = model.validate().messages()
        # cover documents carry no semantics of their own
    except (PreconditionError, DimensionError) as exc:
        problems = [str(exc)]
    report["input"] = _input_block(args.file, digest, kind)
    report["results"] = {"kind": kind, "valid": not problems, "problems": problems}
    report["status"] = "ok" if not problems else "invalid"
    return _finish(report, args.format)


def cmd_ktheory(args) -> int:
    bound = ext_bound()  # read before any work, so a bad setting always exits 2
    doc, digest = _load_document(args.file)
    kind, model = parse_document(doc)
    if kind not in ("graph", "two_graph", "permutation", "abstract_kdata"):
        raise SchemaError(f"ktheory does not accept documents of kind {kind!r}")
    report = _report(
        "ktheory", {"route": args.route, "assume_split": bool(args.assume_split)}
    )
    report["input"] = _input_block(args.file, digest, kind)
    split = args.assume_split
    results = {"kind": kind}
    outcomes = []
    diag = None

    if kind == "graph":
        coeff = coefficient_ktheory(model)
        final = cuntz_pimsner_ktheory(pimsner_class_maps(model), split, bound)
        results["toeplitz_note"] = "KK-equivalent to the coefficients"
    else:
        if kind == "abstract_kdata":
            iterated = iterated_ktheory(model, split, bound)
        elif args.route == "iterated":
            layers = GraphLayers(model)
            iterated = iterated_ktheory(layers, split, bound)
            results["ideal_sum"] = ideal_sum_ktheory(layers).describe()
        else:
            diag = diagram_report(GraphLayers(model), split, bound)
            iterated = diag.iterated
        coeff, final = iterated.coefficient, iterated.final
        results["toeplitz_note"] = "all three Toeplitz corners are KK-equivalent to the coefficients"
        results["stage1"] = {
            "layer1": iterated.stage1.describe(),
            "layer2": iterated.stage1_other.describe(),
        }
        results["notes"] = list(iterated.notes)
        if kind == "abstract_kdata":
            results["notes"].append(
                "ideal-sum K-groups need boundary data the abstract form does not "
                "carry; only the two-stage route is available"
            )
        for pair in (iterated.stage1, iterated.stage1_other):
            outcomes += [pair.k0, pair.k1]
    results["coefficient"] = coeff.describe()
    results["toeplitz_corner"] = coeff.describe()
    results["final"] = final.describe()
    outcomes += [final.k0, final.k1]
    if diag is not None:
        results["ideal_sum"] = {"K0": diag.ij_k0.describe(), "K1": diag.ij_k1.describe()}
        results["diagram"] = {
            "final": diag.final.describe(),
            "corners": diag.corners,
            "exactness_sum": diag.sum_sequence,
            "exactness_quotient": diag.quotient_sequence,
            "consistent": diag.consistent,
            "problems": list(diag.problems),
        }
        outcomes += [diag.ij_k0, diag.ij_k1]
        if diag.problems or not diag.all_verdicts_pass:
            report["status"] = "route-inconsistency"
    report["results"] = results
    report["assumptions"] = sorted({"split-extension" for o in outcomes if o.assumed_split})
    return _finish(report, args.format)


def cmd_fock_check(args) -> int:
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be a finite non-negative number, got {args.tol}")
    doc, digest = _load_document(args.file)
    kind, model = parse_document(doc)
    if kind not in ("graph", "two_graph", "permutation", "unitary_chi"):
        raise SchemaError(f"fock-check does not accept documents of kind {kind!r}")
    report = _report(
        "fock-check", {"degree": args.degree, "tol": args.tol}
    )
    report["input"] = _input_block(args.file, digest, kind)
    rep = build_fock(model, args.degree)
    checks = fock_suite(rep, args.tol)
    all_passed = all(c.passed for c in checks)
    report["results"] = {
        "kind": kind,
        "degree": args.degree,
        "tolerance": args.tol if args.tol is not None else DEFAULT_TOL,
        "dimension": rep.dimension,
        "checks": [c.describe() for c in checks],
        "all_passed": all_passed,
    }
    report["status"] = "ok" if all_passed else "defect"
    return _finish(report, args.format)


def cmd_pullback(args) -> int:
    graph_doc, graph_digest = _load_document(args.graphfile)
    kind, graph = parse_document(graph_doc)
    if kind != "graph":
        raise SchemaError(f"pullback needs a base document of kind 'graph', got {kind!r}")
    cover_doc, cover_digest = _load_document(args.coverfile)
    ckind, cover_map = parse_document(cover_doc)
    if ckind != "cover":
        raise SchemaError(f"pullback needs a cover document of kind 'cover', got {ckind!r}")
    result = pullback_graph(graph, cover_map)
    out_doc = graph_document(result)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report = _report("pullback", {"out": str(args.out)})
    report["input"] = {
        "graph": _input_block(args.graphfile, graph_digest, "graph"),
        "cover": _input_block(args.coverfile, cover_digest, "cover"),
    }
    report["results"] = {
        "written": str(args.out),
        "vertices": len(result.vertices),
        "edges": len(result.edges),
    }
    return _finish(report, args.format)


def cmd_examples(args) -> int:
    report = _report("examples", {"write": args.write})
    fixtures = [
        {
            "id": fid,
            "kind": fixture_document(fid)["kind"],
            "description": fixture_description(fid),
        }
        for fid in fixture_ids()
    ]
    results = {"fixtures": fixtures}
    if args.write:
        results["written"] = write_fixtures(args.write)
    report["results"] = results
    return _finish(report, args.format)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpk",
        description="K-theory of iterated Cuntz-Pimsner algebras over finite "
        "vertex sets, with numerical relation checks on truncated Fock modules.",
    )
    parser.add_argument("--version", action="version", version=f"cpk {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report as JSON (default) or as a flat text mirror",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="schema and hypothesis checks for one document")
    p.add_argument("file")
    p.add_argument("--strict", action="store_true",
                   help="for graph documents, also require no sinks and no sources")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("ktheory", parents=[common],
                       help="K-groups of the algebras a document describes")
    p.add_argument("file")
    p.add_argument("--route", choices=("iterated", "diagram", "both"), default="both")
    p.add_argument("--assume-split", action="store_true", dest="assume_split",
                   help="resolve extension ambiguity by assuming every "
                        "extension splits (watermarked in the report)")
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("fock-check", parents=[common],
                       help="numerical relation defects on a truncated Fock module")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=3,
                   help="total degree of the truncation (default 3)")
    p.add_argument("--tol", type=float, default=None,
                   help=f"defect tolerance (default {DEFAULT_TOL})")
    p.set_defaults(func=cmd_fock_check)

    p = sub.add_parser("pullback", parents=[common],
                       help="pull a graph back along a vertex cover map")
    p.add_argument("graphfile")
    p.add_argument("coverfile")
    p.add_argument("out")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("examples", parents=[common],
                       help="list the bundled fixtures")
    p.add_argument("--write", metavar="DIR", default=None,
                   help="also materialize every fixture as DIR/<id>.json")
    p.set_defaults(func=cmd_examples)
    return parser


def _error_report(command: str, status: str, message: str, fmt: str) -> int:
    report = _report(command or "?", {})
    report["status"] = status
    report["error"] = message
    return _finish(report, fmt)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fmt = getattr(args, "format", "json")
    try:
        return args.func(args)
    except (
        SchemaError, UsageError, json.JSONDecodeError, UnicodeDecodeError, OSError
    ) as exc:
        return _error_report(args.command, "malformed", str(exc), fmt)
    except ResourceLimitError as exc:
        return _error_report(args.command, "resource-limit", str(exc), fmt)
    except (PreconditionError, DimensionError) as exc:
        return _error_report(args.command, "invalid", str(exc), fmt)
    except InternalError as exc:
        return _error_report(args.command, "internal-error", str(exc), fmt)


if __name__ == "__main__":
    sys.exit(main())
