"""JSON-document command line front end.

Five commands: validate, ktheory, fock-check, pullback, examples. Each one
prints a single report, as JSON by default or as a flat text mirror of the
same content under --format text. Exit codes: 0 success, 1 semantic problem
or failed relation check, 2 malformed input, an unusable file path or a bad
environment setting, 3 the two K-theory routes disagree, 4 a resource cap
tripped, 5 an internal certificate check failed or another unexpected
exception was raised, and EXIT_CLOSED_STDOUT (141) when standard output was
closed before the report could be written.

ktheory runs the two-stage route once on every two-layer document. Under
--route both (the default) the nine-corner diagram of a graph pair then
cross-checks that answer; --route iterated leaves the diagram out.
"""

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import sys

from . import __version__
from .abelian import (
    DimensionError,
    FgAbGroup,
    GroupHom,
    IntMatrix,
    InternalError,
    PreconditionError,
    clear_factors,
    hom_cut,
)
from .exactseq import ResourceLimitError, UsageError, ext_bound
from .fixtures import (
    fixture_description,
    fixture_document,
    fixture_ids,
    graph_document,
    write_fixtures,
)
from .ktheory import (
    GraphLayers,
    KPair,
    coefficient_ktheory,
    cuntz_pimsner_ktheory,
    diagram_report,
    iterated_ktheory,
    one_minus,
    pimsner_class_maps,
)
from .model import (
    DEFAULT_TOL,
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

# Exit code when standard output is closed before the report is written (as
# in `cpk ktheory doc.json | head -c 1`): no report was delivered. It is the
# status a shell gives a process that SIGPIPE ends.
EXIT_CLOSED_STDOUT = 141


class SchemaError(ValueError):
    """The document does not have the expected JSON shape."""


class UnusablePath(ValueError):
    """A file named on the command line cannot be read or written."""


@contextlib.contextmanager
def _named_path():
    """Report an OSError on a path the command line names as UnusablePath
    (malformed input, exit 2). Any other OSError, such as a closed standard
    output, is not the input's fault."""
    try:
        yield
    except OSError as exc:
        raise UnusablePath(str(exc)) from exc


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


def _load_document(report: dict, path: str, role=None):
    """Read, hash and decode one document.

    Its input block (path, sha256, and the document's "kind" when it names
    one of KINDS, else null) goes into the report as soon as the file is
    read, under ``role`` when the command reads more than one document, so an
    error report carries it too.
    """
    with _named_path(), open(path, "rb") as fh:
        raw = fh.read()
    block = {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest(), "kind": None}
    if role is None:
        report["input"] = block
    else:
        report.setdefault("input", {})[role] = block
    doc = json.loads(raw.decode("utf-8"))
    if isinstance(doc, dict) and doc.get("kind") in KINDS:
        block["kind"] = doc["kind"]
    return doc


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


def _flatten(prefix: str, value, lines: list):
    if isinstance(value, dict):
        if not value:
            lines.append(f"{prefix}: {{}}")
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{prefix}: []")
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix}: {json.dumps(value)}")


def _emit(report: dict, fmt: str):
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


def cmd_validate(args, report: dict) -> int:
    doc = _load_document(report, args.file)
    problems = []
    kind = report["input"]["kind"]
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
    report["results"] = {"kind": kind, "valid": not problems, "problems": problems}
    report["status"] = "ok" if not problems else "invalid"
    return _finish(report, args.format)


def cmd_ktheory(args, report: dict) -> int:
    bound = ext_bound()  # read before any work, so a bad setting always exits 2
    kind, model = parse_document(_load_document(report, args.file))
    if kind not in ("graph", "two_graph", "permutation", "abstract_kdata"):
        raise SchemaError(f"ktheory does not accept documents of kind {kind!r}")
    split = args.assume_split
    results = {"kind": kind}
    coefficient = coefficient_ktheory(model)

    if kind == "graph":
        cuts = [hom_cut(one_minus(f)) for f in pimsner_class_maps(model)]
        final = cuntz_pimsner_ktheory(*cuts, split, bound)
        results["toeplitz_note"] = "KK-equivalent to the coefficients"
    else:
        data = model if kind == "abstract_kdata" else GraphLayers(model)
        iterated = iterated_ktheory(data, split, bound)
        final = iterated.final
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
        elif args.route == "iterated":
            ideal_sum = KPair.of_groups(data.cok_theta.group, data.ker_theta.group)
            results["ideal_sum"] = ideal_sum.describe()
        else:
            diag = diagram_report(data, final, coefficient)
            results["ideal_sum"] = {"K0": diag.ij_k0.describe(), "K1": diag.ij_k1.describe()}
            results["diagram"] = {
                "final": diag.final.describe(),
                "corners": diag.corners,
                "exactness_sum": diag.sum_sequence,
                "exactness_quotient": diag.quotient_sequence,
                "consistent": not diag.problems,
                "problems": list(diag.problems),
            }
            if diag.problems:
                report["status"] = "route-inconsistency"
    results["coefficient"] = results["toeplitz_corner"] = coefficient.describe()
    results["final"] = final.describe()
    report["results"] = results
    # every outcome solved under --assume-split carries the assumption, and
    # no outcome does without it
    report["assumptions"] = ["split-extension"] if split else []
    return _finish(report, args.format)


def cmd_fock_check(args, report: dict) -> int:
    # imported here: scipy, which cpk.fock loads, is needed by no other command
    from .fock import build_fock, fock_suite

    tol = DEFAULT_TOL if args.tol is None else args.tol
    if not 0 <= tol < math.inf:
        raise UsageError(f"--tol must be a finite non-negative number, got {tol}")
    if args.degree < 0:
        raise UsageError(f"--degree must be non-negative, got {args.degree}")
    kind, model = parse_document(_load_document(report, args.file))
    if kind not in ("graph", "two_graph", "permutation", "unitary_chi"):
        raise SchemaError(f"fock-check does not accept documents of kind {kind!r}")
    rep = build_fock(model, args.degree)
    checks = fock_suite(rep, tol)
    all_passed = all(c.passed for c in checks)
    report["results"] = {
        "kind": kind,
        "degree": args.degree,
        "tolerance": tol,
        "dimension": rep.dimension,
        "checks": [c.describe() for c in checks],
        "all_passed": all_passed,
    }
    report["status"] = "ok" if all_passed else "defect"
    return _finish(report, args.format)


def cmd_pullback(args, report: dict) -> int:
    kind, graph = parse_document(_load_document(report, args.graphfile, "graph"))
    if kind != "graph":
        raise SchemaError(f"pullback needs a base document of kind 'graph', got {kind!r}")
    ckind, cover_map = parse_document(_load_document(report, args.coverfile, "cover"))
    if ckind != "cover":
        raise SchemaError(f"pullback needs a cover document of kind 'cover', got {ckind!r}")
    result = pullback_graph(graph, cover_map)
    out_doc = graph_document(result)
    with _named_path(), open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report["results"] = {
        "written": str(args.out),
        "vertices": len(result.vertices),
        "edges": len(result.edges),
    }
    return _finish(report, args.format)


def cmd_examples(args, report: dict) -> int:
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
        with _named_path():
            results["written"] = write_fixtures(args.write)
    report["results"] = results
    return _finish(report, args.format)


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # a parser is a web of reference cycles: build it once
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
    p.set_defaults(func=cmd_validate, options=("strict",))

    p = sub.add_parser("ktheory", parents=[common],
                       help="K-groups of the algebras a document describes")
    p.add_argument("file")
    p.add_argument("--route", choices=("iterated", "both"), default="both",
                   help="two-layer graphs: the two-stage route alone, or also "
                        "the nine-corner diagram cross-check (default)")
    p.add_argument("--assume-split", action="store_true", dest="assume_split",
                   help="resolve extension ambiguity by assuming every "
                        "extension splits (watermarked in the report)")
    p.set_defaults(func=cmd_ktheory, options=("route", "assume_split"))

    p = sub.add_parser("fock-check", parents=[common],
                       help="numerical relation defects on a truncated Fock module")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=3,
                   help="total degree of the truncation (default 3)")
    p.add_argument("--tol", type=float, default=None,
                   help=f"defect tolerance (default {DEFAULT_TOL})")
    p.set_defaults(func=cmd_fock_check, options=("degree", "tol"))

    p = sub.add_parser("pullback", parents=[common],
                       help="pull a graph back along a vertex cover map")
    p.add_argument("graphfile")
    p.add_argument("coverfile")
    p.add_argument("out")
    p.set_defaults(func=cmd_pullback, options=("out",))

    p = sub.add_parser("examples", parents=[common],
                       help="list the bundled fixtures")
    p.add_argument("--write", metavar="DIR", default=None,
                   help="also materialize every fixture as DIR/<id>.json")
    p.set_defaults(func=cmd_examples, options=("write",))
    return parser


def _option(value):
    """An option as a report shows it: a non-finite number (a refused --tol)
    as text, so that the report stays valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _error_report(report: dict, status: str, message: str, fmt: str) -> int:
    """The command's report with the error in place of any results; it keeps
    the options, and the input block of every document that was read."""
    report.update(status=status, error=message, results={}, assumptions=[])
    return _finish(report, fmt)


def main(argv=None) -> int:
    """Run one command, with automatic garbage collection off until it
    returns. Reference counting frees what a command allocates: its own
    objects form no cycles, and json's indenting encoder leaves a fixed few
    dozen, collected later. Left on, the collector would rerun its full
    passes over every object numpy and scipy hold, inside the largest
    documents."""
    collecting = gc.isenabled()
    gc.disable()
    clear_factors()  # each command factors each distinct matrix once
    try:
        code = _command(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Standard output was closed early. As the SIGPIPE note in Python's
        # signal docs describes, point it at devnull, so that the flush at
        # interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    finally:
        clear_factors()
        if collecting:
            gc.enable()


def _command(argv) -> int:
    args = _build_parser().parse_args(argv)
    options = {name: _option(getattr(args, name)) for name in args.options}
    report = _report(args.command, options)
    try:
        return args.func(args, report)
    except BrokenPipeError:
        raise  # standard output is closed: no report can be written (main)
    except (
        SchemaError, UsageError, UnusablePath, json.JSONDecodeError, UnicodeDecodeError
    ) as exc:
        return _error_report(report, "malformed", str(exc), args.format)
    except ResourceLimitError as exc:
        return _error_report(report, "resource-limit", str(exc), args.format)
    except (PreconditionError, DimensionError) as exc:
        return _error_report(report, "invalid", str(exc), args.format)
    except InternalError as exc:
        return _error_report(report, "internal-error", str(exc), args.format)
    except Exception as exc:  # a bug in cpk: still one report, never a traceback
        return _error_report(
            report, "internal-error", f"{type(exc).__name__}: {exc}", args.format
        )


if __name__ == "__main__":
    sys.exit(main())
