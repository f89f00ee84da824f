"""Write the report-comparison set: the argv, exit code, standard output and
standard error of every report in it, one file per report, and the hashes
of the Fock operators, so that two checkouts can be compared with
``diff -r``.

    PYTHONPATH=src python3 tests/report_set.py OUT
    PYTHONPATH=../parent/src python3 tests/report_set.py OUT_PARENT
    diff -r OUT_PARENT OUT

cpk is imported from the path as given, so one copy of this script runs
against any checkout; the bench document generators are read from
bench/workloads.py next to it. The set holds 2075 reports and 70 operator
files. The reports are:

- every bundled fixture under ``ktheory`` with no flags, ``--route
  iterated``, ``--assume-split`` and ``--format text``, and under
  ``validate``, ``fock-check --degree 3`` and ``fock-check --degree 6`` (84);
- the cyclic pairs (v -> v+1, v -> v+2) at n = 8, 16, 24, 32, 48, 64 and 128
  under ``--route both`` (7);
- the first 156 ``ktheory-graph``, 50 ``ktheory-abstract`` and 50
  ``fock-check`` bench documents of seed 11, with their bench options (256);
- the 576 ``abstract_doc`` documents (both multipliers in 2..25) under no
  flags, ``--assume-split`` and ``--route iterated`` (1728).

The operator files cover the 10 bundled fixtures that fock-check accepts,
at degrees 0 to 6: for every creator, annihilator (on the whole basis) and
vertex projection, the sha256 of its data, indices and indptr arrays, its
shape and their dtypes. Case <fixture> at degree d goes to
OUT/operators/<fixture>-<d>.txt.

Report n goes to OUT/<n>.txt. Every document is written once, to
OUT/docs/<name>.json, and each command runs in-process through cpk.cli.main
from OUT with the relative path docs/<name>.json, so the input block of a
report reads the same whatever OUT is. CPK_EXT_BOUND is unset for the run.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from cpk import cli
from cpk.fixtures import fixture_document, fixture_ids
from cpk.fock import build_fock

BENCH = Path(__file__).resolve().parent.parent / "bench"

FIXTURE_COMMANDS = (
    ("ktheory", []),
    ("ktheory", ["--route", "iterated"]),
    ("ktheory", ["--assume-split"]),
    ("ktheory", ["--format", "text"]),
    ("validate", []),
    ("fock-check", ["--degree", "3"]),
    ("fock-check", ["--degree", "6"]),
)
CYCLIC_SIZES = (8, 16, 24, 32, 48, 64, 128)
BENCH_SEED = 11
BENCH_COUNTS = (("ktheory-graph", 156), ("ktheory-abstract", 50), ("fock-check", 50))
ABSTRACT_FLAGS = ([], ["--assume-split"], ["--route", "iterated"])
FOCK_KINDS = ("graph", "two_graph", "permutation", "unitary_chi")
FOCK_DEGREES = range(7)


def entries(workloads):
    """(document name, document, command, options) of every report, in a
    fixed order."""
    for fid in fixture_ids():
        doc = fixture_document(fid)
        for command, options in FIXTURE_COMMANDS:
            yield f"fixture-{fid}", doc, command, options
    for n in CYCLIC_SIZES:
        doc = workloads.cyclic_pair_doc(n, 2)
        yield f"cyclic-{n}", doc.body, doc.command, doc.options
    for workload, count in BENCH_COUNTS:
        stream = itertools.chain.from_iterable(workloads.round_stream(workload, BENCH_SEED))
        for i, doc in enumerate(itertools.islice(stream, count)):
            yield f"{workload}-{BENCH_SEED}-{i:03d}", doc.body, doc.command, doc.options
    for p1, p2 in itertools.product(workloads.P_RANGE, repeat=2):
        doc = workloads.abstract_doc(p1, p2)
        for options in ABSTRACT_FLAGS:
            yield f"abstract-{p1}-{p2}", doc, "ktheory", options


def operator_hashes(model, degree: int) -> str:
    """One line per creator, annihilator and vertex projection of the Fock
    build: the sha256 of each CSR array, the shape and the dtypes."""
    rep = build_fock(model, degree)
    lines = []
    for kind, operators in (("creator", rep.creators),
                            ("annihilator", rep.annihilator(rep.dimension)),
                            ("projection", rep.projections)):
        for name, m in operators.items():
            arrays = (m.data, m.indices, m.indptr)
            digests = " ".join(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
            dtypes = " ".join(str(a.dtype) for a in arrays)
            lines.append(f"{kind} {name}: {digests} shape {m.shape} dtypes {dtypes}\n")
    return "".join(lines)


def run(argv: list) -> str:
    """One command's argv, exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (
        f"argv: {json.dumps(argv)}\nexit: {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory for the reports; created if missing")
    out = Path(parser.parse_args(argv).out).resolve()
    (out / "docs").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(BENCH))
    import workloads

    os.environ.pop("CPK_EXT_BOUND", None)
    os.chdir(out)
    written = set()
    for n, (name, doc, command, options) in enumerate(entries(workloads)):
        path = f"docs/{name}.json"
        if name not in written:
            Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            written.add(name)
        Path(f"{n:04d}.txt").write_text(run([command, path, *options]))
    (out / "operators").mkdir(exist_ok=True)
    cases = 0
    for fid in fixture_ids():
        kind, model = cli.parse_document(fixture_document(fid))
        if kind in FOCK_KINDS:
            for degree in FOCK_DEGREES:
                Path(f"operators/{fid}-{degree}.txt").write_text(operator_hashes(model, degree))
                cases += 1
    print(f"{n + 1} reports, {len(written)} documents, {cases} operator files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
