"""Reports on every bundled fixture, compared byte for byte with the
committed references under tests/golden/.

The input path is left out of the comparison, and fock-check defects are
compared within 1e-12 because floating-point sums in the sparse products and
the norm bound may differ in the last digits from platform to platform. To rewrite the references (only when a report is
meant to change):

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import io
import math
import os
import re
import sys
import tempfile

import pytest

from cpk import cli
from cpk.fixtures import fixture_ids, write_fixtures

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# variant name -> (command, options after the document path)
VARIANTS = {
    "iterated": ("ktheory", ["--route", "iterated"]),
    "both": ("ktheory", ["--route", "both"]),
    "assume-split": ("ktheory", ["--route", "both", "--assume-split"]),
    "text": ("ktheory", ["--route", "both", "--format", "text"]),
    "fock-3": ("fock-check", ["--degree", "3"]),
    "fock-6": ("fock-check", ["--degree", "6"]),
}

_PATH_LINE = re.compile(r'^(\s*"path": |input\.path: ).*\n', re.MULTILINE)
_DEFECT = re.compile(r'"defect": ([^,\n]+)')
DEFECT_TOL = 1e-12


def golden_name(fid: str, variant: str) -> str:
    ext = "txt" if "text" in VARIANTS[variant][1] else "json"
    return os.path.join(GOLDEN, fid, f"{variant}.{ext}")


def report(directory: str, fid: str, variant: str) -> str:
    """The report of one variant on one fixture, without its input path,
    after a line holding the exit code."""
    command, options = VARIANTS[variant]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, os.path.join(directory, f"{fid}.json"), *options])
    return f"exit {code}\n" + _PATH_LINE.sub("", out.getvalue())


@pytest.fixture(scope="module")
def fixdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(str(d))
    return str(d)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fid", fixture_ids())
def test_report_matches_golden(fixdir, fid, variant):
    with open(golden_name(fid, variant), encoding="utf-8") as fh:
        want = fh.read()
    got = report(fixdir, fid, variant)
    if VARIANTS[variant][0] == "fock-check":
        want_defects = [float(x) for x in _DEFECT.findall(want)]
        got_defects = [float(x) for x in _DEFECT.findall(got)]
        assert len(got_defects) == len(want_defects)
        for g, w in zip(got_defects, want_defects):
            assert math.isclose(g, w, rel_tol=0.0, abs_tol=DEFECT_TOL), (g, w)
        want = _DEFECT.sub('"defect": #', want)
        got = _DEFECT.sub('"defect": #', got)
    assert got == want


@pytest.mark.parametrize("fid", fixture_ids())
def test_golden_directory_holds_exactly_the_variants(fid):
    # a removed variant must take its references with it
    want = {golden_name(fid, v) for v in VARIANTS}
    directory = os.path.join(GOLDEN, fid)
    got = {os.path.join(directory, name) for name in os.listdir(directory)}
    assert got == want


def test_golden_holds_only_fixture_directories():
    assert sorted(os.listdir(GOLDEN)) == sorted(fixture_ids())


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        for fid in fixture_ids():
            os.makedirs(os.path.join(GOLDEN, fid), exist_ok=True)
            for variant in VARIANTS:
                with open(golden_name(fid, variant), "w", encoding="utf-8") as fh:
                    fh.write(report(directory, fid, variant))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_golden.py --write")
    write_golden()
