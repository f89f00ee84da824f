"""Self-tests of the benchmark: oracles, failure accounting, tracer.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import copy
import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cpk()


@pytest.fixture
def write(tmp_path):
    def _write(doc):
        return run.write_docs([doc], str(tmp_path))[0]

    return _write


def _sample_docs():
    rng = random.Random(7)
    perm = workloads.permutation_doc(rng, (2, 4))
    return {
        "permutation": workloads._ktheory("perm", perm, {"orbits": 2}),
        "flip": workloads._ktheory("flip", workloads.flip_doc(rng, 3, 5), {"flip": (3, 5)}),
        "abstract": workloads.Doc("abstract", "ktheory", [], workloads.abstract_doc(7, 13),
                                  {"multipliers": (7, 13)}),
        "fock-flip": workloads._fock("fock-flip", workloads.flip_doc(rng, 2, 3), 3,
                                     {"loops": (2, 3)}),
        "fock-perm": workloads._fock("fock-perm", perm, 3, {"vertices": 6}),
        "fock-rotation": workloads._fock("fock-rotation", workloads.rotation_doc(rng), 4,
                                         {"loops": (2, 2)}),
    }


def _report(doc, path):
    import contextlib
    import io
    import json

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = CLI.main(doc.argv(path))
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("kind", sorted(_sample_docs()))
def test_oracle_accepts_cpk(kind, write):
    doc = _sample_docs()[kind]
    code, report = _report(doc, write(doc))
    assert workloads.check(doc, code, report) == []


# -- negative controls: each oracle must reject one wrong answer


def _mutations():
    def drop_orbit(doc, report):
        doc.expect["orbits"] -= 1

    def wrong_group(doc, report):
        report["results"]["final"]["K1"]["candidates"] = ["Z^2 + Z/2"]

    def inconsistent(doc, report):
        report["results"]["diagram"]["exactness_quotient"][3]["exact"] = False

    def wrong_gcd(doc, report):
        doc.expect["flip"] = (3, 4)

    def drop_candidate(doc, report):
        report["results"]["final"]["K0"]["candidates"].pop()

    def wrong_status(doc, report):
        report["results"]["final"]["K1"]["status"] = "Determined"

    def wrong_dimension(doc, report):
        report["results"]["dimension"] += 1

    def big_defect(doc, report):
        report["results"]["checks"][0]["defect"] = 1e-3

    def exit_code(doc, report):
        return 1

    def missing_key(doc, report):
        del report["results"]

    return [
        ("permutation", drop_orbit), ("permutation", wrong_group),
        ("permutation", inconsistent), ("permutation", exit_code),
        ("flip", wrong_gcd), ("abstract", drop_candidate), ("abstract", wrong_status),
        ("fock-perm", wrong_dimension), ("fock-rotation", big_defect),
        ("fock-flip", missing_key),
    ]


@pytest.mark.parametrize("kind,mutate", _mutations(),
                         ids=[f"{k}-{m.__name__}" for k, m in _mutations()])
def test_oracle_rejects_wrong_report(kind, mutate, write):
    doc = _sample_docs()[kind]
    code, report = _report(doc, write(doc))
    doc, report = copy.deepcopy(doc), copy.deepcopy(report)
    code = mutate(doc, report) or code
    assert workloads.check(doc, code, report)


def test_failures_are_counted_not_raised(write, tmp_path):
    good = _sample_docs()["abstract"]
    missing = copy.deepcopy(good)
    missing.name = "missing"
    items = [(good, write(good)), (missing, str(tmp_path / "no-such-file.json"))] * 2
    loop = run.closed_loop(CLI, items)
    assert len(loop.latencies) == 4
    assert [name for name, _ in loop.failures] == ["missing", "missing"]

    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    _, problems = run.run_doc(Crashing, good, items[0][1])
    assert problems and "boom" in problems[0]


# -- tracer


def _is_original(owner, attr, original):
    current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return current is original


def test_untraced_run_leaves_every_binding_original(write):
    bound = tracer.bindings()
    assert any(owner.__name__ == "cpk.ktheory" and attr == "verify_exact"
               for owner, attr, _, _ in bound)
    doc = _sample_docs()["permutation"]
    run.closed_loop(CLI, [(doc, write(doc))])
    assert all(_is_original(o, a, f) for o, a, f, _ in bound)

    t = tracer.Tracer()
    t.install()
    try:
        assert not any(_is_original(o, a, f) for o, a, f, _ in bound)
    finally:
        t.restore()
    assert all(_is_original(o, a, f) for o, a, f, _ in bound)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracer_counts_match_cprofile(workload, write):
    doc = next(workloads.round_stream(workload, 3))[0]
    mismatches, _, _, problems = run.tracer_check(CLI, doc, write(doc))
    assert mismatches == [] and problems == []


@pytest.mark.parametrize("workload,layer", [
    ("ktheory-graph", "abelian.snf"),
    ("ktheory-abstract", "abelian.snf"),
    ("fock-check", "fock.build"),
])
def test_expected_layer_is_traced(workload, layer, tmp_path):
    docs = next(workloads.round_stream(workload, 5))
    paths = run.write_docs(docs, str(tmp_path))
    t = tracer.Tracer()
    t.install()
    try:
        loop = run.closed_loop(CLI, itertools.islice(zip(docs, paths), 3), tracer=t)
    finally:
        t.restore()
    assert loop.failures == []
    assert t.counts()[layer] >= 1
    assert t.counts()[tracer.DOCUMENT] == 3
    assert set(t.metrics()) | {"abelian.snf_from_reduce_frac", "trace.docs",
                               "trace.overhead_s", "trace.overhead_frac"} == set(tracer.PER_LAYER)


# -- generators and statistics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_seeded(workload):
    def bodies(seed):
        stream = workloads.round_stream(workload, seed)
        return [d.body for _ in range(2) for d in next(stream)]

    assert bodies(11) == bodies(11)
    assert bodies(11) != bodies(12)


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 60)]) == (50, 30.0)
    assert run.tail([float(i) for i in range(1, 2001)]) == (99, 1980.0)


def test_reference_speed_scaling():
    ref = run.CAL_REF_S
    assert run.at_reference_speed([1.0, 2.0], [(ref, ref)] * 2) == pytest.approx([1.0, 2.0])
    # a machine running at half speed doubles the calibration: times halve
    slow = run.at_reference_speed([1.0, 2.0, 3.0], [(2 * ref, 2 * ref)] * 3)
    assert slow == pytest.approx([0.5, 1.0, 1.5])
