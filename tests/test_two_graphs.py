"""General multi-vertex 2-graphs through the diagram route.

The ideal-sum K-groups are certified by the exactness of the sum sequence
alone, so a spec whose extension problems are large must still answer at
once, agree with the two-stage route and with Evans' homology formula, and
a tampered ideal-sum presentation must be caught by the exactness check.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings

from cpk import cli
from cpk.abelian import IntMatrix, kernel_basis
from cpk.exactseq import DEFAULT_EXT_BOUND
from cpk.fixtures import two_graph_document
from cpk.ktheory import GraphLayers, coefficient_ktheory, diagram_report, iterated_ktheory
from cpk.model import single_vertex_two_graph, vertex_matrix

from support import evans_ktheory, pair_groups, subquotient, two_graph_specs

SECONDS_PER_SPEC = 2.0


def run_cli(tmp_path_factory, doc, argv):
    path = tmp_path_factory.getbasetemp() / "two_graph.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ktheory", str(path), *argv])
    return code, json.loads(out.getvalue())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(spec=two_graph_specs())
def test_diagram_route_matches_evans_formula(tmp_path_factory, spec):
    start = time.perf_counter()
    code, report = run_cli(tmp_path_factory, two_graph_document(spec), ["--route", "both"])
    elapsed = time.perf_counter() - start
    assert code == 0, report.get("error") or report["results"]["diagram"]["problems"]
    assert elapsed < SECONDS_PER_SPEC
    diagram = report["results"]["diagram"]
    assert diagram["consistent"]
    evans = evans_ktheory(vertex_matrix(spec.graph1()), vertex_matrix(spec.graph2()))
    assert (diagram["corners"]["33"]["K0"], diagram["corners"]["33"]["K1"]) == tuple(
        str(g) for g in pair_groups(evans)
    )


class TamperedLayers(GraphLayers):
    """Layers whose K0 ideal-sum presentation has the right denominator but
    a smaller numerator: just large enough that every map of both sequences
    stays well defined, so only exactness can tell that it is wrong."""

    def __init__(self, spec):
        super().__init__(spec)
        nv = len(spec.vertices)
        numerator = IntMatrix.hstack(
            IntMatrix.vstack(self.l1, IntMatrix.zeros(nv, nv)),
            kernel_basis(IntMatrix.hstack(self.l2, self.l1)),
            self.theta,
        )
        self.cok_theta = subquotient(numerator, self.theta)


def test_tampered_ideal_sum_fails_exactness():
    spec = single_vertex_two_graph(1, 3)
    honest = GraphLayers(spec)
    tampered = TamperedLayers(spec)
    assert str(honest.cok_theta.group) == "Z + Z/2"
    assert str(tampered.cok_theta.group) == "Z/2"
    coefficient = coefficient_ktheory(spec)
    final = iterated_ktheory(honest, False, DEFAULT_EXT_BOUND).final
    assert not diagram_report(honest, final, coefficient).problems
    final = iterated_ktheory(tampered, False, DEFAULT_EXT_BOUND).final
    report = diagram_report(tampered, final, coefficient)
    assert report.problems
    assert any(p.startswith("sum sequence fails exactness") for p in report.problems)


def test_tampered_ideal_sum_exits_3(tmp_path_factory, monkeypatch):
    monkeypatch.setattr(cli, "GraphLayers", TamperedLayers)
    doc = two_graph_document(single_vertex_two_graph(1, 3))
    code, report = run_cli(tmp_path_factory, doc, ["--route", "both"])
    assert code == 3
    assert report["status"] == "route-inconsistency"
    assert any(
        p.startswith("sum sequence fails exactness")
        for p in report["results"]["diagram"]["problems"]
    )
