"""Mutated fixture documents through the command line: every input ends in
one strict-JSON report with a documented exit code, never in a traceback."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cpk import cli
from cpk.fixtures import fixture_document, fixture_ids

COMMANDS = (["validate"], ["ktheory"], ["fock-check", "--degree", "2"])

REPLACEMENTS = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=-(2**64), max_value=-1),
    st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


def _paths(node, prefix=()):
    """Every position inside a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated_documents(draw):
    doc = fixture_document(draw(st.sampled_from(fixture_ids())))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(REPLACEMENTS)
    *outer, last = path
    parent = doc
    for key in outer:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(REPLACEMENTS)
    return doc


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(doc=mutated_documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_end_in_a_report(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command[0], str(path), *command[1:]])
    assert code in range(6)
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert cli._STATUS_CODES[report["status"]] == code
