"""Property test of the CLI contract on mutated catalog documents.

Each example takes a valid document, most of them catalog dumps, mutates it
(drops a field, retypes a value or swaps in another schema name, puts a
point out of range, truncates a list) and runs ``bhf`` in-process on it.  Whatever the input, ``main`` must return 0, 1 or
2 and raise nothing.  Examples are derandomized, so the run is the same
every time.
"""

import contextlib
import copy
import io
import json

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhf.cli import main
from bhf.f2u import F2UComplex
from bhf.gf2 import F2ChainComplex
from bhf.serialize import SCHEMAS, catalog_lookup, serialize
from bhf.strands import torus_element

# (document, the commands that read it; "DOC" is replaced by it)
BASES = [
    (serialize(catalog_lookup("h_minus1")), [
        ["dmod", "verify", "--in", "DOC"], ["dmod", "reduce", "--in", "DOC"],
        ["pair", "--left", "DOC", "--right", "h_0", "--homology"],
    ]),
    (serialize(catalog_lookup("twist:Tm")), [
        ["dmod", "verify", "--in", "DOC"], ["pair", "--dd", "DOC", "--left", "h_inf"],
    ]),
    (serialize(catalog_lookup("dd_id:torus")), [
        ["dmod", "reduce", "--in", "DOC"], ["pair", "--dd", "DOC", "--left", "h_0"],
    ]),
    (serialize(catalog_lookup("trefoil")), [
        ["knot", "tau", "--in", "DOC"], ["knot", "alexander", "--in", "DOC"],
        ["knot", "cfd", "--in", "DOC", "--framing", "1"],
    ]),
    (serialize(catalog_lookup("pattern:cable21")), [
        ["dmod", "verify", "--in", "DOC"],
        ["pair", "--left", "h_0", "--right", "DOC", "--homology"],
    ]),
    (serialize(torus_element("rho12")), [
        ["algebra", "mul", "rho1", "DOC"], ["algebra", "diff", "DOC"],
    ]),
    (serialize(F2ChainComplex(["a", "b", "c"], [("a", "b")])), [["homology", "--in", "DOC"]]),
    (serialize(F2UComplex(["a", "b"], {("a", "b"): 0b10})), [["homology", "--in", "DOC"]]),
]

# Small values only: a point or genus is read as a size in places, and the
# contract is about types and ranges, not about memory.
OUT_OF_RANGE = [-1, 0, 5, 9, 13, 99]
# other JSON types, and the schema names of the other kinds of document
OTHER_VALUES = [None, True, 1.5, "x", -3, [], [1], [[1, 2, 3]], {}, {"n": 4},
                *sorted(SCHEMAS.values())]


def _paths(doc, path=()):
    """Every (container path, key or index) inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path, key
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    doc, commands = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = _at(doc, path)
        kind = draw(st.sampled_from(["drop", "retype", "range", "truncate"]))
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))
        elif kind == "range":
            parent[key] = draw(st.sampled_from(OUT_OF_RANGE))
        elif isinstance(parent[key], list):
            parent[key] = parent[key][:draw(st.integers(0, len(parent[key])))]
    argv = draw(st.sampled_from(commands))
    return [json.dumps(doc) if a == "DOC" else a for a in argv]


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_cli_exits_0_1_or_2_on_mutated_documents(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


COMMANDS = sorted({tuple(argv) for _, commands in BASES for argv in commands})


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_exits_0_1_or_2_on_every_kind_of_document(argv):
    """Each command on each base document, most of them of the wrong kind."""
    for doc, _ in BASES:
        args = [json.dumps(doc) if a == "DOC" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        assert code in (0, 1, 2), args


def test_cli_exits_1_on_json_nested_too_deeply(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for doc in (deep, str(path)):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["dmod", "verify", "--in", doc]) == 1
        assert "nested too deeply" in err.getvalue()
