import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bhf
from bhf.pmc import standard_pmc
from bhf.strands import AlgebraElement, algebra_of, torus_element
from bhf.dmodules import (
    GateFailure, TensorElement, TypeDDModule, TypeDModule, UTypeDModule, iso_check,
)
from bhf.f2u import F2UComplex
from bhf.gf2 import F2ChainComplex, RepeatedNames
from bhf.knots import CFKComplex, figure8_cfk, trefoil_cfk, cable21_pattern
from bhf.catalog import dd_identity, dehn_twist_dd, handlebody, solid_torus, underslide_dd, make_arcslide
from bhf.serialize import (
    SchemaError,
    ValidationError,
    deserialize,
    dumps,
    parse_document,
    serialize,
)
from bhf import catalog, checks
from bhf.cli import main
from bhf.pairing import mor_dd_d


ROUNDTRIP_OBJECTS = [
    standard_pmc("torus"),
    standard_pmc("antipodal", 2),
    torus_element("rho123"),
    solid_torus("minus1"),
    handlebody(2),
    cable21_pattern(),
    dehn_twist_dd("Tl'"),
    dd_identity(standard_pmc("torus")),
    trefoil_cfk(),
    figure8_cfk(),
]


@pytest.mark.parametrize("obj", ROUNDTRIP_OBJECTS, ids=lambda o: type(o).__name__)
def test_roundtrip(obj):
    doc = serialize(obj)
    back = deserialize(json.loads(dumps(doc)))
    if isinstance(obj, (TypeDModule, UTypeDModule)):
        assert back.generators == obj.generators
        assert back.delta == obj.delta
    elif isinstance(obj, TypeDDModule):
        assert back.generators == obj.generators
        assert back.delta == obj.delta
    elif isinstance(obj, CFKComplex):
        assert back.alexander == obj.alexander
        assert back.parities == obj.parities
        assert back.differential == obj.differential
    else:
        assert back == obj


def test_roundtrip_f2u_and_f2chain():
    c = F2UComplex(["a", "b"], {("b", "a"): 0b101}, gradings=None)
    back = deserialize(serialize(c))
    assert back.differential == c.differential
    ch = F2ChainComplex(["x", "y"], [("x", "y")])
    back2 = deserialize(serialize(ch))
    assert back2.entries == ch.entries


def test_deterministic_output():
    a = dumps(serialize(underslide_dd(make_arcslide(standard_pmc("torus"), 3, 2))))
    b = dumps(serialize(underslide_dd(make_arcslide(standard_pmc("torus"), 3, 2))))
    assert a == b


def test_parse_named_catalog_references():
    # exact types: UTypeDModule and TypeDDModule subclass TypeDModule
    assert type(parse_document("h_inf")) is TypeDModule
    assert type(parse_document("catalog:h_minus1")) is TypeDModule
    assert type(parse_document("dd_id:torus")) is TypeDDModule
    assert type(parse_document("twist:Tm'")) is TypeDDModule
    assert type(parse_document("pattern:cable21")) is UTypeDModule
    assert isinstance(parse_document("trefoil"), CFKComplex)


@pytest.mark.parametrize(
    "obj", [solid_torus("minus1"), cable21_pattern(), dehn_twist_dd("Tl'")],
    ids=lambda o: type(o).__name__,
)
def test_roundtrip_keeps_the_exact_module_kind(obj):
    back = parse_document(dumps(serialize(obj)))
    assert type(back) is type(obj)
    assert dumps(serialize(back)) == dumps(serialize(obj))


def test_parse_inline_json():
    obj = parse_document('{"schema": "bhf/pmc@1", "genus": 1, "matching": [[1,3],[2,4]]}')
    assert obj == standard_pmc("torus")


def test_parse_error_carries_position():
    with pytest.raises(SchemaError) as err:
        parse_document('{"schema": "bhf/pmc@1",')
    assert "line" in str(err.value) and "column" in str(err.value)


def test_validation_error_fixed_point():
    with pytest.raises(ValidationError) as err:
        parse_document('{"schema": "bhf/pmc@1", "genus": 1, "matching": [[1,1],[2,4]]}')
    assert "matched to itself" in str(err.value)


def test_unknown_schema():
    with pytest.raises(SchemaError):
        parse_document('{"schema": "bhf/unknown@9"}')


# ---------------------------------------------------------------------------
# the writer against json.dumps, and garbage

# every character, surrogates and control characters included
JSON_TEXT = st.text(st.characters(exclude_categories=()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(JSON_VALUES)
@example({"": [], "a": {}, "b": [[], {}, [[{}]]], "c": [True, False, None, -7, -2**80]})
@example(['"quoted" \\ back/slash', "\x00\x1f\x7f tab\t nl\n", "\u00e9\u4e2d\U0001f600", "\ud800\udfff"])
# lists of int pairs (diagrams), laid out in one piece, next to near misses
@example([[[1, 2], [3, 4]], [[True, 2]], [[1, 2], [0, False]], [[1, 2], [3, 4, 5]],
          [[1, 2], [3]], [[1, 2], "ab"], [[1, 2], [None, 2]], [[-1, 2**70]], [[[1, 2]]]])
def test_writer_matches_json_dumps(value):
    assert dumps({"v": value}) == json.dumps({"v": value}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1: "int key"}, {"s": {1, 2}}, [object()],
                                   [[1, 2], [1.5, 2]], [[1, 2], {3: 4}], [[1, 2], {3, 4}]],
                         ids=["float", "int_key", "set", "object", "float_in_strand",
                              "int_key_after_strand", "set_after_strand"])
def test_writer_raises_type_error_on_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        dumps({"v": value})


def test_dumps_and_parse_leave_no_cyclic_garbage():
    B = underslide_dd(make_arcslide(standard_pmc("split", 2), 2, 1))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = dumps(serialize(B))
        assert gc.collect() == 0
        parse_document(text)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_pair_rank(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--left", "catalog:h_inf", "--right", "catalog:h_minus1", "--homology"
    )
    assert code == 0
    assert json.loads(out)["rank"] == 1


def test_cli_knot_tau(capsys, tmp_path):
    doc = dumps(serialize(trefoil_cfk()))
    path = tmp_path / "trefoil.json"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "knot", "tau", "--in", str(path))
    assert code == 0
    assert json.loads(out)["tau"] == -1


def test_cli_hf3m(capsys):
    code, out, _ = run_cli(capsys, "hf3m", "--word", "Tm Tm Tm")
    assert code == 0
    assert json.loads(out)["rank"] == 3


def test_cli_hf3m_names_its_solid_tori(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["hf3m", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    # --left and --base each list every alias, grouped by the solid torus it names
    lists = re.findall(r"one of the solid tori ((?:\S+, )+)or handlebody:<k>", text)
    assert len(lists) == 2
    for found in lists:
        groups = [group.split("/") for group in found.rstrip(", ").split(", ")]
        assert sorted(a for group in groups for a in group) == sorted(catalog._TORUS_NAMES)
        named = [{catalog.torus_name(a) for a in group} for group in groups]
        assert all(len(names) == 1 for names in named)
        assert sorted(names.pop() for names in named) == sorted(set(catalog._TORUS_NAMES.values()))
    for left, base in (("0", "minus1"), ("zero", "h_minus1"), ("h_0", "-1")):
        code, out, _ = run_cli(capsys, "hf3m", "--word", "Tm Tm", "--left", left, "--base", base)
        assert code == 0 and json.loads(out)["rank"] == 3
    code, _, err = run_cli(capsys, "hf3m", "--word", "Tm", "--base", "h_1")
    assert code == 1 and "unknown solid torus 'h_1'" in err


def test_cli_hf3m_pairs_underslide_words_on_handlebodies(capsys):
    word = "underslide:split:2:2:1 underslide:split:2:6:7 underslide:split:2:2:1"
    code, out, _ = run_cli(capsys, "hf3m", "--left", "handlebody:2", "--base", "handlebody:2",
                           "--word", word)
    assert code == 0 and json.loads(out)["rank"] == 2
    with pytest.raises(SystemExit):
        main(["hf3m", "--help"])
    assert " ".join(capsys.readouterr().out.split()).count("handlebody:<k> for k <= 3") == 2


@pytest.mark.parametrize("argv, error", [
    (("--word", "underslide:split:2:2:1 underslide:split:2:x:1"), "unknown twist token"),
    (("--word", "underslide:split:2:2:1 underslide:split:2:4:5"), "overslide"),
    (("--word", "underslide:split:2:2:1 underslide:split:3:2:1"), "different circles"),
    (("--word", "underslide:split:2:2:1", "--base", "handlebody:3"), "different circles"),
    (("--left", "handlebody:4", "--base", "handlebody:4"), "k = 1, 2 or 3"),
], ids=["bad token", "overslide", "wrong-genus token", "mixed-genus sides", "handlebody:4"])
def test_cli_hf3m_rejects_bad_words_and_sides_fast(capsys, argv, error):
    # an exception other than a user error would escape main and fail here
    if "--left" not in argv:
        argv = ("--left", "handlebody:2") + argv
    if "--base" not in argv:
        argv = argv + ("--base", "handlebody:2")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hf3m", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err.startswith("error: ") and error in err and "Traceback" not in err


def test_cli_satellite(capsys):
    code, out, _ = run_cli(
        capsys, "knot", "satellite", "--in", "trefoil", "--framing", "-2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mor_generators"] == 29 and doc["u0_rank"] == 5


@pytest.mark.parametrize("argv", [["satellite"], ["knot", "satellite"]])
def test_cli_satellite_options_have_help(capsys, argv):
    from bhf.knots import PATTERNS

    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for words in ("trefoil", "figure8 or fig8", "unknot", "cfk document", "an integer",
                  *PATTERNS):
        assert words in text, words
    code, out, err = run_cli(capsys, *argv, "--in", "trefoil", "--pattern", "nope")
    assert code == 1 and not out
    assert err == f"error: unknown pattern 'nope'; have {sorted(PATTERNS)}\n"


def test_cli_algebra_mul(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "algebra", "mul", "rho1", "rho2")
    assert code == 0 and out.strip() == "rho12"


@pytest.mark.parametrize("argv", [
    ["algebra", "mul", "rho1", "rho2", "--circle", "split:2"],
    ["algebra", "diff", "rho12", "--circle", "antipodal:3"],
])
def test_cli_algebra_named_element_off_the_torus_is_invalid(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "is a torus element" in err


@pytest.mark.parametrize("circle", ["split:2", "antipodal:2"])
def test_cli_algebra_element_json_on_another_circle_is_invalid(capsys, circle):
    doc = dumps(serialize(torus_element("rho12")))
    for argv in (["mul", doc, doc], ["diff", doc]):
        code, out, err = run_cli(capsys, "algebra", *argv, "--circle", circle)
        assert code == 1 and out == ""
        assert "has n=4, but circle" in err


def test_cli_algebra_element_json_on_its_own_circle(capsys):
    alg = algebra_of(standard_pmc("split", 2))
    doc = dumps(serialize(alg.chord_element((1, 3))))
    code, out, _ = run_cli(capsys, "algebra", "diff", doc, "--circle", "split:2")
    assert code == 0 and json.loads(out)["n"] == 8
    code, _, err = run_cli(capsys, "algebra", "diff", doc)
    assert code == 1 and "has n=8, but circle 'torus' has 4 points" in err


def test_cli_catalog_dump_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "catalog", "dump", "h_0")
    assert code == 0
    back = deserialize(json.loads(out))
    assert iso_check(back, solid_torus("zero")) is not None


def test_cli_dmod_verify_and_reduce(capsys):
    code, out, _ = run_cli(capsys, "dmod", "verify", "--in", "h_minus1")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "dmod", "iso", "--in", "h_0", "--right", "h_0")
    assert code == 0 and json.loads(out)["isomorphic"] is True


@pytest.mark.parametrize("doc", ["pattern:cable21", "dd_id:torus"])
def test_cli_pair_left_takes_only_a_plain_type_d_module(capsys, doc):
    code, out, err = run_cli(capsys, "pair", "--left", doc, "--right", "h_0", "--homology")
    assert code == 1
    assert out == ""
    assert "--left must be a type D module" in err


def test_cli_invalid_input_exit1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "bhf/pmc@1", "genus": 1, "matching": [[1,1],[2,4]]}')
    code, _, err = run_cli(capsys, "dmod", "verify", "--in", str(path))
    assert code == 1
    assert "error" in err


def test_cli_gate_failure_exit2(capsys, tmp_path):
    # a structurally valid module whose structure equation fails: exit 2
    bad = {
        "schema": "bhf/dmodule@1",
        "algebra": {"schema": "bhf/pmc@1", "genus": 1, "matching": [[1, 3], [2, 4]]},
        "generators": [
            {"name": "x", "idempotent": [1]},
            {"name": "y", "idempotent": [2]},
        ],
        "delta": [
            {"src": "x", "coeff": "rho1", "dst": "y"},
            {"src": "y", "coeff": "rho2", "dst": "x"},
        ],
    }
    path = tmp_path / "bad_module.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "dmod", "verify", "--in", str(path))
    assert code == 2
    assert json.loads(out)["ok"] is False


def tm_without_r_to_p():
    """Tm without its arrow r -> p; it fails d^2 = 0."""
    B = dehn_twist_dd("Tm")
    return TypeDDModule(B.algebra1, B.algebra2, B.generators,
                        {k: c for k, c in B.delta.items() if k != ("r", "p")})


def test_gated_names_the_residual_count_and_the_first_residual():
    broken = tm_without_r_to_p()
    bad = broken.verify_d2()
    assert bad
    with pytest.raises(GateFailure) as failure:
        broken.gated("broken Tm")
    assert str(failure.value) == f"broken Tm fails d^2=0 on {len(bad)} pairs, first {bad[0]}"
    assert dehn_twist_dd("Tm").gated("Tm") is dehn_twist_dd("Tm")


def test_pairing_gate_failure_exits_2_without_traceback(tmp_path):
    # the broken Tm's pairing with the infinity-framed solid torus fails too
    broken = tm_without_r_to_p()
    assert broken.verify_d2()
    with pytest.raises(GateFailure):
        mor_dd_d(broken, solid_torus("inf"))
    path = tmp_path / "broken.json"
    path.write_text(dumps(serialize(broken)))
    src = str(Path(bhf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bhf.cli", "pair", "--dd", str(path), "--left", "h_inf"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("internal verification failure:")
    assert "Traceback" not in proc.stderr


def test_cli_pair_through_dd(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--left", "h_0", "--dd", "twist:Tm",
        "--right", "h_0", "--homology",
    )
    assert code == 0
    assert json.loads(out)["rank"] == 1  # one meridian twist glues to S^3


def _on_iota0(schema, names, **fields):
    """A document of the given schema on the torus: each name a generator on
    iota0 (pair 1), no arrows."""
    if schema == "ddmodule":
        gens = [{"name": n, "idempotent1": [1], "idempotent2": [1]} for n in names]
        doc = {"algebra1": "torus", "algebra2": "torus"}
    else:
        gens = [{"name": n, "idempotent": [1]} for n in names]
        doc = {"algebra": "torus"}
    return json.dumps({"schema": f"bhf/{schema}@1", **doc, "generators": gens, "delta": []})


REPEATED_NAMES = {
    # Alexander gradings 0 and 3 on one name: the second used to win, tau -3
    "cfk": (["knot", "tau"], json.dumps({"schema": "bhf/cfk@1", "differential": [], "generators": [
        {"name": "u", "alexander": 0}, {"name": "u", "alexander": 3}]})),
    "dmodule": (["dmod", "verify"], _on_iota0("dmodule", ["a", "a"])),
    "udmodule": (["dmod", "verify"], _on_iota0("udmodule", ["a", "a"])),
    "ddmodule": (["dmod", "verify"], _on_iota0("ddmodule", ["a", "a"])),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_NAMES))
def test_document_with_a_repeated_generator_name_is_invalid(capsys, kind):
    argv, doc = REPEATED_NAMES[kind]
    code, out, err = run_cli(capsys, *argv, "--in", doc)
    assert code == 1 and out == "" and err == "error: repeated generator names\n"


# Mor generators are named x|key|y, so a name holding '|' can take another
# triple's name: a|p1|p1|b is both (a, p1, p1|b) and (a|p1, p1, b).
@pytest.mark.parametrize("argv", [
    ["--left", _on_iota0("dmodule", ["a", "a|p1"]), "--right", _on_iota0("dmodule", ["b", "p1|b"])],
    ["--left", _on_iota0("dmodule", ["a", "a|p1"]), "--right", _on_iota0("udmodule", ["b", "p1|b"])],
    ["--left", _on_iota0("dmodule", ["a", "p1|a"]), "--dd", _on_iota0("ddmodule", ["x", "x|p1"])],
], ids=["mor_d_d", "mor_d_ud", "mor_dd_d"])
def test_pairing_whose_generator_names_collide_is_invalid(capsys, argv):
    code, out, err = run_cli(capsys, "pair", *argv)
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: repeated generator names: \d+ Mor triples take \d+ names; "
                        r"a name with '\|' can match another triple's\n", err), err


def test_mor_dd_d_refuses_colliding_names():
    B = parse_document(_on_iota0("ddmodule", ["x", "x|p1"]))
    M = parse_document(_on_iota0("dmodule", ["a", "p1|a"]))
    with pytest.raises(RepeatedNames, match="8 Mor triples take 7 names"):
        mor_dd_d(B, M)


def test_cli_homology_of_dumped_complex(capsys, tmp_path):
    from bhf.pairing import mor_d_d

    C = mor_d_d(solid_torus("zero"), solid_torus("zero"))
    path = tmp_path / "complex.json"
    path.write_text(dumps(serialize(C)))
    code, out, _ = run_cli(capsys, "homology", "--in", str(path))
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_cli_homology_names_the_residual_of_a_non_complex(capsys):
    doc = json.dumps({"schema": "bhf/f2chain@1", "generators": ["a", "b", "c"],
                      "differential": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "c"}]})
    code, out, err = run_cli(capsys, "homology", "--in", doc)
    assert (code, out) == (1, "")
    assert err == "error: differential does not square to zero: d^2(a) contains c\n"


@pytest.mark.parametrize("outcome, code", [("pass", 0), ("fail", 2), ("raise", 2)])
def test_cli_verify_exit_code(capsys, monkeypatch, outcome, code):
    """0 when every check passes; 2 when one fails or raises."""
    def probe():
        if outcome == "raise":
            raise RuntimeError("probe raised")
        return outcome == "pass", f"probe {outcome}"

    monkeypatch.setattr(checks, "ALL_CHECKS", [("ok", lambda: (True, "fine"), {}),
                                              ("probe", probe, {})])
    got, out, err = run_cli(capsys, "verify", "--fast")
    assert (got, err) == (code, "")
    assert out.splitlines()[0] == "PASS ok: fine"
    assert out.splitlines()[1].startswith("PASS probe" if code == 0 else "FAIL probe")
    assert out.endswith(f"{2 if code == 0 else 1}/2 checks passed\n")
    if outcome == "raise":
        assert "exception: probe raised" in out


def test_import_does_not_load_numpy():
    src = str(Path(bhf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import bhf, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# documents that break the idempotent corners, and malformed documents


def _with_stray_term(obj, add):
    """The dump of obj with one more term added to its first arrow by ``add``."""
    doc = json.loads(dumps(obj))
    add(doc["delta"][0])
    return json.dumps(doc)


STRAY_TERMS = {
    # h_minus1: a -> b carries rho1 + rho3; rho12 ends on the wrong pair
    "dmodule": (solid_torus("minus1"),
                lambda e: e["coeff"]["terms"].append({"n": 4, "strands": [[1, 3]]})),
    "udmodule": (cable21_pattern(),  # x -> x carries U^2 rho23; rho12 starts on pair 1
                 lambda e: e["coeff"]["terms"].append({"n": 4, "strands": [[1, 3]]})),
    # Tm: p -> q from (1|1) to (2|2); rho23 starts on the wrong pair on each side
    "ddmodule_left": (dehn_twist_dd("Tm"), lambda e: e["terms"].append([[[2, 4]], [[3, 4]]])),
    "ddmodule_right": (dehn_twist_dd("Tm"), lambda e: e["terms"].append([[[1, 2]], [[2, 4]]])),
}


@pytest.mark.parametrize("kind", sorted(STRAY_TERMS))
def test_off_corner_term_in_document_rejected(kind):
    obj, add = STRAY_TERMS[kind]
    parse_document(dumps(obj))
    with pytest.raises(ValidationError):
        parse_document(_with_stray_term(obj, add))


# y -> x by the downward strand 2 -> 1: its corner is that of the arrow, but
# it is a term of no basis element
DOWNWARD = json.dumps({
    "schema": "bhf/dmodule@1", "algebra": "torus",
    "generators": [{"name": "x", "idempotent": [1]}, {"name": "y", "idempotent": [2]}],
    "delta": [{"src": "y", "dst": "x", "coeff": {"n": 4, "terms": [[[2, 1]]]}}],
})


@pytest.mark.parametrize("argv", [
    ("pair", "--left", DOWNWARD, "--right", "h_0", "--homology"),
    ("dmod", "verify", "--in", DOWNWARD),
], ids=lambda argv: argv[0])
def test_downward_strand_module_is_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "y->x" in err and "((2, 1),)" in err


def _partial_placement(kind):
    """A module whose one arrow holds only the placement (1, 1) of iota0 = (1, 1) + (3, 3).

    Every diagram lies in its arrow's corner, so the module constructor
    accepts it; only a decomposition finds the missing placement.
    """
    alg = algebra_of(standard_pmc("torus"))
    half = AlgebraElement(4, [((1, 1),)])
    gens = {"x": (1,), "y": (1,)}
    if kind == "dmodule":
        return TypeDModule(alg, gens, {("x", "y"): half})
    if kind == "udmodule":
        return UTypeDModule(alg, gens, {("x", "y"): {0: torus_element("iota0"), 1: half}})
    B = dehn_twist_dd("Tm")  # r -> p carries rho2 (x) iota0; keep one of its placements
    delta = {**B.delta, ("r", "p"): TensorElement(4, 4, [(((2, 3),), ((1, 1),))])}
    return TypeDDModule(B.algebra1, B.algebra2, B.generators, delta)


@pytest.mark.parametrize("argv", [
    ("verify", "--in", "DOC"), ("reduce", "--in", "DOC"),
    ("iso", "--in", "DOC", "--right", "h_0"), ("iso", "--in", "h_0", "--right", "DOC"),
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("-"))[:20])
@pytest.mark.parametrize("kind", ["dmodule", "udmodule", "ddmodule"])
def test_dmod_rejects_a_partial_placement(capsys, kind, argv):
    text = dumps(serialize(_partial_placement(kind)))
    code, out, err = run_cli(capsys, "dmod", *(text if a == "DOC" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: element holds only some placements of basis")


@pytest.mark.parametrize("kind, argv", [
    ("dmodule", ("--left", "DOC", "--right", "h_0")),
    ("dmodule", ("--left", "h_0", "--right", "DOC")),
    ("udmodule", ("--left", "h_0", "--right", "DOC")),
    ("ddmodule", ("--left", "h_0", "--dd", "DOC")),
    ("ddmodule", ("--left", "h_0", "--dd", "DOC", "--side", "right", "--right", "h_0")),
], ids=lambda v: v if isinstance(v, str) else "-".join(a[2:] for a in v if a.startswith("--")))
def test_pair_rejects_a_partial_placement(capsys, kind, argv):
    text = dumps(serialize(_partial_placement(kind)))
    code, out, err = run_cli(capsys, "pair", *(text if a == "DOC" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: element holds only some placements of basis")


# Diagrams that a module document must not hold, each put in place of the
# first diagram [[1, 2]] of a copy of the first term of the first arrow.  The
# bool and the float equal that diagram as JSON values, so a reader that
# consulted its memo before checking types would cancel the copy away.
BAD_DIAGRAMS = {
    "bool_point": [[True, 2]],
    "float_point": [[1.0, 2]],
    "three_element_strand": [[1, 2, 3]],
    "repeated_start": [[1, 2], [1, 3]],
    "repeated_end": [[1, 3], [2, 3]],
    "point_outside": [[1, 5]],
    "downward_strand": [[2, 1]],
    "two_starts_on_one_pair": [[1, 2], [3, 3]],
}


def _add_copy_of_first_term(doc, diagram, copies=1, right=False):
    """The document with the first term again, its diagram (a DD term's left
    one, or its right one when ``right``) replaced, ``copies`` times."""
    arrow = doc["delta"][0]
    if doc["schema"] == "bhf/ddmodule@1":
        first = arrow["terms"][0]
        assert first[0] == [[1, 2]] and first[1]
        arrow["terms"] += [[first[0], diagram] if right else [diagram, first[1]]] * copies
    else:
        assert arrow["coeff"]["terms"][0]["strands"] == [[1, 2]]
        arrow["coeff"]["terms"] += [{"n": 4, "strands": diagram}] * copies
    return json.dumps(doc)


def _diagram_doc(kind, diagram, copies=1):
    """kind: "dmodule", "ddmodule" (the left diagram of a DD term) or
    "ddmodule_right" (its right diagram)."""
    obj = solid_torus("minus1") if kind == "dmodule" else dehn_twist_dd("Tm")
    return _add_copy_of_first_term(serialize(obj), diagram, copies, kind == "ddmodule_right")


@pytest.mark.parametrize("fault", sorted(BAD_DIAGRAMS))
@pytest.mark.parametrize("kind", ["ddmodule", "dmodule", "ddmodule_right"])
def test_module_document_rejects_a_bad_diagram(capsys, kind, fault):
    text = _diagram_doc(kind, BAD_DIAGRAMS[fault])
    with pytest.raises((SchemaError, ValidationError)):
        parse_document(text)
    code, out, err = run_cli(capsys, "dmod", "verify", "--in", text)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("fault", ["repeated_start", "repeated_end", "point_outside",
                                   "downward_strand", "two_starts_on_one_pair"])
@pytest.mark.parametrize("kind", ["ddmodule", "dmodule", "ddmodule_right"])
def test_module_document_rejects_a_bad_diagram_that_cancels(kind, fault):
    # listed twice, the term cancels and the module never holds it
    with pytest.raises(ValidationError):
        parse_document(_diagram_doc(kind, BAD_DIAGRAMS[fault], copies=2))


@pytest.mark.parametrize("term", [
    "[[1, 2]]", {"left": [[1, 2]], "right": [[1, 2]]}, [[[1, 2]]], [[[1, 2]], [[1, 2]], [[1, 2]]],
], ids=["string", "dict", "one_item", "three_items"])
def test_dd_document_rejects_a_term_that_is_not_a_pair(capsys, term):
    doc = serialize(dehn_twist_dd("Tm"))
    doc["delta"][-1]["terms"].append(term)
    text = json.dumps(doc)
    message = "a tensor term must be a [left, right] pair of diagrams"
    with pytest.raises(SchemaError) as err:
        parse_document(text)
    assert str(err.value) == message
    code, out, err = run_cli(capsys, "dmod", "verify", "--in", text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("obj", [
    handlebody(2), underslide_dd(make_arcslide(standard_pmc("split", 2), 2, 1)),
], ids=lambda o: type(o).__name__)
def test_module_document_with_unsorted_strands_loads_sorted(obj):
    doc = serialize(obj)
    reversed_any = False
    for arrow in doc["delta"]:
        if "coeff" in arrow:
            diagrams = [term["strands"] for term in arrow["coeff"]["terms"]]
        else:
            diagrams = [d for term in arrow["terms"] for d in term]
        for diagram in diagrams:
            reversed_any |= len(diagram) > 1
            diagram.reverse()
    assert reversed_any
    back = parse_document(json.dumps(doc))
    assert back.delta == obj.delta
    assert dumps(back) == dumps(obj)


@pytest.mark.parametrize("argv", [
    ("dmod", "verify"),                         # --in is required
    ("bogus",),                                 # not a subcommand
    ("algebra", "bogus"),                       # not a choice
    ("algebra", "basis", "--summand", "x"),     # not an integer
], ids=" ".join)
def test_cli_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out


def _torus_dmodule(generators):
    return {"schema": "bhf/dmodule@1", "algebra": "torus", "generators": generators,
            "delta": []}


def _dmodule_on(genus, matching):
    circle = {"schema": "bhf/pmc@1", "genus": genus, "matching": matching}
    return dict(_torus_dmodule([{"name": "x", "idempotent": [1]}]), algebra=circle)


MALFORMED = {
    "generators_not_a_list": (["dmod", "verify"], _torus_dmodule(5)),
    # the matching is checked against the genus before anything is sized by it
    "dmodule_genus_2_to_the_70": (["dmod", "verify"], _dmodule_on(2**70, [[1, 3], [2, 4]])),
    "dmodule_matching_short": (["dmod", "verify"], _dmodule_on(2, [[1, 3], [2, 4]])),
    "dmodule_matching_long": (["dmod", "verify"], _dmodule_on(1, [[1, 3], [2, 4], [1, 3]])),
    "dmodule_point_outside": (
        ["dmod", "verify"], _torus_dmodule([{"name": "x", "idempotent": [7]}])),
    "ddmodule_point_outside": (["dmod", "verify"], {
        "schema": "bhf/ddmodule@1", "algebra1": "torus", "algebra2": "torus",
        "generators": [{"name": "x", "idempotent1": [1], "idempotent2": [9]}], "delta": [],
    }),
    "cfk_alexander_not_int": (["knot", "tau"], {
        "schema": "bhf/cfk@1", "generators": [{"name": "a", "alexander": "x"}],
        "differential": [],
    }),
    "f2u_negative_exponent": (["homology"], {
        "schema": "bhf/f2u@1", "generators": [{"name": "a"}, {"name": "b"}],
        "differential": [{"src": "a", "dst": "b", "exponents": [-1]}],
    }),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_malformed_document_exits_1_without_traceback(probe, tmp_path):
    argv, doc = MALFORMED[probe]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = str(Path(bhf.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bhf.cli", *argv, "--in", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_CFK_HUGE_UPOWER = {
    "schema": "bhf/cfk@1",
    "generators": [{"name": "a", "alexander": 1}, {"name": "b", "alexander": 0},
                   {"name": "c", "alexander": -1}],
    "differential": [{"src": "a", "dst": "b", "upower": 0},
                     {"src": "c", "dst": "b", "upower": 10**12}],
}

# inputs whose size alone would exhaust time or memory: each is refused
# before any work, against a bound that the message names
OVERSIZED = {
    "cfk_upower_10_to_the_12": (["knot", "tau", "--in", "DOC"], "budget of 10,000"),
    "cfd_framing_100000": (["knot", "cfd", "--in", "trefoil", "--framing", "100000"],
                           "budget of 10,000"),
    "satellite_framing_minus_100000": (
        ["knot", "satellite", "--in", "trefoil", "--framing", "-100000"], "budget of 10,000"),
    "algebra_split_4": (["algebra", "dim", "--circle", "split:4"], "bound of 3"),
    "dd_id_split_4": (["catalog", "dump", "dd_id:split:4"], "bound of 3"),
    "circle_antipodal_4": (["catalog", "dump", "circle:antipodal:4"], "bound of 3"),
    "handlebody_16": (["catalog", "dump", "handlebody:16"], "bound of 3"),
}


@pytest.mark.parametrize("probe", sorted(OVERSIZED))
def test_oversized_input_exits_1_at_once(probe, tmp_path):
    argv, bound = OVERSIZED[probe]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_CFK_HUGE_UPOWER))
    argv = [str(path) if a == "DOC" else a for a in argv]
    src = str(Path(bhf.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bhf.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and bound in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("catalog", "dump", "handlebody:x"),
    ("catalog", "dump", "underslide:torus:x:2"),
    ("catalog", "dump", "handlebody"),
    ("catalog", "dump", "twist"),
    ("catalog", "dump", "pattern:foo"),
    ("catalog", "dump", "dd_id:torus:x"),
    ("catalog", "dump", "circle:split:2:junk"),
    ("dmod", "iso", "--in", "h_0"),
], ids=" ".join)
def test_malformed_reference_is_a_user_error(capsys, argv):
    # an exception other than a user error would escape main and fail here
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.strip() != "error:" and len(err.split()) > 2  # a message, not a bare key
