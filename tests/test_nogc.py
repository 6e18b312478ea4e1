"""The garbage-collector guard (``bhf.memo._nogc``).

The public entry points that allocate in bulk pause CPython's cyclic
collector for the call.  The guard must leave ``gc.isenabled()`` as it found
it, on return and on a raise, and a nested guarded call must not re-enable
the collector early.  The pause costs nothing only because the pipelines
build no reference cycles, so each one is run here with the collector off
and ``gc.DEBUG_SAVEALL`` set, and must leave zero cyclic garbage.
"""

import gc
import importlib

import pytest

from bhf import catalog, cli, dmodules, f2u, knots, memo, pairing
from bhf.catalog import (
    CatalogError, apply_twist_word, dd_identity, dehn_twist_dd, handlebody,
    hf_genus1, make_arcslide, solid_torus, underslide_dd,
)
from bhf.checks import lattice_rank
from bhf.dmodules import TypeDModule, iso_check
from bhf.f2u import f2u_homology
from bhf.knots import cable21_pattern, cfk_to_cfd, satellite, trefoil_cfk
from bhf.memo import _nogc
from bhf.pairing import mor_d_d, mor_d_dd, mor_d_ud, mor_dd_d
from bhf.pmc import PointedMatchedCircle, standard_pmc
from bhf.serialize import SchemaError, dumps, parse_document

SPLIT2 = standard_pmc("split", 2)
serialize = importlib.import_module("bhf.serialize")  # bhf.serialize is also a function


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts, and must end, with the collector enabled."""
    assert gc.isenabled()
    yield
    assert gc.isenabled()


@pytest.mark.parametrize("call, error", [
    (lambda: parse_document('{"schema": "bhf/dmodule@1", "algebra": "torus"'), SchemaError),
    (lambda: hf_genus1(["Tm", "Tx"]), CatalogError),
], ids=["parse_document", "hf_genus1"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_guard_leaves_the_collector_as_it_found_it(call, error, enabled):
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(error):
            call()
        assert gc.isenabled() is enabled
        parse_document("h_0")
        assert hf_genus1(["Tm"]) == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_nested_guard_does_not_reenable_the_collector():
    inner = _nogc(lambda: gc.isenabled())
    outer = _nogc(lambda: (inner(), gc.isenabled()))
    assert outer() == (False, False)


def test_guard_keeps_name_and_docstring_but_sets_no_wrapped_marker():
    # bench/spans.py marks its tracing wrappers with __wrapped__, and checks
    # that none is left after a traced pass
    assert (mor_dd_d.__name__, mor_dd_d.__module__) == ("mor_dd_d", "bhf.pairing")
    assert mor_dd_d.__doc__.startswith("Pair a DD bimodule")
    assert not hasattr(mor_dd_d, "__wrapped__")


def test_nested_entry_point_does_not_reenable_the_collector(monkeypatch):
    # a cold hf_genus1 pairs its letters through apply_twist_word, itself
    # guarded, before it pairs the two sides
    memo.clear()
    seen = _record(monkeypatch, catalog, "mor_d_d")
    assert hf_genus1(["Tm", "Tm"]) == 2
    assert seen == [False]


def _record(monkeypatch, owner, attr) -> list:
    """Replace ``owner.attr`` with a wrapper that records ``gc.isenabled()``."""
    original = getattr(owner, attr)
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recording)
    return seen


def _slide():
    return make_arcslide(SPLIT2, 2, 1)


# (entry point, the inner call that records, a call of the entry point)
GUARDED = {
    "parse_document": (serialize, "deserialize", lambda: parse_document(dumps(solid_torus("0")))),
    "serialize": (PointedMatchedCircle, "matching_as_pairs",
                  lambda: serialize.serialize(solid_torus("0"))),
    "dumps": (serialize, "_layout", lambda: dumps(solid_torus("0"))),
    "dd_identity": (catalog, "pair_map_to_reverse", lambda: dd_identity(standard_pmc("torus"))),
    "underslide_dd": (catalog, "pair_map_to_reverse", lambda: underslide_dd(_slide())),
    "dehn_twist_dd": (catalog, "algebra_of", lambda: dehn_twist_dd("Tl")),
    "handlebody": (catalog, "reverse", lambda: handlebody(2)),
    "hf_genus1": (catalog, "_twist_tokens", lambda: hf_genus1(["Tm"])),
    "apply_twist_word": (catalog, "_twist_tokens",
                         lambda: apply_twist_word(["Tm"], solid_torus("0"))),
    "mor_dd_d": (pairing, "_half", lambda: mor_dd_d(dehn_twist_dd("Tm"), solid_torus("0"))),
    "mor_d_dd": (pairing, "_half", lambda: mor_d_dd(solid_torus("0"), dehn_twist_dd("Tm"))),
    "mor_d_d": (pairing, "F2ChainComplex", lambda: mor_d_d(solid_torus("0"), solid_torus("inf"))),
    "mor_d_ud": (pairing, "F2UComplex",
                 lambda: mor_d_ud(cfk_to_cfd(trefoil_cfk(), -2), cable21_pattern())),
    "cfk_to_cfd": (knots, "simplify_basis", lambda: cfk_to_cfd(trefoil_cfk(), -2)),
    "satellite": (knots, "cfk_to_cfd", lambda: satellite("cable21", trefoil_cfk(), -2)),
    "f2u_homology": (f2u, "_cancel_all",
                     lambda: f2u_homology(trefoil_cfk().associated_graded())),
    "iso_check": (dmodules, "_adjacency", lambda: iso_check(solid_torus("0"), solid_torus("0"))),
    "verify_d2": (TypeDModule, "_records", lambda: solid_torus("0").verify_d2()),
    "reduce": (dmodules, "_cancel_all", lambda: solid_torus("0").reduce()),
    "cli.main": (cli, "build_parser", lambda: cli.main(["catalog", "list"])),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_entry_point_runs_with_the_collector_paused(name, monkeypatch, capsys):
    owner, attr, call = GUARDED[name]
    memo.clear()  # memoized entry points and their inner calls run cold
    seen = _record(monkeypatch, owner, attr)
    call()
    assert seen and not any(seen), seen


# ---------------------------------------------------------------------------
# no cyclic garbage


@pytest.fixture
def no_cycles():
    """A check that a call leaves no cyclic garbage: it runs with the
    collector off, between two full collections, and the second must find
    nothing.  ``gc.DEBUG_SAVEALL`` keeps what it finds for the message.
    Every memo is cleared first, so the pipelines run cold."""
    memo.clear()
    gc.disable()

    def check(call):
        gc.collect()  # frees what earlier work left behind
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            out = call()
            found = gc.collect()
            kinds = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == 0, f"{found} objects in cycles: {kinds}"
        return out

    try:
        yield check
    finally:
        gc.enable()


def test_genus1_words_leave_no_cyclic_garbage(no_cycles):
    assert no_cycles(lambda: hf_genus1(["Tm", "Tl'"] * 3)) == lattice_rank(["Tm", "Tl'"] * 3)
    # named sides, cold and then through the prepared sides the first call
    # left, and a side passed as a module, prepared for its call
    for _ in range(2):
        assert no_cycles(lambda: hf_genus1(["Tm", "Tl'", "Tm"], "h_inf", "h_minus1")) == 3
    assert no_cycles(lambda: hf_genus1(["Tm", "Tl'", "Tm"], solid_torus("inf"), "h_minus1")) == 3
    word = ["underslide:split:2:2:1", "underslide:split:2:2:3", "underslide:split:2:3:2"]
    assert no_cycles(lambda: hf_genus1(word, "handlebody:2", "handlebody:2")) == 4


def test_satellite_leaves_no_cyclic_garbage(no_cycles):
    res = no_cycles(lambda: satellite("cable21", trefoil_cfk(), -2))
    assert list(res.decomposition.torsion) == [2, 1] and res.u0_rank == 5


@pytest.mark.parametrize("build", [
    lambda: dd_identity(SPLIT2),
    lambda: underslide_dd(make_arcslide(SPLIT2, 2, 1)),
], ids=["dd_identity", "underslide_dd"])
def test_bimodule_documents_leave_no_cyclic_garbage(no_cycles, build):
    text = no_cycles(lambda: dumps(build()))
    back = no_cycles(lambda: parse_document(text))
    assert no_cycles(lambda: dumps(back)) == text


def test_pairings_homology_and_isomorphism_leave_no_cyclic_garbage(no_cycles):
    mor = no_cycles(lambda: mor_d_ud(cfk_to_cfd(trefoil_cfk(), 1), cable21_pattern()))
    dec = no_cycles(lambda: f2u_homology(mor))
    assert dec.free_rank == 1
    assert no_cycles(lambda: mor_d_dd(solid_torus("0"), dehn_twist_dd("Tm")).reduce()).generators
    M = apply_twist_word(["Tm", "Tl'"] * 3, solid_torus("0"))
    renamed = M.rename(lambda x: f"copy.{x}")
    assert no_cycles(lambda: iso_check(M, renamed)) is not None


def test_cli_main_leaves_only_argparse_cycles():
    # cli.main is guarded too, but it is the one entry point that does leave
    # cyclic garbage: argparse's parser holds reference cycles (its actions
    # and groups point back at it), so each call leaves the parser behind
    # for the collector.  The work of the subcommand adds none: a run leaves
    # exactly what building the parser alone does.
    def cycles(call):
        gc.collect()
        gc.disable()
        try:
            call()
            return gc.collect()
        finally:
            gc.enable()

    parser = cycles(cli.build_parser)
    assert parser > 0
    assert cycles(lambda: cli.main(["hf3m", "--word", "Tm Tl' Tm"])) == parser
    assert cycles(lambda: cli.main(["hf3m", "--word", "Tx"])) == parser  # exit 1
