"""The registry of process-wide memos: every memo of the package is
registered, ``clear`` leaves none warm, and a clean slate gives the same
answers as a warm process."""

import importlib
import json
import pkgutil
import random

import pytest

import bhf
from bhf import catalog, memo
from bhf.catalog import (
    TWIST_NAMES, apply_twist_word, dd_identity, dehn_twist_dd, hf_genus1, solid_torus,
)
from bhf.checks import lattice_rank
from bhf.knots import cfk_to_cfd, satellite, staircase_cfk, tau, trefoil_cfk
from bhf.pmc import standard_pmc
from bhf.serialize import ValidationError, dumps, parse_document, serialize
from bhf.strands import algebra_of, torus_algebra

MEMOS = {
    "bhf.catalog._solid_torus", "bhf.catalog.handlebody", "bhf.catalog.dehn_twist_dd",
    "bhf.catalog.twist_half", "bhf.catalog._twisted_torus", "bhf.catalog._side_half",
    "bhf.knots.pattern_half",
    "bhf.pmc.standard_pmc",
    "bhf.strands.algebra_of", "bhf.strands.torus_algebra", "bhf.strands.torus_records",
    "bhf.strands.torus_element",
}


def _registered() -> list:
    """The registered memos, each looked up by the name it is registered under."""
    out = []
    for name in memo.sizes():
        module, _, attr = name.rpartition(".")
        out.append(getattr(importlib.import_module(module), attr))
    return out


def test_every_module_level_cache_is_registered():
    registered = _registered()
    modules = [bhf] + [importlib.import_module(f"bhf.{info.name}")
                       for info in pkgutil.iter_modules(bhf.__path__)]
    assert {m.__name__ for m in modules} >= {name.rpartition(".")[0] for name in MEMOS}
    for module in modules:
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                assert any(obj is r for r in registered), (
                    f"{module.__name__}.{attr} is a cache outside bhf.memo")


def test_sizes_name_every_memo_and_clear_empties_them():
    hf_genus1(["Tm", "Tl'", "Tm"])
    satellite("cable21", trefoil_cfk(), -2)
    catalog.handlebody(1)
    sizes = memo.sizes()
    assert set(sizes) == MEMOS
    assert all(n > 0 for name, n in sizes.items() if name != "bhf.strands.torus_records")
    assert catalog._twisted_torus.cache_info().maxsize == 1024
    assert catalog._side_half.cache_info().maxsize == 1024
    half = catalog.twist_half("Tm")
    assert all(_pairing_tables(torus_algebra()))
    memo.clear()
    assert set(memo.sizes()) == MEMOS and set(memo.sizes().values()) == {0}
    assert catalog.twist_half("Tm") is not half
    # the pairing tables go with the algebra, which the clear dropped
    assert not any(_pairing_tables(torus_algebra()))


def _pairing_tables(alg) -> list:
    """The tables that an algebra keeps for the pairing path."""
    return [alg._coefficient_keys, alg._key_names, alg._key_products]


def _sweep(kept):
    """Genus-1 ranks and twisted dumps, satellites and an identity bimodule;
    ``kept`` is a module built before any clear."""
    rng = random.Random(5)
    words = [[rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 10))] for _ in range(12)]
    words.append(["Tm"] * 12)
    sides = ("h_0", "h_inf", "h_minus1")
    ranks = [hf_genus1(w) for w in words]
    ranks += [hf_genus1(w, sides[i % 3], sides[i // 3 % 3]) for i, w in enumerate(words)]
    ranks += [hf_genus1(w, kept, "h_0") for w in words[:4]]
    twisted = [dumps(serialize(apply_twist_word(w, solid_torus("minus1")))) for w in words[:4]]
    satellites = []
    for steps in ([1, 2, 2, 1], [1] * 6, [2, 1, 1, 2]):
        c = staircase_cfk(steps)
        for framing in (2 * tau(c) - 1, 2 * tau(c), 2 * tau(c) + 1):
            res = satellite("cable21", c, framing)
            satellites.append((dumps(serialize(res.mor_complex)), res.decomposition, res.u0_rank))
    identity = dumps(serialize(dd_identity(standard_pmc("split", 2))))
    return words, ranks, twisted, satellites, identity


def test_a_clean_slate_gives_the_warm_answers():
    kept = cfk_to_cfd(trefoil_cfk(), 1)
    _sweep(kept)
    warm = _sweep(kept)
    words, ranks = warm[:2]
    assert ranks[:len(words)] == [lattice_rank(w) for w in words]
    memo.clear()
    assert _sweep(kept) == warm


def test_the_corner_table_of_an_algebra_leaks_nothing():
    # an algebra keeps the corner of every admissible diagram it has met, so
    # a load after a build reads its corners off the build's table; a rho2
    # term on an arrow whose corner is rho1's must fail the same either way
    doc = serialize(dehn_twist_dd("Tm"))
    first = doc["delta"][0]["terms"][0]
    assert first[0] == [[1, 2]]
    doc["delta"][0]["terms"].append([[[2, 3]], first[1]])
    text = json.dumps(doc)

    def torus_corners():
        return algebra_of(standard_pmc("torus"))._corners

    memo.clear()
    assert torus_corners() == {}
    with pytest.raises(ValidationError) as cold:
        parse_document(text)
    memo.clear()
    assert torus_corners() == {}
    dehn_twist_dd("Tm")
    assert torus_corners()
    with pytest.raises(ValidationError) as warm:
        parse_document(text)
    assert str(warm.value) == str(cold.value)
    assert "not idempotent-compatible at term ((2, 3),) (x) " in str(cold.value)
