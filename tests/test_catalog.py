import functools
import hashlib
import itertools
import json
import random

import pytest

from bhf.pmc import pair_map_to_reverse, standard_pmc
from bhf.strands import algebra_of, torus_element
from bhf.dmodules import GateFailure, TensorElement, TypeDModule, iso_check, mapping_cone
from bhf import catalog, memo
from bhf.pairing import BimoduleHalf, mor_d_d, mor_dd_d
from bhf.knots import cfk_to_cfd, figure8_cfk, trefoil_cfk
from bhf.serialize import catalog_lookup, dumps, serialize
from bhf.checks import lattice_rank, twist_word_matrix
from bhf.cli import main
from bhf.gf2 import F2ChainComplex
from bhf.catalog import (
    CatalogError,
    NotAdjacent,
    OverslideUnsupported,
    SamePair,
    TWIST_NAMES,
    all_underslides,
    apply_twist_word,
    dd_identity,
    dehn_twist_dd,
    handlebody,
    hf_genus1,
    make_arcslide,
    parse_twist_word,
    solid_tori,
    solid_torus,
    twist_inverse,
    underslide_dd,
)
from bhf.catalog import _near_complementary_sets
from test_strands import CIRCLES, all_keys


def test_surgery_triangle_exact():
    tri = solid_tori()
    assert tri.report["exact"], tri.report
    assert tri.report["dims"] == {"inf": 5, "minus1": 8, "zero": 3}


def test_mapping_cone_squares_to_zero_only_for_chain_maps():
    tri = solid_tori()
    assert not mapping_cone(tri.phi, tri.h_infinity, tri.h_minus1).verify_d2()
    for term in tri.phi["r"]:  # either term alone leaves d(f) + f d nonzero
        assert mapping_cone({"r": [term]}, tri.h_infinity, tri.h_minus1).verify_d2()


def test_triangle_differentials_as_displayed():
    tri = solid_tori()
    assert tri.h_minus1.delta[("a", "b")] == torus_element("rho1") + torus_element("rho3")
    assert tri.h_infinity.delta[("r", "r")] == torus_element("rho23")
    assert tri.h_zero.delta[("n", "n")] == torus_element("rho12")
    assert [(c, d) for c, d in tri.psi["b"]] == [(torus_element("rho2"), "n")]


def test_handlebody_k1_is_infinity_framed_torus():
    h1 = handlebody(1)
    assert iso_check(h1.rename(lambda n: "r"), solid_torus("inf")) is not None


def test_handlebody_idempotent_occupancy():
    for k in (1, 2, 3):
        h = handlebody(k)
        (idem,) = set(h.generators.values())
        assert idem == tuple(4 * j - 2 for j in range(1, k + 1))
        assert h.verify_d2() == []


def test_handlebody_k2_two_chord_terms():
    h = handlebody(2)
    coeff = h.delta[("x", "x")]
    assert len(coeff.terms) == 4  # two chords, each with two placements


def test_dd_identity_torus_formula():
    B = dd_identity(standard_pmc("torus")).restrict_weight(1)
    assert repr(B.delta[("x[1|1]", "x[2|2]")]) == "(1>2)|(3>4)+(1>4)|(1>4)+(3>4)|(1>2)"
    assert repr(B.delta[("x[2|2]", "x[1|1]")]) == "(2>3)|(2>3)"


def test_dd_identity_generator_count():
    assert len(dd_identity(standard_pmc("torus")).generators) == 4
    assert len(dd_identity(standard_pmc("split", 2)).generators) == 16


def test_dd_identity_genus2_gates():
    dd_identity(standard_pmc("split", 2))      # raises if d^2 != 0
    dd_identity(standard_pmc("antipodal", 2))  # raises if d^2 != 0


def test_twists_idempotents():
    tm = dehn_twist_dd("Tm")
    assert tm.generators["r"] == ((2,), (1,))
    tl = dehn_twist_dd("Tl")
    assert tl.generators["s"] == ((1,), (2,))


def test_twist_inverse_compositions():
    for t in TWIST_NAMES:
        for which in ("inf", "minus1", "zero"):
            M = solid_torus(which)
            out = apply_twist_word([t, twist_inverse(t)], M)
            assert iso_check(out.reduce(), M.reduce()) is not None


def test_mor_twist_composite_identity():
    M = solid_torus("zero")
    once = mor_dd_d(dehn_twist_dd("Tm"), M).reduce()
    back = mor_dd_d(dehn_twist_dd("Tm'"), once).reduce()
    assert iso_check(back, M.reduce()) is not None


def test_genus1_ranks():
    assert hf_genus1([], left="h_inf", base="h_minus1") == 1
    assert hf_genus1([]) == 2
    assert hf_genus1(["Tm"]) == 1
    for p in range(2, 8):
        assert hf_genus1(["Tm"] * p) == p


def test_genus1_insertion_invariance():
    base = hf_genus1(["Tm", "Tm"])
    assert hf_genus1(["Tm", "Tl", "Tl'", "Tm"]) == base
    assert hf_genus1(["Tm'", "Tm", "Tm", "Tm"]) == base


def _unsplit_rank(word, left, base):
    """The rank with the whole word applied to the base, as in Mor(L, w * N)."""
    return mor_d_d(left, apply_twist_word(word, base)).homology_rank()


def test_genus1_ranks_match_lattice_oracle():
    import random

    rng = random.Random(99)
    h = solid_torus("zero")
    for _ in range(25):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 10))]
        assert hf_genus1(word) == _unsplit_rank(word, h, h) == lattice_rank(word), word


def test_split_word_ranks_match_unsplit_ranks():
    import random

    rng = random.Random(2024)
    sides = {
        "h_0": solid_torus("zero"),
        "h_inf": solid_torus("inf"),
        "h_minus1": solid_torus("minus1"),
        "trefoil+1": cfk_to_cfd(trefoil_cfk(), 1),
        "figure8": cfk_to_cfd(figure8_cfk(), 0),
    }
    lengths = itertools.cycle(range(10))
    for (lname, left), (bname, base) in itertools.product(sides.items(), repeat=2):
        for _ in range(4):
            word = [rng.choice(TWIST_NAMES) for _ in range(next(lengths))]
            assert hf_genus1(word, left, base) == _unsplit_rank(word, left, base), (
                lname, bname, word)


def _held() -> int:
    """The number of twisted solid tori in the memo."""
    return catalog._twisted_torus.cache_info().currsize


def _freely_reduced(word) -> list:
    """The word with adjacent inverse pairs deleted until none is left."""
    word, i = list(word), 0
    while i + 1 < len(word):
        if word[i + 1] == twist_inverse(word[i]):
            del word[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return word


def test_cancelled_inverse_pairs_keep_the_rank():
    import random

    rng = random.Random(314)
    sides = [("h_inf", solid_torus("inf")), ("h_minus1", solid_torus("minus1")),
             ("h_0", solid_torus("zero"))]
    sides += [(m, m) for m in (cfk_to_cfd(trefoil_cfk(), n) for n in (-3, 0, 2))]
    for (lname, left), (bname, base) in itertools.product(sides, repeat=2):
        for _ in range(2):
            word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 5))]
            for _ in range(rng.randint(1, 3)):
                t = rng.choice(TWIST_NAMES)
                at = rng.randint(0, len(word))
                word[at:at] = [t, twist_inverse(t)]
            assert hf_genus1(word, lname, bname) == _unsplit_rank(word, left, base), word
    with pytest.raises(CatalogError, match="unknown twist token 'Tx'"):
        hf_genus1(["Tm", "Tm'", "Tx"])
    assert hf_genus1(["Tm", "Tl'", "Tl", "Tm'"]) == hf_genus1([]) == 2


def test_hf_genus1_gates_each_letter_once(monkeypatch):
    word = ["Tm", "Tl'", "Tm", "Tm", "Tl", "Tm'", "Tl'", "Tm"]
    assert _freely_reduced(word) == word
    left = solid_torus("zero")
    left = TypeDModule(left.algebra, left.generators, left.delta)
    want = _unsplit_rank(word, left, solid_torus("minus1"))
    halves = set()
    calls = {"mor_dd_d": 0, "verify_d2": 0, "BimoduleHalf": 0, "left": 0,
             "decompose": 0, "arrows": 0}
    init, verify_d2, mor = BimoduleHalf.__init__, TypeDModule.verify_d2, catalog.mor_dd_d
    decompose, step = TensorElement.decompose, catalog.twist_step

    def counted_init(self, B, *args, **kwargs):
        calls["BimoduleHalf"] += 1
        calls["arrows"] += len(B.delta)
        init(self, B, *args, **kwargs)

    def counted_verify_d2(self, *args, **kwargs):
        calls["verify_d2"] += 1
        return verify_d2(self, *args, **kwargs)

    def counted_decompose(*args, **kwargs):
        calls["decompose"] += 1
        return decompose(*args, **kwargs)

    def counted_mor(half, module, *args):
        halves.add(half)
        calls["mor_dd_d"] += 1
        return mor(half, module, *args)

    def counted_step(letter, key, module):
        calls["left"] += key is None  # the left side, passed as a module
        return step(letter, key, module)

    monkeypatch.setattr(BimoduleHalf, "__init__", counted_init)
    monkeypatch.setattr(TypeDModule, "verify_d2", counted_verify_d2)
    monkeypatch.setattr(catalog, "mor_dd_d", counted_mor)
    monkeypatch.setattr(catalog, "twist_step", counted_step)
    monkeypatch.setattr(TensorElement, "decompose", counted_decompose)
    # only the memos counted here: a full clear would also rebuild and gate
    # the twist bimodules
    catalog.twist_half.cache_clear()
    catalog._twisted_torus.cache_clear()
    assert hf_genus1(word, left, "h_minus1") == want
    # one pairing and one gate per letter, both sides took letters, and both
    # shared one prepared half per letter
    assert calls["mor_dd_d"] == calls["verify_d2"] == len(word)
    on_left = calls["left"]
    assert 0 < on_left < len(word)
    assert _held() == len(word) - on_left
    assert calls["BimoduleHalf"] == len(halves) <= len(TWIST_NAMES)
    assert calls["decompose"] == calls["arrows"]
    # a second call pairs and gates again only the left side's letters: the
    # base's states are memo hits, no half is built and no twist arrow is
    # decomposed again
    assert hf_genus1(word, left, "h_minus1") == want
    assert calls["mor_dd_d"] == calls["verify_d2"] == len(word) + on_left
    assert calls["left"] == 2 * on_left
    assert _held() == len(word) - on_left
    assert calls["BimoduleHalf"] == len(halves)
    assert calls["decompose"] == calls["arrows"]
    # a word with inverse pairs pairs and gates only its reduced letters
    word = ["Tm", "Tl'", "Tm", "Tm'", "Tl", "Tl'", "Tm", "Tm"]
    reduced = _freely_reduced(word)
    assert reduced == ["Tm", "Tl'", "Tm", "Tm"]
    want = _unsplit_rank(word, left, solid_torus("minus1"))
    catalog._twisted_torus.cache_clear()
    calls.update(mor_dd_d=0, verify_d2=0)
    assert hf_genus1(word, left, "h_minus1") == want
    assert calls["mor_dd_d"] == calls["verify_d2"] == len(reduced)


def _count_pairings(monkeypatch) -> dict:
    calls = {"mor_dd_d": 0}
    mor = catalog.mor_dd_d

    def counted(*args):
        calls["mor_dd_d"] += 1
        return mor(*args)

    monkeypatch.setattr(catalog, "mor_dd_d", counted)
    return calls


def _record_states(monkeypatch) -> dict:
    """Every (key, module) that ``twist_step`` returns, by key."""
    states = {}
    step = catalog.twist_step

    def recorded(letter, key, module):
        key, out = step(letter, key, module)
        states[key] = out
        return key, out

    monkeypatch.setattr(catalog, "twist_step", recorded)
    return states


def test_memoized_twisted_tori_match_cold_twist_words(monkeypatch):
    import random

    rng = random.Random(57)
    names = ("h_inf", "h_minus1", "h_0")
    states = _record_states(monkeypatch)
    for i in range(30):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(1, 10))]
        memo.clear()
        states.clear()
        hf_genus1(word, names[i % 3], names[i // 3 % 3])
        assert bool(states) == bool(_freely_reduced(word)) and _held() == len(states)
        assert all(catalog._twisted_torus(*key) is module for key, module in states.items())
        for (name, w), module in states.items():
            memo.clear()
            cold = apply_twist_word(list(w), solid_torus(name))
            assert dumps(serialize(module)) == dumps(serialize(cold)), (name, w)


def test_warm_twisted_tori_give_lattice_ranks():
    import random

    rng = random.Random(8)
    for p in range(1, 41):
        assert hf_genus1(["Tm"] * p) == p
    for _ in range(40):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 12))]
        assert hf_genus1(word) == lattice_rank(word), word


def _bound_twisted_tori(monkeypatch, maxsize: int):
    """An empty memo of twisted solid tori, evicting past ``maxsize``."""
    monkeypatch.setattr(catalog, "_twisted_torus",
                        functools.lru_cache(maxsize)(catalog._twisted_torus.__wrapped__))


def test_twisted_tori_pair_only_new_states(monkeypatch):
    calls = _count_pairings(monkeypatch)
    states = _record_states(monkeypatch)
    _bound_twisted_tori(monkeypatch, 10)
    assert hf_genus1(["Tm"] * 8) == 8
    # each side took four letters, each state paired once
    assert calls["mor_dd_d"] == _held() == 8
    assert hf_genus1(["Tm"] * 8) == 8
    assert calls["mor_dd_d"] == 8
    # a longer word with the same prefix pairs one new state per side
    assert hf_genus1(["Tm"] * 10) == 10
    assert calls["mor_dd_d"] == _held() == 10
    five = {("zero", ("Tm'",) * 5), ("zero", ("Tm",) * 5)}
    assert five <= set(states)
    # a hit counts as a use: Tm^8's states move behind Tm^10's two new
    # five-letter ones, so two more new states evict exactly those
    assert hf_genus1(["Tm"] * 8) == 8
    assert calls["mor_dd_d"] == 10
    assert hf_genus1(["Tl", "Tl"]) == lattice_rank(["Tl", "Tl"])
    assert calls["mor_dd_d"] == 12 and _held() == 10
    assert hf_genus1(["Tm"] * 8) == 8
    assert calls["mor_dd_d"] == 12
    for key in five:
        catalog._twisted_torus(*key)  # its four-letter rest is held
    assert calls["mor_dd_d"] == 14


def test_solid_torus_aliases_share_twisted_tori(monkeypatch):
    for group in (("h_0", "h_zero", "0", "zero"), ("h_inf", "h_infinity", "inf", "infinity"),
                  ("h_minus1", "-1", "minus1")):
        assert len({catalog.torus_name(a) for a in group}) == 1
        assert len({id(solid_torus(a)) for a in group}) == 1
        # a catalog reference takes every alias too
        assert all(catalog_lookup(a) is solid_torus(a) for a in group)
    with pytest.raises(CatalogError, match="unknown solid torus"):
        hf_genus1(["Tm"], left="h_1")
    word = ["Tm", "Tm", "Tl'", "Tm"]
    calls = _count_pairings(monkeypatch)
    states = _record_states(monkeypatch)
    memo.clear()
    want = hf_genus1(word, left="0", base="h_minus1")
    paired, keys = calls["mor_dd_d"], set(states)
    assert {name for name, _ in keys} <= {"zero", "minus1"} and paired == _held() == len(keys)
    for left, base in (("zero", "-1"), ("h_0", "minus1")):
        assert hf_genus1(word, left=left, base=base) == want
    assert calls["mor_dd_d"] == paired and set(states) == keys and _held() == len(keys)


def test_solid_torus_objects_are_paired_every_call(monkeypatch):
    word = ["Tm", "Tl'", "Tm", "Tm"]
    renamed = solid_torus("zero").rename(lambda g: g + "2")
    calls = _count_pairings(monkeypatch)
    memo.clear()
    for module in (renamed, renamed, solid_torus("zero")):
        before = calls["mor_dd_d"]
        assert hf_genus1(word, module, module) == lattice_rank(word)
        assert calls["mor_dd_d"] - before == len(word)
    assert _held() == 0


def test_twisted_tori_stay_within_their_bound(monkeypatch):
    import random

    rng = random.Random(21)
    words = [[rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 12))] for _ in range(20)]
    words += [["Tm"] * p for p in (12, 3, 20)]
    _bound_twisted_tori(monkeypatch, 6)
    for word in words[::-1] + words:
        assert hf_genus1(word) == lattice_rank(word), word
        assert _held() <= 6
    # least recently used goes first: Tm^20 ends on its two ten-letter
    # states, which are held, and its one-letter states are gone
    calls = _count_pairings(monkeypatch)
    catalog._twisted_torus("zero", ("Tm",) * 10)
    catalog._twisted_torus("zero", ("Tm'",) * 10)
    assert calls["mor_dd_d"] == 0
    catalog._twisted_torus("zero", ("Tm",))
    assert calls["mor_dd_d"] == 1


# The meridian slopes of the three solid tori in the lattice basis of
# ``checks.twist_word_matrix``: gluing sides u and v through a word W gives
# rank |det(u, W v)|, or 2 (S1 x S2) when it is 0; h_0 on both sides is
# ``lattice_rank``.
SLOPES = {"h_0": (1, 0), "h_inf": (0, 1), "h_minus1": (1, 1)}


def _slope_rank(word, left: str, base: str) -> int:
    a, b, c, d = twist_word_matrix(word)
    (u1, u2), (v1, v2) = SLOPES[left], SLOPES[base]
    det = u1 * (c * v1 + d * v2) - u2 * (a * v1 + b * v2)
    return abs(det) if det else 2


def test_prepared_sides_never_change_a_rank():
    rng = random.Random(34)
    slide = {t: f"underslide:split:1:{b1}:{c1}" for t, (b1, c1) in catalog.TWIST_SLIDES.items()}
    names = tuple(SLOPES)
    cases = []
    for i in range(60):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 10))]
        cases.append((word, names[i % 3], names[i // 3 % 3]))
    assert all(_slope_rank(w, "h_0", "h_0") == lattice_rank(w) for w, _, _ in cases)
    memo.clear()
    # warm: each word in both spellings, through the states and prepared
    # sides that the words before it left in the memos
    for word, left, base in cases:
        want = _slope_rank(word, left, base)
        assert hf_genus1(word, left, base) == want, (word, left, base)
        assert hf_genus1([slide[t] for t in word], left, base) == want, (word, left, base)
    assert memo.sizes()["bhf.catalog._side_half"] > 0
    # cold: every memo and every algebra table cleared before each call
    for i, (word, left, base) in enumerate(cases):
        memo.clear()
        spelled = [slide[t] for t in word] if i % 2 else word
        assert hf_genus1(spelled, left, base) == _slope_rank(word, left, base), (word, left, base)


def test_a_side_passed_as_a_module_is_prepared_on_each_call():
    # two module objects with the same generator name, on different
    # idempotents and arrows: neither may answer with the other's prepared side
    zero = solid_torus("zero")
    zero = TypeDModule(zero.algebra, zero.generators, zero.delta)
    inf = solid_torus("inf").rename(lambda g: "n")
    assert set(zero.generators) == set(inf.generators) == {"n"}
    word = ["Tm", "Tl'", "Tm", "Tm"]
    for module, name in ((zero, "h_0"), (inf, "h_inf"), (zero, "h_0"), (inf, "h_inf")):
        assert hf_genus1(word, module, "h_minus1") == _slope_rank(word, name, "h_minus1")
        assert hf_genus1(word, "h_minus1", module) == _slope_rank(word, "h_minus1", name)
        assert hf_genus1(word, module, module) == _slope_rank(word, name, name)


def test_hf_genus1_rejects_unknown_token_as_given(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("twist work before the word was checked")

    monkeypatch.setattr(catalog, "apply_twist_word", no_work)
    for word in (["Tx"], ["Tm", "Tm", "Tx"], ["Tx", "Tm", "Tm"]):
        for left in ("h_0", "h_minus1"):
            with pytest.raises(CatalogError) as info:
                hf_genus1(word, left=left)
            assert str(info.value).startswith("unknown twist token 'Tx';"), word


def test_twist_words_match_letter_by_letter_pairing():
    import random

    rng = random.Random(13)
    for i in range(30):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(1, 12))]
        base = solid_torus(("inf", "minus1", "zero")[i % 3])
        out = base
        for t in reversed(word):
            out = mor_dd_d(dehn_twist_dd(t), out).reduce()
        assert dumps(serialize(apply_twist_word(word, base))) == dumps(serialize(out)), word


def test_twist_word_prepares_each_letter_once(monkeypatch):
    word = ["Tm", "Tl'", "Tm", "Tm", "Tl'", "Tm"]
    arrows = sum(len(dehn_twist_dd(t).delta) for t in set(word))
    calls = {"mor_dd_d": 0, "decompose": 0, "verify_d2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "mor_dd_d", counted("mor_dd_d", catalog.mor_dd_d))
    monkeypatch.setattr(TensorElement, "decompose", counted("decompose", TensorElement.decompose))
    monkeypatch.setattr(TypeDModule, "verify_d2", counted("verify_d2", TypeDModule.verify_d2))
    # only the memo counted here: a full clear would also rebuild and gate
    # the twist bimodules
    catalog.twist_half.cache_clear()
    apply_twist_word(word, solid_torus("zero"))
    # one call per letter through the catalog's name, each output gated once,
    # and each distinct letter's arrows split into keys once
    assert calls == {"mor_dd_d": len(word), "decompose": arrows, "verify_d2": len(word)}
    # the halves outlive the call: a second one splits no arrow again
    apply_twist_word(word, solid_torus("inf"))
    assert calls == {"mor_dd_d": 2 * len(word), "decompose": arrows, "verify_d2": 2 * len(word)}


def test_warm_and_cold_twist_halves_give_identical_dumps():
    import random

    rng = random.Random(31)
    words = [[rng.choice(TWIST_NAMES) for _ in range(rng.randint(1, 12))] for _ in range(30)]
    bases = [solid_torus(("inf", "minus1", "zero")[i % 3]) for i in range(30)]

    def dumps_of(cold: bool) -> list[str]:
        out = []
        for word, base in zip(words, bases):
            if cold:
                catalog.twist_half.cache_clear()
            out.append(dumps(serialize(apply_twist_word(word, base))))
        return out

    # cold, then warm from those halves; and warm (from one clear), then cold
    cold_first, warm_after = dumps_of(cold=True), dumps_of(cold=False)
    catalog.twist_half.cache_clear()
    warm_first, cold_after = dumps_of(cold=False), dumps_of(cold=True)
    assert cold_first == warm_after == warm_first == cold_after


def test_caller_bimodule_gets_a_fresh_half_each_call(monkeypatch):
    B = dehn_twist_dd("Tm").rename(lambda g: g + "2")
    cached = catalog.twist_half("Tm")
    built = []
    init = BimoduleHalf.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BimoduleHalf, "__init__", counted_init)
    M = solid_torus("minus1")
    first, second = mor_dd_d(B, M), mor_dd_d(B, M)
    assert len(built) == 2 and built[0] is not built[1] and cached not in built
    assert built[0].records is not built[1].records
    assert dumps(serialize(first)) == dumps(serialize(second))
    assert catalog.twist_half("Tm") is cached


def test_warm_twist_records_still_catch_a_broken_square():
    half = catalog.twist_half("Tm")
    apply_twist_word(["Tm", "Tl'"] * 4, solid_torus("zero"))  # warm the records
    # rho1 then rho2 with no rho12 arrow from x to z: d^2 = rho12 != 0
    broken = catalog._torus_mod({"x": (1,), "y": (2,), "z": (1,)},
                                [("x", "rho1", "y"), ("y", "rho2", "z")])
    assert broken.algebra == half.out_alg
    with pytest.raises(GateFailure):
        broken.gated("hand-made module", half.records)
    # dropping any one arrow of a gated pairing output: the warm records
    # find exactly the residuals that fresh ones do
    out = mor_dd_d(half, apply_twist_word(["Tl'", "Tm"], solid_torus("minus1")))
    broke = 0
    for arrow in out.delta:
        M = TypeDModule(out.algebra, out.generators,
                        {k: c for k, c in out.delta.items() if k != arrow})
        cold = M.verify_d2()
        assert M.verify_d2(half.records) == cold, arrow
        broke += bool(cold)
    assert broke


def test_string_twist_word_is_rejected():
    for call in (lambda: hf_genus1("Tm Tm"), lambda: apply_twist_word("Tm", solid_torus("zero"))):
        with pytest.raises(CatalogError, match="parse_twist_word"):
            call()


def test_parse_twist_word():
    assert parse_twist_word("Tm Tm Tl'") == ["Tm", "Tm", "Tl'"]
    with pytest.raises(Exception):
        parse_twist_word("Tx")


def test_arcslide_classification():
    t = standard_pmc("torus")
    s = make_arcslide(t, 3, 2)
    assert s.kind == "underslide"
    s2 = make_arcslide(t, 1, 2)
    assert s2.kind == "overslide"
    with pytest.raises(SamePair):
        make_arcslide(t, 1, 3)
    with pytest.raises(SamePair):
        make_arcslide(t, 2, 4)
    with pytest.raises(NotAdjacent):
        make_arcslide(t, 1, 4)  # adjacency never crosses the basepoint
    with pytest.raises(NotAdjacent):
        make_arcslide(standard_pmc("split", 2), 2, 5)


def interval_pairs(slide):
    n = slide.source.n_points
    src = [i for i in range(1, n) if i != slide.u_interval]
    tgt = [i for i in range(1, n) if i != slide.u_prime_interval]
    return list(zip(src, tgt))


def test_arcslide_target_valid():
    z = standard_pmc("antipodal", 2)
    for slide in all_underslides(z):
        assert slide.target.genus == 2
        assert len(interval_pairs(slide)) == 6


def test_overslide_rejected():
    t = standard_pmc("torus")
    with pytest.raises(OverslideUnsupported):
        underslide_dd(make_arcslide(t, 1, 2))


def test_genus1_underslides_match_twists():
    matches = {}
    for slide in all_underslides(standard_pmc("torus")):
        B = underslide_dd(slide).restrict_weight(1).reduce()
        for t in TWIST_NAMES:
            if iso_check(B, dehn_twist_dd(t).reduce()) is not None:
                matches[(slide.b1, slide.c1)] = t
                break
    assert matches == {(2, 1): "Tl", (2, 3): "Tl'", (3, 2): "Tm", (3, 4): "Tm'"}


def test_underslide_generator_counts():
    for slide in all_underslides(standard_pmc("split", 2)):
        B = underslide_dd(slide)
        assert len(B.generators) == 20  # 16 complementary + 4 near pairs
        break


@pytest.mark.parametrize("kind", ["split", "antipodal"])
def test_genus2_underslides_d2(kind):
    circle = standard_pmc(kind, 2)
    for slide in all_underslides(circle):
        underslide_dd(slide)  # GateFailure if the gate trips


def test_genus2_identity_action_and_handlebody_double():
    H2 = handlebody(2)
    assert mor_d_d(H2, H2).homology_rank() == 4  # the double of the genus-2 handlebody
    B = dd_identity(standard_pmc("split", 2))
    out = mor_dd_d(B, H2).reduce()
    assert iso_check(out, H2.reduce()) is not None


def test_genus2_underslide_roundtrips_on_handlebody():
    # sliding a foot and sliding it back acts as the identity on the
    # geometric handlebody module, for every underslide of the split circle
    split2 = standard_pmc("split", 2)
    H2 = handlebody(2)
    for s in all_underslides(split2):
        inv = make_arcslide(s.target, s.b1_new, dict(s.point_map)[s.c2])
        assert inv.kind == "underslide"
        assert inv.target.matching == split2.matching
        m1 = mor_dd_d(underslide_dd(s), H2).reduce()
        m2 = mor_dd_d(underslide_dd(inv), m1).reduce()
        assert iso_check(m2, H2.reduce()) is not None, (s.b1, s.c1)


def test_genus2_underslide_word_warm_and_cold():
    # handlebody(2) through 20 seeded underslides of the split circle, each
    # output reduced, then paired with handlebody(2); the second run starts
    # after every memo (and so every algebra's corner-key table) is cleared
    split2 = standard_pmc("split", 2)
    rng = random.Random(0)
    slides = [rng.choice(all_underslides(split2)) for _ in range(20)]
    assert all(s.target == split2 for s in slides)
    built = {s: underslide_dd(s) for s in set(slides)}  # each distinct slide once
    word = [built[s] for s in slides]

    def run():
        M = handlebody(2)
        for B in word:
            M = mor_dd_d(B, M).reduce()
        return mor_d_d(handlebody(2), M).homology_rank(), dumps(M)

    warm = run()
    memo.clear()
    cold = run()
    assert warm[0] == cold[0] == 15
    assert warm[1] == cold[1]
    assert hashlib.sha256(cold[1].encode()).hexdigest() == (
        "244b2153064cc4444c12824f8bec9e54663c55e2393c389844e4f7a392477f28")


# ---------------------------------------------------------------------------
# underslide words through the word engine of hf_genus1


def _slide_token(slide) -> str:
    """A slide's word letter: its bimodule's catalog reference."""
    return f"underslide:split:{slide.source.genus}:{slide.b1}:{slide.c1}"


def _literal_slide_rank(word, k, built, side=None):
    """The rank of Mor(side, word * side), side ``handlebody(k)`` unless
    given, one ``mor_dd_d`` per letter, rightmost first, each DD bimodule
    built once into ``built``."""
    circle = standard_pmc("split", k)
    M = side = side or handlebody(k)
    for token in reversed(word):
        if token not in built:
            b1, c1 = map(int, token.split(":")[-2:])
            built[token] = underslide_dd(make_arcslide(circle, b1, c1))
        M = mor_dd_d(built[token], M).reduce()
    return mor_d_d(side, M).homology_rank(), M


def test_split2_words_match_the_literal_loop():
    tokens = [_slide_token(s) for s in all_underslides(standard_pmc("split", 2))]
    rng = random.Random(27)
    built, inserted = {}, 0
    for i in range(40):
        word = [rng.choice(tokens) for _ in range(rng.randint(0, 8))]
        for _ in range(i % 3):  # inverse pairs, which free reduction drops
            t = rng.choice(tokens)
            at = rng.randint(0, len(word))
            word[at:at] = [t, twist_inverse(t)]
            inserted += 1
        rank, M = _literal_slide_rank(word, 2, built)
        assert hf_genus1(word, "handlebody:2", "handlebody:2") == rank, word
        if i < 8:  # every letter as spelled: the literal loop's very module
            assert dumps(apply_twist_word(word, handlebody(2))) == dumps(M), word
    assert inserted >= 20


def test_split2_word_of_twenty_underslides_warm_and_cold():
    # the slides of test_genus2_underslide_word_warm_and_cold, whose first
    # slide acts first, so it is the word's rightmost letter
    rng = random.Random(0)
    slides = [rng.choice(all_underslides(standard_pmc("split", 2))) for _ in range(20)]
    word = [_slide_token(s) for s in reversed(slides)]
    for _ in range(2):  # the second call finds every state in the memo
        assert hf_genus1(word, "handlebody:2", "handlebody:2") == 15
    memo.clear()
    assert hf_genus1(word, "handlebody:2", "handlebody:2") == 15


def test_split2_slide_then_inverse_is_the_identity():
    twisted = apply_twist_word(["underslide:split:2:3:2"], handlebody(2))
    checked = 0
    for slide in all_underslides(standard_pmc("split", 2)):
        token = _slide_token(slide)
        for M in (handlebody(2), twisted):
            out = apply_twist_word([twist_inverse(token), token], M)
            assert iso_check(out.reduce(), M.reduce()) is not None, (token, M)
            checked += 1
    assert checked == 16


def test_slide_inverse_rule_on_split_circles():
    # no DD bimodule is built: the rule (b1, c1) -> (b1, 2 b1 - c1) is the
    # slide of the new foot back over the image of c2, an underslide too
    for k in range(1, 5):
        circle = standard_pmc("split", k)
        slides = all_underslides(circle)
        assert len(slides) == 4 * k
        for slide in slides:
            assert slide.target == circle
            token = _slide_token(slide)
            inverse = twist_inverse(token)
            assert twist_inverse(inverse) == token
            b1, c1 = map(int, inverse.split(":")[-2:])
            back = make_arcslide(circle, b1, c1)
            assert back.kind == "underslide" and back.target == circle
            reverse_slide = make_arcslide(slide.target, slide.b1_new, dict(slide.point_map)[slide.c2])
            assert (reverse_slide.b1, reverse_slide.c1) == (b1, c1)
            if k <= 3:
                assert catalog._letter(token) == (circle, slide)


@pytest.mark.parametrize("word, left, base, error", [
    (["underslide:split:2:2:1", "underslide:split:2:2:9"], "handlebody:2", "handlebody:2",
     "outside 1..8"),
    (["underslide:split:2:2:1", "underslide:split:2:4:5"], "handlebody:2", "handlebody:2",
     "is an overslide"),
    (["underslide:split:2:2:1", "underslide:split:2:2:5"], "handlebody:2", "handlebody:2",
     "not adjacent"),
    (["underslide:split:2:2:1", "underslide:split:2:2:4"], "handlebody:2", "handlebody:2",
     "same pair"),
    (["underslide:split:2:2:1", "underslide:split:2:02:1"], "handlebody:2", "handlebody:2",
     "unknown twist token"),
    (["underslide:split:2:2:1", "underslide:antipodal:2:2:1"], "handlebody:2", "handlebody:2",
     "unknown twist token"),
    (["underslide:split:4:2:1"], "handlebody:2", "handlebody:2", "unknown twist token"),
    (["underslide:split:2:2:1", "underslide:split:3:2:1"], "handlebody:2", "handlebody:2",
     "different circles"),
    (["underslide:split:2:2:1", "Tm"], "handlebody:2", "handlebody:2", "different circles"),
    (["Tm", "underslide:split:2:2:1"], "h_0", "h_inf", "different circles"),
    ([], "handlebody:2", "handlebody:3", "different circles"),
    (["Tm"], "h_0", "handlebody:2", "different circles"),
    ([], "handlebody:4", "handlebody:4", "k = 1, 2 or 3"),
    ([], "handlebody:2", "handlebody:x", "k = 1, 2 or 3"),
])
def test_slide_words_are_checked_before_any_pairing(monkeypatch, word, left, base, error):
    def no_work(*args, **kwargs):
        raise AssertionError("a pairing or a slide build before the word was checked")

    for name in ("mor_dd_d", "mor_d_d", "underslide_dd", "dehn_twist_dd"):
        monkeypatch.setattr(catalog, name, no_work)
    with pytest.raises(CatalogError, match=error):
        hf_genus1(word, left, base)


def test_split1_slides_and_twists_share_the_torus():
    # split:1 is the torus, whose underslides are the twists exactly, after
    # renaming (dehn_twist_dd): (2,1) = Tl, (2,3) = Tl', (3,2) = Tm, (3,4) = Tm'.
    # hf_genus1 pairs a slide letter through its twist, so the slides' own
    # bimodules are paired literally here, against the lattice oracle
    as_twist = {"2:1": "Tl", "2:3": "Tl'", "3:2": "Tm", "3:4": "Tm'"}
    rng = random.Random(5)
    built = {}
    for _ in range(10):
        feet = [rng.choice(sorted(as_twist)) for _ in range(rng.randint(1, 8))]
        word = [f"underslide:split:1:{f}" for f in feet]
        want = lattice_rank([as_twist[f] for f in feet])
        assert _literal_slide_rank(word, 1, built, solid_torus("zero"))[0] == want, word
        assert hf_genus1(word) == want, word
    assert len(built) == 4


def test_a_torus_slide_letter_is_its_twist_letter(monkeypatch):
    calls = []

    def counted_mor(*args, **kwargs):
        calls.append(args)
        return mor_dd_d(*args, **kwargs)

    monkeypatch.setattr(catalog, "mor_dd_d", counted_mor)
    # Tm and the slide 3 over 4, which is Tm', reduce freely to nothing
    assert hf_genus1(["Tm", "underslide:split:1:3:4"]) == 2
    assert calls == []
    assert parse_twist_word("underslide:split:1:2:1 Tl' underslide:split:1:3:2") == [
        "Tl", "Tl'", "Tm"]
    # both spellings of Tm share one half and one family of twisted tori
    memo.clear()
    mixed = apply_twist_word(["Tm", "underslide:split:1:3:2"], solid_torus("zero"))
    assert memo.sizes()["bhf.catalog.twist_half"] == 1
    assert dumps(mixed) == dumps(apply_twist_word(["Tm", "Tm"], solid_torus("zero")))
    assert hf_genus1(["Tm"] * 3) == 3
    held = {name: memo.sizes()[name] for name in ("bhf.catalog._twisted_torus",
                                                   "bhf.catalog.twist_half")}
    assert hf_genus1(["Tm", "underslide:split:1:3:2", "Tm"]) == 3
    assert {name: memo.sizes()[name] for name in held} == held


def test_swapped_sides_and_inverted_word_keep_the_rank():
    # gluing the sides the other way round gives the same manifold
    rng = random.Random(81)
    torus = list(TWIST_NAMES) + [f"underslide:split:1:{f}" for f in ("2:1", "2:3", "3:2", "3:4")]
    split2 = [_slide_token(s) for s in all_underslides(standard_pmc("split", 2))]
    sides = ("h_0", "h_inf", "h_minus1")
    cases = [([rng.choice(torus) for _ in range(rng.randint(0, 9))], rng.choice(sides),
              rng.choice(sides)) for _ in range(40)]
    cases += [([rng.choice(split2) for _ in range(rng.randint(0, 5))], "handlebody:2",
               "handlebody:2") for _ in range(4)]
    for word, left, base in cases:
        inverse = [twist_inverse(t) for t in reversed(word)]
        assert hf_genus1(word, left, base) == hf_genus1(inverse, base, left), (word, left, base)


def test_rank_callers_compute_no_representatives(monkeypatch, capsys):
    # hf_genus1, bhf hf3m and bhf pair --homology ask only for a rank, so
    # they never reach homology_representatives
    def no_representatives(self):
        raise AssertionError("representatives computed where only a rank is asked")

    monkeypatch.setattr(F2ChainComplex, "homology_representatives", no_representatives)
    for word in (["Tm"] * 5, ["Tm", "Tl'"] * 3, ["Tl", "Tm'", "Tm'", "Tl", "Tm"]):
        assert hf_genus1(word) == lattice_rank(word), word
    word = ["underslide:split:2:2:1", "underslide:split:2:6:7", "underslide:split:2:3:2"]
    assert hf_genus1(word, "handlebody:2", "handlebody:2") == _literal_slide_rank(word, 2, {})[0]
    assert main(["hf3m", "--word", "Tm Tl' Tm Tl'"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == lattice_rank(["Tm", "Tl'"] * 2)
    assert main(["pair", "--left", "catalog:h_inf", "--right", "catalog:h_minus1", "--homology"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1


# ---------------------------------------------------------------------------
# near-chords: the moving-strand join and left-factor search against the
# all-pairs search it replaced


def _support(n, diag):
    acc = [0] * (n - 1)
    for s, t in diag:
        for i in range(s, t):
            acc[i - 1] += 1
    return acc


def near_chords_by_all_pairs(slide):
    """Every support-matched pair of basis keys with near-complementary
    idempotents, less every product of two non-idempotent such pairs."""
    Z, n = slide.source, slide.source.n_points
    alg1 = algebra_of(Z)
    rev_zp, zp_to_rev = pair_map_to_reverse(slide.target)
    alg2 = algebra_of(rev_zp)
    pair_bij = slide.pair_bijection()
    rev_to_z = {zp_to_rev(pair_bij[p]): p for p in Z.pairs}
    partners = {}
    for s, t in _near_complementary_sets(Z, Z.pair_of(slide.c1), Z.pair_of(slide.b1)):
        partners.setdefault(frozenset(s), []).append(frozenset(t))
    src_iv = [i for i in range(1, n) if i != slide.u_interval]
    tgt_iv = [i for i in range(1, n) if i != slide.u_prime_interval]

    # per side, key -> (left pairs, right pairs), named by source pairs
    info1, info2 = {}, {}
    keys2_by_info = {}
    for k2 in all_keys(alg2):
        sup = _support(n, k2[0])
        info2[k2] = (frozenset(rev_to_z[q] for q in alg2.key_left_pairs(k2)),
                     frozenset(rev_to_z[q] for q in alg2.key_right_pairs(k2)))
        # interval i of the target circle is interval n - i of its reverse
        restricted = tuple(sup[n - i - 1] for i in tgt_iv)
        keys2_by_info.setdefault(info2[k2] + (restricted,), []).append(k2)
    candidates = []
    for k1 in all_keys(alg1):
        sup = _support(n, k1[0])
        info1[k1] = (frozenset(alg1.key_left_pairs(k1)), frozenset(alg1.key_right_pairs(k1)))
        restricted = tuple(sup[i - 1] for i in src_iv)
        for left2, right2 in itertools.product(partners[info1[k1][0]], partners[info1[k1][1]]):
            candidates.extend((k1, k2) for k2 in keys2_by_info.get((left2, right2, restricted), ())
                              if k1[0] or k2[0])

    product1 = functools.lru_cache(maxsize=None)(alg1.key_product)
    product2 = functools.lru_cache(maxsize=None)(alg2.key_product)
    by_left = {}
    for k1, k2 in candidates:
        by_left.setdefault((info1[k1][0], info2[k2][0]), []).append((k1, k2))
    reducible = set()
    for k1, k2 in candidates:
        for l1, l2 in by_left.get((info1[k1][1], info2[k2][1]), ()):
            keys1 = product1(k1, l1)
            if keys1:
                reducible.update(itertools.product(keys1, product2(k2, l2)))
    return set(candidates) - reducible


# the torus underslides, and one underslide of each genus-2 circle
SLIDES = all_underslides(CIRCLES[0]) + [
    all_underslides(circle)[i % len(all_underslides(circle))]
    for i, circle in enumerate(CIRCLES[1:])
]


@pytest.mark.parametrize("slide", SLIDES, ids=lambda s: f"{s.source!r}:{s.b1}:{s.c1}")
def test_near_chords_match_all_pairs_search(slide):
    B = underslide_dd(slide)
    got = {pair for coeff in B.delta.values() for pair in coeff.decompose(B.algebra1, B.algebra2)}
    assert got == near_chords_by_all_pairs(slide)
