import pytest

from bhf.pmc import standard_pmc
from bhf.strands import torus_element
from bhf.dmodules import iso_check, mapping_cone
from bhf.pairing import mor_dd_d
from bhf.checks import lattice_rank
from bhf.catalog import (
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


def test_genus1_ranks_match_lattice_oracle():
    import random

    rng = random.Random(99)
    for _ in range(25):
        word = [rng.choice(TWIST_NAMES) for _ in range(rng.randint(0, 10))]
        assert hf_genus1(word) == lattice_rank(word), word


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


def test_arcslide_target_valid():
    z = standard_pmc("antipodal", 2)
    for slide in all_underslides(z):
        assert slide.target.genus == 2
        assert len(slide.interval_pairs()) == 6


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
    from bhf.pairing import homology_f2, mor_d_d

    H2 = handlebody(2)
    rank, _ = homology_f2(mor_d_d(H2, H2))
    assert rank == 4  # the double of the genus-2 handlebody
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
