"""Golden pairing and cancellation outputs, pinned by the sha256 of their JSON.

Each entry is the sha256 of ``dumps(serialize(obj))`` for one output of the
pair and reduce layers: the unreduced ``mor_dd_d`` output of the last step
of a twist word and the reduced ``apply_twist_word`` result of the whole
word, one ``mor_d_dd`` output, one reduced U-weighted type D module, one
reduced DD bimodule, the F2[U] morphism complex of the trefoil cable
satellite, the framed-complement modules of three knots at the framings
2 tau - 1, 2 tau and 2 tau + 1 (one per framing branch), and the simplified
basis of the figure-eight complex.  Generator names record the cancellation
order, so a change in which unit arrow is cancelled first changes a digest
even when the result is isomorphic.
"""

import hashlib

import pytest

from bhf.catalog import apply_twist_word, dd_identity, dehn_twist_dd, solid_torus
from bhf.dmodules import TensorElement, TypeDDModule, UTypeDModule
from bhf.knots import cfk_to_cfd, figure8_cfk, satellite, simplify_basis, staircase_cfk, tau, trefoil_cfk
from bhf.pairing import mor_d_dd, mor_dd_d
from bhf.pmc import standard_pmc
from bhf.serialize import dumps, serialize

WORDS = {
    "Tm^20": ["Tm"] * 20,
    "(Tm Tl')^5": ["Tm", "Tl'"] * 5,
    "Tl' Tm^3 Tl'^2 Tm": ["Tl'", "Tm", "Tm", "Tm", "Tl'", "Tl'", "Tm"],
    # a continued-fraction word of the genus-1 bench: rank 53, and a final
    # morphism complex of 197 generators
    "wide": ["Tm", "Tm", "Tl'", "Tm", "Tm", "Tm", "Tl'", "Tm", "Tm", "Tm", "Tl'", "Tl'", "Tl'"],
}


def _last_pairing(word):
    """The unreduced output of the step that pairs the word's first letter."""
    return lambda: mor_dd_d(dehn_twist_dd(word[0]), apply_twist_word(word[1:], solid_torus("zero")))


def _twisted(word):
    return lambda: apply_twist_word(word, solid_torus("zero"))


def _u_cone():
    """N (x) (a -> U b) for the unreduced pairing N of Tm with the trefoil.

    Every arrow of N appears on both copies with U^0 and each generator x
    has an arrow (x, a) -> (x, b) with U^1, so the structure equation holds
    and cancelling the unit arrows composes U powers.
    """
    N = mor_dd_d(dehn_twist_dd("Tm"), cfk_to_cfd(trefoil_cfk(), 1))
    gens, delta = {}, {}
    for x, idem in N.generators.items():
        gens[f"{x}:a"] = gens[f"{x}:b"] = idem
        delta[(f"{x}:a", f"{x}:b")] = {1: N.algebra.idempotent(idem)}
    for (x, y), c in N.delta.items():
        for side in "ab":
            delta[(f"{x}:{side}", f"{y}:{side}")] = {0: c}
    out = UTypeDModule(N.algebra, gens, delta)
    assert out.verify_d2() == []
    return out


def _dd_with_trivial_pairs():
    """The genus-2 identity bimodule plus one cancelling pair per generator.

    For each generator x a pair u -> v with a unit coefficient is added,
    and v is replaced by v' = v + x: then u -> v' and u -> x are units and
    v' carries the arrows out of x.  The module is isomorphic to the
    identity bimodule.  v' is named to sort before x for every other
    generator and after it for the rest, so the least-(src, dst) rule
    cancels u -> v' for some pairs and u -> x (renaming x to v') for others.
    """
    B = dd_identity(standard_pmc("antipodal", 2))
    gens, delta = dict(B.generators), dict(B.delta)
    for i, (x, (i1, i2)) in enumerate(sorted(B.generators.items())):
        unit = TensorElement.from_elements(B.algebra1.idempotent(i1), B.algebra2.idempotent(i2))
        u, v = f"u{x}", f"{'wy'[i % 2]}{x}"
        gens[u] = gens[v] = (i1, i2)
        delta[(u, v)] = unit
        delta[(u, x)] = unit
        for (s, t), c in B.delta.items():
            if s == x:
                delta[(v, t)] = c
    out = TypeDDModule(B.algebra1, B.algebra2, gens, delta)
    assert out.verify_d2() == []
    return out


KNOTS = {
    "trefoil": trefoil_cfk,
    "figure8": figure8_cfk,
    # chains of length 2 on both arrow kinds
    "staircase 2112": lambda: staircase_cfk([2, 1, 1, 2]),
}


def _framed(knot, offset):
    def build():
        c = KNOTS[knot]()
        return cfk_to_cfd(c, 2 * tau(c) + offset)
    return build


OBJECTS = {
    **{f"mor_dd_d:{label}": _last_pairing(w) for label, w in WORDS.items()},
    **{f"apply_twist_word:{label}": _twisted(w) for label, w in WORDS.items()},
    "mor_d_dd:Tl side 2": lambda: mor_d_dd(
        apply_twist_word(["Tl'", "Tm", "Tm"], solid_torus("zero")), dehn_twist_dd("Tl"), side=2),
    "UTypeDModule.reduce": lambda: _u_cone().reduce(),
    "TypeDDModule.reduce": lambda: _dd_with_trivial_pairs().reduce(),
    "mor_d_ud:cable21 trefoil": lambda: satellite("cable21", trefoil_cfk(), -2).mor_complex,
    **{f"cfk_to_cfd:{knot} 2tau{offset:+d}": _framed(knot, offset)
       for knot in KNOTS for offset in (-1, 0, 1)},
    "simplify_basis:figure8": lambda: simplify_basis(figure8_cfk())[0],
}

GOLDEN = {  # generators and arrows of each object in the comment
    "TypeDDModule.reduce": "721fd942baf8c347113e8257c58d3ff8006704a2e40f882ad27f2ed9e54ebbf3",  # 16, 48
    "UTypeDModule.reduce": "a91a21d5f3611bebf13aca042ba0d4ae99b1f2af9168de076619011b4e4febc6",  # 14, 21
    "apply_twist_word:(Tm Tl')^5": "285a626990e581b8387cf21844e37542950bf90d417f6b8b961daaec8cebb68c",  # 89, 89
    "apply_twist_word:Tl' Tm^3 Tl'^2 Tm": "3c6a34de756120c9188c584c79cca1378540947ae5e25d1e37801fcb33be2257",  # 23, 23
    "apply_twist_word:Tm^20": "a3dcd99d91c4e49bac9137f2f6b86e1c4530286a1358e6e642b60ad359784f20",  # 21, 21
    "apply_twist_word:wide": "093f08b7eae9d3a2d22c473eb77681131d2b49fdd4c9278aaf8e163c3b1b14a1",  # 72, 72
    "cfk_to_cfd:figure8 2tau+0": "4d818a77ad596899868776eaa9a3084e043bc5eed9b5060fdab266a5c1bfb1a3",  # 9, 9
    "cfk_to_cfd:figure8 2tau+1": "1bad7e9a94bb198d5258474dc567de7962b777838e286856cb5910541928c64e",  # 10, 10
    "cfk_to_cfd:figure8 2tau-1": "f2e52d853ccad2cb0c34a2486cfd6b2476e06a783a63f61961f82739e092079a",  # 10, 9
    "cfk_to_cfd:staircase 2112 2tau+0": "268d854edebca5897da2405e872768c6487396c06cbb5c233290f68f377d2bf4",  # 11, 11
    "cfk_to_cfd:staircase 2112 2tau+1": "574956477149c6f709a903b56b396a68a4d35b1d35ad1d83425876435ac42b8e",  # 12, 12
    "cfk_to_cfd:staircase 2112 2tau-1": "d689a0c391a29b621553527a8ab5e4f6e9ac5bc5efad71a6afb30aeb5eaca979",  # 12, 12
    "cfk_to_cfd:trefoil 2tau+0": "ebd5e64698bbfd56f15aafa779790c2c637b05e95f71183c606c30bf05085441",  # 5, 5
    "cfk_to_cfd:trefoil 2tau+1": "00d7a7cd183fdff393ef0d727a5555f8644ecfbcd2db6206031a8748bd1bc83d",  # 6, 6
    "cfk_to_cfd:trefoil 2tau-1": "a28c4a309a8091a463c7485bde16b6d81e6b165b835300fc00072fcf8b09406a",  # 6, 6
    "mor_d_dd:Tl side 2": "d0640f0963eed686d751470a475ef10dbe7bdfb7ea44e9508af317aee897064e",  # 34, 54
    "mor_d_ud:cable21 trefoil": "39942ea495959d97ab66822667a8d135c8b189f704a630752e5310fd59beaf89",  # 29
    "mor_dd_d:(Tm Tl')^5": "a760e60b33f6ae44b6323026ffc97fee173135b07eeb1a40e4310f9cc8f5e22a",  # 283, 388
    "mor_dd_d:Tl' Tm^3 Tl'^2 Tm": "12929ea04ed5bef05edfca470c0a82fc4a97a2ecd5e6d2b39f7e97517218edc4",  # 95, 147
    "mor_dd_d:Tm^20": "f2cf97dd39ea938505addc34952cb05d7e847ff07f226e5d6be0fc158d1dfd63",  # 137, 214
    "mor_dd_d:wide": "9de8d8ae486dee6a225c2c01bbf2767ce1f5c3370442963e6baeba2c957def1f",  # 314, 469
    "simplify_basis:figure8": "a68b7891b748e0749f9c4c1c242f7989df581292c3ebff0ed65a774a4364bd34",  # 5, 4
}


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_pairing_dump_is_pinned(name):
    text = dumps(serialize(OBJECTS[name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
