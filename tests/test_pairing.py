import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhf.pmc import standard_pmc
from bhf.strands import algebra_of
from bhf.dmodules import TypeDModule, iso_check
from bhf.pairing import (
    AlgebraMismatch,
    BimoduleHalf,
    TargetHalf,
    key_name,
    mor_d_d,
    mor_d_dd,
    mor_d_ud,
    mor_dd_d,
)
from bhf.catalog import apply_twist_word, dd_identity, dehn_twist_dd, solid_torus
from bhf.knots import cable21_pattern
from bhf.gf2 import F2ChainComplex, NotAComplex, _insert
from bhf.serialize import dumps, serialize


ALG = algebra_of(standard_pmc("torus"))


def test_mor_inf_minus1_fixture():
    C = mor_d_d(solid_torus("inf"), solid_torus("minus1"))
    assert sorted(C.generators) == ["r|2>3|a", "r|2>4|b", "r|p2|b"]
    # d(r -> b) = (r -> rho23 b) and d(r -> rho2 a) = (r -> rho23 b)
    assert ("r|p2|b", "r|2>4|b") in C.entries
    assert ("r|2>3|a", "r|2>4|b") in C.entries
    assert len(C.entries) == 2
    assert C.homology_rank() == 1
    assert C.homology_representatives() == [{"r|p2|b": 1, "r|2>3|a": 1}]


def test_mor_basis_counts_match_corner_dimensions():
    for m_name, n_name in itertools.product(("inf", "minus1", "zero"), repeat=2):
        M, N = solid_torus(m_name), solid_torus(n_name)
        C = mor_d_d(M, N)
        expected = sum(
            len(ALG.corner_keys(ix, iy))
            for ix in M.generators.values()
            for iy in N.generators.values()
        )
        assert len(C.generators) == expected


def identity_morphism(M: TypeDModule) -> list[str]:
    """Generator names of the identity cocycle in mor_d_d(M, M)."""
    out = []
    for x, ix in sorted(M.generators.items()):
        key = ((), tuple(ix))
        out.append(f"{x}|{key_name(key)}|{x}")
    return out


def test_identity_morphism_is_a_cycle():
    for name in ("inf", "minus1", "zero"):
        M = solid_torus(name)
        C = mor_d_d(M, M)
        ident = set(identity_morphism(M))
        image: set = set()
        for s, t in C.entries:
            if s in ident:
                image ^= {t}
        assert not image


def test_mor_self_rank_at_least_one():
    for name in ("inf", "minus1", "zero"):
        M = solid_torus(name)
        assert mor_d_d(M, M).homology_rank() >= 1


def test_mor_self_rank_genus2_handlebody():
    from bhf.catalog import handlebody

    H = handlebody(2)
    assert mor_d_d(H, H).homology_rank() >= 1


def test_algebra_mismatch():
    other = algebra_of(standard_pmc("split", 2))
    M2 = TypeDModule(other, {"x": (1, 6)}, {})
    with pytest.raises(AlgebraMismatch):
        mor_d_d(solid_torus("inf"), M2)


def test_mor_dd_d_identity_action():
    B = dd_identity(standard_pmc("torus"))
    for name in ("inf", "minus1", "zero"):
        M = solid_torus(name)
        out = mor_dd_d(B, M)
        assert out.verify_d2() == []
        assert iso_check(out.reduce(), M.reduce()) is not None


def test_mor_d_dd_gives_reversed_orientation():
    # morphisms into the identity bimodule reverse the bordered orientation:
    # the zero-framed torus goes to the infinity-framed one and vice versa
    B = dd_identity(standard_pmc("torus"))
    out = mor_d_dd(solid_torus("zero"), B)
    assert iso_check(out.reduce(), solid_torus("inf").reduce()) is not None
    out2 = mor_d_dd(solid_torus("inf"), B)
    assert iso_check(out2.reduce(), solid_torus("zero").reduce()) is not None


def test_mor_dd_d_side2_matches_side1_for_symmetric_bimodule():
    B = dd_identity(standard_pmc("torus"))
    M = solid_torus("zero")
    out = mor_dd_d(B, M, side=2)
    assert out.verify_d2() == []
    assert iso_check(out.reduce(), M.reduce()) is not None


def test_mor_d_ud_specializes_to_mor_d_d():
    # with all U powers zero the U-pairing embeds the plain pairing at U^0
    from bhf.dmodules import UTypeDModule

    M = solid_torus("inf")
    N = solid_torus("minus1")
    P = UTypeDModule(ALG, N.generators, {k: {0: c} for k, c in N.delta.items()})
    CU = mor_d_ud(M, P)
    C = mor_d_d(M, N)
    assert sorted(CU.generators) == sorted(C.generators)
    assert {k for k, p in CU.differential.items() if p == 1} == set(C.entries)
    dec = CU.homology()
    assert dec.free_rank == C.homology_rank()


def test_mor_d_ud_cable_edge():
    M = solid_torus("zero").rename(lambda n: "u")
    CU = mor_d_ud(M, cable21_pattern())
    assert len(CU.generators) == 7
    # post-composition through d(x) = U^2 rho23 x gives a U^2 edge
    assert CU.differential[("u|1>2|x", "u|1>4|x")] == 0b100


def test_twist_pairing_gives_twisted_tori():
    # pairing a twist bimodule against a solid torus is again a small module
    for t in ("Tm", "Tm'", "Tl", "Tl'"):
        out = mor_dd_d(dehn_twist_dd(t), solid_torus("zero"))
        assert out.verify_d2() == []
        red = out.reduce()
        assert 1 <= len(red.generators) <= 3


def test_homology_rejects_non_complex():
    with pytest.raises(NotAComplex) as err:
        F2ChainComplex(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert str(err.value) == "differential does not square to zero: d^2(a) contains c"


def _representatives_by_pairwise_substitution(complex_):
    """Homology representatives with the O(r^2) back-substitution: each
    pivot row, highest first, is XORed into every lower row that holds the
    pivot."""
    n, index = len(complex_.generators), complex_.index
    rows, cols = [0] * n, [0] * n
    for s, t in complex_.entries:
        rows[index[t]] |= 1 << index[s]
        cols[index[s]] |= 1 << index[t]
    rref: dict = {}
    for row in rows:
        _insert(rref, row)
    pivots = sorted(rref, reverse=True)
    for k, p in enumerate(pivots):
        for q in pivots[k + 1:]:
            if rref[q] & p:
                rref[q] ^= rref[p]
    free = (1 << n) - 1
    for p in pivots:
        free ^= p
    kernel = {1 << j: 1 << j for j in range(n) if free >> j & 1}
    for p, row in rref.items():
        for j in range(n):
            if (row ^ p) >> j & 1:
                kernel[1 << j] |= p
    span: dict = {}
    for col in cols:
        _insert(span, col)
    reps = []
    for f in sorted(kernel):
        if _insert(span, kernel[f]):
            reps.append({complex_.generators[i]: 1 for i in range(n) if kernel[f] >> i & 1})
    return reps


@st.composite
def conjugated_differentials(draw):
    """d = P D P^-1 on up to 60 generators: D sends generator 2i+1 to 2i
    for i below its rank, and P is a product of elementary matrices
    E = I + e_ij, each its own inverse, so conjugating by E adds row j to
    row i and then column i to column j."""
    n = draw(st.integers(1, 60))
    rank = draw(st.integers(0, n // 2))
    m = [[0] * n for _ in range(n)]  # m[t][s] = 1 iff generator s maps onto t
    for i in range(rank):
        m[2 * i][2 * i + 1] = 1
    for _ in range(draw(st.integers(0, 4 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            m[i] = [a ^ b for a, b in zip(m[i], m[j])]
            for row in m:
                row[j] ^= row[i]
    return n, rank, [(f"g{s}", f"g{t}") for t in range(n) for s in range(n) if m[t][s]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(conjugated_differentials())
def test_homology_representatives_match_pairwise_substitution(drawn):
    n, rank, entries = drawn
    complex_ = F2ChainComplex([f"g{i}" for i in range(n)], entries)
    reps = complex_.homology_representatives()
    assert complex_.homology_rank() == len(reps) == n - 2 * rank
    assert reps == _representatives_by_pairwise_substitution(complex_)


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("into_b", [False, True], ids=["mor_dd_d", "mor_d_dd"])
def test_prepared_half_matches_one_shot_calls(side, into_b):
    B = dehn_twist_dd("Tl'")  # its arrows differ between the two sides
    modules = [
        solid_torus("inf"),  # one generator on pair 2
        apply_twist_word(["Tm"] * 3, solid_torus("zero")),  # four, on both pairs
        solid_torus("minus1"),  # two
        solid_torus("zero"),  # one on pair 1
    ]
    assert len({tuple(sorted(M.generators.values())) for M in modules}) == 4

    def pair(b, M):
        return mor_d_dd(M, b, side) if into_b else mor_dd_d(b, M, side)

    half = BimoduleHalf(B, side, into_b)
    for i in (0, 1, 2, 3, 1, 0, 3, 2, 1):
        M = modules[i]
        assert dumps(serialize(pair(half, M))) == dumps(serialize(pair(B, M))), (i, side)


def test_prepared_half_is_for_one_pairing_only():
    half = BimoduleHalf(dehn_twist_dd("Tm"), side=1)
    M = solid_torus("zero")
    with pytest.raises(AlgebraMismatch):
        mor_dd_d(half, M, side=2)
    with pytest.raises(AlgebraMismatch):
        mor_d_dd(M, half)
    with pytest.raises(AlgebraMismatch):
        mor_dd_d(half, TypeDModule(algebra_of(standard_pmc("split", 2)), {"x": (1, 2)}, {}))


def test_prepared_target_half_matches_one_shot_calls():
    from bhf.knots import cfk_to_cfd, figure8_cfk, trefoil_cfk

    modules = [
        solid_torus("inf"),
        cfk_to_cfd(trefoil_cfk(), 1),
        solid_torus("zero"),
        cfk_to_cfd(figure8_cfk(), -1),
        apply_twist_word(["Tm"] * 3, solid_torus("zero")),
    ]
    P = cable21_pattern()
    half = TargetHalf(P)
    for i in (0, 1, 2, 3, 4, 1, 0, 3, 2, 4):
        M = modules[i]
        warm, cold = mor_d_ud(M, half), mor_d_ud(M, P)
        assert (warm.generators, warm.differential) == (cold.generators, cold.differential), i
    with pytest.raises(AlgebraMismatch):
        mor_d_ud(TypeDModule(algebra_of(standard_pmc("split", 2)), {"x": (1, 2)}, {}), half)
