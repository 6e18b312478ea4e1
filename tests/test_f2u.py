import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhf.f2u import (
    F2UComplex,
    F2UDecomposition,
    InhomogeneousInput,
    poly_degree,
    poly_divmod,
    poly_exponents,
    poly_from_exponents,
    poly_mul,
    poly_str,
    poly_unit_part,
    poly_valuation,
)
from bhf.gf2 import NotAComplex
from bhf.checks import check_snf_oracle, random_f2u_complex


def test_poly_arithmetic():
    one_u2 = poly_from_exponents([0, 2])
    assert poly_str(one_u2) == "1+U^2"
    assert poly_exponents(one_u2) == [0, 2]
    assert poly_mul(0b11, 0b11) == 0b101  # (1+U)^2 = 1+U^2 over F2
    q, r = poly_divmod(0b101, 0b11)
    assert poly_mul(q, 0b11) ^ r == 0b101
    assert poly_degree(0b100) == 2
    assert poly_valuation(0b1100) == 2
    assert poly_unit_part(0b1100) == (2, 0b11)


def test_zero_differential_free_rank():
    C = F2UComplex([f"g{i}" for i in range(5)], {})
    dec = C.homology()
    assert dec.free_rank == 5
    assert dec.torsion == ()


def test_trefoil_graded_homology():
    C = F2UComplex(["a", "b", "c"], {("c", "b"): 0b10},
                   gradings={"a": 1, "b": 0, "c": -1})
    dec = C.homology()
    assert dec.free_rank == 1
    assert dec.torsion == (1,)
    assert dec.free_gradings == (1,)
    assert dec.torsion_gradings == ((1, 0),)


def test_cable_shape_decomposition():
    # two-step tower: d(b) = U^2 a, d(d) = U c, e free
    C = F2UComplex(
        ["a", "b", "c", "d", "e"],
        {("b", "a"): 0b100, ("d", "c"): 0b10},
    )
    dec = C.homology()
    assert dec.free_rank == 1
    assert tuple(sorted(dec.torsion, reverse=True)) == (2, 1)


def test_specialize_u0():
    C = F2UComplex(["a", "b", "c"], {("c", "b"): 0b10, ("a", "b"): 0b1})
    hat = C.specialize_u0()
    assert sorted(hat.entries) == [("a", "b")]
    assert hat.homology_rank() == 1
    Z = F2UComplex([], {})
    assert Z.specialize_u0().homology_rank() == 0


def test_truncation_matches_decomposition():
    C = F2UComplex(["x", "y"], {("y", "x"): 0b1000})
    dec = C.homology()
    assert dec.torsion == (3,)
    for N in (1, 2, 3, 4, 6):
        assert C.truncate(N).homology_rank() == dec.truncated_rank(N)


def test_unit_torsion_invisible_in_truncations():
    C = F2UComplex(["x", "y"], {("y", "x"): 0b11})  # d(y) = (1+U) x
    dec = C.homology()
    assert dec.free_rank == 0 and dec.torsion == ()
    assert dec.unit_torsion == ("1+U",)
    for N in (1, 2, 3):
        assert C.truncate(N).homology_rank() == 0 == dec.truncated_rank(N)


def test_not_a_complex_rejected():
    with pytest.raises(NotAComplex):
        F2UComplex(["x", "y", "z"], {("x", "y"): 1, ("y", "z"): 1})


def test_not_a_complex_names_a_residual_entry():
    # d(w) = x + U y, d(x) = z, d(y) = U z: d^2(w) = (1+U^2) z
    with pytest.raises(NotAComplex) as err:
        F2UComplex(["w", "x", "y", "z"],
                   {("w", "x"): 1, ("w", "y"): 0b10, ("x", "z"): 1, ("y", "z"): 0b10})
    assert str(err.value) == (
        "differential does not square to zero over F2[U]: d^2(w) contains (1+U^2) z"
    )


def test_unit_parts_in_invariant_factor_form():
    # diag(1+U, 1+U+U^2) has invariant factors 1, 1+U^3
    C = F2UComplex(["a", "b", "c", "d"], {("b", "a"): 0b11, ("d", "c"): 0b111})
    dec = C.homology()
    assert (dec.free_rank, dec.torsion, dec.unit_torsion) == (0, (), ("1+U^3",))


def test_entry_with_u_torsion_and_unit_part():
    dec = F2UComplex(["x", "y"], {("y", "x"): 0b110}).homology()  # U(1+U)
    assert dec.torsion == (1,)
    assert dec.unit_torsion == ("1+U",)


def test_graded_pivot_off_the_first_row():
    # the least-degree entry U sits in row c, below the U^2 entries of row a;
    # h -> g is a unit entry, cancelled before the Smith form
    C = F2UComplex(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        {("b", "a"): 0b100, ("d", "a"): 0b100, ("d", "c"): 0b10, ("f", "c"): 0b1000,
         ("h", "g"): 1},
        gradings={"a": 2, "b": 0, "c": 1, "d": 0, "e": -1, "f": -2, "g": 5, "h": 5},
    )
    dec = C.homology()
    assert dec.free_rank == 2
    assert dec.torsion == (2, 1)
    assert dec.torsion_gradings == ((2, 2), (1, 1))
    assert dec.free_gradings == (-1, -2)


def test_inhomogeneous_rejected_in_graded_mode():
    with pytest.raises(InhomogeneousInput):
        F2UComplex(["x", "y"], {("x", "y"): 0b1}, gradings={"x": 0, "y": 5})


def test_decomposition_invariant_under_basis_change():
    rng = random.Random(42)
    for _ in range(60):
        C = random_f2u_complex(rng, max_gens=6, max_degree=3)
        base = C.homology()
        # conjugate by one more random transvection and recompute
        D2 = dict(C.differential)
        gens = C.generators
        n = len(gens)
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        t = rng.randint(0, 3)
        mat = {(gens.index(s), gens.index(d)): p for (s, d), p in D2.items()}
        new = {}
        for (a, b), p in mat.items():
            new[(a, b)] = new.get((a, b), 0) ^ p
        # e_i <- e_i + U^t e_j
        for b in range(n):
            if new.get((i, b)):
                new[(j, b)] = new.get((j, b), 0) ^ poly_mul(1 << t, new[(i, b)])
        for a in range(n):
            if new.get((a, j)):
                new[(a, i)] = new.get((a, i), 0) ^ poly_mul(1 << t, new[(a, j)])
        diff = {(gens[a], gens[b]): p for (a, b), p in new.items() if p}
        changed = F2UComplex(gens, diff)
        got = changed.homology()
        assert (got.free_rank, got.torsion) == (base.free_rank, base.torsion)


def test_snf_oracle_sample():
    ok, detail = check_snf_oracle(samples=200, seed=12)
    assert ok, detail


def random_graded_f2u_complex(rng: random.Random, max_gens: int = 8, max_degree: int = 3):
    """A random graded complex and the decomposition it is built from.

    Elementary pieces d(g_{i+1}) = U^k g_i with gr(g_i) = gr(g_{i+1}) + k,
    and free generators, are conjugated by homogeneous transvections
    e_a <- e_a + U^t e_b with t = gr(b) - gr(a) >= 0.
    """
    n = rng.randint(1, max_gens)
    gens = [f"g{i}" for i in range(n)]
    gr = [0] * n
    mat = [[0] * n for _ in range(n)]  # mat[target][source]
    free, torsion = [], []
    i = 0
    while i < n:
        gr[i] = rng.randint(-3, 3)
        if i + 1 < n and rng.random() < 0.6:
            k = rng.randint(0, max_degree)
            gr[i + 1] = gr[i] - k
            mat[i][i + 1] = 1 << k
            if k:
                torsion.append((k, gr[i]))
            i += 2
        else:
            free.append(gr[i])
            i += 1
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        if gr[a] > gr[b]:
            a, b = b, a
        t = gr[b] - gr[a]
        # row b += U^t row a, then col a += U^t col b
        for c in range(n):
            mat[b][c] ^= mat[a][c] << t
        for r in range(n):
            mat[r][a] ^= mat[r][b] << t
    diff = {(gens[j], gens[i]): mat[i][j] for i in range(n) for j in range(n) if mat[i][j]}
    complex_ = F2UComplex(gens, diff, gradings=dict(zip(gens, gr)))
    want = F2UDecomposition(
        free_rank=len(free),
        torsion=tuple(sorted((k for k, _ in torsion), reverse=True)),
        free_gradings=tuple(sorted(free, reverse=True)),
        torsion_gradings=tuple(sorted(torsion, reverse=True)),
    )
    return complex_, want


def test_graded_decomposition_matches_construction():
    rng = random.Random(3)
    for _ in range(300):
        C, want = random_graded_f2u_complex(rng)
        assert C.homology() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.booleans())
def test_larger_complexes_match_truncations(rng, graded):
    """Up to 30 generators, so that unit cancellation leaves a remainder."""
    if graded:
        C, want = random_graded_f2u_complex(rng, max_gens=30)
        assert C.homology() == want
    else:
        C = random_f2u_complex(rng, max_gens=30)
    dec = C.homology()
    for N in range(1, max(dec.torsion, default=0) + 2):
        assert dec.truncated_rank(N) == C.truncate(N).homology_rank()
