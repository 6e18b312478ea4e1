import random

import pytest

from bhf import knots, memo
from bhf.knots import (
    CFKComplex,
    CFKError,
    FiltrationViolation,
    NotReduced,
    OverBudget,
    ParityMissing,
    ParityViolation,
    alexander_polynomial,
    alexander_polynomial_str,
    cable21_pattern,
    cfk_to_cfd,
    classify_arrows,
    figure8_cfk,
    pattern_half,
    satellite,
    simplify_basis,
    staircase_cfk,
    tau,
    trefoil_cfk,
    unknot_cfk,
)
from bhf.dmodules import GateFailure, TypeDModule, iso_check
from bhf.catalog import solid_torus
from bhf.f2u import F2UComplex
from bhf.pairing import TargetHalf
from bhf.strands import torus_algebra, torus_element, torus_records
from bhf.serialize import dumps, serialize
from bhf.cli import main


def test_validate_builtins():
    for c in (trefoil_cfk(), figure8_cfk(), unknot_cfk()):
        c.validate()
        assert c.is_reduced()


def test_filtration_violation():
    with pytest.raises(FiltrationViolation):
        CFKComplex({"x": 0, "y": 3}, [("x", 1, "y")])


def test_parity_violation():
    with pytest.raises(ParityViolation):
        CFKComplex({"x": 1, "y": 0}, [("x", 0, "y")], parities={"x": 1, "y": 1})


def test_classify_trefoil():
    arrows = classify_arrows(trefoil_cfk())
    assert arrows.vertical == (("a", "b", 1),)
    assert arrows.horizontal == (("c", "b", 1),)
    assert arrows.diagonal == ()


def test_classify_fig8():
    arrows = classify_arrows(figure8_cfk())
    assert ("a", "b", 1) in arrows.horizontal  # a -> U b
    assert ("a", "c", 1) in arrows.vertical    # a -> c
    assert arrows.diagonal == ()


def test_classify_diagonal():
    c = CFKComplex({"x": 0, "y": -3}, [("x", 1, "y")])
    arrows = classify_arrows(c)
    assert arrows.diagonal == (("x", 1, "y"),)


def test_classify_requires_reduced():
    c = CFKComplex({"x": 0, "y": 0}, [("x", 0, "y")])
    with pytest.raises(NotReduced):
        classify_arrows(c)


def test_simplify_trefoil_fixed_point():
    out, report = simplify_basis(trefoil_cfk())
    assert report.substitutions == 0
    assert report.xi0 == "c" and report.eta0 == "a"


def assert_simplified(complex_):
    """Distinct heads and distinct tails among the vertical arrows, and
    among the horizontal ones."""
    arrows = classify_arrows(complex_)
    for kind in (arrows.vertical, arrows.horizontal):
        heads = [t for _, t, _ in kind]
        tails = [s for s, _, _ in kind]
        assert len(set(heads)) == len(heads) and len(set(tails)) == len(tails)


def test_simplify_fig8():
    out, report = simplify_basis(figure8_cfk())
    assert_simplified(out)
    assert report.xi0 == report.eta0 == "e"
    # the substitution is e <- a + e
    assert report.change_of_basis["e"] == {"a": 1, "e": 1}
    out.validate()


def test_simplify_zero_differential():
    c = CFKComplex({"p": 0, "q": 1, "m": -1}, [])
    out, report = simplify_basis(c)
    assert report.xi0 == report.eta0 == "m"  # lexicographically least


def test_tau_values():
    assert tau(trefoil_cfk()) == -1
    assert tau(figure8_cfk()) == 0
    assert tau(unknot_cfk()) == 0


def test_tau_invariant_under_filtered_basis_change():
    rng = random.Random(4)
    base = figure8_cfk()
    for _ in range(25):
        names = base.generators
        entries = {k: p for k, p in base.differential.items()}
        A = dict(base.alexander)
        # random filtered transvection y <- y + U^t x with A[x] - t <= A[y]
        x, y = rng.sample(names, 2)
        t = max(0, A[x] - A[y]) + rng.randint(0, 2)
        new = dict(entries)
        for (s, z), p in entries.items():
            if s == x:
                new[(y, z)] = new.get((y, z), 0) ^ (p << t)
        for (w, z), p in list(new.items()):
            if z == y:
                new[(w, x)] = new.get((w, x), 0) ^ (p << t)
        changed = CFKComplex(A, [])
        changed.differential = {k: p for k, p in new.items() if p}
        changed.validate()
        if not changed.is_reduced():
            continue
        assert tau(changed) == 0


def test_alexander_polynomials():
    assert alexander_polynomial(trefoil_cfk()) == {1: 1, 0: -1, -1: 1}
    assert alexander_polynomial(figure8_cfk()) == {1: -1, 0: 3, -1: -1}
    assert alexander_polynomial(unknot_cfk()) == {0: 1}
    assert alexander_polynomial_str({1: 1, 0: -1, -1: 1}) == "T-1+T^-1"


def test_alexander_symmetry_and_normalization():
    for c in (trefoil_cfk(), figure8_cfk()):
        poly = alexander_polynomial(c)
        assert all(poly.get(s) == poly.get(-s) for s in poly)
        assert sum(poly.values()) == 1


def test_alexander_polynomial_does_not_revalidate(monkeypatch):
    # the constructor has already checked the complex
    c = trefoil_cfk()
    calls = []
    monkeypatch.setattr(CFKComplex, "validate", lambda self: calls.append(1))
    assert alexander_polynomial(c) == {1: 1, 0: -1, -1: 1}
    assert calls == []


def test_alexander_needs_parities():
    c = CFKComplex({"x": 0}, [])
    with pytest.raises(ParityMissing):
        alexander_polynomial(c)


def test_cfk_to_cfd_unknot_framings():
    m = cfk_to_cfd(unknot_cfk(), 0)
    assert iso_check(m.rename(lambda n: "n"), solid_torus("zero")) is not None
    m2 = cfk_to_cfd(unknot_cfk(), -1)
    # one mu generator in the unstable chain
    assert sum(1 for g in m2.generators if g.startswith("mu")) == 1


def test_cfk_to_cfd_trefoil_framing1():
    m = cfk_to_cfd(trefoil_cfk(), 1)
    assert sorted(g for g in m.generators if g.startswith("mu")) == ["mu1", "mu2", "mu3"]
    # spot arrows of the displayed module
    def coeff(s, t):
        return m.delta.get((s, t))

    k = [g for g in m.generators if g.startswith("k0")][0]
    l = [g for g in m.generators if g.startswith("l0")][0]
    assert coeff("a", k) == torus_element("rho1")
    assert coeff("b", k) == torus_element("rho123")
    assert coeff("c", l) == torus_element("rho3")
    assert coeff(l, "b") == torus_element("rho2")
    assert coeff("c", "mu1") == torus_element("rho123")
    assert coeff("mu1", "mu2") == torus_element("rho23")
    assert coeff("mu2", "mu3") == torus_element("rho23")
    assert coeff("mu3", "a") == torus_element("rho2")


@pytest.mark.parametrize("complex_, framing, name", [
    # the unknot's one unstable chain generator at framing -1
    (CFKComplex({"mu1": 0}, [], parities={"mu1": 1}), -1, "mu1"),
    # the trefoil with c renamed: three unstable chain generators at framing -5
    (CFKComplex({"a": 1, "b": 0, "mu2": -1}, [("a", 0, "b"), ("mu2", 1, "b")],
                parities={"a": 1, "b": -1, "mu2": 1}), -5, "mu2"),
], ids=["unknot mu1", "trefoil mu2"])
def test_cfk_to_cfd_refuses_a_generator_named_like_a_chain(capsys, complex_, framing, name):
    with pytest.raises(CFKError, match=f"'{name}' is reserved"):
        cfk_to_cfd(complex_, framing)
    code = main(["knot", "cfd", "--in", dumps(serialize(complex_)), f"--framing={framing}"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and repr(name) in err


def test_cfk_to_cfd_all_framings_d2():
    for c in (unknot_cfk(), trefoil_cfk(), figure8_cfk()):
        for n in range(-4, 5):
            cfk_to_cfd(c, n)  # raises if the structure equation fails


def test_cfk_to_cfd_unstable_chain_lengths():
    for n in range(-4, 5):
        m = cfk_to_cfd(trefoil_cfk(), n)
        mus = [g for g in m.generators if g.startswith("mu")]
        assert len(mus) == abs(2 * (-1) - n)


def test_budget_bounds_upowers_and_chain_generators(monkeypatch):
    monkeypatch.setattr(knots, "BUDGET", 10)
    CFKComplex({"a": 0, "b": 0}, [("a", 10, "b")])
    with pytest.raises(OverBudget, match="budget of 10"):
        CFKComplex({"a": 0, "b": 0}, [("a", 11, "b")])
    # the trefoil's two arrows of length 1 and its |framing - 2 tau| = |n + 2|
    # unstable chain generators: 10 at n = 6 and n = -10, 11 just past them
    for n in (6, -10):
        assert len(cfk_to_cfd(trefoil_cfk(), n).generators) == 3 + 10
    for n in (7, -11):
        with pytest.raises(OverBudget, match="11 chain generators"):
            cfk_to_cfd(trefoil_cfk(), n)
        with pytest.raises(OverBudget):
            satellite("cable21", trefoil_cfk(), n)


def test_satellite_cable_of_trefoil():
    res = satellite("cable21", trefoil_cfk(), -2)
    assert len(res.mor_complex.generators) == 29
    dec = res.decomposition
    assert dec.free_rank == 1 and tuple(dec.torsion) == (2, 1)
    assert res.u0_rank == 5


def test_satellite_cable_of_unknot_is_unknotted():
    res = satellite("cable21", unknot_cfk(), 0)
    dec = res.decomposition
    assert dec.free_rank == 1 and dec.torsion == ()
    assert res.u0_rank == 1


def test_satellite_unknown_pattern():
    with pytest.raises(Exception):
        satellite("nope", unknot_cfk(), 0)


def test_classification_partitions_entries():
    for c in (trefoil_cfk(), figure8_cfk(), CFKComplex({"x": 0, "y": -3}, [("x", 1, "y")])):
        arrows = classify_arrows(c)
        total = len(arrows.vertical) + len(arrows.horizontal) + len(arrows.diagonal)
        assert total == len(c.entries())


def test_translated_trefoil_is_already_reduced():
    m = cfk_to_cfd(trefoil_cfk(), 1)
    red = m.reduce()
    assert set(red.generators) == set(m.generators)
    assert red.delta == m.delta


def test_simplify_unequal_length_doubles():
    # vertical double head of lengths 1 and 2
    c1 = CFKComplex({"x": 2, "w": 3, "z": 1}, [("x", 0, "z"), ("w", 0, "z")])
    out, rep = simplify_basis(c1)
    assert_simplified(out)
    assert rep.substitutions == 1
    assert classify_arrows(out).vertical == (("x", "z", 1),)
    # vertical double tail of lengths 1 and 2
    c2 = CFKComplex({"x": 2, "z0": 1, "z1": 0}, [("x", 0, "z0"), ("x", 0, "z1")])
    out2, rep2 = simplify_basis(c2)
    assert classify_arrows(out2).vertical == (("x", "z0", 1),)
    # horizontal double tail of lengths 1 and 2
    c3 = CFKComplex({"x": 0, "z0": 1, "z1": 2}, [("x", 1, "z0"), ("x", 2, "z1")])
    out3, rep3 = simplify_basis(c3)
    assert classify_arrows(out3).horizontal == (("x", "z0", 1),)


def test_surgery_ranks_from_framed_complements():
    from bhf.pairing import mor_d_d

    def row(complex_, filling):
        return [
            mor_d_d(cfk_to_cfd(complex_, n), solid_torus(filling)).homology_rank()
            for n in range(-4, 5)
        ]

    # filling along the meridian gives the three-sphere at every framing
    for c in (unknot_cfk(), trefoil_cfk(), figure8_cfk()):
        assert row(c, "inf") == [1] * 9
    # the zero-framed filling computes n-surgery: lens ranks for the unknot
    assert row(unknot_cfk(), "zero") == [4, 3, 2, 1, 2, 1, 2, 3, 4]
    # left trefoil: lens ranks on the negative side, reduced rank 1 beyond
    assert row(trefoil_cfk(), "zero") == [4, 3, 2, 1, 2, 3, 4, 5, 6]
    # the figure-eight is amphichiral: its surgery ranks are symmetric
    f8 = row(figure8_cfk(), "zero")
    assert f8 == f8[::-1] and f8 == [6, 5, 4, 3, 4, 3, 4, 5, 6]


def test_staircase_torus_knot_complex():
    # the (2,5)-type staircase: tau = -2, and the translation works everywhere
    c = CFKComplex(
        {"a": 2, "b": 1, "c": 0, "d": -1, "e": -2},
        [("a", 0, "b"), ("c", 1, "b"), ("c", 0, "d"), ("e", 1, "d")],
        parities={"a": 1, "b": -1, "c": 1, "d": -1, "e": 1},
    )
    assert tau(c) == -2
    assert alexander_polynomial(c) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    for n in range(-4, 5):
        m = cfk_to_cfd(c, n)
        mus = [g for g in m.generators if g.startswith("mu")]
        assert len(mus) == abs(-4 - n)


# ---------------------------------------------------------------------------
# the pattern's prepared half


def _companions():
    """Staircases of 5, 7, 9 and 11 generators, then the catalog knots, each
    at the framings 2 tau - 1, 2 tau and 2 tau + 1 (the three branches of
    ``cfk_to_cfd``)."""
    stairs = [[1, 2, 2, 1], [2, 1, 1, 1, 1, 2], [1] * 8, [1, 2, 1, 1, 1, 1, 1, 1, 2, 1]]
    companions = [staircase_cfk(steps) for steps in stairs]
    companions += [trefoil_cfk(), figure8_cfk(), unknot_cfk()]
    return [(c, 2 * tau(c) + shift) for c in companions for shift in (-1, 0, 1)]


def _outcome(res):
    C = res.mor_complex
    return C.generators, C.differential, res.decomposition, res.u0_rank


@pytest.mark.parametrize("warm_first", [True, False])
def test_warm_pattern_half_matches_a_fresh_pattern(warm_first):
    cases = _companions()

    def warm():  # one half for the whole sweep, cold at the first case only
        return [_outcome(satellite("cable21", c, f)) for c, f in cases]

    def cold():  # a new pattern module, and so a new half, per case
        return [_outcome(satellite(cable21_pattern(), c, f)) for c, f in cases]

    memo.clear()
    first = warm() if warm_first else cold()
    memo.clear()
    second = cold() if warm_first else warm()
    assert first == second
    assert {len(gens) for gens, *_ in first} >= {7, 29}  # the unknot and the trefoil at -2


def _count_satellite_work(monkeypatch) -> dict:
    calls = {"pattern": 0, "half": 0, "pattern module": 0, "translated module": 0,
             "mor": [], "validated": []}
    build, init, mor = knots.PATTERNS["cable21"], TargetHalf.__init__, knots.mor_d_ud
    gated, validate = TypeDModule.gated, F2UComplex.validate

    def counted_build():
        calls["pattern"] += 1
        return build()

    def counted_init(self, N):
        calls["half"] += 1
        init(self, N)

    def counted_gated(self, what, records=None):
        calls[what] += 1
        return gated(self, what, records)

    def counted_validate(self):
        calls["validated"].append(self)
        return validate(self)

    def counted_mor(M, P):
        out = mor(M, P)
        calls["mor"].append(out)
        return out

    monkeypatch.setitem(knots.PATTERNS, "cable21", counted_build)
    monkeypatch.setattr(knots, "mor_d_ud", counted_mor)
    monkeypatch.setattr(TargetHalf, "__init__", counted_init)
    monkeypatch.setattr(TypeDModule, "gated", counted_gated)
    monkeypatch.setattr(F2UComplex, "validate", counted_validate)
    return calls


def test_named_pattern_is_built_and_gated_once_per_process(monkeypatch):
    calls = _count_satellite_work(monkeypatch)
    pattern_half.cache_clear()
    cases = _companions()
    for c, f in cases:
        satellite("cable21", c, f)
    assert calls["pattern"] == calls["half"] == calls["pattern module"] == 1
    assert calls["translated module"] == len(calls["mor"]) == len(cases)
    # every Mor complex checked d^2 = 0 over F2[U] as it was built
    assert all(any(C is V for V in calls["validated"]) for C in calls["mor"])


def test_pattern_passed_as_a_module_gets_a_half_per_call(monkeypatch):
    pattern_half.cache_clear()
    satellite("cable21", trefoil_cfk(), -2)
    half = pattern_half("cable21")
    products = half.product.cache_info().currsize
    info = pattern_half.cache_info()
    calls = _count_satellite_work(monkeypatch)
    pattern = cable21_pattern()
    for c, f in _companions()[:5]:
        satellite(pattern, c, f)
    assert calls["half"] == 5 and calls["pattern"] == 0
    assert pattern_half.cache_info() == info
    assert half.product.cache_info().currsize == products


def test_unknown_pattern_name_raises_and_caches_nothing():
    pattern_half.cache_clear()
    for _ in range(2):
        with pytest.raises(CFKError, match="unknown pattern 'nope'"):
            satellite("nope", trefoil_cfk(), -2)
        with pytest.raises(CFKError):
            pattern_half("nope")
    assert pattern_half.cache_info().currsize == 0


def test_warm_torus_records_still_fail_a_broken_module():
    for c, f in _companions():  # warm the shared records with every translation
        satellite("cable21", c, f)
    alg = torus_algebra()
    broken = [
        # rho1 then rho2 leaves rho12 at (x, x)
        TypeDModule(alg, {"x": (1,), "y": (2,)},
                    {("x", "y"): torus_element("rho1"), ("y", "x"): torus_element("rho2")}),
    ]
    # a translated trefoil with one more arrow, a -> rho1 mu1: its product
    # with mu1 -> rho23 mu2 is one the warm records have met
    good = cfk_to_cfd(trefoil_cfk(), 1)
    assert ("a", "mu1") not in good.delta
    broken.append(TypeDModule(alg, good.generators,
                              {**good.delta, ("a", "mu1"): torus_element("rho1")}))
    for M in broken:
        fresh = M.verify_d2()
        assert fresh and M.verify_d2(torus_records()) == fresh
        with pytest.raises(GateFailure, match=f"fails d\\^2=0 on {len(fresh)} pairs"):
            M.gated("translated module", torus_records())
