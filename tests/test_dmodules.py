import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhf.pmc import standard_pmc
from bhf.strands import (
    AlgebraElement,
    AmbientMismatch,
    RawProducts,
    SurfaceAlgebra,
    algebra_of,
    make_diagram,
    torus_element,
)
from bhf.dmodules import (
    CapExceeded,
    GateFailure,
    ModuleError,
    TensorElement,
    TypeDDModule,
    TypeDModule,
    UTypeDModule,
    induced_complex,
    iso_check,
)
from bhf.catalog import all_underslides, dd_identity, solid_torus, dehn_twist_dd, underslide_dd
from bhf.serialize import SchemaError, parse_document, serialize
from bhf.cancel import _cancel_all
from bhf.checks import _random_bipartite_module, check_reduce_preserves_homology
from bhf.pairing import _mor_basis, mor_dd_d
from test_strands import diagram_inversions, multiply_diagrams


ALG = algebra_of(standard_pmc("torus"))


def tmod(gens, arrows):
    delta = {}
    for s, name, t in arrows:
        c = torus_element(name)
        delta[(s, t)] = delta.get((s, t), AlgebraElement.zero(4)) + c
    return TypeDModule(ALG, gens, delta)


def test_verify_d2_ok_on_catalog():
    assert solid_torus("inf").verify_d2() == []
    assert solid_torus("minus1").verify_d2() == []
    assert solid_torus("zero").verify_d2() == []


def test_verify_d2_example_module():
    # d(b) = a + rho3 x, d(x) = rho2 a: fine since rho3 rho2 = 0
    m = TypeDModule(
        ALG,
        {"x": (2,), "a": (1,), "b": (1,)},
        {
            ("b", "a"): torus_element("iota0"),
            ("b", "x"): torus_element("rho3"),
            ("x", "a"): torus_element("rho2"),
        },
    )
    assert m.verify_d2() == []
    assert not m.is_reduced()  # the unit arrow b -> a is cancelable


def test_verify_d2_violation():
    m = TypeDModule(
        ALG,
        {"x": (1,), "y": (2,)},
        {("x", "y"): torus_element("rho1"), ("y", "x"): torus_element("rho2")},
    )
    bad = m.verify_d2()
    assert bad
    (src, dst, residual) = bad[0]
    assert residual == torus_element("rho12")


def test_idempotent_compatibility_enforced():
    with pytest.raises(ModuleError):
        TypeDModule(ALG, {"x": (1,), "y": (1,)}, {("x", "y"): torus_element("rho1")})


# rho1 + rho3 lies in I(1) A I(2); rho12 leaves it on the right end only and
# rho23 on the left end only, so either one breaks the coefficient
CORNER_OK = torus_element("rho1") + torus_element("rho3")
OFF_CORNER = ("rho12", "rho23")


@pytest.mark.parametrize("stray", OFF_CORNER)
def test_single_off_corner_term_rejected(stray):
    gens = {"x": (1,), "y": (2,)}
    TypeDModule(ALG, gens, {("x", "y"): CORNER_OK})
    with pytest.raises(ModuleError):
        TypeDModule(ALG, gens, {("x", "y"): CORNER_OK + torus_element(stray)})
    UTypeDModule(ALG, gens, {("x", "y"): {0: CORNER_OK, 1: CORNER_OK}})
    with pytest.raises(ModuleError):
        UTypeDModule(ALG, gens, {("x", "y"): {0: CORNER_OK, 1: CORNER_OK + torus_element(stray)}})


def test_wrong_ambient_coefficient_rejected():
    # rho1's strand 1 -> 2 read on 8 points has the corner of x -> y, but it
    # lives in another algebra
    wide = AlgebraElement(8, torus_element("rho1").terms)
    with pytest.raises(ModuleError, match="not idempotent-compatible"):
        TypeDModule(ALG, {"x": (1,), "y": (2,)}, {("x", "y"): wide})


def test_u_weighted_off_corner_power_named():
    gens = {"x": (1,), "y": (2,)}
    with pytest.raises(ModuleError, match=r"x->y \(U\^1\) not compatible"):
        UTypeDModule(ALG, gens, {("x", "y"): {0: CORNER_OK, 1: torus_element("rho12")}})


@pytest.mark.parametrize("side", (0, 1))
@pytest.mark.parametrize("stray", OFF_CORNER)
def test_single_off_corner_tensor_term_rejected(side, stray):
    twist = dehn_twist_dd("Tm")
    good = twist.delta[("p", "q")]  # rho1 x rho3 + rho123 x rho123, from (1|1) to (2|2)
    pair = [torus_element("rho1"), torus_element("rho3")]
    pair[side] = torus_element(stray)
    delta = dict(twist.delta)
    delta[("p", "q")] = good + TensorElement.from_elements(*pair)
    with pytest.raises(ModuleError):
        TypeDDModule(ALG, ALG, twist.generators, delta)


def test_downward_strand_rejected():
    down = AlgebraElement(4, [((2, 1),)])  # on the corner of y -> x, yet no basis term
    with pytest.raises(ModuleError, match=r"y->x not idempotent-compatible at term \(\(2, 1\),\)"):
        TypeDModule(ALG, {"x": (1,), "y": (2,)}, {("y", "x"): down})
    with pytest.raises(ModuleError, match=r"\(U\^0\) not compatible"):
        UTypeDModule(ALG, {"x": (1,), "y": (2,)}, {("y", "x"): {0: down}})
    rho1 = torus_element("rho1")
    with pytest.raises(ModuleError, match="not idempotent-compatible"):
        TypeDDModule(ALG, ALG, {"x": ((1,), (1,)), "y": ((2,), (2,))},
                     {("y", "x"): TensorElement.from_elements(down, down)})
    TypeDDModule(ALG, ALG, {"x": ((1,), (1,)), "y": ((2,), (2,))},
                 {("x", "y"): TensorElement.from_elements(rho1, rho1)})


def test_idempotent_outside_the_circle_rejected():
    for idem in ((7,), (0,), (1, 3)):
        with pytest.raises(ModuleError):
            TypeDModule(ALG, {"x": idem}, {})


def test_reduce_unit_pair_to_empty():
    m = tmod({"x": (1,), "y": (1,)}, [("x", "iota0", "y")])
    red = m.reduce()
    assert not red.generators and not red.delta


def test_reduce_fixed_point_without_unit_arrows():
    m = solid_torus("minus1")
    red = m.reduce()
    assert iso_check(red, m) is not None


def test_reduce_zigzag_correction():
    # x -> iota y with side arrows: cancellation rewires through the pair
    m = TypeDModule(
        ALG,
        {"x": (1,), "y": (1,), "w": (2,), "z": (2,)},
        {
            ("x", "y"): torus_element("iota0"),
            ("w", "y"): torus_element("rho2"),
            ("x", "z"): torus_element("rho3"),
        },
    )
    red = m.reduce()
    assert set(red.generators) == {"w", "z"}
    assert red.delta[("w", "z")] == torus_element("rho2") * torus_element("rho3")
    assert red.verify_d2() == []


def test_reduce_is_idempotent():
    m = tmod(
        {"x": (1,), "y": (1,), "z": (1,)},
        [("x", "iota0", "y"), ("y", "rho12", "z")],
    )
    r1 = m.reduce()
    r2 = r1.reduce()
    assert iso_check(r1, r2) is not None


def test_reduce_preserves_induced_homology():
    ok, detail = check_reduce_preserves_homology(samples=25, seed=8)
    assert ok, detail


def test_iso_check_identity_witness():
    m = solid_torus("minus1")
    w = iso_check(m, m)
    assert w == {"a": "a", "b": "b"}


def test_iso_check_respects_idempotents():
    m1 = tmod({"x": (1,)}, [("x", "rho12", "x")])
    m2 = tmod({"y": (2,)}, [("y", "rho23", "y")])
    assert iso_check(m1, m2) is None


def test_iso_check_counts():
    m1 = tmod({"x": (1,), "y": (1,)}, [])
    m2 = tmod({"x": (1,), "y": (2,)}, [])
    assert iso_check(m1, m2) is None


def test_iso_check_equivalence_relation():
    mods = [solid_torus("inf"), solid_torus("zero"), dehn_twist_dd("Tm")]
    for m in mods:
        assert iso_check(m, m) is not None
    a = tmod({"x": (1,), "y": (2,)}, [("x", "rho1", "y")])
    b = tmod({"u": (1,), "v": (2,)}, [("u", "rho1", "v")])
    c = tmod({"s": (1,), "t": (2,)}, [("s", "rho1", "t")])
    ab = iso_check(a, b)
    bc = iso_check(b, c)
    ac = iso_check(a, c)
    assert ab and bc and ac
    assert {k: bc[v] for k, v in ab.items()} == ac


def test_iso_cap():
    gens = {f"g{i}": (1,) for i in range(12)}
    m1 = TypeDModule(ALG, gens, {})
    m2 = TypeDModule(ALG, gens, {})
    with pytest.raises(CapExceeded):
        iso_check(m1, m2, cap=10)


def test_iso_check_deeper_than_the_recursion_limit():
    # a 1,500-generator chain g0000 -rho1-> g0001 -rho2-> g0002 ... and a renamed copy
    gens = {f"g{i:04d}": (1,) if i % 2 == 0 else (2,) for i in range(1500)}
    delta = {
        (f"g{i:04d}", f"g{i + 1:04d}"): torus_element("rho1" if i % 2 == 0 else "rho2")
        for i in range(1499)
    }
    m = TypeDModule(ALG, gens, delta)
    witness = iso_check(m, m.rename(lambda name: "h" + name[1:]))
    assert witness == {name: "h" + name[1:] for name in gens}


def test_iso_check_sees_an_arrow_only_one_side_has():
    # a 4-cycle against two 2-cycles: every generator has one rho12 arrow in
    # and one out, so the signatures agree, but assigning a -> a and b -> b
    # meets the arrow b -> a that only the second module has
    gens = {g: (1,) for g in "abcd"}
    rho12 = torus_element("rho12")
    cycle = TypeDModule(ALG, gens, {(s, t): rho12 for s, t in ("ab", "bc", "cd", "da")})
    pairs = TypeDModule(ALG, gens, {(s, t): rho12 for s, t in ("ab", "ba", "cd", "dc")})
    assert iso_check(cycle, pairs) is None
    assert iso_check(pairs, cycle) is None
    assert iso_check(pairs, pairs.rename(str.upper)) == {g: g.upper() for g in gens}


def test_tensor_element_algebra():
    t1 = TensorElement.from_elements(torus_element("rho1"), torus_element("rho3"))
    t2 = TensorElement.from_elements(torus_element("rho2"), torus_element("rho2"))
    prod = t1 * t2
    assert prod == TensorElement.from_elements(
        torus_element("rho12"), torus_element("rho3") * torus_element("rho2")
    ) or prod.is_zero()
    # rho3 * rho2 = 0, so the product vanishes
    assert prod.is_zero()
    assert (t1 + t1).is_zero()


def _random_diagram(rng, n):
    k = rng.randint(0, n)
    return make_diagram(n, zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)))


def _pairwise_tensor_product(x, y):
    """The product by trying every pair of terms."""
    acc = set()
    for a1, a2 in x.terms:
        for b1, b2 in y.terms:
            c1, c2 = multiply_diagrams(a1, b1), multiply_diagrams(a2, b2)
            if c1 is not None and c2 is not None:
                acc ^= {(c1, c2)}
    return TensorElement(x.n1, x.n2, acc)


def test_bucketed_tensor_product_matches_pairwise_product():
    rng = random.Random("bucketed-tensor-mul")
    n1, n2 = 4, 5
    seen = {"nonzero": 0, "mismatched": 0, "double crossing": 0}
    for _ in range(300):
        x = TensorElement(n1, n2, [(_random_diagram(rng, n1), _random_diagram(rng, n2))
                                   for _ in range(rng.randint(0, 6))])
        # some terms of y start where terms of x end, on one side or both
        ys = [(_random_diagram(rng, n1), _random_diagram(rng, n2)) for _ in range(2)]
        for a1, a2 in rng.sample(sorted(x.terms), min(3, len(x.terms))):
            b1, b2 = (make_diagram(n, zip([t for _, t in a], rng.sample(range(1, n + 1), len(a))))
                      for n, a in ((n1, a1), (n2, a2)))
            ys.append((b1, b2) if rng.random() < 0.8 else (b1, _random_diagram(rng, n2)))
        y = TensorElement(n1, n2, ys)
        got = x * y
        assert got == _pairwise_tensor_product(x, y)
        seen["nonzero"] += not got.is_zero()
        for a1, a2 in x.terms:
            for b1, b2 in y.terms:
                for a, b in ((a1, b1), (a2, b2)):
                    if sorted(t for _, t in a) != sorted(s for s, _ in b):
                        seen["mismatched"] += 1
                    elif multiply_diagrams(a, b) is None:
                        seen["double crossing"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def _reference_smoothings(diag):
    """Each crossing smoothed, kept when the crossing count drops by one."""
    base, ends = len(diagram_inversions(diag)), dict(diag)
    out = []
    for i, j in diagram_inversions(diag):
        cand = tuple(sorted({**ends, i: ends[j], j: ends[i]}.items()))
        if len(diagram_inversions(cand)) == base - 1:
            out.append(cand)
    return out


def _reference_tensor_d(x):
    acc = set()
    for a1, a2 in x.terms:
        acc ^= {(s, a2) for s in _reference_smoothings(a1)}
        acc ^= {(a1, s) for s in _reference_smoothings(a2)}
    return TensorElement(x.n1, x.n2, acc)


def test_raw_kernel_tensor_products_and_differentials_match_the_count_rule():
    """Through one RawProducts shared by every call (as in ``verify_d2``) and
    through a fresh one per call; diagrams recur across the elements and
    on both sides, and may have downward strands."""
    rng = random.Random("raw-kernel-tensor")
    n1, n2 = 5, 5
    records = RawProducts()
    pool = [(_random_diagram(rng, n1), _random_diagram(rng, n2)) for _ in range(12)]
    firsts, seconds = [a for a, _ in pool], [b for _, b in pool]
    seen = {"nonzero": 0, "double crossing": 0, "smoothings": 0}
    for _ in range(250):
        # a few left diagrams, each with several right diagrams, as in a DD coefficient
        x = TensorElement(n1, n2, [(rng.choice(firsts), rng.choice(seconds))
                                   for _ in range(rng.randint(0, 7))])
        ys = rng.sample(pool, 2)
        for a1, a2 in rng.sample(sorted(x.terms), min(3, len(x.terms))):
            b1, b2 = (make_diagram(n, zip([t for _, t in a], rng.sample(range(1, n + 1), len(a))))
                      for n, a in ((n1, a1), (n2, a2)))
            ys += [(b1, b2), (b1, rng.choice(seconds))]
        y = TensorElement(n1, n2, ys)
        want = _pairwise_tensor_product(x, y)
        assert x.__mul__(y, records) == want == x * y
        assert x.d(records) == _reference_tensor_d(x) == x.d()
        seen["nonzero"] += bool(want)
        seen["smoothings"] += len(_reference_tensor_d(x).terms)
        for a1, a2 in x.terms:
            for b1, b2 in y.terms:
                for a, b in ((a1, b1), (a2, b2)):
                    if sorted(t for _, t in a) == sorted(s for s, _ in b):
                        seen["double crossing"] += multiply_diagrams(a, b) is None
    assert all(count >= 50 for count in seen.values()), seen


def test_tensor_elements_over_other_ambient_sizes_do_not_combine():
    x = TensorElement(4, 4, [(((1, 2),), ((1, 2),))])
    for other in (TensorElement(8, 8, [(((2, 7),), ((2, 8),))]),
                  TensorElement(4, 8, [(((2, 3),), ((2, 3),))]),
                  TensorElement(8, 4, [])):
        with pytest.raises(AmbientMismatch):
            x * other
        with pytest.raises(AmbientMismatch):
            x + other
        with pytest.raises(AmbientMismatch):
            other * x


def test_the_d2_gate_reads_no_key_table(monkeypatch):
    """``verify_d2`` multiplies raw diagrams, so it checks the key tables."""
    circle = standard_pmc("split", 2)
    modules = [dd_identity(circle), underslide_dd(all_underslides(circle)[0])]

    def refuse(*args):
        raise AssertionError("the d^2 gate read a key table")

    for name in ("key_product", "key_d", "decompose", "key_of", "expand"):
        monkeypatch.setattr(SurfaceAlgebra, name, refuse)
    monkeypatch.setattr(TensorElement, "decompose", refuse)
    with pytest.raises(AssertionError, match="key table"):
        modules[0].algebra1.expand(((), (1,)))
    for module in modules:
        assert module.gated("built") is module


def test_the_d2_gate_names_a_residual_when_a_term_is_dropped():
    B = underslide_dd(all_underslides(standard_pmc("split", 2))[0])
    for (s, t), coeff in sorted(B.delta.items())[:6]:
        for term in sorted(coeff.terms)[:2]:
            delta = {**B.delta, (s, t): TensorElement(coeff.n1, coeff.n2, coeff.terms - {term})}
            broken = TypeDDModule(B.algebra1, B.algebra2, B.generators, delta)
            with pytest.raises(GateFailure, match=r"fails d\^2=0 on [1-9]\d* pairs, first \("):
                broken.gated("underslide less one term")


def test_split3_identity_passes_the_gate():
    B = dd_identity(standard_pmc("split", 3))
    assert (len(B.generators), len(B.delta)) == (64, 288)
    assert B.gated("split:3 identity") is B


def _dd_with_unit_arrows():
    """The torus identity bimodule plus, per generator g, two copies g1 and
    g2 with unit arrows g1 -> g and g2 -> g."""
    B = dd_identity(standard_pmc("torus"))
    gens, delta = dict(B.generators), dict(B.delta)
    for g, idem in B.generators.items():
        for copy in (f"{g}1", f"{g}2"):
            gens[copy] = idem
            delta[(copy, g)] = B._unit(idem)
    return TypeDDModule(B.algebra1, B.algebra2, gens, delta)


@pytest.mark.parametrize("kind", [TypeDModule, TypeDDModule])
def test_reduce_builds_each_unit_once(monkeypatch, kind):
    module = {TypeDModule: lambda: mor_dd_d(dehn_twist_dd("Tm"), solid_torus("0")),
              TypeDDModule: _dd_with_unit_arrows}[kind]()
    seen = []
    unit = kind._unit
    monkeypatch.setattr(kind, "_unit", lambda self, idem: seen.append(idem) or unit(self, idem))
    assert not module.is_reduced() and len(seen) == len(set(seen))
    seen.clear()
    reduced = module.reduce()
    assert len(reduced.generators) < len(module.generators)
    assert seen and len(seen) == len(set(seen))
    seen.clear()
    assert reduced.is_reduced() and len(seen) == len(set(seen))


@pytest.mark.parametrize("bad", [[[True, 2]], [[1.0, 2]], [[1, 2, 3]], [[1]], "12"])
def test_ddmodule_document_with_repeated_and_malformed_diagrams(bad):
    """Each distinct diagram of a document is parsed once; one that equals an
    earlier valid diagram only as a Python value is still malformed."""
    doc = serialize(dd_identity(standard_pmc("torus")))
    terms = doc["delta"][0]["terms"]
    assert terms[0][0] == [[1, 2]]
    terms.append([[[1, 2]], [[1, 2]]])  # repeats diagrams on both sides
    terms.append([[[1, 2]], [[1, 2]]])  # ... and cancels
    assert parse_document(doc).delta == dd_identity(standard_pmc("torus")).delta
    terms.append([bad, [[1, 2]]])
    with pytest.raises(SchemaError, match="a diagram must be a list of integer pairs"):
        parse_document(doc)


def test_u_module_verify_and_reduce():
    m = UTypeDModule(
        ALG,
        {"x": (2,), "y1": (1,), "y2": (1,)},
        {
            ("x", "x"): {2: torus_element("rho23")},
            ("y1", "y2"): {1: torus_element("iota0")},
            ("y1", "x"): {0: torus_element("rho1")},
            ("y2", "x"): {1: torus_element("rho123")},
        },
    )
    assert m.verify_d2() == []
    # the U iota arrow is not cancelable (unit must be U^0)
    red = m.reduce()
    assert set(red.generators) == {"x", "y1", "y2"}


def test_u_module_rejects_negative_power():
    with pytest.raises(ModuleError):
        UTypeDModule(ALG, {"x": (1,)}, {("x", "x"): {-1: torus_element("rho12")}})


def test_induced_complex_matches_corner_dimensions():
    m = solid_torus("minus1")
    c = induced_complex(m)
    assert len(c.generators) == 8  # 3 + 5 over the two idempotents


# ---------------------------------------------------------------------------
# the call-local memos of verify_d2, reduce and the Mor basis


def reference_verify_d2(M):
    """verify_d2 as a plain loop: every product and differential recomputed."""
    residual = defaultdict(set)
    for (x, y), c in M.delta.items():
        residual[(x, y)] ^= set(M._terms(M._d(c)))
        for (y2, z), c2 in M.delta.items():
            if y2 == y:
                residual[(x, z)] ^= set(M._terms(M._mul(c, c2)))
    return sorted(r for (x, z), terms in residual.items() if terms
                  for r in M._residuals(x, z, terms))


def reference_reduce(M):
    """reduce with the kind's plain product, no memo."""
    return _cancel_all(dict(M.generators), dict(M.delta),
                       unit=M._units(), mul=M._mul, add=M._add)


def twin(M, g):
    """The plain module M plus a copy of generator g with g's arrows: each two-step product
    through g then reaches its two ends twice, and cancels."""
    gens = {**M.generators, g + "'": M.generators[g]}
    delta = dict(M.delta)
    for (s, t), c in M.delta.items():
        if t == g:
            delta[(s, g + "'")] = c
        if s == g:
            delta[(g + "'", t)] = c
    return TypeDModule(ALG, gens, delta)


def of_kind(M, kind, rng):
    """A plain random module recast as a U-weighted module (each arrow at one
    or two random U powers) or as a DD bimodule (each coefficient c (x) c)."""
    if kind == "u":
        delta = {}
        for k, c in M.delta.items():
            powers = rng.sample(range(3), rng.randint(1, 2))
            delta[k] = {m: c for m in powers}
        return UTypeDModule(ALG, M.generators, delta)
    if kind == "dd":
        gens = {g: (i, i) for g, i in M.generators.items()}
        delta = {k: TensorElement.from_elements(c, c) for k, c in M.delta.items()}
        return TypeDDModule(ALG, ALG, gens, delta)
    return M


@st.composite
def random_modules(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    M = _random_bipartite_module(rng, ALG, layers=draw(st.integers(2, 4)))
    middle = sorted(g for g in M.generators if g[0] == "b")
    if draw(st.booleans()):
        M = twin(M, middle[0])
    return of_kind(M, draw(st.sampled_from(["plain", "u", "dd"])), rng)


def rho_square():
    """x -> y1, y2 by rho1 and y1, y2 -> z by rho2: one coefficient pair,
    whose product rho12 reaches (x, z) twice and cancels."""
    return tmod({"x": (1,), "y1": (2,), "y2": (2,), "z": (1,)},
                [("x", "rho1", "y1"), ("x", "rho1", "y2"),
                 ("y1", "rho2", "z"), ("y2", "rho2", "z")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_modules())
@example(rho_square())
@example(of_kind(rho_square(), "u", random.Random(1)))
@example(of_kind(rho_square(), "dd", random.Random(1)))
def test_memoized_verify_d2_and_reduce_match_plain_loops(M):
    assert M.verify_d2() == reference_verify_d2(M)
    gens, delta = reference_reduce(M)
    red = M.reduce()
    assert red.generators == gens and red.delta == delta


def test_verify_d2_multiplies_a_repeated_coefficient_pair_once(monkeypatch):
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__",
                        lambda a, b, *records: calls.append(1) or mul(a, b, *records))
    assert rho_square().verify_d2() == []  # rho12 + rho12 = 0
    assert len(calls) == 1


def test_mor_basis_builds_each_weights_table_once_per_algebra(monkeypatch):
    alg = SurfaceAlgebra(ALG.circle)  # a fresh algebra, with an empty table
    seen = []
    basis_keys = SurfaceAlgebra.basis_keys
    monkeypatch.setattr(SurfaceAlgebra, "basis_keys",
                        lambda a, w: seen.append((a, w)) or basis_keys(a, w))
    left = {f"x{i}": ((1,), (2,))[i % 2] for i in range(6)}
    right = {f"y{i}": ((1,), (2,))[i % 3 == 0] for i in range(5)}
    bases = [_mor_basis(alg, left, right), _mor_basis(alg, right, left)]
    assert seen == [(alg, 1)]
    for basis, (one, other) in zip(bases, ((left, right), (right, left))):
        assert basis == [(x, key, y) for x, ix in sorted(one.items())
                         for y, iy in sorted(other.items()) for key in ALG.corner_keys(ix, iy)]


def test_idempotents_normalised_once_per_construction(monkeypatch):
    seen = []
    pairs = type(ALG).idempotent_pairs
    monkeypatch.setattr(type(ALG), "idempotent_pairs",
                        lambda alg, p: seen.append(p) or pairs(alg, p))
    M = TypeDModule(ALG, {"x": (3,), "y": (1,), "z": (3,), "w": [3]}, {})
    assert M.generators == {"x": (1,), "y": (1,), "z": (1,), "w": (1,)}
    assert seen == [(3,), (1,), [3]]  # a list is unhashable, so not memoized
    for bad, why in (((7,), r"names a point outside 1\.\.4"), ([1, 3], "repeated pair")):
        with pytest.raises(ModuleError, match=why):
            TypeDModule(ALG, {"x": (1,), "y": bad, "z": bad}, {})
