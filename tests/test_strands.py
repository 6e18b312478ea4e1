import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhf import memo
from bhf.dmodules import TensorElement
from bhf.pmc import DisconnectedSurgery, connected_sum, make_pmc, reverse, standard_pmc
from bhf.strands import (
    AlgebraElement,
    IncompatibleChordSet,
    NotInSpan,
    RawProducts,
    SurfaceAlgebra,
    algebra_of,
    Diagram,
    drop_w_projection,
    make_diagram,
    StrandError,
    to_opposite,
    torus_element,
    TORUS_NAMES,
)
from bhf.checks import check_strand_properties, check_closure, check_torus_algebra


class NotAdmissible(StrandError):
    """A triple (S, T, phi) that names no basis element."""


def elem(n, strands):
    return AlgebraElement(n, [make_diagram(n, strands)])


def diagram_inversions(diag: Diagram) -> list[tuple[int, int]]:
    """Pairs of start points (i, j), i < j, whose strands cross (diag is
    sorted by start)."""
    return [(s1, s2) for (s1, t1), (s2, t2) in itertools.combinations(diag, 2) if t2 < t1]


def multiply_diagrams(a: Diagram, b: Diagram) -> Diagram | None:
    """Concatenation, or None when endpoints mismatch or strands double-cross:
    the count-rule reference for ``RawProducts``, inv(a b) = inv(a) + inv(b)."""
    if sorted(t for _, t in a) != sorted(s for s, _ in b):
        return None
    nxt = dict(b)
    comp = tuple(sorted((s, nxt[t]) for s, t in a))
    if len(diagram_inversions(comp)) != len(diagram_inversions(a)) + len(diagram_inversions(b)):
        return None
    return comp


def inversions(element_or_diagram):
    """Inversion count and inverting start-point pairs of a single diagram."""
    diag = element_or_diagram
    if isinstance(diag, AlgebraElement):
        (diag,) = diag.terms
    inv = diagram_inversions(diag)
    return len(inv), inv


def a_expand(alg, S, T, phi: dict) -> AlgebraElement:
    """Expand an admissible triple (S, T, phi) over its fixed points."""
    if set(phi) != set(S) or set(phi.values()) != set(T):
        raise NotAdmissible("phi is not a bijection S -> T")
    try:
        return alg.expand(alg.key_of(tuple(sorted(phi.items()))))
    except NotInSpan as e:
        raise NotAdmissible(str(e))


def test_inversions_identity_and_single():
    assert inversions(make_diagram(5, [(i, i) for i in range(1, 6)]))[0] == 0
    assert inversions(make_diagram(5, [(2, 4)]))[0] == 0


def test_inversions_s5_example():
    # the permutation (1,2,3,4,5) -> (3,1,2,5,4) has exactly 3 crossings
    count, pairs = inversions(make_diagram(5, [(1, 3), (2, 1), (3, 2), (4, 5), (5, 4)]))
    assert count == 3
    assert set(pairs) == {(1, 2), (1, 3), (4, 5)}


def test_nilcoxeter_transposition_squares_to_zero():
    sigma = elem(2, [(1, 2), (2, 1)])
    assert (sigma * sigma).is_zero()


def test_multiply_mismatch_and_composition():
    a = elem(3, [(1, 2)])
    b = elem(3, [(2, 3)])
    assert a * b == elem(3, [(1, 3)])
    assert (b * a).is_zero()  # endpoint sets do not match


def test_differential_transposition_smooths_to_identity():
    sigma = elem(2, [(1, 2), (2, 1)])
    assert sigma.d() == elem(2, [(1, 1), (2, 2)])


def test_repeated_endpoints_rejected():
    with pytest.raises(Exception):
        make_diagram(3, [(1, 2), (1, 3)])


def test_crossing_smoothing():
    d = elem(4, [(1, 3), (2, 2)])  # one crossing? (1,3) over horizontal (2,2)
    # inversion pair (1,2): phi(2)=2 < 3: crossing; smoothing gives (1,2),(2,3)
    assert d.d() == elem(4, [(1, 2), (2, 3)])


def test_crossingless_differential_vanishes():
    assert elem(4, [(1, 2), (3, 4)]).d().is_zero()


def test_torus_algebra_check():
    ok, detail = check_torus_algebra()
    assert ok, detail


def test_strand_property_suite_small():
    ok, detail = check_strand_properties(samples=1500, seed=3)
    assert ok, detail


def test_closure_genus1():
    ok, detail = check_closure(max_genus=1)
    assert ok, detail


def test_algebra_dimensions_torus():
    alg = algebra_of(standard_pmc("torus"))
    assert [alg.dim_summand(i) for i in (-1, 0, 1)] == [1, 8, 7]


def test_split_lowest_summand_is_f2():
    for k in (1, 2):
        alg = algebra_of(standard_pmc("split", k))
        assert alg.dim_summand(-k) == 1


def test_a_expand_four_terms():
    # two fixed points, each on its own matched pair: four placements
    alg = algebra_of(standard_pmc("split", 2))
    out = a_expand(alg, {2, 5, 6}, {2, 6, 7}, {5: 7, 2: 2, 6: 6})
    assert len(out.terms) == 4
    assert make_diagram(8, [(2, 2), (5, 7), (6, 6)]) in out.terms
    assert make_diagram(8, [(4, 4), (5, 7), (8, 8)]) in out.terms


def test_a_expand_fixed_point_free_single_term():
    alg = algebra_of(standard_pmc("torus"))
    out = a_expand(alg, {1}, {2}, {1: 2})
    assert out == torus_element("rho1")


def test_a_expand_single_fixed_point_swaps():
    alg = algebra_of(standard_pmc("torus"))
    out = a_expand(alg, {1}, {1}, {1: 1})
    assert out == alg.idempotent([1])
    assert len(out.terms) == 2


def test_a_expand_rejects_inadmissible():
    alg = algebra_of(standard_pmc("torus"))
    with pytest.raises(NotAdmissible):
        a_expand(alg, {1, 3}, {1, 3}, {1: 1, 3: 3})


def test_idempotents():
    alg = algebra_of(standard_pmc("torus"))
    i0 = alg.idempotent([1])
    i1 = alg.idempotent([2])
    assert i0 * i0 == i0
    assert (i0 * i1).is_zero()
    assert i0 == torus_element("iota0")


def test_chord_element_rho1_single_diagram():
    alg = algebra_of(standard_pmc("torus"))
    assert alg.chord_element((1, 2)) == elem(4, [(1, 2)])


def test_chord_23_squares_to_zero():
    alg = algebra_of(standard_pmc("torus"))
    a = alg.chord_element((1, 3))
    assert (a * a).is_zero()


def test_chords_elem_empty_is_unit():
    alg = algebra_of(standard_pmc("torus"))
    assert alg.chords_element([]) == alg.unit()


def test_chords_elem_incompatible():
    alg = algebra_of(standard_pmc("torus"))
    with pytest.raises(IncompatibleChordSet):
        alg.chords_element([(1, 2), (3, 4)])  # starts 1,3 are matched


def test_opposite_exchanges_rho1_rho3():
    t = standard_pmc("torus")
    assert to_opposite(torus_element("rho1"), t) == torus_element("rho3")
    assert to_opposite(torus_element("rho2"), t) == torus_element("rho2")
    assert to_opposite(torus_element("iota0"), t) == torus_element("iota1")


def test_opposite_involution_and_antihom():
    t = standard_pmc("torus")
    for a, b in itertools.product(TORUS_NAMES, repeat=2):
        ea, eb = torus_element(a), torus_element(b)
        assert to_opposite(ea * eb, t) == to_opposite(eb, t) * to_opposite(ea, t)
        assert to_opposite(to_opposite(ea, t), reverse(t)) == ea


def test_drop_w_kills_seam_crossers():
    z = connected_sum(standard_pmc("torus"), standard_pmc("torus"))
    crossing = elem(8, [(3, 6)])
    assert drop_w_projection(crossing, z) == set()


def test_drop_w_splits_idempotent():
    z = connected_sum(standard_pmc("torus"), standard_pmc("torus"))
    alg = algebra_of(z)
    idem = alg.idempotent([1, 6])
    out = drop_w_projection(idem, z)
    # sections of pair {1,3} stay left, sections of {6,8} move right, shifted
    assert out == {
        (((1, 1),), ((2, 2),)), (((1, 1),), ((4, 4),)),
        (((3, 3),), ((2, 2),)), (((3, 3),), ((4, 4),)),
    }


def test_drop_w_chord_in_left_block():
    # a chord supported in the first block projects to chord (x) unit
    z = connected_sum(standard_pmc("torus"), standard_pmc("torus"))
    alg = algebra_of(z)
    out = drop_w_projection(alg.chord_element((1, 2)), z)
    torus_alg = algebra_of(standard_pmc("torus"))
    left_chord = torus_alg.chord_element((1, 2))
    expected = {
        (l, r) for l in left_chord.terms for r in torus_alg.unit().terms
    }
    assert out == expected


def test_drop_w_is_multiplicative_on_samples():
    z = connected_sum(standard_pmc("torus"), standard_pmc("torus"))
    alg = algebra_of(z)
    import random

    rng = random.Random(9)
    keys = [k for w in range(0, 5) for k in alg.basis_keys(w)]
    sample = rng.sample(keys, 25)
    for k1 in sample[:10]:
        for k2 in sample[10:20]:
            a, b = alg.expand(k1), alg.expand(k2)
            image_prod = drop_w_projection(a * b, z)
            prods = set()
            for l1, r1 in drop_w_projection(a, z):
                for l2, r2 in drop_w_projection(b, z):
                    l = multiply_diagrams(l1, l2)
                    r = multiply_diagrams(r1, r2)
                    if l is not None and r is not None:
                        prods ^= {(l, r)}
            assert prods == image_prod


# ---------------------------------------------------------------------------
# idempotent corners and the basis enumeration


def _matchings(points):
    if not points:
        yield ()
        return
    for other in points[1:]:
        rest = [p for p in points if p not in (points[0], other)]
        for tail in _matchings(rest):
            yield ((points[0], other),) + tail


def _genus2_circles():
    out = []
    for matching in _matchings(list(range(1, 9))):
        try:
            out.append(make_pmc(2, matching))
        except DisconnectedSurgery:
            continue
    return out


CIRCLES = [standard_pmc("torus")] + _genus2_circles()


def test_all_genus2_circles_enumerated():
    assert len(CIRCLES) == 1 + 21


@pytest.mark.parametrize("circle", CIRCLES, ids=repr)
def test_sandwich_matches_idempotent_products(circle):
    """The sandwich I(L) * x * I(R), taken as two strand products, is the
    terms of x whose ``admissible_corner`` is (L, R)."""
    rng = random.Random(f"sandwich/{circle!r}")
    alg = algebra_of(circle)
    keys = [k for w in range(0, 2 * alg.k + 1) for k in alg.basis_keys(w)]

    def idempotent_near(pairs):
        # mostly the corner of a term of x, sometimes any set of pairs; each
        # pair named by a random foot
        if rng.random() < 0.25:
            pairs = rng.sample(circle.pairs, rng.randint(0, len(circle.pairs)))
        return [rng.choice(circle.pair_feet(p)) for p in pairs]

    nonzero = 0
    for _ in range(40):
        chosen = rng.sample(keys, rng.randint(1, 6))
        x = AlgebraElement.zero(alg.n)
        for key in chosen:
            x = x + alg.expand(key)
        anchor = rng.choice(chosen)
        left = idempotent_near(alg.key_left_pairs(anchor))
        right = idempotent_near(alg.key_right_pairs(anchor))
        corner = (alg.idempotent_pairs(left), alg.idempotent_pairs(right))
        got = AlgebraElement(alg.n, [d for d in x.terms if alg.admissible_corner(d) == corner])
        assert got == alg.idempotent(left) * x * alg.idempotent(right)
        nonzero += not got.is_zero()
    assert nonzero >= 10  # the oracle is exercised on nonzero corners too


def _basis_keys_by_combinations(circle, weights):
    """The enumerator basis_keys replaced: all strand sets, then a filter."""
    n, partner = circle.n_points, circle.partner
    all_strands = [(s, t) for s in range(1, n) for t in range(s + 1, n + 1)]
    out = {w: [] for w in weights}
    for m in range(0, max(weights) + 1):
        for moving in itertools.combinations(all_strands, m):
            starts = [s for s, _ in moving]
            ends = [t for _, t in moving]
            if len(set(starts)) != m or len(set(ends)) != m:
                continue
            if any(partner(s) in starts for s in starts) or any(partner(t) in ends for t in ends):
                continue
            used = set(starts) | set(ends)
            free = [p for p in circle.pairs if p not in used and partner(p) not in used]
            for w in weights:
                if w >= m:
                    out[w].extend((moving, pairs) for pairs in itertools.combinations(free, w - m))
    return {w: sorted(keys) for w, keys in out.items()}


@pytest.mark.parametrize("circle", CIRCLES, ids=repr)
def test_basis_keys_match_combinations_enumerator(circle):
    alg = algebra_of(circle)
    weights = list(range(0, 2 * alg.k + 1))
    want = _basis_keys_by_combinations(circle, weights)
    for w in weights:
        assert alg.basis_keys(w) == want[w]


def test_split3_summand_dimensions():
    # computed once with the combinations enumerator (59,648 keys in all)
    alg = algebra_of(standard_pmc("split", 3))
    dims = [alg.dim_summand(i) for i in range(-3, 4)]
    assert dims == [1, 72, 1589, 12448, 30451, 14744, 343]


# ---------------------------------------------------------------------------
# products: endpoint buckets and key products


def random_diagram(rng, n):
    """A partial permutation of 1..n, strands in either direction."""
    k = rng.randint(0, n)
    return make_diagram(n, zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)))


def pairwise_product(x, y):
    """The product by trying every pair of terms."""
    acc = set()
    for a in x.terms:
        for b in y.terms:
            c = multiply_diagrams(a, b)
            if c is not None:
                acc ^= {c}
    return AlgebraElement(x.n, acc)


def test_bucketed_product_matches_pairwise_product():
    rng = random.Random("bucketed-mul")
    n = 5
    seen = {"nonzero": 0, "mismatched": 0, "double crossing": 0}
    for _ in range(400):
        x = AlgebraElement(n, [random_diagram(rng, n) for _ in range(rng.randint(0, 6))])
        # some terms of y start where terms of x end, so endpoints often match
        ys = [random_diagram(rng, n) for _ in range(rng.randint(0, 3))]
        for a in rng.sample(sorted(x.terms), min(3, len(x.terms))):
            ends = [t for _, t in a]
            ys.append(make_diagram(n, zip(ends, rng.sample(range(1, n + 1), len(ends)))))
        y = AlgebraElement(n, ys)
        got = x * y
        assert got == pairwise_product(x, y)
        seen["nonzero"] += not got.is_zero()
        for a in x.terms:
            for b in y.terms:
                if sorted(t for _, t in a) != sorted(s for s, _ in b):
                    seen["mismatched"] += 1
                elif multiply_diagrams(a, b) is None:
                    seen["double crossing"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def reference_d(x):
    """The differential by the count rule: each crossing smoothed, kept when
    the crossing count drops by exactly one."""
    acc = set()
    for diag in x.terms:
        base, ends = len(diagram_inversions(diag)), dict(diag)
        for i, j in diagram_inversions(diag):
            smooth = {**ends, i: ends[j], j: ends[i]}
            cand = tuple(sorted(smooth.items()))
            if len(diagram_inversions(cand)) == base - 1:
                acc ^= {cand}
    return AlgebraElement(x.n, acc)


def test_raw_kernel_matches_the_count_rule():
    """Products and differentials through one RawProducts shared by every
    call, as ``verify_d2`` shares one, and through a fresh one per call,
    against the count-rule references, on diagrams with downward strands."""
    rng = random.Random("raw-kernel")
    n = 6
    records = RawProducts()
    pool = [random_diagram(rng, n) for _ in range(60)]  # terms recur, so memos are hit
    seen = {"nonzero": 0, "double crossing": 0, "smoothing kept": 0, "smoothing dropped": 0}
    for _ in range(300):
        x = AlgebraElement(n, rng.sample(pool, rng.randint(0, 5)))
        ys = rng.sample(pool, 2)
        for a in rng.sample(sorted(x.terms), min(3, len(x.terms))):
            ends = [t for _, t in a]
            ys.append(make_diagram(n, zip(ends, rng.sample(range(1, n + 1), len(ends)))))
        y = AlgebraElement(n, ys)
        want = pairwise_product(x, y)
        assert x.__mul__(y, records) == want == x * y
        assert x.d(records) == reference_d(x) == x.d()
        seen["nonzero"] += bool(want)
        for a in x.terms:
            for b in y.terms:
                if sorted(t for _, t in a) == sorted(s for s, _ in b):
                    seen["double crossing"] += multiply_diagrams(a, b) is None
            base = len(diagram_inversions(a))
            for i, j in diagram_inversions(a):
                ends = dict(a)
                cand = tuple(sorted({**ends, i: ends[j], j: ends[i]}.items()))
                kept = len(diagram_inversions(cand)) == base - 1
                seen["smoothing kept" if kept else "smoothing dropped"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def reference_corner(alg, diag):
    """``admissible_corner`` as pair lists, one pass per rule."""
    pair = alg.circle.pair_names.get
    starts, ends, prev = [], [], 0
    for s, t in diag:
        if not prev < s <= t:
            return None
        prev = s
        starts.append(pair(s, 0))
        ends.append(pair(t, 0))
    if 0 in starts + ends or len(set(starts)) < len(starts) or len(set(ends)) < len(ends):
        return None
    return tuple(sorted(starts)), tuple(sorted(ends))


@pytest.mark.parametrize("circle", [CIRCLES[0], CIRCLES[1], CIRCLES[-1], standard_pmc("split", 3)],
                         ids=repr)
def test_admissible_corner_matches_the_pair_list_reference(circle):
    rng = random.Random(f"corner/{circle!r}")
    alg = algebra_of(circle)
    n = alg.n
    seen = {"admissible": 0, "unsorted": 0, "downward": 0, "repeated pair": 0, "outside": 0}
    for _ in range(3000):
        strands = [(rng.randint(0, n + 1), rng.randint(0, n + 1)) for _ in range(rng.randint(0, 4))]
        strands = [(s, t) for s, t in strands if 1 <= s <= t <= n]
        if rng.random() < 0.8:  # then break it in at most one way
            fault = rng.choice(["unsorted", "downward", "outside", None])
            strands.sort()
            if fault == "unsorted" and len(strands) > 1 and strands[0][0] < strands[1][0]:
                strands[0], strands[1] = strands[1], strands[0]
            elif fault == "downward" and strands and strands[-1][0] > 1:
                strands[-1] = (strands[-1][0], rng.randint(1, strands[-1][0] - 1))
            elif fault == "outside":
                strands.append(rng.choice([(n, n + 1), (n + 1, n + 1), (0, 1), (-1, 2)]))
        diag = tuple(strands)
        want = reference_corner(alg, diag)
        assert alg.admissible_corner(diag) == want, diag
        points = [p for strand in diag for p in strand]
        if want is not None:
            seen["admissible"] += 1
        elif any(s > t for s, t in diag):
            seen["downward"] += 1
        elif any(not 1 <= p <= n for p in points):
            seen["outside"] += 1
        elif [s for s, _ in diag] != sorted(s for s, _ in diag):
            seen["unsorted"] += 1
        else:
            seen["repeated pair"] += 1
    assert all(count >= 50 for count in seen.values()), seen


def test_admissible_corner_on_a_high_genus_circle():
    """The table of pair masks fills as masks are met; a genus-12 circle has
    2^24 of them, and reading a few corners must not build them all."""
    alg = algebra_of(standard_pmc("antipodal", 12))
    for diag in [(), ((1, 25),), ((1, 2), (3, 30)), ((1, 2), (25, 26)), ((2, 1),), ((1, 49),)]:
        assert alg.admissible_corner(diag) == reference_corner(alg, diag), diag


@pytest.mark.parametrize("circle", [standard_pmc("torus"), standard_pmc("split", 2),
                                    standard_pmc("antipodal", 2), standard_pmc("split", 3)],
                         ids=repr)
def test_corner_keys_match_the_filter_on_every_corner(circle):
    # the reference is the filter the table replaced, keys of the weight
    # whose left and right pairs are the corner's; so that split:3 stays
    # quick, each key's pairs are read once and it runs in two passes
    alg = algebra_of(circle)
    for w in range(2 * alg.k + 1):
        idems = list(itertools.combinations(alg.circle.pairs, w))
        keys = alg.basis_keys(w)
        lefts, rights = map(alg.key_left_pairs, keys), map(alg.key_right_pairs, keys)
        sides = list(zip(keys, lefts, rights))
        filed = 0
        for left in idems:
            row = [(key, r) for key, lp, r in sides if lp == left]
            for right in idems:
                want = [key for key, r in row if r == right]
                assert list(alg.corner_keys(left, right)) == want, (left, right)
                filed += len(want)
        assert filed == len(keys)
    assert alg.corner_keys(alg.circle.pairs[:1], ()) == ()


def test_corner_key_table_fills_one_weight_once(monkeypatch):
    alg = SurfaceAlgebra(standard_pmc("split", 2))
    seen = []
    basis_keys = SurfaceAlgebra.basis_keys
    monkeypatch.setattr(SurfaceAlgebra, "basis_keys",
                        lambda a, w: seen.append(w) or basis_keys(a, w))
    for left, right in [((1,), (1,)), ((1,), (5,)), ((2,), (6,)), ((1,), (1,))]:
        alg.corner_keys(left, right)
    assert seen == [1] and list(alg._corner_table) == [1]


def test_memo_clear_drops_the_corner_key_table():
    circle = standard_pmc("split", 2)
    alg = algebra_of(circle)
    assert alg.corner_keys((1, 5), (2, 6))
    assert alg._corner_table
    memo.clear()
    fresh = algebra_of(circle)
    assert fresh is not alg and fresh._corner_table == {}


def raw_key_product(alg, k1, k2):
    prod = pairwise_product(alg.expand(k1), alg.expand(k2))
    return tuple(alg.decompose(prod)) if prod else ()


def all_keys(alg):
    return [k for w in range(0, 2 * alg.k + 1) for k in alg.basis_keys(w)]


def test_key_product_matches_raw_products_on_the_torus():
    alg = algebra_of(standard_pmc("torus"))
    keys = all_keys(alg)
    nonzero = 0
    for k1, k2 in itertools.product(keys, keys):
        got = alg.key_product(k1, k2)
        assert got == raw_key_product(alg, k1, k2), (k1, k2)
        nonzero += bool(got)
    assert nonzero >= 30


@pytest.mark.parametrize(
    "circle", CIRCLES[1:] + [standard_pmc("split", 3)], ids=repr)
def test_key_product_matches_raw_products(circle):
    """Random pairs, and pairs whose shared pairs match (most products
    live there)."""
    rng = random.Random(f"key-product/{circle!r}")
    alg = algebra_of(circle)
    keys = all_keys(alg)
    by_left = {}
    for key in keys:
        by_left.setdefault(alg.key_left_pairs(key), []).append(key)
    pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(150)]
    while len(pairs) < 600:
        k1 = rng.choice(keys)
        if alg.key_right_pairs(k1) in by_left:
            pairs.append((k1, rng.choice(by_left[alg.key_right_pairs(k1)])))
    nonzero = 0
    for k1, k2 in pairs:
        got = alg.key_product(k1, k2)
        assert got == raw_key_product(alg, k1, k2), (k1, k2)
        nonzero += bool(got)
    assert nonzero >= 20


@functools.lru_cache(maxsize=None)
def keys_by_left_pairs(circle):
    alg = algebra_of(circle)
    out = {}
    for key in all_keys(alg):
        out.setdefault(alg.key_left_pairs(key), []).append(key)
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CIRCLES + [standard_pmc("split", 3)]), st.data())
def test_left_quotient_inverts_key_product(circle, data):
    """Whenever a * b is a basis key k, the quotient of k by a is b: a and k
    determine b.  Whenever the quotient of a key k by a is some b, a * b is k."""
    alg = algebra_of(circle)
    by_left = keys_by_left_pairs(circle)
    a = data.draw(st.sampled_from(all_keys(alg)))
    for b in by_left.get(alg.key_right_pairs(a), ()):
        for k in alg.key_product(a, b):
            assert alg.key_left_quotient(k, a) == b, (a, b, k)
    for k in by_left[alg.key_left_pairs(a)]:
        b = alg.key_left_quotient(k, a)
        assert b is None or alg.key_product(a, b) == (k,), (a, k, b)


# ---------------------------------------------------------------------------
# decomposition: each term names its key


TORUS_ALG = algebra_of(standard_pmc("torus"))
RHO1 = ((1, 2),)

NOT_IN_SPAN = {
    "downward strand": [((2, 1),)],
    "two starts on one pair": [((1, 2), (3, 4))],  # 1 and 3 are matched
    "point outside 1..4k": [((3, 5),)],
    "partial horizontal placement": [((1, 1),)],  # half of iota0
}


@pytest.mark.parametrize("case", sorted(NOT_IN_SPAN))
def test_decompose_rejects_terms_of_no_basis_element(case):
    terms = NOT_IN_SPAN[case]
    with pytest.raises(NotInSpan):
        TORUS_ALG.decompose(AlgebraElement(4, terms))
    with pytest.raises(NotInSpan):
        TensorElement(4, 4, [(d, RHO1) for d in terms]).decompose(TORUS_ALG, TORUS_ALG)
    with pytest.raises(NotInSpan):
        TensorElement(4, 4, [(RHO1, d) for d in terms]).decompose(TORUS_ALG, TORUS_ALG)
    assert not TORUS_ALG.contains(AlgebraElement(4, terms))


def test_key_of_reads_moving_strands_and_horizontal_pairs():
    alg = algebra_of(standard_pmc("split", 2))
    assert alg.key_of(((1, 2), (5, 7), (8, 8))) == (((1, 2), (5, 7)), (6,))
    with pytest.raises(NotInSpan):
        alg.key_of(((8, 8), (1, 2)))  # not sorted by start


@st.composite
def key_sums(draw):
    """A circle, a set of its basis keys and the sum of their expansions."""
    alg = algebra_of(draw(st.sampled_from(CIRCLES)))
    keys = all_keys(alg)
    chosen = draw(st.sets(st.sampled_from(keys), max_size=6))
    x = AlgebraElement.zero(alg.n)
    for key in chosen:
        x = x + alg.expand(key)
    return alg, chosen, x


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(key_sums(), st.randoms(use_true_random=False))
def test_decompose_returns_the_chosen_keys(sample, rng):
    alg, chosen, x = sample
    assert alg.decompose(x) == sorted(chosen)
    wide = [k for k in chosen if k[1]]  # keys with more than one placement
    if wide:
        term = rng.choice(sorted(alg.expand(rng.choice(wide)).terms))
        with pytest.raises(NotInSpan):
            alg.decompose(AlgebraElement(alg.n, x.terms - {term}))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CIRCLES), st.data())
def test_tensor_decompose_returns_the_chosen_key_pairs(circle, data):
    alg1, alg2 = TORUS_ALG, algebra_of(circle)
    keys1, keys2 = all_keys(alg1), all_keys(alg2)
    chosen = data.draw(st.sets(st.tuples(st.sampled_from(keys1), st.sampled_from(keys2)),
                               max_size=6))
    x = TensorElement(alg1.n, alg2.n)
    for k1, k2 in chosen:
        x = x + TensorElement.from_elements(alg1.expand(k1), alg2.expand(k2))
    assert x.decompose(alg1, alg2) == sorted(chosen)
    wide = sorted((k1, k2) for k1, k2 in chosen if k1[1] or k2[1])
    if wide:
        k1, k2 = data.draw(st.sampled_from(wide))
        term = min(TensorElement.from_elements(alg1.expand(k1), alg2.expand(k2)).terms)
        with pytest.raises(NotInSpan):
            TensorElement(alg1.n, alg2.n, x.terms - {term}).decompose(alg1, alg2)
