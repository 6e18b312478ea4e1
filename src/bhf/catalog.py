"""Built-in bordered objects with exact differentials.

Everything here is given by closed-form data: the three solid-torus modules
of the surgery triangle, split handlebodies, the identity DD bimodule of an
arbitrary circle (one doubled chord term per chord), arc-slides and their
underslide DD bimodules, the torus ones being the four Dehn twists, and the
closed-manifold pipeline that pairs words of twists or slides.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .memo import _nogc, memo
from .pmc import (
    PMCError, PointedMatchedCircle, make_pmc, pair_map_to_reverse, reverse, standard_pmc,
)
from .strands import AlgebraElement, algebra_of, torus_element
from .dmodules import (
    TensorElement, TypeDDModule, TypeDModule, mapping_cone, module_f2_basis, right_action,
)
from .pairing import BimoduleHalf, mor_d_d, mor_dd_d
from .gf2 import gf2_apply, gf2_rank


class CatalogError(ValueError):
    pass


class NotAdjacent(CatalogError):
    pass


class SamePair(CatalogError):
    pass


class OverslideUnsupported(CatalogError):
    pass


# The largest genus that a name reaches: a circle name (``split:k``,
# ``antipodal:k``), a slide letter and a ``handlebody:<k>`` side of
# ``hf_genus1``.  Listing the basis of ``split:4``'s algebra alone takes
# more than a minute.
MAX_GENUS = 3


# ---------------------------------------------------------------------------
# solid tori and the surgery triangle


def _torus_mod(gens, arrows) -> TypeDModule:
    alg = algebra_of(standard_pmc("torus"))
    delta = {}
    for src, name, dst in arrows:
        coeff = torus_element(name)
        key = (src, dst)
        delta[key] = delta.get(key, AlgebraElement.zero(4)) + coeff
    return TypeDModule(alg, gens, delta)


_TORUS_NAMES = {
    "inf": "inf", "infinity": "inf", "h_inf": "inf", "h_infinity": "inf",
    "-1": "minus1", "minus1": "minus1", "h_minus1": "minus1",
    "0": "zero", "zero": "zero", "h_0": "zero", "h_zero": "zero",
}


def torus_name(which: str) -> str:
    """The canonical name of a solid torus: one per group of aliases."""
    try:
        return _TORUS_NAMES[which]
    except KeyError:
        raise CatalogError(f"unknown solid torus {which!r}") from None


def solid_torus(which: str) -> TypeDModule:
    """The framed solid-torus modules of the surgery triangle.

    infinity: one generator r with d(r) = rho23 r.
    minus1:   generators a, b with d(a) = (rho1 + rho3) b.
    zero:     one generator n with d(n) = rho12 n.

    Aliases of one torus (``torus_name``) give the very same object.
    """
    return _solid_torus(torus_name(which))


@memo
def _solid_torus(name: str) -> TypeDModule:
    if name == "inf":
        return _torus_mod({"r": (2,)}, [("r", "rho23", "r")])
    if name == "minus1":
        return _torus_mod({"a": (1,), "b": (2,)}, [("a", "rho1", "b"), ("a", "rho3", "b")])
    return _torus_mod({"n": (1,)}, [("n", "rho12", "n")])


ModuleMap = dict[str, list[tuple[AlgebraElement, str]]]


@dataclass
class SurgeryTriangle:
    h_infinity: TypeDModule
    h_minus1: TypeDModule
    h_zero: TypeDModule
    phi: ModuleMap
    psi: ModuleMap
    report: dict


def solid_tori() -> SurgeryTriangle:
    """The three modules with the connecting maps and an exactness report."""
    m_inf = solid_torus("inf")
    m_m1 = solid_torus("minus1")
    m_0 = solid_torus("zero")
    phi: ModuleMap = {"r": [(torus_element("iota1"), "b"), (torus_element("rho2"), "a")]}
    psi: ModuleMap = {"a": [(torus_element("iota0"), "n")], "b": [(torus_element("rho2"), "n")]}

    def f2_matrix(f, M, N) -> list[int]:
        """Column j, a bitset over the F2 basis of N, is f of the j-th basis vector of M."""
        index = {v: i for i, v in enumerate(module_f2_basis(N))}
        return [sum(1 << index[v] for v in right_action(M.algebra, key, f.get(x, ())))
                for key, x in module_f2_basis(M)]

    report = {
        "phi_chain_map": not mapping_cone(phi, m_inf, m_m1).verify_d2(),
        "psi_chain_map": not mapping_cone(psi, m_m1, m_0).verify_d2(),
    }
    A = f2_matrix(phi, m_inf, m_m1)
    B = f2_matrix(psi, m_m1, m_0)
    dim_zero = len(module_f2_basis(m_0))
    rank_a = gf2_rank(A)
    rank_b = gf2_rank(B)
    report["psi_after_phi_zero"] = not any(gf2_apply(B, a) for a in A)
    report["phi_injective"] = rank_a == len(A)
    report["psi_surjective"] = rank_b == dim_zero
    # exactness at the middle: ker(psi) = im(phi)
    report["middle_exact"] = (len(A) == len(B) - rank_b) and report["psi_after_phi_zero"] and report["phi_injective"]
    report["dims"] = {"inf": len(A), "minus1": len(B), "zero": dim_zero}
    report["exact"] = all(
        report[k] for k in
        ("phi_chain_map", "psi_chain_map", "psi_after_phi_zero",
         "phi_injective", "psi_surjective", "middle_exact")
    )
    return SurgeryTriangle(m_inf, m_m1, m_0, phi, psi, report)


# ---------------------------------------------------------------------------
# split handlebodies


@memo
@_nogc
def handlebody(k: int) -> TypeDModule:
    """The standard genus-k handlebody module: one generator, k chord loops.

    The module sits over the algebra of the reversed split circle (which is
    again the split circle); the occupied idempotent consists of the pairs
    (4j-2, 4j), and the loop across pair p is the strand (p, p + 2) with
    the other pairs held still.
    """
    if k < 1:
        raise CatalogError("k must be >= 1")
    circle = reverse(standard_pmc("split", k))
    alg = algebra_of(circle)
    idem = tuple(4 * j - 2 for j in range(1, k + 1))
    total = AlgebraElement.zero(alg.n)
    for p in idem:
        total = total + alg.expand((((p, p + 2),), tuple(q for q in idem if q != p)))
    return TypeDModule(alg, {"x": idem}, {("x", "x"): total})


# ---------------------------------------------------------------------------
# the identity DD bimodule


@_nogc
def dd_identity(circle: PointedMatchedCircle) -> TypeDDModule:
    """CFDD of the identity cobordism: one doubled-chord term per chord.

    Generators are the complementary idempotent pairs; the arrow from
    (s, s^c) to (s', s'^c) carries, for every chord, the product of the
    chord element on the circle and on its reverse, cut to those corners.
    Each chord element's terms are bucketed once by ``admissible_corner``:
    the bucket (s, s') on the circle pairs with the bucket (s^c, s'^c) on
    the reverse, and no idempotent is multiplied.
    """
    alg1 = algebra_of(circle)
    rev_circle, pimg = pair_map_to_reverse(circle)
    alg2 = algebra_of(rev_circle)
    pairs = circle.pairs
    n = circle.n_points

    complement = {}  # first idempotent of each generator -> its second
    for r in range(0, len(pairs) + 1):
        for s in itertools.combinations(pairs, r):
            complement[s] = tuple(sorted(pimg(p) for p in pairs if p not in s))
    name = {s: _dd_gen_name(s, t) for s, t in complement.items()}
    gens = {name[s]: (s, t) for s, t in complement.items()}

    def buckets(alg, elt):
        out: dict[tuple, list] = {}
        for diag in elt.terms:
            out.setdefault(alg.admissible_corner(diag), []).append(diag)
        return out

    terms: dict[tuple[str, str], set] = {}
    for ch in circle.chords():
        i, j = ch.as_pair()
        by_corner2 = buckets(alg2, alg2.chord_element((n + 1 - j, n + 1 - i)))
        for (s1, s2), diags1 in buckets(alg1, alg1.chord_element((i, j))).items():
            diags2 = by_corner2.get((complement[s1], complement[s2]))
            if diags2:
                terms.setdefault((name[s1], name[s2]), set()).symmetric_difference_update(
                    itertools.product(diags1, diags2))
    delta = {key: TensorElement(alg1.n, alg2.n, tt) for key, tt in terms.items()}

    out = TypeDDModule(alg1, alg2, gens, delta)
    return out.gated("identity bimodule")


def _dd_gen_name(s, t) -> str:
    left = "".join(str(p) for p in s) or "-"
    right = "".join(str(p) for p in t) or "-"
    return f"x[{left}|{right}]"


# ---------------------------------------------------------------------------
# genus-1 Dehn twists: the torus underslides

# The four underslides of the torus circle (1-3, 2-4) are the four Dehn
# twists (``dehn_twist_dd``): each twist's (b1, c1), and each slide letter's twist.
TWIST_SLIDES = {"Tm": (3, 2), "Tm'": (3, 4), "Tl": (2, 1), "Tl'": (2, 3)}
TWIST_NAMES = tuple(TWIST_SLIDES)
_SLIDE_TWISTS = {f"underslide:split:1:{b1}:{c1}": t for t, (b1, c1) in TWIST_SLIDES.items()}
_TWIST_GENERATORS = {((1,), (1,)): "p", ((2,), (2,)): "q", ((2,), (1,)): "r", ((1,), (2,)): "s"}


@memo
@_nogc
def dehn_twist_dd(which: str) -> TypeDDModule:
    """The four torus Dehn-twist DD bimodules (meridian, longitude, inverses).

    Each is the weight-one summand of a torus underslide (``TWIST_SLIDES``;
    a twist is an arc-slide, LOT, arXiv:1010.2550): Tm is 3 over 2, Tm' 3
    over 4, Tl 2 over 1 and Tl' 2 over 3.  Generators are named by
    idempotent pair: p, q, r and s for (1, 1), (2, 2), (2, 1) and (1, 2).
    The first tensor slot is the rho action, the second the sigma action.
    """
    if which not in TWIST_SLIDES:
        raise CatalogError(f"unknown twist {which!r}; use one of {TWIST_NAMES}")
    slide = make_arcslide(standard_pmc("torus"), *TWIST_SLIDES[which])
    summand = underslide_dd(slide).restrict_weight(1)
    out = summand.rename(lambda g: _TWIST_GENERATORS[summand.generators[g]])
    return out.gated(f"twist bimodule {which}")


@memo
def twist_half(which: str) -> BimoduleHalf:
    """A letter's side of ``mor_dd_d`` (``_letter``), prepared once until ``bhf.memo.clear()``.

    Its memos, product records included, grow with the modules paired
    through it and stay bounded: they are keyed by the bimodule's
    generators and its algebra's keys and coefficients.
    """
    _, slide = _letter(which)
    return BimoduleHalf(underslide_dd(slide) if slide else dehn_twist_dd(which))


def twist_inverse(which: str) -> str:
    """The inverse letter; the slide of b1 over c1 is undone by b1 over 2 * b1 - c1."""
    if which in TWIST_NAMES:
        return which[:-1] if which.endswith("'") else which + "'"
    head, b1, c1 = which.rsplit(":", 2)
    return f"{head}:{b1}:{2 * int(b1) - int(c1)}"


# ---------------------------------------------------------------------------
# arc-slides


@dataclass(frozen=True)
class ArcSlide:
    """An arc-slide of the foot b1 over the adjacent foot c1.

    ``point_map`` carries every source point except b1 to its target
    position; the slid foot reappears at ``b1_new`` adjacent to c2, on the
    side making the slide arc reverse orientation.  ``u_interval`` (source)
    and ``u_prime_interval`` (target) are the two slide intervals; all other
    intervals correspond in circle order, which is exactly the support
    constraint satisfied by the slide cobordism's coefficients.
    """

    source: PointedMatchedCircle
    b1: int
    c1: int
    c2: int
    b2: int
    target: PointedMatchedCircle
    kind: str
    b1_new: int
    point_map: tuple[tuple[int, int], ...]
    u_interval: int
    u_prime_interval: int

    def pair_bijection(self):
        """Matched pairs of the source mapped to matched pairs of the target."""
        pmap = dict(self.point_map)
        pmap[self.b1] = self.b1_new
        # a pair is named by its smaller foot, so pmap moves the name's foot
        return {p: self.target.pair_of(pmap[p]) for p in self.source.pairs}


def make_arcslide(circle: PointedMatchedCircle, b1: int, c1: int) -> ArcSlide:
    """Slide the foot b1 over the adjacent foot c1; classifies the kind."""
    n = circle.n_points
    if not (1 <= b1 <= n and 1 <= c1 <= n):
        raise CatalogError(f"feet {b1},{c1} outside 1..{n}")
    if circle.partner(b1) == c1:
        raise SamePair(f"feet {b1} and {c1} belong to the same pair")
    if abs(b1 - c1) != 1:
        raise NotAdjacent(f"feet {b1} and {c1} are not adjacent")
    c2 = circle.partner(c1)
    b2 = circle.partner(b1)

    lo, hi = min(c1, c2), max(c1, c2)
    inner = set(range(lo + 1, hi))
    kind = "underslide" if b1 in inner else "overslide"

    order: list = [p for p in range(1, n + 1) if p != b1]
    at = order.index(c2)  # the slide arc reverses: the new foot is just before c2 if b1 = c1 + 1
    order.insert(at if b1 == c1 + 1 else at + 1, "new")
    point_map = {label: pos for pos, label in enumerate(order, start=1)}
    b1_new = point_map.pop("new")

    pairs = []
    for p in circle.pairs:
        f1, f2 = circle.pair_feet(p)
        if b1 in (f1, f2):
            other = f2 if f1 == b1 else f1
            pairs.append((b1_new, point_map[other]))
        else:
            pairs.append((point_map[f1], point_map[f2]))
    try:
        target = make_pmc(circle.genus, pairs)
    except PMCError as e:
        raise CatalogError(f"arc-slide produced an invalid circle: {e}")

    u = min(b1, c1)
    u_prime = min(b1_new, point_map[c2])
    return ArcSlide(
        source=circle, b1=b1, c1=c1, c2=c2, b2=b2, target=target, kind=kind,
        b1_new=b1_new, point_map=tuple(sorted(point_map.items())),
        u_interval=u, u_prime_interval=u_prime,
    )


def all_underslides(circle: PointedMatchedCircle) -> list[ArcSlide]:
    n = circle.n_points
    slides = (make_arcslide(circle, b1, c1) for b1 in range(1, n + 1) for c1 in (b1 - 1, b1 + 1)
              if 1 <= c1 <= n and circle.partner(b1) != c1)
    return [slide for slide in slides if slide.kind == "underslide"]


# ---------------------------------------------------------------------------
# underslide DD bimodules


def _near_complementary_sets(circle: PointedMatchedCircle, c_pair: int, b_pair: int):
    """All near-complementary (s, t) as subsets of the source pairs."""
    pairs = circle.pairs
    out = []
    for r in range(0, len(pairs) + 1):
        for s in itertools.combinations(pairs, r):
            t = tuple(p for p in pairs if p not in s)
            out.append((s, t))
    others = tuple(p for p in pairs if p not in (c_pair, b_pair))
    for r in range(0, len(others) + 1):
        for extra in itertools.combinations(others, r):
            s = tuple(sorted((c_pair,) + extra))
            t = tuple(sorted((c_pair,) + tuple(p for p in others if p not in extra)))
            out.append((s, t))
    return out


@_nogc
def underslide_dd(slide: ArcSlide) -> TypeDDModule:
    """The DD bimodule of an underslide.

    Generators are the near-complementary idempotent pairs.  Coefficients
    are the near-chords: the irreducible non-idempotent elements of the
    near-diagonal algebra.  Its basis, the candidates, are the pairs of
    basis keys, cut by near-complementary idempotents on both ends,
    whose supports agree away from the two slide intervals; the output must
    pass the structure equation or the construction fails loudly.

    Candidates come from a join on moving strands, since a key's support is
    that of its moving strands: each first-side moving set meets the
    second-side sets of the same restricted support, and the horizontal
    pairs of both sides follow from a choice of first-side horizontal pairs
    and a near-complementary partner of the left idempotent.

    Near-chords come from left factors.  A non-idempotent candidate c is
    reducible exactly when c = n*b for a near-chord n and a non-idempotent
    candidate b: if c = a*b and a is reducible, a = n*r by induction and
    c = n*(r*b), where r*b is a nonzero candidate since the near-diagonal
    algebra is closed under products.  Such an n has the left idempotents
    of c and, since supports add, a smaller support on both sides; taking
    candidates in order of total support, every such n is found before c.
    Given n, the one possible b is read off the strands of c.
    """
    if slide.kind != "underslide":
        raise OverslideUnsupported("only underslide bimodules are computable here")
    Z = slide.source
    Zp = slide.target
    n = Z.n_points
    alg1 = algebra_of(Z)
    rev_zp, zp_to_rev = pair_map_to_reverse(Zp)
    alg2 = algebra_of(rev_zp)

    c_pair = Z.pair_of(slide.c1)
    b_pair = Z.pair_of(slide.b1)

    pair_bij = slide.pair_bijection()  # Z pairs -> Zp pairs
    z_to_rev = {p: zp_to_rev(pair_bij[p]) for p in Z.pairs}

    # sets of pairs as bitmasks, bit p for the pair named p (as in
    # ``SurfaceAlgebra.moving_sets``)
    def mask(pairs):
        return sum(1 << p for p in pairs)

    gens = {}
    gen_lookup = {}
    partners: dict[int, list] = {}  # s -> every t near-complementary to it
    for s, t in _near_complementary_sets(Z, c_pair, b_pair):
        name = _dd_gen_name(s, t)
        gens[name] = (s, tuple(sorted(z_to_rev[p] for p in t)))
        gen_lookup[(mask(s), mask(t))] = name
        partners.setdefault(mask(s), []).append(mask(t))
    # the second side's pairs named by the source pairs they correspond to,
    # and back
    subsets = [c for r in range(len(Z.pairs) + 1) for c in itertools.combinations(Z.pairs, r)]
    to_source = {mask(z_to_rev[p] for p in c): mask(c) for c in subsets}
    pairs2 = {mask(c): tuple(sorted(z_to_rev[p] for p in c)) for c in subsets}

    # Supports packed into integers, a byte per interval.  Per strand of
    # either side: its support away from the slide interval, on bytes in the
    # order the two sides' intervals correspond (interval i of the target
    # circle is interval n - i of its reverse), its whole support, on its
    # own side's bytes, and its length.
    def strand_supports(intervals, side, flip):
        byte = {(n - i if flip else i): j for j, i in enumerate(intervals)}
        return {(s, t): (sum(1 << 8 * byte[i] for i in range(s, t) if i in byte),
                         sum(1 << 8 * (side * (n - 1) + i - 1) for i in range(s, t)), t - s)
                for s in range(1, n) for t in range(s + 1, n + 1)}

    def supports(moving, table):
        """(restricted, whole, total) support of a set of moving strands."""
        restricted = whole = total = 0
        for strand in moving:
            r, w, length = table[strand]
            restricted, whole, total = restricted + r, whole + w, total + length
        return restricted, whole, total

    table1 = strand_supports([i for i in range(1, n) if i != slide.u_interval], 0, False)
    table2 = strand_supports([i for i in range(1, n) if i != slide.u_prime_interval], 1, True)

    # second-side moving sets by restricted support, start pairs and end pairs
    sets2: dict[int, dict[int, dict[int, list]]] = {}
    for m2, starts2, ends2 in alg2.moving_sets(2 * alg2.k):
        restricted, whole, total = supports(m2, table2)
        sets2.setdefault(restricted, {}).setdefault(to_source[starts2], {}).setdefault(
            to_source[ends2], []).append((m2, whole, total))

    # non-idempotent candidate -> (left masks, right masks, whole support,
    # total support).  The second side's horizontal pairs h2 are its left
    # pairs less its start pairs; they must miss its end pairs, and the two
    # together make its right pairs, so the end pairs are right2 less h2.
    candidates: dict[tuple, tuple] = {}
    for m1, s1, e1 in alg1.moving_sets(2 * alg1.k):
        restricted, whole1, total1 = supports(m1, table1)
        matches = sets2.get(restricted)
        if not matches:
            continue
        free = [p for p in Z.pairs if not (s1 | e1) >> p & 1]
        for h1 in (h for r in range(len(free) + 1) for h in itertools.combinations(free, r)):
            hm = mask(h1)
            left1, right1 = s1 | hm, e1 | hm
            for left2 in partners[left1]:
                for s2, by_end in matches.items():
                    if left2 & s2 != s2:
                        continue
                    h2 = left2 & ~s2
                    for right2 in partners[right1]:
                        if right2 & h2 != h2:
                            continue
                        for m2, whole2, total2 in by_end.get(right2 & ~h2, ()):
                            if m1 or m2:
                                candidates[((m1, h1), (m2, pairs2[h2]))] = (
                                    (left1, left2), (right1, right2), whole1 | whole2,
                                    total1 + total2)

    # (left masks, right masks, whole support) of every candidate
    shapes = {info[:3] for info in candidates.values()}

    def factors(c, nc):
        """Whether c = nc * b for a non-idempotent candidate b.

        Such a b starts where nc ends, ends where c ends and has the support
        of c less that of nc; when the support of nc does not fit under that
        of c, some byte of the difference borrows and holds more strands
        than any support.
        """
        (_, nright, nwhole, _), (_, right, whole, _) = candidates[nc], candidates[c]
        if (nright, right, whole - nwhole) not in shapes:
            return False
        (k1, k2), (n1, n2) = c, nc
        b1 = alg1.key_left_quotient(k1, n1)
        return b1 is not None and (b1, alg2.key_left_quotient(k2, n2)) in candidates

    found: dict[tuple, list] = {}  # left masks -> near-chords found so far
    for c in sorted(candidates, key=lambda c: candidates[c][3]):
        bucket = found.setdefault(candidates[c][0], [])
        if not any(factors(c, nc) for nc in bucket):
            bucket.append(c)

    # arrows in the basis order of their first keys, which fixes the order
    # in which later pairings and cancellations meet them
    def basis_order(c):
        (k1, k2), (left, right, _, _) = c, candidates[c]
        return (len(k1[0]) + len(k1[1]), k1, partners[left[0]].index(left[1]),
                partners[right[0]].index(right[1]), k2)

    delta: dict[tuple[str, str], TensorElement] = {}
    for c in sorted((c for bucket in found.values() for c in bucket), key=basis_order):
        (k1, k2), (left, right, _, _) = c, candidates[c]
        term = TensorElement.from_elements(alg1.expand(k1), alg2.expand(k2))
        key = (gen_lookup[left], gen_lookup[right])
        delta[key] = delta.get(key, TensorElement(alg1.n, alg2.n)) + term

    out = TypeDDModule(alg1, alg2, gens, delta)
    return out.gated("underslide bimodule")


# ---------------------------------------------------------------------------
# closed manifolds from words of twists and slides


@_nogc
def apply_twist_word(word, module: TypeDModule) -> TypeDModule:
    """Pair the word's bimodules against the module, rightmost letter first.

    Each letter pairs through its prepared half (``twist_half``), which
    gates the output and is shared by every call in the process; the output
    is reduced through that half's product records.  Every letter is paired
    and gated on every call; ``hf_genus1`` steps named sides through
    ``twist_step`` instead, so there each distinct state is paired and
    gated once per process.
    """
    out = module
    for token in reversed(_twist_tokens(word)):
        half = twist_half(token)
        out = mor_dd_d(half, out).reduce(half.records)
    return out


@memo(maxsize=1024)
def _twisted_torus(name: str, word: tuple[str, ...]) -> TypeDModule:
    """``apply_twist_word(word, _genus1_side(name)[1])``: the first letter
    paired onto the memoized rest of the word.  A registered memo (``bhf.memo``;
    ``memo.clear()`` resets it) that evicts the least recently used state
    past 1,024: well above the 96-111 states of one genus1 bench pass,
    but a state's generators, and their names, grow with its word."""
    rest = _twisted_torus(name, word[1:]) if len(word) > 1 else _genus1_side(name)[1]
    return apply_twist_word(word[:1], rest)


def twist_step(letter: str, key: tuple | None, module: TypeDModule) -> tuple:
    """Pair one letter onto a side of ``hf_genus1``; returns the new (key, module).

    A module that the caller passed has key None and is paired on every
    call.  A named side twisted by a word has key (side name, word) and
    module ``_twisted_torus(*key)``, whose memo both sides and every call
    share.  The side's previous state entered that memo one or two steps
    earlier, so a miss pairs one letter and is gated once, and a hit
    returns the very module that passed its gate.
    """
    if key is None:
        return None, apply_twist_word([letter], module)
    key = (key[0], (letter,) + key[1])
    return key, _twisted_torus(*key)


@_nogc
def hf_genus1(word, left: str | TypeDModule = "h_0", base: str | TypeDModule = "h_0") -> int:
    """Total homology rank of the closed manifold built from a word.

    The letters (``_letter``) act on the ``base`` side, rightmost first,
    and the result is paired against the ``left`` one: the rank of the
    homology of Mor(left, word * base) is returned.  A side is a module, a
    solid torus (``torus_name``) or ``handlebody:<k>``, k <= 3; the sides
    and the letters must share one circle, checked before any pairing.  A
    letter moves across the pairing as its inverse, Mor(L, T * N) ~
    Mor(T^-1 * L, N), so the word is split between the sides: while
    letters remain, the module with fewer generators takes the next one,
    the left module the inverse of the leftmost letter and the base (also
    on a tie) the rightmost letter.  Both sides pair through one
    process-wide half per letter (``twist_half``).  A named side steps
    through ``twist_step``'s registered memo, so each distinct state is
    paired and gated once; a side given as a module is paired every call.

    Pairing with a letter and then its inverse is homotopy equivalent to
    the identity, T * T^-1 * N ~ N, so the word is first freely reduced:
    each letter next to its inverse, in either spelling of a torus letter
    (``_twist_tokens``), is dropped.  No other relation is used, and
    ``apply_twist_word`` still pairs every letter.
    """
    word = _twist_tokens(word)
    (lkey, lm), (bkey, bm) = _genus1_side(left), _genus1_side(base)
    circles = {lm.algebra.circle, bm.algebra.circle} | {_letter(t)[0] for t in set(word)}
    if len(circles) > 1:
        raise CatalogError(f"sides and letters on different circles: {sorted(map(repr, circles))}")
    reduced: list[str] = []
    for token in word:
        if reduced and reduced[-1] == twist_inverse(token):
            reduced.pop()
        else:
            reduced.append(token)
    word = reduced
    i, j = 0, len(word)
    while i < j:
        if len(lm.generators) < len(bm.generators):
            lkey, lm = twist_step(twist_inverse(word[i]), lkey, lm)
            i += 1
        else:
            j -= 1
            bkey, bm = twist_step(word[j], bkey, bm)
    return mor_d_d(lm, bm).homology_rank()


def _genus1_side(which: str | TypeDModule) -> tuple:
    """(key, module) of a side: (side name, ()) for a name, None for a module."""
    if not isinstance(which, str):
        return None, which
    if which.startswith("handlebody:"):
        if which not in [f"handlebody:{k}" for k in range(1, MAX_GENUS + 1)]:
            raise CatalogError(f"unknown side {which!r}; handlebody:<k> takes k = 1, 2 or 3")
        return (which, ()), handlebody(int(which[-1]))
    return (torus_name(which), ()), solid_torus(which)


def _letter(token: str) -> tuple:
    """(circle, slide) of a word letter, slide None for a twist; a slide
    letter is its catalog reference, ``underslide:split:<k>:<b1>:<c1>``,
    k <= 3.  Checked without building a bimodule: an unknown token, an
    overslide or feet that are not adjacent raise ``CatalogError``."""
    if token in TWIST_NAMES:
        return standard_pmc("torus"), None
    found = isinstance(token, str) and re.fullmatch(
        rf"underslide:split:([1-{MAX_GENUS}]):([1-9][0-9]?):([1-9][0-9]?)", token)
    if not found:
        raise CatalogError(f"unknown twist token {token!r}; use {TWIST_NAMES} "
                           "or underslide:split:<k>:<b1>:<c1> with k <= 3")
    slide = make_arcslide(standard_pmc("split", int(found[1])), int(found[2]), int(found[3]))
    if slide.kind != "underslide":
        raise OverslideUnsupported(f"{token!r} is an overslide; only underslides are computable")
    return slide.source, slide


def _twist_tokens(word) -> list[str]:
    """The letters of a word, each checked (``_letter``) before any work is
    done; a torus slide letter is spelled as its twist (``TWIST_SLIDES``), so
    that a genus-1 mapping class has one spelling, bimodule and half."""
    if isinstance(word, str):
        raise CatalogError(f"twist word {word!r} is a string; split it with parse_twist_word")
    tokens = list(word)
    for token in tokens:
        if token not in TWIST_NAMES:
            _letter(token)
    return [_SLIDE_TWISTS.get(token, token) for token in tokens]


def parse_twist_word(text: str) -> list[str]:
    """Parse words like "Tm Tm Tl'" (whitespace separated, trailing ' = inverse)."""
    return _twist_tokens(text.split())
