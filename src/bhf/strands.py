"""Strand algebras over F2 and the subalgebra attached to a matched circle.

Basis elements of A(n) are upward-veering partial permutations, drawn as
strand diagrams: a strand from s to phi(s) >= s for each s in the support.
The product concatenates diagrams, killing mismatched endpoints and double
crossings; the differential smooths one crossing in all ways that drop the
crossing count by exactly one.

The algebra of a pointed matched circle Z with 4k points sits inside A(4k).
Its canonical basis is indexed by a set of strictly moving strands plus a
set of horizontal matched pairs disjoint from the strand endpoints; such a
key expands to the F2-sum of raw diagrams obtained by placing one horizontal
strand on either foot of each chosen pair.  Elements are F2 sets of raw
diagrams, so equality is bit-exact.

One rule says which raw diagrams occur at all: a diagram is a term of a
basis element exactly when every strand goes up (s <= t) and its starts,
and also its ends, lie on distinct matched pairs of Z
(``SurfaceAlgebra.admissible_corner``).  That element is then unique: its
key is the diagram's moving strands plus the pairs of its horizontal
strands (``key_of``).  Distinct keys have disjoint expansions, so writing
an element in the basis is a lookup of its terms' keys and a count.

Raw products and differentials run through one kernel, ``RawProducts``,
whose memos live as long as the records object that holds them.  The
product of two basis keys is 0 or one key and is read off the keys
(``SurfaceAlgebra.key_product``); raw products, which ``verify_d2`` uses,
check those key products independently.
"""

from __future__ import annotations

import itertools

from .memo import memo
from .pmc import PointedMatchedCircle, Chord

Strand = tuple[int, int]
Diagram = tuple[Strand, ...]  # sorted by start point


class StrandError(ValueError):
    pass


class AmbientMismatch(StrandError):
    pass


class IncompatibleChordSet(StrandError):
    pass


class NotInSpan(StrandError):
    pass


# ---------------------------------------------------------------------------
# raw diagrams


def make_diagram(n: int, strands) -> Diagram:
    """Validate a partial permutation; downward strands are allowed here.

    The nilCoxeter warm-up algebra lives on arbitrary permutations, so the
    raw layer is general; upward-veering is a property of the matched-circle
    basis elements, which only ever produce veering diagrams.
    """
    strands = tuple(sorted(tuple(s) for s in strands))
    starts = [s for s, _ in strands]
    ends = [t for _, t in strands]
    if len(set(starts)) != len(starts) or len(set(ends)) != len(ends):
        raise StrandError(f"repeated endpoint in {strands}")
    for s, t in strands:
        if not (1 <= s <= n and 1 <= t <= n):
            raise StrandError(f"strand ({s},{t}) outside 1..{n}")
    return strands


def _concatenate(a: Diagram, b: Diagram) -> Diagram | None:
    """a then b, which starts at the ends of a; None when two paths s -> t -> u
    cross twice: (s1 - s2)(t1 - t2) < 0 and (t1 - t2)(u1 - u2) < 0.  a is
    sorted by start, so for i < j that is t_j < t_i and u_i < u_j."""
    nxt = dict(b)
    paths = [(t, nxt[t]) for _, t in a]
    for i, (t1, u1) in enumerate(paths):
        for t2, u2 in paths[i + 1:]:
            if t2 < t1 and u1 < u2:
                return None
    return tuple([(s, u) for (s, _), (_, u) in zip(a, paths)])  # still sorted by start


def _smoothings(diag: Diagram) -> tuple[Diagram, ...]:
    """The smoothings of one crossing that drop the crossing count by one:
    swapping the ends of strands i < j with t_j < t_i drops it by one plus
    twice the number of strands between them by start that end in (t_j, t_i)."""
    out = []
    for i, (s1, t1) in enumerate(diag):
        for j in range(i + 1, len(diag)):
            s2, t2 = diag[j]
            if t2 < t1 and not any(t2 < t < t1 for _, t in diag[i + 1:j]):
                out.append(diag[:i] + ((s1, t2),) + diag[i + 1:j] + ((s2, t1),) + diag[j + 1:])
    return tuple(out)


class RawProducts:
    """The raw-product kernel and its memos, which live as long as the
    records object: a lone product or differential makes its own,
    ``verify_d2`` and ``reduce`` make one per call unless given one, and a
    prepared pairing half keeps one for all of its outputs.  It memoizes the
    (sorted ends, term) list and start buckets of each distinct coefficient,
    keyed by its F2 set of diagrams or of diagram pairs (so the two kinds
    never share a key); the composite of each distinct diagram pair; the
    product of each distinct pair of right-hand sets of a tensor; the
    smoothings of each distinct diagram.  ``coefficients`` holds the whole
    products and differentials of module coefficients, which the modules
    fill (``TypeDModule.verify_d2`` and ``reduce``).  A product of two
    diagrams is their concatenation, zero when the ends of the first miss
    the starts of the second or two strands cross twice, which is the
    count rule inv(a b) = inv(a) + inv(b) that the tests check it against."""

    __slots__ = ("_lefts", "_buckets", "_composites", "_seconds", "_smoothings",
                 "coefficients")

    def __init__(self):
        self._lefts, self._buckets, self._composites = {}, {}, {}
        self._seconds, self._smoothings, self.coefficients = {}, {}, {}

    def _left(self, terms, tensor: bool = False) -> list:
        """The (sorted ends, term) list of one coefficient; a tensor one is
        read as terms (left diagram, F2 set of right diagrams)."""
        lefts = self._lefts.get(terms)
        if lefts is None:
            if tensor:
                rights: dict = {}
                for d1, d2 in terms:
                    rights.setdefault(d1, []).append(d2)
                lefts = [(tuple(sorted([t for _, t in d1])), (d1, frozenset(r)))
                         for d1, r in rights.items()]
            else:
                lefts = [(tuple(sorted([t for _, t in d])), d) for d in terms]
            self._lefts[terms] = lefts
        return lefts

    def _right(self, terms, tensor: bool = False) -> dict:
        """The terms of one coefficient (grouped as in ``_left``) by starts."""
        buckets = self._buckets.get(terms)
        if buckets is None:
            buckets = self._buckets[terms] = {}
            for term in [entry for _, entry in self._left(terms, True)] if tensor else terms:
                starts = tuple([s for s, _ in (term[0] if tensor else term)])
                buckets.setdefault(starts, []).append(term)
        return buckets

    def _compose(self, a: Diagram, b: Diagram) -> Diagram | None:
        c = self._composites.get((a, b), self)  # the records are no composite
        if c is self:
            c = self._composites[a, b] = _concatenate(a, b)
        return c

    def mul(self, x, y) -> set:
        """The terms of x * y, for F2 sets of diagrams x and y."""
        buckets, compose, acc = self._right(y), self._compose, set()
        for ends, a in self._left(x):
            for b in buckets.get(ends, ()):
                c = compose(a, b)
                if c is not None:
                    acc ^= {c}
        return acc

    def tensor_mul(self, x, y) -> set:
        """The terms of x * y, for F2 sets of diagram pairs x and y."""
        buckets, seconds, acc = self._right(y, True), self._seconds, set()
        for ends, (a1, a2s) in self._left(x, True):
            for b1, b2s in buckets.get(ends, ()):
                c2s = seconds.get((a2s, b2s))
                if c2s is None:
                    c2s = seconds[a2s, b2s] = self.mul(a2s, b2s)
                c1 = self._compose(a1, b1) if c2s else None
                if c1 is not None:
                    acc.symmetric_difference_update([(c1, c2) for c2 in c2s])
        return acc

    def d(self, terms) -> set:
        """The terms of the differential of an F2 set of diagrams."""
        acc, memo = set(), self._smoothings
        for diag in terms:
            if diag not in memo:
                memo[diag] = _smoothings(diag)
            acc.symmetric_difference_update(memo[diag])
        return acc

    def tensor_d(self, terms) -> set:
        """The terms of the differential of an F2 set of diagram pairs."""
        acc: set = set()
        for _, (a1, a2s) in self._left(terms, True):
            acc.symmetric_difference_update([(s, a2) for s in self.d((a1,)) for a2 in a2s])
            acc.symmetric_difference_update([(a1, s) for s in self.d(a2s)])
        return acc


class AlgebraElement:
    """F2 linear combination of strand diagrams with a common ambient size."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=()):
        self.n = n
        self.terms = frozenset(terms)

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.terms))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise AmbientMismatch(f"ambient sizes {self.n} != {other.n}")
        return AlgebraElement(self.n, self.terms ^ other.terms)

    def __mul__(self, other: "AlgebraElement", records: RawProducts | None = None) -> "AlgebraElement":
        if self.n != other.n:
            raise AmbientMismatch(f"ambient sizes {self.n} != {other.n}")
        return AlgebraElement(self.n, (records or RawProducts()).mul(self.terms, other.terms))

    def d(self, records: RawProducts | None = None) -> "AlgebraElement":
        return AlgebraElement(self.n, (records or RawProducts()).d(self.terms))

    def sorted_terms(self) -> list[Diagram]:
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"0_[A({self.n})]"
        return "+".join("".join(f"({s}>{e})" for s, e in t) for t in self.sorted_terms())


# ---------------------------------------------------------------------------
# the algebra of a pointed matched circle

# key: (moving strands sorted, horizontal pairs by smaller foot sorted)
BasisKey = tuple[tuple[Strand, ...], tuple[int, ...]]


class SurfaceAlgebra:
    """The subalgebra of A(4k) spanned by matched-circle basis elements.

    Summands are indexed by i in [-k, k]; the summand of index i is spanned
    by keys of weight k+i (number of strands in each expanded diagram).
    """

    def __init__(self, circle: PointedMatchedCircle):
        self.circle = circle
        self.n = circle.n_points
        self.k = circle.genus
        self._basis_cache: dict[int, list[BasisKey]] = {}
        self._expand_cache: dict[BasisKey, AlgebraElement] = {}
        self._corners: dict[Diagram, tuple] = {}  # admissible diagram -> its corner
        self._d_cache: dict[BasisKey, tuple[BasisKey, ...]] = {}
        self._corner_table: dict[int, dict[tuple, tuple[BasisKey, ...]]] = {}  # weight -> corners
        self._partner = circle.partners
        self._pair_of = circle.pair_names
        self._pairs = circle.pairs
        # point -> the bit of its pair, and each pair mask met -> its pair names
        self._pair_bit = {i: 1 << self._pairs.index(p) for i, p in self._pair_of.items()}
        self._mask_pairs: dict[int, tuple[int, ...]] = {}

    def __eq__(self, other):
        return isinstance(other, SurfaceAlgebra) and self.circle == other.circle

    def __hash__(self):
        return hash(self.circle)

    def __repr__(self):
        return f"SurfaceAlgebra({self.circle!r})"

    # -- basis bookkeeping

    def moving_sets(self, most: int) -> list[tuple[Diagram, int, int]]:
        """Every admissible set of at most ``most`` moving strands, with the
        pairs under its starts and the pairs under its ends as bitmasks (bit
        p for the pair named p).

        A set grows by strands whose start points lie after its own, and a
        strand is only tried when its start lies on a pair no start of the
        set uses and its end on a pair no end uses, so every set reached is
        admissible.  The search runs on an explicit stack: a recursive
        closure would be a reference cycle, and the list it fills would
        outlive this call until the garbage collector found it.
        """
        pair_of, n = self._pair_of, self.n
        out = []
        stack = [((), 0, 0)]
        while stack:
            moving, start_pairs, end_pairs = found = stack.pop()
            out.append(found)
            if len(moving) == most:
                continue
            for s in range(moving[-1][0] + 1 if moving else 1, n):
                if start_pairs >> pair_of[s] & 1:
                    continue
                for t in range(s + 1, n + 1):
                    if not end_pairs >> pair_of[t] & 1:
                        stack.append((moving + ((s, t),), start_pairs | 1 << pair_of[s],
                                      end_pairs | 1 << pair_of[t]))
        return out

    def basis_keys(self, weight: int) -> list[BasisKey]:
        """All basis keys whose diagrams have the given strand count: an
        admissible set of moving strands plus horizontal pairs chosen from
        the pairs under none of its endpoints."""
        if weight in self._basis_cache:
            return self._basis_cache[weight]
        keys: list[BasisKey] = []
        if 0 <= weight <= 2 * self.k:
            for moving, starts, ends in self.moving_sets(weight):
                free = [p for p in self._pairs if not (starts | ends) >> p & 1]
                keys.extend((moving, pairs)
                            for pairs in itertools.combinations(free, weight - len(moving)))
        keys.sort()
        self._basis_cache[weight] = keys
        return keys

    def summand_basis(self, i: int) -> list[AlgebraElement]:
        """Basis of the summand of index i (weight k+i), expanded."""
        if not -self.k <= i <= self.k:
            raise StrandError(f"summand index {i} outside [-{self.k},{self.k}]")
        return [self.expand(key) for key in self.basis_keys(self.k + i)]

    def dim_summand(self, i: int) -> int:
        return len(self.basis_keys(self.k + i))

    def expand(self, key: BasisKey) -> AlgebraElement:
        """Sum over all placements of one horizontal strand per chosen pair."""
        elt = self._expand_cache.get(key)
        if elt is None:
            moving, pairs = key
            feet = [(p, self._partner[p]) for p in pairs]
            elt = self._expand_cache[key] = AlgebraElement(self.n, [
                tuple(sorted(moving + tuple((f, f) for f in choice)))
                for choice in itertools.product(*feet)])
        return elt

    def admissible_corner(self, diag: Diagram):
        """(pairs under the start points, pairs under the end points), each
        sorted, when diag is a term of some basis element, else None.

        This is the one admissibility rule: the strands are sorted by start
        and go up (s <= t), no matched pair lies under two starts or under
        two ends, and no point lies outside 1..n (it has no pair bit).  One
        pass gathers both sides as pair masks, read off the algebra's table.
        Each admissible diagram's corner is kept in ``_corners``, so it is
        found once per algebra; the table holds only terms of basis
        elements, a finite set, and a diagram that fails is tried again.

        So I(L) * x * I(R) keeps the terms of x with corner (L, R) and drops
        the rest: I(S) sums the horizontal sections of S, a section h times a
        diagram d is d when h's points are d's starts and 0 otherwise, and
        one such section exists exactly when d's starts lie one on each pair
        of S.
        """
        corner = self._corners.get(diag)
        if corner is not None:
            return corner
        bit = self._pair_bit.get
        prev = starts = ends = 0
        for s, t in diag:
            b, c = bit(s, 0), bit(t, 0)
            if not (prev < s <= t and b and c) or starts & b or ends & c:
                return None
            prev, starts, ends = s, starts | b, ends | c
        names = self._mask_pairs  # filled as met: a circle has 2^(2k) masks
        if starts not in names or ends not in names:
            for mask in (starts, ends):
                names[mask] = tuple(p for b, p in enumerate(self._pairs) if mask >> b & 1)
        corner = self._corners[diag] = names[starts], names[ends]
        return corner

    def key_of(self, diag: Diagram) -> BasisKey:
        """The key of the one basis element that has diag as a term."""
        if self.admissible_corner(diag) is None:
            raise NotInSpan(f"diagram {diag} is a term of no basis element")
        pair_of = self._pair_of
        return (tuple(st for st in diag if st[0] != st[1]),
                tuple(sorted(pair_of[s] for s, t in diag if s == t)))

    def decompose(self, element: AlgebraElement) -> list[BasisKey]:
        """Write an A(4k) element in the circle's basis; NotInSpan if impossible.

        Every term lies in the expansion of its own key, and distinct keys
        have disjoint expansions, so the element is the sum of its terms'
        keys exactly when those expansions hold as many terms as it does.
        """
        if element.n != self.n:
            raise AmbientMismatch(f"ambient {element.n} != {self.n}")
        keys = {self.key_of(d) for d in element.terms}
        if sum(len(self.expand(key).terms) for key in keys) != len(element.terms):
            partial = min(k for k in keys if not self.expand(k).terms <= element.terms)
            raise NotInSpan(f"element holds only some placements of basis element {partial}")
        return sorted(keys)

    def contains(self, element: AlgebraElement) -> bool:
        try:
            self.decompose(element)
            return True
        except NotInSpan:
            return False

    # -- distinguished elements

    def idempotent_pairs(self, pairs) -> tuple[int, ...]:
        """Matched pairs, each given by either foot, as sorted pair names."""
        try:
            out = tuple(sorted(self._pair_of[p] for p in pairs))
        except (KeyError, TypeError):
            raise StrandError(f"idempotent {pairs!r} names a point outside 1..{self.n}")
        if len(set(out)) != len(out):
            raise StrandError(f"repeated pair in {out}")
        return out

    def idempotent(self, pairs) -> AlgebraElement:
        """I(s): the sum over all sections of the given set of matched pairs."""
        return self.expand(((), self.idempotent_pairs(pairs)))

    def indecomposable_idempotents(self, weight: int | None = None):
        return [(pairs, self.idempotent(pairs)) for r in range(2 * self.k + 1)
                if weight in (None, r) for pairs in itertools.combinations(self._pairs, r)]

    def unit(self) -> AlgebraElement:
        # distinct idempotents have disjoint terms, so their sum is a union
        return AlgebraElement(self.n, [d for _, idem in self.indecomposable_idempotents()
                                       for d in idem.terms])

    def chord_element(self, chord: Chord | tuple[int, int]) -> AlgebraElement:
        """a(rho): one moving strand plus every admissible horizontal completion."""
        return self.chords_element([chord])

    def chords_element(self, chords) -> AlgebraElement:
        """a(R) for a set of chords, summed over admissible completions."""
        moving = []
        for c in chords:
            s, t = c.as_pair() if isinstance(c, Chord) else tuple(c)
            if s >= t:
                raise IncompatibleChordSet(f"chord ({s},{t}) does not move up")
            moving.append((s, t))
        moving = tuple(sorted(moving))
        corner = self.admissible_corner(moving)
        if corner is None:
            raise IncompatibleChordSet(f"chords {moving} share, match or leave 1..{self.n}")
        used = set(corner[0] + corner[1])
        free = [p for p in self._pairs if p not in used]
        # distinct keys have disjoint expansions, so their sum is a union
        return AlgebraElement(self.n, [d for r in range(len(free) + 1)
                                       for pairs in itertools.combinations(free, r)
                                       for d in self.expand((moving, pairs)).terms])

    # -- structure maps

    def key_left_pairs(self, key: BasisKey) -> tuple[int, ...]:
        moving, pairs = key
        pair_of = self._pair_of
        return tuple(sorted({pair_of[s] for s, _ in moving}.union(pairs)))

    def key_right_pairs(self, key: BasisKey) -> tuple[int, ...]:
        moving, pairs = key
        pair_of = self._pair_of
        return tuple(sorted({pair_of[t] for _, t in moving}.union(pairs)))

    def corner_keys(self, left, right) -> tuple[BasisKey, ...]:
        """Basis keys of the corner I(left) * A * I(right), in basis order.

        ``left`` and ``right`` are idempotents in normal form, tuples of
        sorted pair names as ``TypeDModule`` stores them.  The first lookup
        at a weight files every basis key of that weight under its (left
        pairs, right pairs) in one pass, and the table goes with the algebra.
        """
        table = self._corner_table.get(len(left))
        if table is None:
            table = {}
            for key in self.basis_keys(len(left)):
                table.setdefault((self.key_left_pairs(key), self.key_right_pairs(key)),
                                 []).append(key)
            table = self._corner_table[len(left)] = {c: tuple(keys) for c, keys in table.items()}
        return table.get((left, right), ())

    def key_product(self, k1: BasisKey, k2: BasisKey) -> tuple[BasisKey, ...]:
        """Basis keys of expand(k1) * expand(k2): () or one key, off the keys.

        The product is 0 unless the right pairs of k1 are the left pairs of
        k2.  At each shared pair a moving end of k1 must meet a moving start
        of k2 on the same foot; a horizontal pair meeting a moving strand
        has only one placement that survives, on that strand's foot, and
        extends it; a pair horizontal on both sides stays a horizontal pair
        of the product, summed over its two feet.  The product vanishes when
        two strands cross in both factors.  A horizontal-on-both strand
        never does: it crosses a strand s -> t -> u in the first factor
        when its foot lies in (s, t) and in the second when it lies in
        (t, u).  So the one check below, on the strands that move in either
        factor, decides every placement.

        The expansions of distinct keys are disjoint sets of diagrams, so
        the keys of a sum of products are the mod-2 sum of the products'
        keys, and callers may XOR the returned tuples.
        """
        (moving1, pairs1), (moving2, pairs2) = k1, k2
        if len(moving1) + len(pairs1) != len(moving2) + len(pairs2):
            return ()
        # Both keys have one strand per pair on each side, so with equal
        # weights the right pairs of k1 are the left pairs of k2 when each
        # of them is found on k2 below.
        pair_of = self._pair_of
        starts2 = {pair_of[s]: (s, t) for s, t in moving2}  # pair -> strand
        paths = []  # (start, middle, end) of each composite moving strand
        for s, t in moving1:
            p = pair_of[t]
            if p in pairs2:
                paths.append((s, t, t))
                continue
            strand = starts2.get(p)
            if strand is None or strand[0] != t:
                return ()
            paths.append((s, t, strand[1]))
        pairs = []
        for p in pairs1:
            if p in pairs2:
                pairs.append(p)
                continue
            strand = starts2.get(p)
            if strand is None:
                return ()
            g, u = strand
            paths.append((g, g, u))
        for (s1, t1, u1), (s2, t2, u2) in itertools.combinations(paths, 2):
            if (s1 - s2) * (t1 - t2) < 0 and (t1 - t2) * (u1 - u2) < 0:
                return ()
        return ((tuple(sorted((s, u) for s, _, u in paths)), tuple(pairs)),)

    def key_left_quotient(self, key: BasisKey, a: BasisKey) -> BasisKey | None:
        """The key b with ``key_product(a, b) == (key,)``, or None.

        There is at most one, read strand by strand: each moving strand
        s -> t of a continues to the strand of key that starts at s,
        s -> u with u >= t, so b holds t -> u, or the pair of t horizontal
        when u = t; each horizontal pair of a is horizontal in b when it is
        in key, and otherwise b holds the strand of key that starts on one of
        its feet.  ``key_product`` then confirms the candidate, which fails
        when two strands cross twice, or when key has a strand or a pair
        that a does not reach.
        """
        (moving_k, pairs_k), (moving_a, pairs_a) = key, a
        pair_of = self._pair_of
        end_of = dict(moving_k)  # start -> end of each moving strand of key
        moving, pairs = [], []
        for s, t in moving_a:
            u = end_of.get(s, 0)
            if u < t:
                return None
            if u == t:
                pairs.append(pair_of[t])
            else:
                moving.append((t, u))
        for p in pairs_a:
            if p in pairs_k:
                pairs.append(p)
                continue
            g = p if p in end_of else self._partner[p]
            if g not in end_of:
                return None
            moving.append((g, end_of[g]))
        b = (tuple(sorted(moving)), tuple(sorted(pairs)))
        return b if self.key_product(a, b) == (key,) else None

    def key_d(self, key: BasisKey) -> tuple[BasisKey, ...]:
        """Basis keys of expand(key).d(), computed once per key."""
        keys = self._d_cache.get(key)
        if keys is None:
            de = self.expand(key).d()
            keys = self._d_cache[key] = tuple(self.decompose(de)) if de else ()
        return keys


@memo
def algebra_of(circle: PointedMatchedCircle) -> SurfaceAlgebra:
    return SurfaceAlgebra(circle)


def to_opposite(element: AlgebraElement, circle: PointedMatchedCircle) -> AlgebraElement:
    """Anti-isomorphism onto the algebra of the reversed circle.

    Each strand (s, t) becomes (4k+1-t, 4k+1-s); products reverse order and
    the differential is preserved.
    """
    n = circle.n_points
    if element.n != n:
        raise AmbientMismatch(f"ambient {element.n} != {n}")
    terms = set()
    for diag in element.terms:
        terms.add(tuple(sorted((n + 1 - t, n + 1 - s) for s, t in diag)))
    return AlgebraElement(n, terms)


def drop_w_projection(element: AlgebraElement, circle: PointedMatchedCircle):
    """Project A(Z1 # Z2) onto A(Z1) (x) A(Z2) by killing seam-crossing terms.

    Returns an F2 set of (left, right) diagram pairs: the tensor expansion of
    the image, with right-hand points renumbered to start at 1.
    """
    if circle.seam is None:
        raise StrandError("circle has no recorded seam")
    p = circle.seam
    out: set[tuple[Diagram, Diagram]] = set()
    for diag in element.terms:
        if any(s <= p < t for s, t in diag):
            continue  # crosses the extra basepoint
        left = tuple(s for s in diag if s[1] <= p)
        right = tuple((s - p, t - p) for s, t in diag if s > p)
        out ^= {(left, right)}
    return out


# ---------------------------------------------------------------------------
# the torus algebra by name

TORUS_NAMES = ("iota0", "iota1", "rho1", "rho2", "rho3", "rho12", "rho23", "rho123")

_TORUS_STRANDS = {
    "rho1": (1, 2),
    "rho2": (2, 3),
    "rho3": (3, 4),
    "rho12": (1, 3),
    "rho23": (2, 4),
    "rho123": (1, 4),
}


@memo
def torus_algebra() -> SurfaceAlgebra:
    from .pmc import standard_pmc

    return algebra_of(standard_pmc("torus"))


@memo
def torus_records() -> RawProducts:
    """Raw-product records shared by the gates of torus modules whose coefficients
    sum named elements, so their memos stay bounded; kept until ``bhf.memo.clear()``."""
    return RawProducts()


@memo
def torus_element(name: str) -> AlgebraElement:
    """Named basis of the weight-1 torus summand: iota0, iota1, rho*. """
    alg = torus_algebra()
    if name in ("iota0", "i0"):
        return alg.idempotent([1])
    if name in ("iota1", "i1"):
        return alg.idempotent([2])
    if name in _TORUS_STRANDS:
        return alg.expand(((_TORUS_STRANDS[name],), ()))
    raise StrandError(f"unknown torus element {name!r}")


def torus_element_name(element: AlgebraElement) -> str | None:
    """Inverse of torus_element on the weight-1 basis, else None."""
    for name in TORUS_NAMES:
        if torus_element(name) == element:
            return name
    return None
