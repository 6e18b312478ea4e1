"""Pointed matched circles.

A pointed matched circle is an oriented circle with a basepoint z and 4k
marked points, numbered 1..4k starting just after z, together with a
fixed-point-free matching of the points.  Surgering the circle along every
matched pair must leave a single connected circle; this is what makes the
data describe a once-punctured genus-k surface.

All point-numbering conventions in the package derive from the single choice
made here: points are labeled by the circle orientation starting immediately
after the basepoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .memo import memo


class PMCError(ValueError):
    """Invalid pointed matched circle data."""


class FixedPoint(PMCError):
    pass


class NotInvolution(PMCError):
    pass


class DisconnectedSurgery(PMCError):
    pass


@dataclass(frozen=True)
class Chord:
    """An oriented arc between two marked points, not crossing the basepoint."""

    start: int
    end: int

    def __post_init__(self):
        if not self.start < self.end:
            raise PMCError(f"chord ({self.start},{self.end}) must run forward")

    def as_pair(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class PointedMatchedCircle:
    """Oriented circle with 4k marked points and a fixed-point-free matching.

    ``matching`` maps each point to its partner.  Pairs are canonically named
    by their smaller foot.  ``seam`` is set on connected sums: the index p
    such that the second summand occupies points p+1..4k (where the extra
    basepoint w of the sum would sit).
    """

    genus: int
    matching: tuple[int, ...]  # matching[i-1] = partner of point i
    seam: int | None = field(default=None, compare=False)

    @property
    def n_points(self) -> int:
        return 4 * self.genus

    def partner(self, i: int) -> int:
        return self.matching[i - 1]

    @cached_property
    def partners(self) -> dict[int, int]:
        """Point -> partner, for the points 1..4k."""
        return dict(enumerate(self.matching, 1))

    @cached_property
    def pair_names(self) -> dict[int, int]:
        """Point -> canonical name (smaller foot) of its pair, for 1..4k."""
        return {i: min(i, j) for i, j in self.partners.items()}

    def pair_of(self, i: int) -> int:
        """Canonical name (smaller foot) of the pair containing point i."""
        return self.pair_names[i]

    @cached_property
    def pairs(self) -> tuple[int, ...]:
        """All matched pairs, each named by its smaller foot, in order."""
        return tuple(i for i, j in self.partners.items() if i < j)

    def pair_feet(self, p: int) -> tuple[int, int]:
        return (p, self.partner(p))

    def chords(self) -> list[Chord]:
        n = self.n_points
        return [Chord(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]

    def matching_as_pairs(self) -> list[tuple[int, int]]:
        return [(p, self.partner(p)) for p in self.pairs]

    def __repr__(self):
        body = ",".join(f"{p}-{q}" for p, q in self.matching_as_pairs())
        return f"PMC(k={self.genus};{body})"


def _surgery_cycles(matching: tuple[int, ...]) -> int:
    """Number of circles after surgering every matched pair.

    The traversal is modeled on arcs: arc t runs from point t to point t+1
    (arc 4k wraps through the basepoint).  After reaching a point the
    traversal jumps to its partner and continues.
    """
    n = len(matching)
    succ = [0] * (n + 1)
    for t in range(1, n + 1):
        end = t + 1 if t < n else 1
        succ[t] = matching[end - 1]
    seen = [False] * (n + 1)
    cycles = 0
    for t in range(1, n + 1):
        if seen[t]:
            continue
        cycles += 1
        while not seen[t]:
            seen[t] = True
            t = succ[t]
    return cycles


def make_pmc(genus: int, matching) -> PointedMatchedCircle:
    """Validate matching data and build a canonical pointed matched circle.

    ``matching`` is either a point->partner mapping on 1..4k or an iterable
    of pairs.  Raises FixedPoint, NotInvolution or DisconnectedSurgery, and
    PMCError when the matching has too few or too many points for the genus,
    which is checked before anything is sized by the genus.
    """
    if genus < 1:
        raise PMCError(f"genus must be >= 1, got {genus}")
    if isinstance(matching, dict):
        items = matching.items()
    else:
        items = []
        for pair in matching:
            i, j = pair
            items.append((i, j))
            items.append((j, i))
    n = 4 * genus
    if len(items) != n:
        raise PMCError(f"genus {genus} needs {n} matched points, got {len(items)}")
    table = [0] * n
    for i, j in items:
        if not (1 <= i <= n and 1 <= j <= n):
            raise PMCError(f"point {i}<->{j} outside 1..{n}")
        if i == j:
            raise FixedPoint(f"point {i} matched to itself")
        if table[i - 1] not in (0, j):
            raise NotInvolution(f"point {i} matched to both {table[i - 1]} and {j}")
        table[i - 1] = j
    if any(v == 0 for v in table):
        missing = [i + 1 for i, v in enumerate(table) if v == 0]
        raise NotInvolution(f"points {missing} unmatched")
    for i in range(1, n + 1):
        if table[table[i - 1] - 1] != i:
            raise NotInvolution(f"M(M({i})) = {table[table[i - 1] - 1]} != {i}")
    matching_t = tuple(table)
    cycles = _surgery_cycles(matching_t)
    if cycles != 1:
        raise DisconnectedSurgery(f"surgered circle has {cycles} components")
    return PointedMatchedCircle(genus, matching_t)


@memo
def standard_pmc(kind: str, k: int = 1) -> PointedMatchedCircle:
    """Named families: split(k), antipodal(k), torus (= split(1)).

    A circle is an immutable value, so each is built (and its surgery
    checked) once per process.
    """
    if k < 1:
        raise PMCError(f"k must be >= 1, got {k}")
    if kind == "torus":
        return standard_pmc("split", 1)
    if kind == "split":
        pairs = []
        for i in range(1, k + 1):
            pairs.append((4 * i - 3, 4 * i - 1))
            pairs.append((4 * i - 2, 4 * i))
        return make_pmc(k, pairs)
    if kind == "antipodal":
        return make_pmc(k, [(i, i + 2 * k) for i in range(1, 2 * k + 1)])
    raise PMCError(f"unknown standard circle {kind!r}")


def reverse(circle: PointedMatchedCircle) -> PointedMatchedCircle:
    """Orientation reversal: point i becomes point 4k+1-i."""
    n = circle.n_points
    table = {}
    for i in range(1, n + 1):
        table[n + 1 - i] = n + 1 - circle.partner(i)
    return make_pmc(circle.genus, table)


def pair_map_to_reverse(circle: PointedMatchedCircle):
    """The reversed circle, and the map from pair names (smaller feet) into it."""
    rev = reverse(circle)
    n = circle.n_points
    return rev, lambda p: rev.pair_of(n + 1 - p)


def connected_sum(z1: PointedMatchedCircle, z2: PointedMatchedCircle) -> PointedMatchedCircle:
    """Connected sum: Z1 keeps points 1..4k1, Z2 is shifted past the seam."""
    shift = z1.n_points
    table = {i: z1.partner(i) for i in range(1, shift + 1)}
    for i in range(1, z2.n_points + 1):
        table[i + shift] = z2.partner(i) + shift
    out = make_pmc(z1.genus + z2.genus, table)
    return PointedMatchedCircle(out.genus, out.matching, seam=shift)
