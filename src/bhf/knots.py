"""Knot Floer complexes over F2[U] and their derived invariants.

A complex is a finite set of generators with integer Alexander gradings
(and optional Maslov parities) plus differential entries src -> U^m dst
subject to the filtration inequality A(dst) - m <= A(src).  In the plane
picture an entry is vertical when m = 0, horizontal when A(dst) - m =
A(src) with m >= 1, and diagonal otherwise.

The associated graded complex keeps exactly the grading-homogeneous
entries; its graded homology over F2[U] yields tau.  A filtered change of
basis making the complex both horizontally and vertically simplified feeds
the translation to a type D module over the torus algebra, and pairing
that module against a U-weighted pattern module computes satellites.  A
named pattern's side of that pairing is prepared once per process
(``pattern_half``), so a sweep over companions or framings pays only for
each companion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memo import _nogc, memo
from .f2u import F2UComplex, poly_exponents
from .strands import AlgebraElement, torus_algebra, torus_element, torus_records
from .dmodules import TypeDModule, UTypeDModule
from .pairing import TargetHalf, mor_d_ud


class CFKError(ValueError):
    pass


class FiltrationViolation(CFKError):
    pass


class ParityViolation(CFKError):
    pass


class ParityMissing(CFKError):
    pass


class NotSymmetric(CFKError):
    pass


class NotReduced(CFKError):
    pass


class NotSimplified(CFKError):
    pass


class CannotSimplify(CFKError):
    pass


# One bound on the sizes a knot input controls: each U power of a complex,
# and the chain generators of its translated module (arrow lengths plus
# |framing - 2 tau|).  A power is stored as a bit and a chain generator costs
# about 4 KB, so inputs far past it would exhaust memory before failing.
BUDGET = 10_000


class OverBudget(CFKError):
    """An input size over ``BUDGET``, refused before any work on it."""


def _add(polys, key, p):
    """polys[key] += p over F2[U], dropping the entry when it becomes zero."""
    q = polys.get(key, 0) ^ p
    if q:
        polys[key] = q
    else:
        polys.pop(key, None)


class CFKComplex:
    """Knot Floer complex data: gradings, optional parities, U-differential."""

    def __init__(self, generators, differential, parities=None):
        self.alexander: dict[str, int] = dict(generators)
        self.parities: dict[str, int] | None = dict(parities) if parities else None
        # polynomial differential: (src, dst) -> bitmask
        self.differential: dict[tuple[str, str], int] = {}
        for src, m, dst in differential:
            if m > BUDGET:
                raise OverBudget(f"entry {src} -> U^{m} {dst}: U power over the budget "
                                 f"of {BUDGET:,}")
            _add(self.differential, (src, dst), 1 << m)
        self.validate()

    @property
    def generators(self):
        return sorted(self.alexander)

    def entries(self):
        """Flat list of (src, m, dst), sorted."""
        out = []
        for (s, t), p in self.differential.items():
            for m in poly_exponents(p):
                out.append((s, m, t))
        return sorted(out)

    def validate(self):
        for (s, t), p in self.differential.items():
            if s not in self.alexander or t not in self.alexander:
                raise CFKError(f"entry ({s},{t}) uses unknown generator")
            for m in poly_exponents(p):
                if self.alexander[t] - m > self.alexander[s]:
                    raise FiltrationViolation(
                        f"entry {s} -> U^{m} {t} raises the Alexander filtration"
                    )
            if self.parities is not None:
                if self.parities[s] not in (1, -1) or self.parities[t] not in (1, -1):
                    raise ParityViolation("parities must be +1 or -1")
                if self.parities[s] == self.parities[t]:
                    raise ParityViolation(f"entry {s} -> {t} joins equal parities")
        F2UComplex(self.generators, self.differential)  # NotAComplex on d^2 != 0

    def is_reduced(self) -> bool:
        """No vertical arrow of length 0 (an entry changing neither grading nor U power)."""
        return all(length for kind, _, length in _arrows(self.alexander, self.differential)
                   if kind == "v")

    def associated_graded(self) -> F2UComplex:
        """Keep exactly the grading-homogeneous part of the differential."""
        diff = {}
        for (s, t), p in self.differential.items():
            m = self.alexander[t] - self.alexander[s]
            if m >= 0 and p & (1 << m):
                diff[(s, t)] = 1 << m
        return F2UComplex(self.generators, diff, gradings=dict(self.alexander))

    def __repr__(self):
        return f"CFKComplex({len(self.alexander)} generators, {len(self.entries())} entries)"


# ---------------------------------------------------------------------------
# arrow classification


@dataclass(frozen=True)
class ArrowDecomposition:
    vertical: tuple[tuple[str, str, int], ...]    # (src, dst, length), m = 0
    horizontal: tuple[tuple[str, str, int], ...]  # (src, dst, length), length = m
    diagonal: tuple[tuple[str, int, str], ...]    # raw remaining entries


def _arrows(A, differential):
    """Yield (kind, entry, length) for each vertical and each horizontal
    arrow of a differential {(src, dst): U-power poly}, entry being the term
    (src, m, dst).  A vertical arrow (kind "v") is a constant term, of length
    A(src) - A(dst); a horizontal one (kind "h") is a term U^m with m >= 1
    and A(dst) - m = A(src), of length m."""
    for (s, t), p in differential.items():
        if p & 1:
            yield "v", (s, 0, t), A[s] - A[t]
        m = A[t] - A[s]
        if m >= 1 and p >> m & 1:
            yield "h", (s, m, t), m


def classify_arrows(complex_: CFKComplex) -> ArrowDecomposition:
    if not complex_.is_reduced():
        raise NotReduced("complex has an entry changing neither grading nor U power")
    arrows = {entry: (kind, length)
              for kind, entry, length in _arrows(complex_.alexander, complex_.differential)}
    out = {"v": [], "h": [], None: []}
    for entry in complex_.entries():
        kind, length = arrows.get(entry, (None, None))
        out[kind].append(entry if kind is None else (entry[0], entry[2], length))
    return ArrowDecomposition(tuple(out["v"]), tuple(out["h"]), tuple(out[None]))


# ---------------------------------------------------------------------------
# simplified bases


@dataclass
class SimplifiedBasisReport:
    change_of_basis: dict[str, dict[str, int]]  # new gen -> {old gen: U-power poly}
    xi0: str | None
    eta0: str | None
    substitutions: int = 0


def _substitute(delta, y, x, t):
    """Basis change y <- y + U^t x (requires A[x] - t <= A[y])."""
    # rows: d(new y) = d(y) + U^t d(x)
    for (s, z), p in list(delta.items()):
        if s == x:
            _add(delta, (y, z), p << t)
    # columns: entries into x pick up U^t * (entries into y)
    for (w, z), p in list(delta.items()):
        if z == y:
            _add(delta, (w, x), p << t)


def _double(arrows, kind):
    """The substitution (y, x, t) that cancels the shortest arrow of a
    double head, else of a double tail, among arrows (src, dst, length) of
    one kind; None when their heads and their tails are all distinct.

    At a double head the shorter arrow kills the longer; at a double tail
    the shorter arrow's target is rewritten through the longer's.  Vertical
    arrows cancel at U^0 (a filtered substitution); horizontal ones need the
    homogeneous shift by the length difference.
    """
    for end in (1, 0):  # heads, then tails
        by_end: dict[str, list] = {}
        for arrow in arrows:
            by_end.setdefault(arrow[end], []).append((arrow[2], arrow[1 - end]))
        for _, group in sorted(by_end.items()):
            if len(group) < 2:
                continue
            group.sort()
            (l0, a), (l1, b) = group[:2]
            shift = 0 if kind == "v" else l1 - l0
            return (b, a, shift) if end == 1 else (a, b, shift)
    return None


def simplify_basis(complex_: CFKComplex):
    """Filtered change of basis toward a horizontally and vertically
    simplified model; explicit failure instead of a silent partial result."""
    if not complex_.is_reduced():
        raise NotReduced("simplify_basis expects a reduced complex")
    A = dict(complex_.alexander)
    delta = dict(complex_.differential)
    change: dict[str, dict[str, int]] = {g: {g: 1} for g in A}
    total = 0
    cap = 50 * (len(A) + 2) ** 2
    while True:
        arrows = {"v": [], "h": []}
        for kind, (s, _, t), length in _arrows(A, delta):
            arrows[kind].append((s, t, length))
        sub = _double(arrows["v"], "v") or _double(arrows["h"], "h")
        if sub is None:
            break
        y, x, t = sub
        _substitute(delta, y, x, t)
        # record new y = old y + U^t old x in terms of original basis
        for g, p in list(change[x].items()):
            _add(change[y], g, p << t)
        total += 1
        if total > cap:
            raise CannotSimplify(
                f"no simplified basis found after {total} substitutions"
            )

    # The loop stops only when no two vertical arrows and no two horizontal
    # arrows share a head or a tail, so the output is simplified.
    # xi0 (eta0) is the least generator on no vertical (horizontal) arrow.
    out = CFKComplex(A, [(s, m, t) for (s, t), p in delta.items() for m in poly_exponents(p)],
                     parities=complex_.parities)
    touched = {kind: {g for s, t, _ in arrows[kind] for g in (s, t)} for kind in "vh"}
    xi0, eta0 = (min((g for g in A if g not in touched[kind]), default=None) for kind in "vh")
    return out, SimplifiedBasisReport(change, xi0, eta0, total)


# ---------------------------------------------------------------------------
# tau and the Alexander polynomial


def tau(complex_: CFKComplex) -> int:
    """Minus the top Alexander grading with U-non-torsion graded homology."""
    dec = complex_.associated_graded().homology()
    if dec.free_rank == 0 or not dec.free_gradings:
        raise CFKError("graded homology has no free part; not a knot complex")
    return -max(dec.free_gradings)


def alexander_polynomial(complex_: CFKComplex) -> dict[int, int]:
    """Graded Euler characteristic, normalized symmetric with value 1 at T=1.

    Returned as {exponent: coefficient} over the integers.
    """
    if complex_.parities is None:
        raise ParityMissing("Alexander polynomial needs Maslov parities")
    chi: dict[int, int] = {}
    for g, s in complex_.alexander.items():
        chi[s] = chi.get(s, 0) + complex_.parities[g]
    chi = {s: c for s, c in chi.items() if c}
    if any(chi.get(s, 0) != chi.get(-s, 0) for s in chi):
        raise NotSymmetric(f"Euler characteristic {chi} is not symmetric under s -> -s")
    at_one = sum(chi.values())
    if at_one == 1:
        return chi
    if at_one == -1:
        return {s: -c for s, c in chi.items()}
    raise NotSymmetric(f"total Euler characteristic {at_one} cannot be normalized to 1")


def alexander_polynomial_str(poly: dict[int, int]) -> str:
    if not poly:
        return "0"
    bits = []
    for s in sorted(poly, reverse=True):
        c = poly[s]
        mag = "" if abs(c) == 1 else str(abs(c))
        if s == 0:
            term = str(abs(c))
        elif s == 1:
            term = f"{mag}T"
        elif s == -1:
            term = f"{mag}T^-1"
        else:
            term = f"{mag}T^{s}"
        bits.append(("-" if c < 0 else "+") + term)
    out = "".join(bits)
    return out[1:] if out.startswith("+") else out


# ---------------------------------------------------------------------------
# the translation to a torus-algebra type D module


@_nogc
def cfk_to_cfd(complex_: CFKComplex, framing: int) -> TypeDModule:
    """Type D module of the framed knot complement.

    The simplified basis elements become the iota0 generators; each vertical
    or horizontal arrow contributes a chain of iota1 generators, and the
    framing-dependent unstable chain joins the distinguished generators.
    Every output is gated on d^2 = 0 through the process-wide torus records
    (``torus_records``): each coefficient is a sum of the named torus
    elements, so only the product memos are shared and they stay bounded.
    A module with more than ``BUDGET`` chain generators raises ``OverBudget``
    before any chain is built.
    """
    simple, report = simplify_basis(complex_)
    arrows = classify_arrows(simple)
    xi0, eta0 = report.xi0, report.eta0
    if xi0 is None or eta0 is None:
        raise NotSimplified("no distinguished generators; not a knot complex")
    t = tau(simple)
    chains = sum(length for _, _, length in arrows.vertical + arrows.horizontal)
    m = abs(2 * t - framing)
    if chains + m > BUDGET:
        raise OverBudget(f"{chains + m:,} chain generators ({chains:,} for the arrows, {m:,} for "
                         f"framing {framing}), over the budget of {BUDGET:,}")

    alg = torus_algebra()
    i0, i1 = (1,), (2,)
    gens: dict[str, tuple[int, ...]] = {g: i0 for g in simple.generators}
    delta: dict[tuple[str, str], AlgebraElement] = {}

    def add(src, dst, name):
        coeff = torus_element(name)
        key = (src, dst)
        cur = delta.get(key)
        delta[key] = coeff if cur is None else cur + coeff

    def chain(prefix, suffix, length, start, first, end, last, backward):
        """iota1 generators prefix<j>suffix, j = 1..length, joined by rho23
        arrows: start -first-> the first, and the last -last-> end, or end
        -last-> the last when the chain runs backward (its rho23 arrows from
        each generator to the one before).  A name in use is refused."""
        names = [f"{prefix}{j}{suffix}" for j in range(1, length + 1)]
        for name in names:
            if name in gens:
                raise CFKError(f"generator name {name!r} is reserved for a chain of the "
                               f"translated module")
            gens[name] = i1
        add(start, names[0], first)
        for a, b in zip(names, names[1:]):
            add(*((b, a) if backward else (a, b)), "rho23")
        add(*((end, names[-1]) if backward else (names[-1], end)), last)

    for idx, (x, z, length) in enumerate(arrows.vertical):
        chain(f"k{idx}.", f"[{x}>{z}]", length, x, "rho1", z, "rho123", backward=True)
    for idx, (x, z, length) in enumerate(arrows.horizontal):
        chain(f"l{idx}.", f"[{x}>{z}]", length, x, "rho3", z, "rho2", backward=False)
    if framing < 2 * t:
        chain("mu", "", m, xi0, "rho1", eta0, "rho3", backward=True)
    elif framing > 2 * t:
        chain("mu", "", m, xi0, "rho123", eta0, "rho2", backward=False)
    else:
        add(xi0, eta0, "rho12")

    out = TypeDModule(alg, gens, delta)
    return out.gated("translated module", torus_records())


# ---------------------------------------------------------------------------
# built-in complexes and patterns


def unknot_cfk() -> CFKComplex:
    return CFKComplex({"u": 0}, [], parities={"u": 1})


def trefoil_cfk() -> CFKComplex:
    """The left-handed trefoil: d(a) = b, d(c) = U b."""
    return CFKComplex(
        {"a": 1, "b": 0, "c": -1},
        [("a", 0, "b"), ("c", 1, "b")],
        parities={"a": 1, "b": -1, "c": 1},
    )


def figure8_cfk() -> CFKComplex:
    """The figure-eight knot: d(a) = Ub + c = d(e), d(b) = d, d(c) = Ud."""
    return CFKComplex(
        {"a": 0, "b": 1, "c": -1, "d": 0, "e": 0},
        [("a", 1, "b"), ("a", 0, "c"), ("b", 0, "d"), ("c", 1, "d"),
         ("e", 1, "b"), ("e", 0, "c")],
        parities={"a": 1, "b": -1, "c": -1, "d": 1, "e": 1},
    )


def staircase_cfk(steps) -> CFKComplex:
    """Vertical arrows x_i -> x_{i+1} (even i), horizontal x_{i+1} -> U^step
    x_i (odd i); [1] * 2k is the left-handed T(2, 2k + 1), [1, 1] the trefoil."""
    top = sum(steps) // 2
    alexander, parities, entries = {}, {}, []
    for i in range(len(steps) + 1):
        alexander[f"x{i}"] = top - sum(steps[:i])
        parities[f"x{i}"] = 1 if i % 2 == 0 else -1
    for i, step in enumerate(steps):
        if i % 2 == 0:
            entries.append((f"x{i}", 0, f"x{i + 1}"))
        else:
            entries.append((f"x{i + 1}", step, f"x{i}"))
    return CFKComplex(alexander, entries, parities=parities)


def cable21_pattern() -> UTypeDModule:
    """U-weighted type D module of the (2,1)-cable pattern in the solid torus."""
    alg = torus_algebra()
    i0, i1 = (1,), (2,)
    gens = {"x": i1, "y1": i0, "y2": i0}
    delta = {
        ("x", "x"): {2: torus_element("rho23")},
        ("y1", "y2"): {1: torus_element("iota0")},
        ("y1", "x"): {0: torus_element("rho1")},
        ("y2", "x"): {1: torus_element("rho123")},
    }
    return UTypeDModule(alg, gens, delta).gated("pattern module")


PATTERNS = {"cable21": cable21_pattern}


@memo
def pattern_half(name: str) -> TargetHalf:
    """The named pattern's side of ``mor_d_ud``, prepared once until ``bhf.memo.clear()``.

    Building it builds and gates the pattern once.  Its memos grow with the
    companions paired against it and stay bounded: they are keyed by the
    pattern's generators and the torus algebra's keys.  An unknown name
    raises ``CFKError`` and is not cached.
    """
    try:
        build = PATTERNS[name]
    except KeyError:
        raise CFKError(f"unknown pattern {name!r}; have {sorted(PATTERNS)}")
    return TargetHalf(build())


@dataclass
class SatelliteResult:
    mor_complex: F2UComplex
    decomposition: object
    u0_rank: int


@_nogc
def satellite(pattern: UTypeDModule | str, companion: CFKComplex, framing: int) -> SatelliteResult:
    """Pair the companion's framed complement module against a pattern module.

    A pattern given by name pairs through its process-wide half
    (``pattern_half``), so each call pays only for the companion: its
    translation and gate, the Mor complex and its homology.  A pattern
    given as a module is paired through a new half on every call.
    """
    if isinstance(pattern, str):
        pattern = pattern_half(pattern)
    mor = mor_d_ud(cfk_to_cfd(companion, framing), pattern)
    dec = mor.homology()
    u0 = mor.specialize_u0().homology_rank()
    return SatelliteResult(mor, dec, u0)
