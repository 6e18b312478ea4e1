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

from .memo import memo
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


class CFKComplex:
    """Knot Floer complex data: gradings, optional parities, U-differential."""

    def __init__(self, generators, differential, parities=None):
        self.alexander: dict[str, int] = dict(generators)
        self.parities: dict[str, int] | None = dict(parities) if parities else None
        # polynomial differential: (src, dst) -> bitmask
        self.differential: dict[tuple[str, str], int] = {}
        for entry in differential:
            src, m, dst = entry
            key = (src, dst)
            self.differential[key] = self.differential.get(key, 0) ^ (1 << m)
        self.differential = {k: p for k, p in self.differential.items() if p}
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
        return all(
            not (m == 0 and self.alexander[s] == self.alexander[t])
            for (s, m, t) in self.entries()
        )

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


def classify_arrows(complex_: CFKComplex) -> ArrowDecomposition:
    if not complex_.is_reduced():
        raise NotReduced("complex has an entry changing neither grading nor U power")
    A = complex_.alexander
    vert, horiz, diag = [], [], []
    for (s, m, t) in complex_.entries():
        if m == 0:
            vert.append((s, t, A[s] - A[t]))
        elif A[t] - m == A[s]:
            horiz.append((s, t, m))
        else:
            diag.append((s, m, t))
    return ArrowDecomposition(tuple(vert), tuple(horiz), tuple(diag))


# ---------------------------------------------------------------------------
# simplified bases


@dataclass
class SimplifiedBasisReport:
    change_of_basis: dict[str, dict[str, int]]  # new gen -> {old gen: U-power poly}
    xi0: str | None
    eta0: str | None
    substitutions: int = 0


def _simplify_once(A, delta, kind):
    """One shortest-arrow cancellation: the substitution (y, x, t) it made,
    or None when no two arrows of the kind share a head or a tail.

    kind 'v': vertical arrows (constant terms); kind 'h': horizontal arrows
    (grading-homogeneous positive-power terms).
    """

    def arrows():
        out = []
        for (s, t), p in delta.items():
            if kind == "v":
                if p & 1:
                    out.append((s, t, A[s] - A[t]))
            else:
                m = A[t] - A[s]
                if m >= 1 and p & (1 << m):
                    out.append((s, t, m))
        return out

    def sub(y, x, t):
        """Basis change y <- y + U^t x (requires A[x] - t <= A[y])."""
        # rows: d(new y) = d(y) + U^t d(x)
        for (s, z), p in list(delta.items()):
            if s == x:
                key = (y, z)
                q = delta.get(key, 0) ^ (p << t)
                if q:
                    delta[key] = q
                else:
                    delta.pop(key, None)
        # columns: entries into x pick up U^t * (entries into y)
        for (w, z), p in list(delta.items()):
            if z == y:
                key = (w, x)
                q = delta.get(key, 0) ^ (p << t)
                if q:
                    delta[key] = q
                else:
                    delta.pop(key, None)
        return (y, x, t)

    # double heads: two arrows into the same target; the shorter one kills
    # the longer.  Vertical arrows cancel at U^0 (a filtered substitution);
    # horizontal ones need the homogeneous shift by the length difference.
    by_head: dict[str, list] = {}
    for (s, t, l) in arrows():
        by_head.setdefault(t, []).append((l, s))
    for t, incoming in sorted(by_head.items()):
        if len(incoming) < 2:
            continue
        incoming.sort()
        l0, x0 = incoming[0]
        l1, w = incoming[1]
        shift = 0 if kind == "v" else l1 - l0
        return sub(w, x0, shift)
    # double tails: rewrite the shorter arrow's target through the longer's
    by_tail: dict[str, list] = {}
    for (s, t, l) in arrows():
        by_tail.setdefault(s, []).append((l, t))
    for s, outgoing in sorted(by_tail.items()):
        if len(outgoing) < 2:
            continue
        outgoing.sort()
        l0, z0 = outgoing[0]
        l1, z1 = outgoing[1]
        shift = 0 if kind == "v" else l1 - l0
        return sub(z0, z1, shift)
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
        sub = _simplify_once(A, delta, "v") or _simplify_once(A, delta, "h")
        if sub is None:
            break
        # record new y = old y + U^t old x in terms of original basis
        y, x, t = sub
        for g, p in list(change[x].items()):
            change[y][g] = change[y].get(g, 0) ^ (p << t)
            if not change[y][g]:
                del change[y][g]
        total += 1
        if total > cap:
            raise CannotSimplify(
                f"no simplified basis found after {total} substitutions"
            )

    # The loop stops only when no two vertical arrows and no two horizontal
    # arrows share a head or a tail, so the output is simplified.
    out = CFKComplex(A, [(s, m, t) for (s, t), p in delta.items() for m in poly_exponents(p)],
                     parities=complex_.parities)
    arrows = classify_arrows(out)
    v_touched = {s for (s, _, _) in arrows.vertical} | {t for (_, t, _) in arrows.vertical}
    h_touched = {s for (s, _, _) in arrows.horizontal} | {t for (_, t, _) in arrows.horizontal}
    xi_candidates = sorted(g for g in A if g not in v_touched)
    eta_candidates = sorted(g for g in A if g not in h_touched)
    report = SimplifiedBasisReport(
        change_of_basis=change,
        xi0=xi_candidates[0] if xi_candidates else None,
        eta0=eta_candidates[0] if eta_candidates else None,
        substitutions=total,
    )
    return out, report


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


def cfk_to_cfd(complex_: CFKComplex, framing: int) -> TypeDModule:
    """Type D module of the framed knot complement.

    The simplified basis elements become the iota0 generators; each vertical
    or horizontal arrow contributes a chain of iota1 generators, and the
    framing-dependent unstable chain joins the distinguished generators.
    Every output is gated on d^2 = 0 through the process-wide torus records
    (``torus_records``): each coefficient is a sum of the named torus
    elements, so only the product memos are shared and they stay bounded.
    """
    simple, report = simplify_basis(complex_)
    arrows = classify_arrows(simple)
    xi0, eta0 = report.xi0, report.eta0
    if xi0 is None or eta0 is None:
        raise NotSimplified("no distinguished generators; not a knot complex")
    t = tau(simple)

    alg = torus_algebra()
    i0, i1 = (1,), (2,)
    gens: dict[str, tuple[int, ...]] = {g: i0 for g in simple.generators}
    delta: dict[tuple[str, str], AlgebraElement] = {}

    def add(src, dst, name):
        coeff = torus_element(name)
        key = (src, dst)
        cur = delta.get(key)
        delta[key] = coeff if cur is None else cur + coeff

    for idx, (x, z, length) in enumerate(arrows.vertical):
        chain = [f"k{idx}.{j}[{x}>{z}]" for j in range(1, length + 1)]
        for name in chain:
            gens[name] = i1
        add(x, chain[0], "rho1")
        for j in range(1, length):
            add(chain[j], chain[j - 1], "rho23")
        add(z, chain[-1], "rho123")

    for idx, (x, z, length) in enumerate(arrows.horizontal):
        chain = [f"l{idx}.{j}[{x}>{z}]" for j in range(1, length + 1)]
        for name in chain:
            gens[name] = i1
        add(x, chain[0], "rho3")
        for j in range(1, length):
            add(chain[j - 1], chain[j], "rho23")
        add(chain[-1], z, "rho2")

    m = abs(2 * t - framing)
    mus = [f"mu{j}" for j in range(1, m + 1)]
    for name in mus:
        gens[name] = i1
    if framing < 2 * t:
        add(xi0, mus[0], "rho1")
        for j in range(1, m):
            add(mus[j], mus[j - 1], "rho23")
        add(eta0, mus[-1], "rho3")
    elif framing > 2 * t:
        add(xi0, mus[0], "rho123")
        for j in range(1, m):
            add(mus[j - 1], mus[j], "rho23")
        add(mus[-1], eta0, "rho2")
    else:
        add(xi0, eta0, "rho12")

    out = TypeDModule(alg, gens, delta, provenance=f"cfk_to_cfd(framing={framing})")
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
