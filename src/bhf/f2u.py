"""Exact linear algebra over the polynomial ring F2[U].

Polynomials are integer bitmasks: bit m is the coefficient of U^m, so
1 + U^2 is 0b101.  The only unit is 1, which keeps Smith normal forms
canonical without sign or unit bookkeeping.

Free chain complexes carry an optional integer grading per generator in
which U has degree -1; graded complexes must have grading-homogeneous
differentials, which forces every matrix entry to be a monomial.

Homology cancels the unit entries and then takes a sparse Smith form of
the rest (``f2u_homology``); no step builds a dense matrix.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .cancel import _adjacency, _cancel_all
from .gf2 import F2ChainComplex, NotAComplex, RepeatedNames
from .memo import _nogc


class InhomogeneousInput(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers (int bitmasks)


def poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        low = b & -b
        out ^= a << low.bit_length() - 1
        b ^= low
    return out


def poly_degree(a: int) -> int:
    if a == 0:
        raise ValueError("zero polynomial has no degree")
    return a.bit_length() - 1


def poly_valuation(a: int) -> int:
    if a == 0:
        raise ValueError("zero polynomial has no valuation")
    return (a & -a).bit_length() - 1


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError
    q = 0
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        shift = poly_degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def poly_unit_part(a: int) -> tuple[int, int]:
    """Split a = U^v * g with g(0) = 1; returns (v, g)."""
    v = poly_valuation(a)
    return v, a >> v


def poly_str(a: int) -> str:
    if a == 0:
        return "0"
    return "+".join("1" if m == 0 else "U" if m == 1 else f"U^{m}" for m in poly_exponents(a))


def poly_from_exponents(exps) -> int:
    out = 0
    for e in exps:
        out ^= 1 << e
    return out


def poly_exponents(a: int) -> list[int]:
    return [m for m in range(a.bit_length()) if a >> m & 1]


# ---------------------------------------------------------------------------
# sparse Smith normal form


class SparseMatrix(NamedTuple):
    """m x n over F2[U]; ``entries`` maps (row, col) to a nonzero polynomial."""

    m: int
    n: int
    entries: dict


def smith_normal_form(mat: SparseMatrix) -> list[tuple[int, int, int]]:
    """Diagonalize over F2[U]; returns pivots (row, col, entry), no two in
    one row or column, which leave nothing once struck out.

    The pivot is the entry of least degree, from a heap pushed on every
    change and checked again on each pop.  It clears its column by row
    operations, then its row by column operations.  A monomial (graded)
    pivot divides all it meets; otherwise a remainder of smaller degree is
    left, which as the next pivot is a Euclid step.  Lines are added to one
    another and never swapped, so on a homogeneous matrix each row and
    column keeps its grading.
    """
    rows: dict[int, dict] = {}
    cols: dict[int, dict] = {}
    heap = []

    def put(i, j, p):
        if p:
            rows.setdefault(i, {})[j] = cols.setdefault(j, {})[i] = p
            heapq.heappush(heap, (p.bit_length(), i, j))
        else:
            del rows[i][j], cols[j][i]

    for (i, j), p in mat.entries.items():
        put(i, j, p)
    pivots = []
    while heap:
        size, i, j = heapq.heappop(heap)
        p = rows.get(i, {}).get(j)
        if p is None or p.bit_length() != size:
            continue  # stale
        pivot_row = rows[i]
        done = True
        for k, a in list(cols[j].items()):
            if k != i:  # row k -= q * row i
                q, r = poly_divmod(a, p)
                row_k = rows[k]
                for c, b in pivot_row.items():
                    put(k, c, row_k.get(c, 0) ^ poly_mul(q, b))
                done = done and not r
        if done:  # column j holds p alone, so a column operation meets row i only
            for c, a in list(pivot_row.items()):
                if c != j:
                    r = poly_divmod(a, p)[1]
                    put(i, c, r)
                    done = done and not r
        if done:
            pivots.append((i, j, p))
            del rows[i], cols[j]
        else:
            heapq.heappush(heap, (size, i, j))
    return pivots


def _invariant_factors(polys) -> list[int]:
    """The divisibility chain f_1 | f_2 | ... of diag(polys): gcds and lcms
    move each prime power of an entry into place, as in an insertion sort."""
    chain = []
    for g in polys:
        for k, f in enumerate(chain):
            d = poly_gcd(f, g)
            chain[k], g = d, poly_divmod(poly_mul(f, g), d)[0]
        chain.append(g)
    return chain


@dataclass(frozen=True)
class F2UDecomposition:
    """Homology of a free F2[U] complex: free rank plus U-power torsion."""

    free_rank: int
    torsion: tuple[int, ...]  # exponents k for summands F2[U]/U^k, sorted
    free_gradings: tuple[int, ...] | None = None
    torsion_gradings: tuple[tuple[int, int], ...] | None = None  # (exponent, grading)
    unit_torsion: tuple[str, ...] = ()  # summands F2[U]/g with g(0)=1, ungraded only

    def truncated_rank(self, N: int) -> int:
        """F2-dimension of the homology of C/U^N predicted by the decomposition."""
        return self.free_rank * N + sum(2 * min(k, N) for k in self.torsion)


class F2UComplex:
    """Free F2[U] chain complex: named generators, polynomial differential.

    ``differential`` maps (src, dst) to a nonzero bitmask polynomial p,
    meaning that d(src) contains p(U) * dst.  ``gradings`` (optional) maps
    generators to integers; U carries grading -1.
    """

    def __init__(self, generators, differential, gradings=None):
        self.generators = list(generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise RepeatedNames("repeated generator names")
        self.differential = {}
        for (s, t), p in dict(differential).items():
            if p == 0:
                continue
            if s not in self.index or t not in self.index:
                raise ValueError(f"entry ({s},{t}) uses unknown generator")
            self.differential[(s, t)] = int(p)
        self.gradings = dict(gradings) if gradings is not None else None
        self.validate()

    @property
    def graded(self) -> bool:
        return self.gradings is not None

    def validate(self):
        out, _ = _adjacency(self.generators, self.differential)
        square: dict = {}
        for (s, t), p in self.differential.items():
            for u, q in out[t].items():
                square[(s, u)] = square.get((s, u), 0) ^ poly_mul(p, q)
        residual = [k for k, c in square.items() if c]
        if residual:
            s, u = min(residual, key=lambda k: (self.index[k[0]], self.index[k[1]]))
            raise NotAComplex(
                "differential does not square to zero over F2[U]: "
                f"d^2({s}) contains ({poly_str(square[(s, u)])}) {u}"
            )
        if self.graded:
            for (s, t), p in self.differential.items():
                drop = self.gradings[t] - self.gradings[s]
                # homogeneity forces the single monomial U^m with A(t) - m = A(s)
                if drop < 0 or p != (1 << drop):
                    raise InhomogeneousInput(
                        f"entry {s}->{t} = {poly_str(p)} is not grading-homogeneous"
                    )

    def homology(self) -> F2UDecomposition:
        return f2u_homology(self)

    def specialize_u0(self) -> F2ChainComplex:
        """Drop every positive-U-power term of the differential."""
        entries = [(s, t) for (s, t), p in self.differential.items() if p & 1]
        return F2ChainComplex(self.generators, entries)

    def truncate(self, N: int) -> F2ChainComplex:
        """The finite F2 complex C / U^N on generators U^j g, 0 <= j < N."""
        gens = [f"{g}|U{j}" for j in range(N) for g in self.generators]
        entries = []
        for (s, t), p in self.differential.items():
            for m in poly_exponents(p):
                for j in range(N - m):
                    entries.append((f"{s}|U{j}", f"{t}|U{j + m}"))
        return F2ChainComplex(gens, entries)

    def __repr__(self):
        g = "graded, " if self.graded else ""
        return f"F2UComplex({g}{len(self.generators)} generators, {len(self.differential)} entries)"


@_nogc
def f2u_homology(complex_: F2UComplex) -> F2UDecomposition:
    """Decompose ker d / im d into free and U-torsion summands.

    A free chain complex over the PID F2[U] splits into copies of F2[U] and
    pieces F2[U] --d_i--> F2[U], where d_1, ..., d_r are the nonzero entries
    of any diagonal form of the differential.  So the free rank is n - 2r,
    and each d_i = U^v g with g(0) = 1 adds U-torsion F2[U]/U^v when v >= 1;
    the unit parts g are put in invariant-factor form, which does not depend
    on the diagonal form found.

    Each entry equal to 1, the only unit, is cancelled first by the zig-zag
    rule: a change of basis that splits off a piece F2[U] --1--> F2[U] and
    leaves a complex with the same homology.  Each cancelled pair and each
    pivot of the Smith form of what is left counts one to r.

    Gradings: every operation is homogeneous.  A cancelled pair, and a pivot
    U^v with its source (column) in grading q and its target (row), which
    generates the torsion summand, in grading q + v, take both their
    gradings out of the generators' multiset; the free summands sit in the
    gradings left.
    """
    gr = complex_.gradings or {}
    gens, delta = _cancel_all(
        {g: gr.get(g) for g in complex_.generators}, dict(complex_.differential),
        unit=lambda s, t, c: c == 1, mul=poly_mul, add=operator.xor,
    )
    names = list(gens)
    index = {g: k for k, g in enumerate(names)}
    entries = {(index[t], index[s]): p for (s, t), p in delta.items()}
    pivots = smith_normal_form(SparseMatrix(len(names), len(names), entries))
    free_grs = Counter(gens.values())  # gradings are None when ungraded
    torsion, torsion_grs, units = [], [], []
    for i, j, p in pivots:
        v, g = poly_unit_part(p)
        target, source = gens[names[i]], gens[names[j]]
        if v >= 1:
            torsion.append(v)
            torsion_grs.append((v, target))
        if g != 1:
            units.append(g)
        free_grs[target] -= 1
        free_grs[source] -= 1
    graded = complex_.graded
    return F2UDecomposition(
        free_rank=len(names) - 2 * len(pivots),
        torsion=tuple(sorted(torsion, reverse=True)),
        free_gradings=tuple(sorted(free_grs.elements(), reverse=True)) if graded else None,
        torsion_gradings=tuple(sorted(torsion_grs, reverse=True)) if graded else None,
        unit_torsion=tuple(sorted(poly_str(f) for f in _invariant_factors(units) if f != 1)),
    )
