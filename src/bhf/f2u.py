"""Exact linear algebra over the polynomial ring F2[U].

Polynomials are integer bitmasks: bit m is the coefficient of U^m, so
1 + U^2 is 0b101.  The only unit is 1, which keeps Smith normal forms
canonical without sign or unit bookkeeping.

Free chain complexes carry an optional integer grading per generator in
which U has degree -1; graded complexes must have grading-homogeneous
differentials, which forces every matrix entry to be a monomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .gf2 import F2ChainComplex, NotAComplex


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


def poly_divides(b: int, a: int) -> bool:
    return poly_divmod(a, b)[1] == 0


def poly_unit_part(a: int) -> tuple[int, int]:
    """Split a = U^v * g with g(0) = 1; returns (v, g)."""
    v = poly_valuation(a)
    return v, a >> v


def poly_str(a: int) -> str:
    if a == 0:
        return "0"
    bits = []
    m = 0
    while a:
        if a & 1:
            bits.append("1" if m == 0 else ("U" if m == 1 else f"U^{m}"))
        a >>= 1
        m += 1
    return "+".join(bits)


def poly_from_exponents(exps) -> int:
    out = 0
    for e in exps:
        out ^= 1 << e
    return out


def poly_exponents(a: int) -> list[int]:
    out = []
    m = 0
    while a:
        if a & 1:
            out.append(m)
        a >>= 1
        m += 1
    return out


# ---------------------------------------------------------------------------
# matrices over F2[U]


class _Mat:
    """Mutable dense matrix over F2[U] with optional row/column gradings."""

    def __init__(self, rows: int, cols: int):
        self.m = rows
        self.n = cols
        self.a = [[0] * cols for _ in range(rows)]

    def copy(self):
        out = _Mat(self.m, self.n)
        out.a = [row[:] for row in self.a]
        return out

    def swap_rows(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]

    def swap_cols(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]

    def add_row(self, dst, src, q):
        """row[dst] += q * row[src]"""
        if q == 0:
            return
        rd, rs = self.a[dst], self.a[src]
        for c in range(self.n):
            if rs[c]:
                rd[c] ^= poly_mul(q, rs[c])

    def add_col(self, dst, src, q):
        if q == 0:
            return
        for row in self.a:
            if row[src]:
                row[dst] ^= poly_mul(q, row[src])

    def is_zero(self):
        return all(v == 0 for row in self.a for v in row)

    def mul(self, other: "_Mat") -> "_Mat":
        out = _Mat(self.m, other.n)
        for i in range(self.m):
            for k in range(self.n):
                v = self.a[i][k]
                if v:
                    for j in range(other.n):
                        w = other.a[k][j]
                        if w:
                            out.a[i][j] ^= poly_mul(v, w)
        return out


def smith_normal_form(mat: _Mat, col_gradings=None):
    """Diagonalize over F2[U] with the divisibility chain.

    Pivot rule: minimal degree, ties broken by (row, col) position.  Returns
    (diagonal entries, q_gradings) where q_gradings, when col_gradings is
    given, is the homogeneous grading of each column after the column
    operations.
    """
    A = mat.copy()
    q_gr = list(col_gradings) if col_gradings is not None else None

    def col_swap(i, j):
        A.swap_cols(i, j)
        if q_gr is not None:
            q_gr[i], q_gr[j] = q_gr[j], q_gr[i]

    t = 0
    limit = min(A.m, A.n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, A.m):
            for j in range(t, A.n):
                v = A.a[i][j]
                if v and (best is None or (poly_degree(v), i, j) < best):
                    best = (poly_degree(v), i, j)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            A.swap_rows(pi, t)
        if pj != t:
            col_swap(pj, t)
        # clear row and column t; restart on remainders
        while True:
            dirty = False
            for j in range(t + 1, A.n):
                if A.a[t][j]:
                    q, r = poly_divmod(A.a[t][j], A.a[t][t])
                    A.add_col(j, t, q)
                    if r:
                        col_swap(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            for i in range(t + 1, A.m):
                if A.a[i][t]:
                    q, r = poly_divmod(A.a[i][t], A.a[t][t])
                    A.add_row(i, t, q)
                    if r:
                        A.swap_rows(i, t)
                        dirty = True
                        break
            if not dirty:
                break
        # divisibility chain
        fixed = False
        for i in range(t + 1, A.m):
            for j in range(t + 1, A.n):
                if A.a[i][j] and not poly_divides(A.a[t][t], A.a[i][j]):
                    A.add_row(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1

    diag = [A.a[i][i] for i in range(limit)]
    return diag, q_gr


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

    def __init__(self, generators, differential, gradings=None, check=True):
        self.generators = list(generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise ValueError("repeated generator names")
        self.differential = {}
        for (s, t), p in dict(differential).items():
            if p == 0:
                continue
            if s not in self.index or t not in self.index:
                raise ValueError(f"entry ({s},{t}) uses unknown generator")
            self.differential[(s, t)] = int(p)
        self.gradings = dict(gradings) if gradings is not None else None
        if check:
            self.validate()

    @property
    def graded(self) -> bool:
        return self.gradings is not None

    def matrix(self) -> _Mat:
        n = len(self.generators)
        D = _Mat(n, n)
        for (s, t), p in self.differential.items():
            D.a[self.index[t]][self.index[s]] ^= p
        return D

    def validate(self):
        D = self.matrix()
        if not D.mul(D).is_zero():
            raise NotAComplex("differential does not square to zero over F2[U]")
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


def specialize_u0(complex_: F2UComplex) -> F2ChainComplex:
    """Drop every positive-U-power term of the differential."""
    return complex_.specialize_u0()


def f2u_homology(complex_: F2UComplex) -> F2UDecomposition:
    """Decompose ker d / im d into free and U-torsion summands.

    A free chain complex over the PID F2[U] splits into copies of F2[U] and
    two-term pieces F2[U] --d_i--> F2[U], where d_1, ..., d_r are the
    nonzero invariant factors of the differential D.  So one Smith normal
    form of D gives the whole decomposition: the free rank is n - 2r, and
    each d_i = U^v g with g(0) = 1 adds U-torsion F2[U]/U^v when v >= 1 and
    unit torsion F2[U]/g when g != 1.

    With gradings present every operation is homogeneous and d preserves
    the grading.  The piece of invariant factor U^v in column j has its
    source in grading q_gr[j] and its target, which generates the torsion
    summand, in grading q_gr[j] + v.  The free summands sit in the gradings
    left when all sources and targets are removed from the multiset of
    generator gradings.
    """
    graded = complex_.graded
    col_gr = [complex_.gradings[g] for g in complex_.generators] if graded else None
    diag, q_gr = smith_normal_form(complex_.matrix(), col_gradings=col_gr)
    free_grs = Counter(col_gr or ())
    torsion = []
    torsion_grs = []
    unit_torsion = []
    r = 0
    for j, val in enumerate(diag):
        if val == 0:
            continue
        r += 1
        v, g = poly_unit_part(val)
        if v >= 1:
            torsion.append(v)
            if graded:
                torsion_grs.append((v, q_gr[j] + v))
        if g != 1:
            unit_torsion.append(poly_str(g))
        if graded:
            free_grs[q_gr[j]] -= 1
            free_grs[q_gr[j] + v] -= 1

    return F2UDecomposition(
        free_rank=len(complex_.generators) - 2 * r,
        torsion=tuple(sorted(torsion, reverse=True)),
        free_gradings=tuple(sorted(free_grs.elements(), reverse=True)) if graded else None,
        torsion_gradings=tuple(sorted(torsion_grs, reverse=True)) if graded else None,
        unit_torsion=tuple(sorted(unit_torsion)),
    )
