"""GF(2) linear algebra on bitset vectors, and plain F2 chain complexes.

A vector over F2 is a Python int whose bit i is its i-th coordinate, so
XOR adds vectors; a matrix is a list of such ints (its rows or columns).

An ``F2ChainComplex`` keeps its differential as columns only: the d^2 gate
and ``homology_rank`` read nothing else.  ``homology_representatives``, the
one reader of rows, builds them from the arrows when it is called, so a
caller that asks for the rank alone never pays for them.
"""

from __future__ import annotations


def _bits(v: int):
    """Indices of the set bits of v, ascending."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _insert(basis: dict, v: int) -> int:
    """Reduce v against an echelon basis keyed by lowest set bit.

    A nonzero remainder joins the basis and is returned; 0 means v was
    already in the span.
    """
    while v:
        low = v & -v
        pivot = basis.get(low)
        if pivot is None:
            basis[low] = v
            break
        v ^= pivot
    return v


def gf2_rank(rows) -> int:
    """Rank of the matrix whose rows (or columns) are the given bitsets."""
    basis: dict = {}
    for row in rows:
        _insert(basis, row)
    return len(basis)


def gf2_apply(cols, v: int) -> int:
    """Image of v under the matrix whose j-th column is cols[j]."""
    out = 0
    for j in _bits(v):
        out ^= cols[j]
    return out


class NotAComplex(ValueError):
    pass


class RepeatedNames(ValueError):
    """Two generators of one complex or module share a name."""


class F2ChainComplex:
    """Chain complex of F2 vector spaces given by generators and arrows."""

    def __init__(self, generators, entries):
        self.generators = list(generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise RepeatedNames("repeated generator names")
        acc: set = set()
        for s, t in entries:
            acc ^= {(s, t)}  # arrows are F2 coefficients: duplicates cancel
        self.entries = frozenset(acc)
        # column j of d: the bitset of the generators that generator j maps onto
        self._cols = [0] * len(self.generators)
        for s, t in self.entries:
            if s not in self.index or t not in self.index:
                raise ValueError(f"entry ({s},{t}) uses unknown generator")
            self._cols[self.index[s]] |= 1 << self.index[t]
        self.validate()

    def validate(self):
        for j, col in enumerate(self._cols):
            if square := gf2_apply(self._cols, col):
                a, c = self.generators[j], self.generators[next(_bits(square))]
                raise NotAComplex(f"differential does not square to zero: d^2({a}) contains {c}")

    def homology_rank(self) -> int:
        return len(self.generators) - 2 * gf2_rank(self._cols)

    def homology_representatives(self) -> list[dict]:
        """Cycle representatives of a homology basis, in a deterministic order.

        The kernel basis comes from the reduced row echelon form of d: one
        vector per free column, taken in ascending generator order, equal to
        that generator plus the pivot generators whose rows meet the column.
        Each kernel vector that is independent of the image of d and of the
        vectors picked before it is kept.

        The echelon rows are keyed by their lowest bit, so a row meets only
        higher pivots.  Back-substitution takes the pivots highest first:
        every higher row is then already reduced and holds no pivot but its
        own, so a row is reduced by XORing in just the rows of the pivots it
        holds.  The reduced form is unique, whatever the order of the work.
        """
        rows = [0] * len(self.generators)  # row i of d: the generators that map onto i
        for s, t in self.entries:
            rows[self.index[t]] |= 1 << self.index[s]
        rref: dict = {}
        for row in rows:
            _insert(rref, row)
        pivots = 0
        for p in sorted(rref, reverse=True):
            row = rref[p]
            for q in _bits(row & pivots):
                row ^= rref[1 << q]
            rref[p] = row
            pivots |= p
        free = ((1 << len(self.generators)) - 1) ^ pivots
        kernel = {1 << j: 1 << j for j in _bits(free)}
        for p, row in rref.items():
            for j in _bits(row ^ p):
                kernel[1 << j] |= p
        span: dict = {}
        for col in self._cols:
            _insert(span, col)
        reps = []
        for f in sorted(kernel):
            v = kernel[f]
            if _insert(span, v):
                reps.append({self.generators[i]: 1 for i in _bits(v)})
        return reps

    def __repr__(self):
        return f"F2ChainComplex({len(self.generators)} generators, {len(self.entries)} arrows)"
