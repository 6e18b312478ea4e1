"""Morphism complexes between type D modules and their pairings.

For two type D modules over the same surface algebra, the morphism complex
has one generator per triple (source generator, corner basis element,
target generator); the differential is the sum of the algebra differential
of the middle coefficient, post-composition with the target module's arrows
and pre-composition with the source module's arrows.

A DD bimodule paired against a type D module leaves a type D module over
the unused algebra.  Two variants exist, both built by ``BimoduleHalf``:

* ``mor_dd_d(B, M)``: morphisms out of the bimodule.  The retained action
  is naturally a right action, so the output is written over the opposite
  algebra, realized as the algebra of the reversed circle.
* ``mor_d_dd(M, B)``: morphisms into the bimodule.  The retained action is
  already a left action and no conversion occurs.

Every builder walks the basis triples once and reads each term of the
differential off ``SurfaceAlgebra.key_d`` and ``key_product`` through the
arrows at the triple's two ends.  The triples come from the algebra's
corner-key table (``SurfaceAlgebra.corner_keys``), which goes with the
algebra.  Arrow coefficients are split into basis keys once per call.
Within one call, each distinct key is named once, each distinct type D
coefficient is decomposed once, and each (generator, key) row of key
products through the generator's arrows is computed once; no such memo
outlives the call unless a prepared half below holds it.

A ``BimoduleHalf`` holds everything that depends on the bimodule alone:
its arrows split into keys, its units and output idempotents, its product
rows, and the product records (``RawProducts``) that gate its outputs.
``mor_dd_d`` and ``mor_d_dd`` build one for their call when given a
bimodule, or take one prepared by the caller; the catalog keeps one per
word letter for the life of the process (``twist_half``), and
``apply_twist_word`` also reduces each output through that half's records;
such halves sit in registered memos, which ``bhf.memo.clear()`` resets.
The type D outputs are verified to square to zero on raw-diagram products
before being returned.

A ``TargetHalf`` does the same for the target of ``mor_d_d`` and
``mor_d_ud``.  ``mor_d_ud`` also takes one prepared by the caller, and the
knot layer keeps one per named pattern for the life of the process
(``knots.pattern_half``); its F2[U] output checks d^2 = 0 as it is built.

``mor_d_d`` returns an ``F2ChainComplex``, whose constructor checks d^2 = 0.
A caller asks it for what it needs: ``homology_rank()`` for the rank of
HF-hat, and ``homology_representatives()`` only where cycles are wanted.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2 import F2ChainComplex, RepeatedNames
from .memo import _nogc
from .f2u import F2UComplex
from .pmc import pair_map_to_reverse
from .strands import AlgebraElement, BasisKey, RawProducts, SurfaceAlgebra, algebra_of, to_opposite
from .dmodules import TypeDModule, TypeDDModule, UTypeDModule


class AlgebraMismatch(ValueError):
    pass


def key_name(key: BasisKey) -> str:
    moving, pairs = key
    bits = [f"{s}>{t}" for s, t in moving] + [f"p{p}" for p in pairs]
    return ".".join(bits) if bits else "idem"


def _mor_basis(alg: SurfaceAlgebra, left, right):
    """Sorted triples (x, key, y), key in the corner I(x) * A * I(y); ``left``
    and ``right`` map generator names to idempotents."""
    out = []
    for x, ix in sorted(left.items()):
        for y, iy in sorted(right.items()):
            out.extend((x, key, y) for key in alg.corner_keys(ix, iy))
    return out


def _keyed_arrows(module, by_target: bool, split=None) -> dict[str, list]:
    """A module's arrows grouped by one end, coefficients split into keys once.

    ``split(coeff)`` yields the (key, tag) pairs of a coefficient, by
    default (key, None) for each of its keys, decomposing each distinct
    coefficient once per call.  Grouped by target the result maps
    dst -> [(src, key, tag)], by source it maps src -> [(dst, key, tag)].
    """
    if split is None:
        alg, keyed = module.algebra, {}

        def split(coeff):
            if coeff not in keyed:
                keyed[coeff] = [(key, None) for key in alg.decompose(coeff)]
            return keyed[coeff]

    out: dict[str, list] = {}
    for (s, t), coeff in module.delta.items():
        end, other = (t, s) if by_target else (s, t)
        row = out.setdefault(end, [])
        row.extend((other, key, tag) for key, tag in split(coeff))
    return out


def _bimodule_split(B: TypeDDModule, side: int, coeff_of):
    """Split DD coefficients into (shared key, coeff_of(other key)) pairs.

    ``coeff_of`` runs once per distinct key of the other side.
    """
    coeffs: dict[BasisKey, AlgebraElement] = {}

    def split(tc):
        for k1, k2 in tc.decompose(B.algebra1, B.algebra2):
            k_shared, k_other = (k1, k2) if side == 1 else (k2, k1)
            if k_other not in coeffs:
                coeffs[k_other] = coeff_of(k_other)
            yield k_shared, coeffs[k_other]

    return split


def _product_rows(alg: SurfaceAlgebra, arrows: dict[str, list], key_first: bool,
                  product=None):
    """The row of (other end, product key, tag) for each (end, key a), memoized.

    ``arrows`` maps an end to its (other end, key c, tag) arrows, as from
    ``_keyed_arrows``; the row holds the keys of a * c when ``key_first``,
    else of c * a, in arrow order.  The memo lives as long as the function.
    ``product`` is ``alg.key_product`` unless the caller memoizes it.
    """
    rows: dict[tuple, list] = {}
    product = product or alg.key_product

    def row(end, a):
        out = rows.get((end, a))
        if out is None:
            out = rows[(end, a)] = [
                (other, k, tag) for other, c, tag in arrows.get(end, ())
                for k in (product(a, c) if key_first else product(c, a))
            ]
        return out

    return row


def _mor_complex(alg: SurfaceAlgebra, left, right, incoming, outgoing, atoms):
    """The basis triples of Mor(left, right), their names, and the differential.

    For each basis triple (x, a, y) the differential has the keys of d(a),
    the row ``outgoing(y, a)`` of a * c over the arrows y -> y2 of the
    target module, and the row ``incoming(x, a)`` of c * a over the arrows
    x1 -> x of the source module (see ``_product_rows``).  A term is tagged
    None for d(a) and with the arrow's tag otherwise; ``atoms(src, tag)``
    gives the hashable atoms of its coefficient.  Atoms are added mod 2
    (``SurfaceAlgebra.key_product`` says why that is exact), and the
    differential maps (src name, dst name) to its nonempty atom set.
    """
    basis = _mor_basis(alg, left, right)
    key_names, names = {}, {}
    for t in basis:
        x, a, y = t
        name = key_names.get(a)
        if name is None:
            name = key_names[a] = key_name(a)
        names[t] = f"{x}|{name}|{y}"
    acc: dict[tuple[str, str], set] = {}

    def add(src, dst, tag):
        acc.setdefault((names[src], names[dst]), set()).symmetric_difference_update(atoms(src, tag))

    for src in basis:
        x, a, y = src
        for k in alg.key_d(a):
            add(src, (x, k, y), None)
        for y2, k, tag in outgoing(y, a):
            add(src, (x, k, y2), tag)
        for x1, k, tag in incoming(x, a):
            add(src, (x1, k, y), tag)
    return basis, names, {k: v for k, v in acc.items() if v}


class TargetHalf:
    """The target's side of ``mor_d_d(M, N)`` or ``mor_d_ud(M, P)``.

    Everything here depends on the target alone: its arrows split into
    (key, U power) pairs (the power is None on a plain type D module), the
    rows of key products through them per (target generator, basis key),
    and a memo of the key products on the source side.  ``pair`` builds the
    Mor complex of one source module against it.  The memos live as long as
    the half; corner keys live with the algebra.
    """

    def __init__(self, N: TypeDModule):
        alg = self.algebra = N.algebra
        self.generators, split = N.generators, None
        if type(N) is UTypeDModule:
            def split(coeff):
                return [(key, m) for m, e in coeff.items() for key in alg.decompose(e)]
        arrows = _keyed_arrows(N, by_target=False, split=split)
        self.rows = _product_rows(alg, arrows, key_first=True)
        self.product = lru_cache(maxsize=None)(alg.key_product)

    def pair(self, M: TypeDModule):
        """Generator names and differential of Mor(M, target); the
        differential maps (src, dst) to the U powers of its terms."""
        if M.algebra != self.algebra:
            raise AlgebraMismatch("modules over different algebras")
        incoming = _product_rows(self.algebra, _keyed_arrows(M, by_target=True),
                                 key_first=False, product=self.product)
        basis, names, diff = _mor_complex(self.algebra, M.generators, self.generators, incoming,
                                          self.rows, lambda src, upower: (upower or 0,))
        return [names[b] for b in basis], diff


@_nogc
def mor_d_d(M: TypeDModule, N: TypeDModule) -> F2ChainComplex:
    """Morphism complex of two type D modules over the same algebra."""
    gens, diff = TargetHalf(N).pair(M)
    return F2ChainComplex(gens, diff)


# ---------------------------------------------------------------------------
# bimodule pairings


class BimoduleHalf:
    """The bimodule's side of ``mor_dd_d`` (B -> M) or ``mor_d_dd`` (M -> B).

    Everything here depends on the bimodule alone: the shared and output
    idempotents, the output algebra and its units, the arrows split into
    keys, a memo of the bimodule-side product rows per (bimodule generator,
    basis key), and ``records``, the raw-product records that gate every
    output (and that a caller may reduce the outputs through).  ``pair``
    pairs one module against it.  Out of B, the unused action survives as a
    right action and is rewritten over the opposite algebra (the reversed
    circle).  The memos live as long as the half, so a caller that pairs
    many modules against one bimodule builds it once and drops it when done.
    """

    def __init__(self, B: TypeDDModule, side: int = 1, into_b: bool = False):
        if side not in (1, 2):
            raise AlgebraMismatch("side must be 1 or 2")
        self.side, self.into_b = side, into_b
        shared, other = (B.algebra1, B.algebra2) if side == 1 else (B.algebra2, B.algebra1)
        self.shared = shared
        self.b_shared = {b: idems[side - 1] for b, idems in B.generators.items()}
        if into_b:
            out_alg, coeff_of = other, other.expand
            b_out = {b: idems[2 - side] for b, idems in B.generators.items()}
        else:
            rev_circle, pair_image = pair_map_to_reverse(other.circle)
            out_alg = algebra_of(rev_circle)

            def coeff_of(k_other):
                return to_opposite(other.expand(k_other), other.circle)

            b_out = {b: tuple(sorted(pair_image(p) for p in idems[2 - side]))
                     for b, idems in B.generators.items()}
        self.out_alg, self.b_out = out_alg, b_out
        self.units = {b: out_alg.idempotent(idem).terms for b, idem in b_out.items()}
        arrows = _keyed_arrows(B, by_target=not into_b,
                               split=_bimodule_split(B, side, coeff_of))
        self.rows = _product_rows(shared, arrows, key_first=into_b)
        self.records = RawProducts()

    def pair(self, M: TypeDModule) -> TypeDModule:
        """Morphisms M -> B or B -> M, a type D module over the unused
        algebra, gated on d^2 = 0.  A term of the differential tagged None
        carries the idempotent of its source triple's bimodule generator;
        any other tag is the term's coefficient."""
        if self.shared != M.algebra:
            raise AlgebraMismatch("bimodule side does not match module algebra")
        m_rows = _product_rows(self.shared, _keyed_arrows(M, by_target=self.into_b),
                               key_first=not self.into_b)
        if self.into_b:
            ends, incoming, outgoing, end = (M.generators, self.b_shared), m_rows, self.rows, 2
        else:
            ends, incoming, outgoing, end = (self.b_shared, M.generators), self.rows, m_rows, 0
        units, out_alg = self.units, self.out_alg

        def atoms(src, coeff):
            return units[src[end]] if coeff is None else coeff.terms

        basis, names, terms = _mor_complex(self.shared, *ends, incoming, outgoing, atoms)
        gens = {names[t]: self.b_out[t[end]] for t in basis}
        if len(gens) < len(basis):
            raise RepeatedNames(f"repeated generator names: {len(basis)} Mor triples take "
                                f"{len(gens)} names; a name with '|' can match another triple's")
        delta = {k: AlgebraElement(out_alg.n, t) for k, t in terms.items()}
        out = TypeDModule(out_alg, gens, delta)
        return out.gated("pairing output", self.records)


def _half(B, side: int, into_b: bool) -> BimoduleHalf:
    """B itself when it is a prepared half for this pairing, else a new one."""
    if not isinstance(B, BimoduleHalf):
        return BimoduleHalf(B, side, into_b)
    if (B.side, B.into_b) != (side, into_b):
        raise AlgebraMismatch(f"bimodule half prepared for side={B.side}, into_b={B.into_b}")
    return B


@_nogc
def mor_dd_d(B: TypeDDModule | BimoduleHalf, M: TypeDModule, side: int = 1) -> TypeDModule:
    """Pair a DD bimodule against a type D module along one action.

    Morphisms B -> M over the algebra on ``side``; the other action
    survives as a right action and is rewritten over the opposite algebra
    (the reversed circle), so the result is again a left type D module.
    ``B`` may be a ``BimoduleHalf(B, side)`` prepared for many modules.
    """
    return _half(B, side, into_b=False).pair(M)


@_nogc
def mor_d_dd(M: TypeDModule, B: TypeDDModule | BimoduleHalf, side: int = 1) -> TypeDModule:
    """Morphisms M -> B over the algebra on ``side`` of the bimodule.

    The unused bimodule action is a left action already, so the output is a
    type D module over that algebra with no opposite-algebra conversion.
    ``B`` may be a ``BimoduleHalf(B, side, into_b=True)``.
    """
    return _half(B, side, into_b=True).pair(M)


@_nogc
def mor_d_ud(M: TypeDModule, P: UTypeDModule | TargetHalf) -> F2UComplex:
    """Morphism complex into a U-weighted type D module, over F2[U].

    ``P`` may be a ``TargetHalf(P)`` prepared for many source modules.
    """
    gens, diff = (P if isinstance(P, TargetHalf) else TargetHalf(P)).pair(M)
    return F2UComplex(gens, {k: sum(1 << m for m in ms) for k, ms in diff.items()})
