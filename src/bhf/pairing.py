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
arrows at the triple's two ends.  What depends on the algebra alone is
kept with the algebra, for its life: the triples come from its corner-key
table (``SurfaceAlgebra.corner_keys``), each distinct type D coefficient is
decomposed once (``SurfaceAlgebra.coefficient_keys``), and each key's name
and each key product met are filed in its tables.  What depends on one
module is kept by a prepared half: each (generator, key) row of key
products through the generator's arrows is computed once per half, and a
module passed in place of a half gets one for the call.

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

A ``TargetHalf`` does the same for a type D module: its rows as the
target of ``mor_d_d``, ``mor_d_ud`` and ``mor_dd_d``, and as the source of
``mor_d_d`` and ``mor_d_dd``.  Every builder takes one prepared by the
caller in place of the module.  The catalog keeps one per named genus-1
side and per twisted state (``catalog._side_half``), so ``hf_genus1``
pairs each letter onto a state's prepared rows and pairs two prepared
states at the end; the knot layer keeps one per named pattern for the life
of the process (``knots.pattern_half``), whose F2[U] output checks
d^2 = 0 as it is built.

``mor_d_d`` returns an ``F2ChainComplex``, whose constructor checks d^2 = 0.
A caller asks it for what it needs: ``homology_rank()`` for the rank of
HF-hat, and ``homology_representatives()`` only where cycles are wanted.
"""

from __future__ import annotations

from functools import cached_property

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
    out, right = [], sorted(right.items())
    for x, ix in sorted(left.items()):
        for y, iy in right:
            for key in alg.corner_keys(ix, iy):
                out.append((x, key, y))
    return out


def _keyed_arrows(module, by_target: bool, split) -> dict[str, list]:
    """A module's arrows grouped by one end, coefficients split into keys.

    ``split(coeff)`` yields the (key, tag) pairs of a coefficient.  Grouped
    by target the result maps dst -> [(src, key, tag)], by source it maps
    src -> [(dst, key, tag)].
    """
    out: dict[str, list] = {}
    for (s, t), coeff in module.delta.items():
        end, other = (t, s) if by_target else (s, t)
        row = out.setdefault(end, [])
        row.extend((other, key, tag) for key, tag in split(coeff))
    return out


def _bimodule_split(B: TypeDDModule, side: int, coeff_of):
    """Split DD coefficients into (shared key, terms of coeff_of(other key))
    pairs.

    ``coeff_of`` runs once per distinct key of the other side.
    """
    coeffs: dict[BasisKey, frozenset] = {}

    def split(tc):
        for k1, k2 in tc.decompose(B.algebra1, B.algebra2):
            k_shared, k_other = (k1, k2) if side == 1 else (k2, k1)
            if k_other not in coeffs:
                coeffs[k_other] = coeff_of(k_other).terms
            yield k_shared, coeffs[k_other]

    return split


def _product_rows(alg: SurfaceAlgebra, arrows: dict[str, list], key_first: bool):
    """The row of (other end, product key, tag) for each (end, key a), memoized.

    ``arrows`` maps an end to its (other end, key c, tag) arrows, as from
    ``_keyed_arrows``; the row holds the keys of a * c when ``key_first``,
    else of c * a, in arrow order.  The memo lives as long as the function;
    each key product is read off the algebra's table, which keeps it for
    the life of the algebra.
    """
    rows: dict[tuple, tuple] = {}
    products, product = alg._key_products, alg.key_product

    def row(end, a):
        out = rows.get((end, a))
        if out is None:
            out = []
            for other, c, tag in arrows.get(end, ()):
                pair = (a, c) if key_first else (c, a)
                keys = products.get(pair)
                if keys is None:
                    keys = products[pair] = product(*pair)
                out.extend([(other, k, tag) for k in keys])
            out = rows[(end, a)] = tuple(out)  # most rows are empty, and share ()
        return out

    return row


def _mor_complex(alg: SurfaceAlgebra, left, right, incoming, outgoing, unit):
    """The basis triples of Mor(left, right), their names, and the differential.

    For each basis triple (x, a, y) the differential has the keys of d(a),
    the row ``outgoing(y, a)`` of a * c over the arrows y -> y2 of the
    target module, and the row ``incoming(x, a)`` of c * a over the arrows
    x1 -> x of the source module (see ``_product_rows``).  A term's tag is
    the arrow's, and a tag is the hashable atoms of the term's coefficient,
    or None for a unit coefficient, whose atoms ``unit(src)`` gives; the
    terms of d(a) have unit coefficients.  Atoms are added mod 2
    (``SurfaceAlgebra.key_product`` says why that is exact), and the
    differential maps (src name, dst name) to its nonempty atom set.  Two
    triples that take one name raise ``RepeatedNames``.
    """
    basis = _mor_basis(alg, left, right)
    key_names, names = alg._key_names, {}
    for t in basis:
        x, a, y = t
        name = key_names.get(a)
        if name is None:
            name = key_names[a] = key_name(a)
        names[t] = f"{x}|{name}|{y}"
    taken = len(set(names.values()))
    if taken < len(basis):
        raise RepeatedNames(f"repeated generator names: {len(basis)} Mor triples take {taken} "
                            "names; a name with '|' can match another triple's")
    acc: dict[tuple[str, str], set] = {}
    key_d = alg.key_d
    for src in basis:
        x, a, y = src
        ends = []  # appended in loops: on rows this short, comprehensions cost more
        for k in key_d(a):
            ends.append(((x, k, y), None))
        for y2, k, tag in outgoing(y, a):
            ends.append(((x, k, y2), tag))
        for x1, k, tag in incoming(x, a):
            ends.append(((x1, k, y), tag))
        name, atoms = names[src], unit(src)
        for dst, tag in ends:
            pair = (name, names[dst])
            terms = acc.get(pair)
            if terms is None:
                terms = acc[pair] = set()
            terms.symmetric_difference_update(atoms if tag is None else tag)
    return basis, names, {k: v for k, v in acc.items() if v}


def _target_rows(N: TypeDModule | TargetHalf):
    """The rows of N as a Mor target: per (generator y, basis key a), the
    keys of a * c over its arrows y -> y2, each tagged (m,) with the
    arrow's U power m, or None (a unit) on a plain type D module; a
    prepared half's own."""
    if isinstance(N, TargetHalf):
        return N.rows
    keys = N.algebra.coefficient_keys
    if type(N) is UTypeDModule:
        def split(coeff):
            return [(key, (m,)) for m, e in coeff.items() for key in keys(e)]
    else:
        def split(coeff):
            return [(key, None) for key in keys(coeff)]
    return _product_rows(N.algebra, _keyed_arrows(N, by_target=False, split=split), key_first=True)


def _source_rows(M: TypeDModule | TargetHalf):
    """The rows of a plain module as a Mor source: per (generator x, basis
    key a), the keys of c * a over its arrows x1 -> x, tagged None; a
    prepared half's own."""
    if isinstance(M, TargetHalf):
        return M.source_rows
    keys = M.algebra.coefficient_keys
    arrows = _keyed_arrows(M, by_target=True, split=lambda c: [(key, None) for key in keys(c)])
    return _product_rows(M.algebra, arrows, key_first=False)


class TargetHalf:
    """A type D module's side of a pairing, prepared for many.

    Everything here depends on the module alone.  ``rows`` serve it as the
    target of ``mor_d_d``, ``mor_d_ud`` and ``mor_dd_d``: per (generator y,
    basis key a), the key products a * c through its arrows y -> y2, each
    tagged with the arrow's U power.  ``source_rows`` serve a plain module
    as the source of ``mor_d_d`` and ``mor_d_dd``: the products c * a
    through its arrows x1 -> x.  Each is
    built on first use and memoizes its rows for the life of the half;
    coefficient keys, key names, key products and corner keys live with
    the algebra.  ``pair`` builds the Mor complex of a source against it.
    """

    def __init__(self, N: TypeDModule):
        self.module, self.algebra, self.generators = N, N.algebra, N.generators

    @cached_property
    def rows(self):
        return _target_rows(self.module)

    @cached_property
    def source_rows(self):
        return _source_rows(self.module)

    def pair(self, M: TypeDModule | TargetHalf):
        """Generator names and differential of Mor(M, target); the
        differential maps (src, dst) to the U powers of its terms.  ``M``
        may be a half prepared for it."""
        if M.algebra != self.algebra:
            raise AlgebraMismatch("modules over different algebras")
        basis, names, diff = _mor_complex(self.algebra, M.generators, self.generators,
                                          _source_rows(M), self.rows, lambda src: (0,))
        return [names[b] for b in basis], diff


@_nogc
def mor_d_d(M: TypeDModule | TargetHalf, N: TypeDModule | TargetHalf) -> F2ChainComplex:
    """Morphism complex of two type D modules over the same algebra.

    Either side may be a ``TargetHalf`` prepared for many pairings.
    """
    gens, diff = (N if isinstance(N, TargetHalf) else TargetHalf(N)).pair(M)
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
        arrows = _keyed_arrows(B, by_target=not into_b, split=_bimodule_split(B, side, coeff_of))
        self.rows = _product_rows(shared, arrows, key_first=into_b)
        self.records = RawProducts()

    def pair(self, M: TypeDModule | TargetHalf) -> TypeDModule:
        """Morphisms M -> B or B -> M, a type D module over the unused
        algebra, gated on d^2 = 0.  ``M`` may be a half prepared for it.  A
        term of the differential tagged None carries the idempotent of its
        source triple's bimodule generator; any other tag is the terms of
        its coefficient."""
        if self.shared != M.algebra:
            raise AlgebraMismatch("bimodule side does not match module algebra")
        if self.into_b:
            ends, end = (M.generators, self.b_shared), 2
            incoming, outgoing = _source_rows(M), self.rows
        else:
            ends, end = (self.b_shared, M.generators), 0
            incoming, outgoing = self.rows, _target_rows(M)
        units, out_alg = self.units, self.out_alg

        def unit(src):
            return units[src[end]]

        basis, names, terms = _mor_complex(self.shared, *ends, incoming, outgoing, unit)
        gens = {names[t]: self.b_out[t[end]] for t in basis}
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
def mor_dd_d(B: TypeDDModule | BimoduleHalf, M: TypeDModule | TargetHalf,
             side: int = 1) -> TypeDModule:
    """Pair a DD bimodule against a type D module along one action.

    Morphisms B -> M over the algebra on ``side``; the other action
    survives as a right action and is rewritten over the opposite algebra
    (the reversed circle), so the result is again a left type D module.
    ``B`` may be a ``BimoduleHalf(B, side)`` prepared for many modules, and
    ``M`` a ``TargetHalf(M)`` prepared for many bimodules.
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
