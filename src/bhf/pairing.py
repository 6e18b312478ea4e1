"""Morphism complexes between type D modules and their pairings.

For two type D modules over the same surface algebra, the morphism complex
has one generator per triple (source generator, corner basis element,
target generator); the differential is the sum of the algebra differential
of the middle coefficient, post-composition with the target module's arrows
and pre-composition with the source module's arrows.

A DD bimodule paired against a type D module leaves a type D module over
the unused algebra.  Two variants exist, both built by ``_pair_bimodule``:

* ``mor_dd_d(B, M)``: morphisms out of the bimodule.  The retained action
  is naturally a right action, so the output is written over the opposite
  algebra, realized as the algebra of the reversed circle; the conversion
  is recorded on the output's provenance field.
* ``mor_d_dd(M, B)``: morphisms into the bimodule.  The retained action is
  already a left action and no conversion occurs.

Every builder walks the basis triples once and reads each term of the
differential off ``SurfaceAlgebra.key_d`` and ``key_product`` through the
arrows at the triple's two ends.  Arrow coefficients are split into basis
keys once per call.  Within one call, each distinct corner's keys are
listed once and each distinct type D coefficient is decomposed once; no
such memo outlives the call.  ``key_product`` is not memoized: it reads
the product off the two keys, and a memo of it gave no measured gain.  The
type D outputs are verified to square to zero on raw-diagram products
before being returned.
"""

from __future__ import annotations

from .gf2 import F2ChainComplex
from .f2u import F2UComplex
from .pmc import pair_map_to_reverse
from .strands import AlgebraElement, BasisKey, SurfaceAlgebra, algebra_of, to_opposite
from .dmodules import TypeDModule, TypeDDModule, UTypeDModule


class AlgebraMismatch(ValueError):
    pass


def key_name(key: BasisKey) -> str:
    moving, pairs = key
    bits = [f"{s}>{t}" for s, t in moving] + [f"p{p}" for p in pairs]
    return ".".join(bits) if bits else "idem"


def mor_generator_name(x: str, key: BasisKey, y: str) -> str:
    return f"{x}|{key_name(key)}|{y}"


def _mor_basis(alg: SurfaceAlgebra, left, right):
    """Sorted triples (x, key, y), key in the corner I(x) * A * I(y); ``left``
    and ``right`` map generator names to idempotents."""
    corners: dict[tuple, list] = {}  # each distinct corner once, for this call
    out = []
    for x, ix in sorted(left.items()):
        for y, iy in sorted(right.items()):
            keys = corners.get((ix, iy))
            if keys is None:
                keys = corners[(ix, iy)] = alg.corner_keys(ix, iy)
            out.extend((x, key, y) for key in keys)
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


def _mor_complex(alg: SurfaceAlgebra, left, right, incoming, outgoing, atoms):
    """The basis triples of Mor(left, right), their names, and the differential.

    For each basis triple (x, a, y) the differential has the keys of d(a),
    of a * c for each arrow y -> y2 of the target module in ``outgoing``,
    and of c * a for each arrow x1 -> x of the source module in
    ``incoming``.  A term is tagged None for d(a) and with the arrow's tag
    otherwise; ``atoms(src, tag)`` gives the hashable atoms of its
    coefficient.  Atoms are added mod 2 (``SurfaceAlgebra.key_product``
    says why that is exact), and the differential maps (src name, dst name)
    to its nonempty atom set.
    """
    basis = _mor_basis(alg, left, right)
    names = {t: mor_generator_name(*t) for t in basis}
    acc: dict[tuple[str, str], set] = {}

    def add(src, dst, tag):
        acc.setdefault((names[src], names[dst]), set()).symmetric_difference_update(atoms(src, tag))

    for src in basis:
        x, a, y = src
        for k in alg.key_d(a):
            add(src, (x, k, y), None)
        for y2, c, tag in outgoing.get(y, ()):
            for k in alg.key_product(a, c):
                add(src, (x, k, y2), tag)
        for x1, c, tag in incoming.get(x, ()):
            for k in alg.key_product(c, a):
                add(src, (x1, k, y), tag)
    return basis, names, {k: v for k, v in acc.items() if v}


def _mor_modules(M: TypeDModule, N: TypeDModule, atoms, split=None):
    """Generator names and differential of Mor(M, N) over their one algebra;
    ``split`` splits the coefficients of N as in ``_keyed_arrows``."""
    if M.algebra != N.algebra:
        raise AlgebraMismatch("modules over different algebras")
    incoming = _keyed_arrows(M, by_target=True)
    outgoing = _keyed_arrows(N, by_target=False, split=split)
    basis, names, diff = _mor_complex(M.algebra, M.generators, N.generators,
                                      incoming, outgoing, atoms)
    return [names[b] for b in basis], diff


def mor_d_d(M: TypeDModule, N: TypeDModule) -> F2ChainComplex:
    """Morphism complex of two type D modules over the same algebra."""
    gens, diff = _mor_modules(M, N, lambda src, tag: (0,))
    return F2ChainComplex(gens, diff)


def identity_morphism(M: TypeDModule) -> list[str]:
    """Generator names of the identity cocycle in mor_d_d(M, M)."""
    out = []
    for x, ix in sorted(M.generators.items()):
        key = ((), tuple(ix))
        out.append(mor_generator_name(x, key, x))
    return out


def homology_f2(complex_: F2ChainComplex):
    """Rank and deterministic representatives of an F2 chain complex (which
    its constructor has checked to square to zero)."""
    return complex_.homology_rank(), complex_.homology_representatives()


# ---------------------------------------------------------------------------
# bimodule pairings


def _pair_bimodule(M: TypeDModule, B: TypeDDModule, side: int, into_b: bool) -> TypeDModule:
    """Morphisms M -> B (``into_b``) or B -> M over the algebra on ``side``.

    The result is a type D module over the unused algebra, gated on
    d^2 = 0.  Out of B, that action survives as a right action and is
    rewritten over the opposite algebra (the reversed circle).  A term of
    the differential tagged None carries the idempotent of its source
    triple's bimodule generator, read once per generator; any other tag is
    the term's coefficient.
    """
    if side not in (1, 2):
        raise AlgebraMismatch("side must be 1 or 2")
    shared, other = (B.algebra1, B.algebra2) if side == 1 else (B.algebra2, B.algebra1)
    if shared != M.algebra:
        raise AlgebraMismatch("bimodule side does not match module algebra")
    b_shared = {b: idems[side - 1] for b, idems in B.generators.items()}
    if into_b:
        out_alg, coeff_of = other, other.expand
        b_out = {b: idems[2 - side] for b, idems in B.generators.items()}
        ends = (M.generators, b_shared)
        provenance = f"mor_d_dd(side={side}; no opposite-algebra conversion)"
    else:
        rev_circle, pair_image = pair_map_to_reverse(other.circle)
        out_alg = algebra_of(rev_circle)

        def coeff_of(k_other):
            return to_opposite(other.expand(k_other), other.circle)

        b_out = {b: tuple(sorted(pair_image(p) for p in idems[2 - side]))
                 for b, idems in B.generators.items()}
        ends = (b_shared, M.generators)
        provenance = (
            f"mor_dd_d(side={side}; second action rewritten over reversed circle "
            f"{rev_circle!r} via the opposite-algebra map)"
        )
    m_arrows = _keyed_arrows(M, by_target=into_b)
    b_arrows = _keyed_arrows(B, by_target=not into_b, split=_bimodule_split(B, side, coeff_of))
    incoming, outgoing = (m_arrows, b_arrows) if into_b else (b_arrows, m_arrows)
    units = {b: out_alg.idempotent(idem).terms for b, idem in b_out.items()}
    end = 2 if into_b else 0

    def atoms(src, coeff):
        return units[src[end]] if coeff is None else coeff.terms

    basis, names, terms = _mor_complex(shared, *ends, incoming, outgoing, atoms)
    gens = {names[t]: b_out[t[end]] for t in basis}
    delta = {k: AlgebraElement(out_alg.n, t) for k, t in terms.items()}
    out = TypeDModule(out_alg, gens, delta, provenance=provenance)
    return out.gated("pairing output")


def mor_dd_d(B: TypeDDModule, M: TypeDModule, side: int = 1) -> TypeDModule:
    """Pair a DD bimodule against a type D module along one action.

    Morphisms B -> M over the algebra on ``side``; the other action
    survives as a right action and is rewritten over the opposite algebra
    (the reversed circle), so the result is again a left type D module.
    """
    return _pair_bimodule(M, B, side, into_b=False)


def mor_d_dd(M: TypeDModule, B: TypeDDModule, side: int = 1) -> TypeDModule:
    """Morphisms M -> B over the algebra on ``side`` of the bimodule.

    The unused bimodule action is a left action already, so the output is a
    type D module over that algebra with no opposite-algebra conversion.
    """
    return _pair_bimodule(M, B, side, into_b=True)


def mor_d_ud(M: TypeDModule, P: UTypeDModule) -> F2UComplex:
    """Morphism complex into a U-weighted type D module, over F2[U]."""

    def u_split(coeff):
        return ((key, m) for m, e in coeff.items() for key in P.algebra.decompose(e))

    gens, diff = _mor_modules(M, P, lambda src, upower: (upower or 0,), u_split)
    return F2UComplex(gens, {k: sum(1 << m for m in ms) for k, ms in diff.items()})


def corner_dimension(alg: SurfaceAlgebra, left_pairs, right_pairs) -> int:
    return len(alg.corner_keys(left_pairs, right_pairs))
