"""Type D modules, DD bimodules and U-weighted type D modules.

A type D module is a set of named generators, each tagged with an
indecomposable idempotent of the surface algebra, together with arrows
src -> coeff (x) dst whose coefficients live in the corner
I(src) * A * I(dst).  The structure equation requires, for each pair of
generators, the sum of two-step products plus the algebra differential of
the one-step coefficient to vanish.

DD bimodules carry two commuting algebra coefficients; their arithmetic is
done on F2 sets of diagram pairs.  U-weighted type D modules attach a
nonnegative U power to every arrow.

The three kinds share one core: a DD bimodule over A1 and A2 is a type D
structure over A1 (x) A2, and a U-weighted module one over A[U].  So
``UTypeDModule`` and ``TypeDDModule`` subclass ``TypeDModule``, which
builds, validates, verifies, reduces and renames every kind, and each kind
supplies only coefficient hooks: ``_norm`` (an idempotent in normal form),
``_corner_fault`` (the corner check), ``_unit``, ``_mul``, ``_add``,
``_d``, ``_terms`` (hashable F2 terms) and ``_residuals`` (the
``verify_d2`` tuples).  A coefficient is zero exactly when it is falsy.
Code that tells the kinds apart tests the exact type.

``reduce`` cancels unit arrows (coefficient equal to the idempotent of
both ends) in the order of the least (src, dst), so its output is a
function of the module alone.  ``verify_d2`` multiplies raw diagrams and
never consults the key-level tables of ``SurfaceAlgebra``, so it checks
pairings built from those tables independently.  ``verify_d2`` and
``reduce`` pass one ``RawProducts`` through the ``_mul`` and ``_d`` hooks,
and it memoizes each distinct product (and differential), keyed by the
coefficients' ``_terms``, along with each coefficient's index, each diagram
pair's composite and each diagram's smoothings.  The records live for one
call unless the caller passes its own (``gated``, ``verify_d2`` and
``reduce`` take ``records``), as a prepared pairing half does for all of
its outputs.  ``reduce`` builds each unit once per call, and the
construction normalises each distinct idempotent once.

``validate`` checks I(src) * coeff * I(dst) = coeff as a filter on terms,
with no products (``SurfaceAlgebra.admissible_corner`` says why that is
exact): each term's corner, None for a diagram that is a term of no basis
element, must be the (source, target) idempotents.  The algebra keeps
the corner of every admissible diagram it has met, so a module loaded after
a build over the same algebra reads its corners off that table.  A coefficient
that holds only some horizontal placements of a basis element passes, and
fails at ``decompose``.  A coefficient over another ambient size fails; a
DD one is checked on both diagrams of every tensor term, and a U-weighted
one at every power.
"""

from __future__ import annotations

import copy
import itertools
import operator
from collections import defaultdict

from .cancel import _adjacency, _cancel_all
from .memo import _nogc
from .strands import (
    AlgebraElement,
    AmbientMismatch,
    NotInSpan,
    RawProducts,
    StrandError,
    SurfaceAlgebra,
)


class ModuleError(ValueError):
    pass


class GateFailure(ModuleError):
    """An internally built object fails its structure equation (d^2 = 0)."""


class CapExceeded(RuntimeError):
    pass


Idempotent = tuple[int, ...]  # matched pairs by smaller foot, sorted


def _norm_idem(algebra: SurfaceAlgebra, pairs) -> Idempotent:
    try:
        return algebra.idempotent_pairs(pairs)
    except StrandError as e:
        raise ModuleError(str(e))


class TensorElement:
    """F2 sum of pure tensors of strand diagrams (left (x) right)."""

    __slots__ = ("n1", "n2", "terms")

    def __init__(self, n1: int, n2: int, terms=()):
        self.n1 = n1
        self.n2 = n2
        self.terms = frozenset(terms)

    @classmethod
    def from_elements(cls, a: AlgebraElement, b: AlgebraElement) -> "TensorElement":
        return cls(a.n, b.n, itertools.product(a.sorted_terms(), b.sorted_terms()))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and (self.n1, self.n2, self.terms) == (other.n1, other.n2, other.terms)
        )

    def __hash__(self):
        return hash((self.n1, self.n2, self.terms))

    def _ambient(self, other: "TensorElement"):
        if (self.n1, self.n2) != (other.n1, other.n2):
            raise AmbientMismatch(f"ambient {(self.n1, self.n2)} != {(other.n1, other.n2)}")
        return self.n1, self.n2

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(*self._ambient(other), self.terms ^ other.terms)

    def __mul__(self, other: "TensorElement", records: RawProducts | None = None) -> "TensorElement":
        n1, n2 = self._ambient(other)
        return TensorElement(n1, n2, (records or RawProducts()).tensor_mul(self.terms, other.terms))

    def d(self, records: RawProducts | None = None) -> "TensorElement":
        return TensorElement(self.n1, self.n2, (records or RawProducts()).tensor_d(self.terms))

    def decompose(self, alg1: SurfaceAlgebra, alg2: SurfaceAlgebra):
        """Write the element in the product basis key1 (x) key2.

        As in ``SurfaceAlgebra.decompose``: each term lies in the expansion
        of its own key pair, distinct key pairs expand to disjoint sets, so
        the element is their sum exactly when the counts agree.
        """
        keys = {(alg1.key_of(d1), alg2.key_of(d2)) for d1, d2 in self.terms}
        if sum(len(alg1.expand(k1).terms) * len(alg2.expand(k2).terms)
               for k1, k2 in keys) != len(self.terms):
            partial = min((k1, k2) for k1, k2 in keys if not self.terms.issuperset(
                itertools.product(alg1.expand(k1).terms, alg2.expand(k2).terms)))
            raise NotInSpan(f"element holds only some placements of basis pair {partial}")
        return sorted(keys)

    def sorted_terms(self):
        return sorted(self.terms)

    def __repr__(self):
        def word(diag):
            return "".join(f"({s}>{t})" for s, t in diag) or "1"

        return "+".join(f"{word(a)}|{word(b)}" for a, b in self.sorted_terms()) or "0"


# ---------------------------------------------------------------------------


class TypeDModule:
    """Left type D module over a surface algebra; the core of all three kinds.

    The constructor normalises generator idempotents (sorted pair names),
    drops zero coefficients and validates every arrow.  ``reduce``,
    ``rename`` and ``restrict_weight`` build their outputs through
    ``_with``, which takes an already valid module's data as given.
    """

    def __init__(self, algebra, generators, delta):
        self.algebra = algebra
        normal: dict = {}  # each distinct idempotent is normalised once

        def norm(idem):
            try:
                return normal[idem]
            except KeyError:
                out = normal[idem] = self._norm(idem)
                return out
            except TypeError:  # an unhashable idempotent, such as a list
                return self._norm(idem)

        self.generators = {name: norm(idem) for name, idem in dict(generators).items()}
        self.delta = {k: coeff for k, coeff in dict(delta).items() if coeff}
        self.validate()

    # -- coefficient hooks ---------------------------------------------------

    def _norm(self, idem) -> Idempotent:
        return _norm_idem(self.algebra, idem)

    def _corner_fault(self):
        """A check for one ``validate`` call: (source idempotent, coefficient,
        target idempotent) -> None, or why the coefficient is off that corner.
        A term's corner is read off the algebra's table, and only a diagram
        the table lacks goes through ``admissible_corner``."""
        alg = self.algebra
        known, corner, n = alg._corners.get, alg.admissible_corner, alg.n

        def fault(i, coeff, j):
            if coeff.n != n:
                return f"not idempotent-compatible: ambient {coeff.n} != {n}"
            want = (i, j)
            for d in coeff.terms:
                if known(d) != want and corner(d) != want:
                    return f"not idempotent-compatible at term {d}"
            return None

        return fault

    def _unit(self, idem):
        return self.algebra.expand(((), idem))

    _mul = staticmethod(lambda c1, c2, records=None: c1.__mul__(c2, records))
    _d = staticmethod(lambda coeff, records=None: coeff.d(records))
    _add = staticmethod(operator.add)
    _terms = staticmethod(operator.attrgetter("terms"))  # hashable F2 terms

    def _residuals(self, src, dst, terms) -> list[tuple]:
        """The ``verify_d2`` residuals of one (src, dst) from their terms."""
        return [(src, dst, AlgebraElement(self.algebra.n, terms))]

    def _with(self, generators, delta):
        """A module of the same kind and algebras, taken as given."""
        out = copy.copy(self)
        out.generators, out.delta = generators, delta
        return out

    # -- shared structure ----------------------------------------------------

    def validate(self):
        fault = self._corner_fault()
        for (s, t), coeff in self.delta.items():
            if s not in self.generators or t not in self.generators:
                raise ModuleError(f"arrow ({s},{t}) uses unknown generator")
            why = fault(self.generators[s], coeff, self.generators[t])
            if why:
                raise ModuleError(f"coefficient of {s}->{t} {why}")

    def arrows(self):
        return sorted(self.delta.items())

    def gated(self, what: str, records: RawProducts | None = None):
        """``self`` when it satisfies the structure equation, else GateFailure."""
        bad = self.verify_d2(records)
        if bad:
            raise GateFailure(f"{what} fails d^2=0 on {len(bad)} pairs, first {bad[0]}")
        return self

    def _records(self, records: RawProducts | None):
        """The records, for one call unless the caller shares its own, and
        their memos of this kind's products and differentials over this
        algebra, each keyed by the ``_terms`` of its operands.  Keying the
        memos by kind and algebra keeps one kind's result, or one ambient
        size's, from answering for another's."""
        records = records or RawProducts()
        memos = records.coefficients.setdefault((type(self), self.algebra), ({}, {}))
        return records, *memos

    @_nogc
    def verify_d2(self, records: RawProducts | None = None) -> list[tuple]:
        """Nonzero residual terms of the structure equation, per (src, tgt).

        Each is (src, tgt, element), or (src, tgt, upower, element) for a
        U-weighted module.
        """
        mul, d, terms = self._mul, self._d, self._terms
        records, products, diffs = self._records(records)
        arrows = [(x, y, c, terms(c)) for (x, y), c in self.delta.items()]
        outgoing: dict[str, list] = defaultdict(list)
        for x, y, c, t in arrows:
            outgoing[x].append((y, c, t))
        # Each distinct differential and product is keyed by the terms of
        # the coefficients.  A product that reaches one (x, z) twice is
        # added twice, so it cancels mod 2.
        residual: dict[tuple[str, str], set] = defaultdict(set)
        for x, y, c, t in arrows:
            dc = diffs.get(t)
            if dc is None:
                dc = diffs[t] = d(c, records)
            residual[(x, y)].symmetric_difference_update(terms(dc))
            for z, c2, t2 in outgoing.get(y, ()):
                p = products.get((t, t2))
                if p is None:
                    p = products[(t, t2)] = mul(c, c2, records)
                residual[(x, z)].symmetric_difference_update(terms(p))
        out = []
        for (x, z), r in residual.items():
            if r:
                out.extend(self._residuals(x, z, r))
        return sorted(out)

    def is_reduced(self) -> bool:
        unit = self._units()
        return not any(unit(s, t, c) for (s, t), c in self.delta.items())

    def _units(self):
        """A unit-arrow test for one call, which builds each distinct
        idempotent's unit once and compares coefficients against it."""
        gens, units = self.generators, {}

        def unit(s, t, coeff) -> bool:
            idem = gens[s]
            if idem not in units:
                units[idem] = self._unit(idem)
            return idem == gens[t] and coeff == units[idem]

        return unit

    @_nogc
    def reduce(self, records: RawProducts | None = None):
        mul, terms = self._mul, self._terms
        records, products, _ = self._records(records)

        def memo_mul(c1, c2):
            key = (terms(c1), terms(c2))
            p = products.get(key)
            if p is None:
                p = products[key] = mul(c1, c2, records)
            return p

        gens, delta = _cancel_all(
            dict(self.generators), dict(self.delta),
            unit=self._units(), mul=memo_mul, add=self._add,
        )
        return self._with(gens, delta)

    def rename(self, fn):
        gens = {fn(n): idem for n, idem in self.generators.items()}
        delta = {(fn(s), fn(t)): c for (s, t), c in self.delta.items()}
        return self._with(gens, delta)

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}({len(self.generators)} generators, {len(self.delta)} arrows)"


def _by_power(terms) -> dict[int, AlgebraElement]:
    """The (U power, element) terms summed per power, zero sums dropped."""
    out: dict[int, AlgebraElement] = {}
    for m, e in terms:
        out[m] = out[m] + e if m in out else e
    return {m: e for m, e in out.items() if e}


class UTypeDModule(TypeDModule):
    """Type D module whose arrows carry U powers: coeff is {upower: element}."""

    def __init__(self, algebra: SurfaceAlgebra, generators, delta):
        delta = {k: {m: e for m, e in coeff.items() if e} for k, coeff in dict(delta).items()}
        super().__init__(algebra, generators, delta)

    def _corner_fault(self):
        plain = super()._corner_fault()

        def fault(i, coeff, j):
            for m, e in coeff.items():
                if m < 0:
                    return "has a negative U power"
                if plain(i, e, j):
                    return f"(U^{m}) not compatible"
            return None

        return fault

    def _unit(self, idem):
        return {0: self.algebra.expand(((), idem))}

    @staticmethod
    def _add(c1, c2):
        return _by_power([*c1.items(), *c2.items()])

    @staticmethod
    def _mul(c1, c2, records=None):
        return _by_power((m1 + m2, e1.__mul__(e2, records))
                         for m1, e1 in c1.items() for m2, e2 in c2.items())

    @staticmethod
    def _d(coeff, records=None):
        return {m: e.d(records) for m, e in coeff.items()}

    @staticmethod
    def _terms(coeff):
        return frozenset((m, diag) for m, e in coeff.items() for diag in e.terms)

    def _residuals(self, src, dst, terms):
        by_power: dict[int, set] = defaultdict(set)
        for m, diag in terms:
            by_power[m].add(diag)
        return [(src, dst, m, AlgebraElement(self.algebra.n, r)) for m, r in by_power.items()]


class TypeDDModule(TypeDModule):
    """Bimodule with two commuting left algebra coefficients.

    It is a type D structure over algebra1 (x) algebra2, so ``algebra`` is
    the pair and each generator's idempotent is a pair of idempotents;
    coefficients are ``TensorElement``s.
    """

    def __init__(self, algebra1: SurfaceAlgebra, algebra2: SurfaceAlgebra,
                 generators, delta):
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        super().__init__((algebra1, algebra2), generators, delta)

    def _norm(self, idem):
        i1, i2 = idem
        return (_norm_idem(self.algebra1, i1), _norm_idem(self.algebra2, i2))

    def _corner_fault(self):
        alg1, alg2 = self.algebra1, self.algebra2
        known1, known2 = alg1._corners.get, alg2._corners.get  # as in TypeDModule
        corner1, corner2 = alg1.admissible_corner, alg2.admissible_corner
        sizes = (alg1.n, alg2.n)

        def fault(i, coeff, j):
            (s1, s2), (t1, t2) = i, j
            if (coeff.n1, coeff.n2) != sizes:
                return f"not idempotent-compatible: ambient {(coeff.n1, coeff.n2)} != {sizes}"
            want1, want2 = (s1, t1), (s2, t2)
            for d1, d2 in coeff.terms:
                if (known1(d1) != want1 and corner1(d1) != want1
                        or known2(d2) != want2 and corner2(d2) != want2):
                    return f"not idempotent-compatible at term {d1} (x) {d2}"
            return None

        return fault

    def _unit(self, idem):
        return TensorElement.from_elements(self.algebra1.expand(((), idem[0])),
                                           self.algebra2.expand(((), idem[1])))

    def _residuals(self, src, dst, terms):
        return [(src, dst, TensorElement(self.algebra1.n, self.algebra2.n, terms))]

    def restrict_weight(self, weight1: int) -> "TypeDDModule":
        """Keep the generators whose first idempotent has the given weight."""
        keep = {n for n, (i1, _) in self.generators.items() if len(i1) == weight1}
        gens = {n: self.generators[n] for n in keep}
        delta = {k: c for k, c in self.delta.items() if k[0] in keep and k[1] in keep}
        return self._with(gens, delta)


# ---------------------------------------------------------------------------
# isomorphism


def _signatures(module, out, into):
    """Per generator: its idempotent and the sorted (coeff, idempotent) of its arrows."""
    gens = module.generators

    def ends(arrows):
        return tuple(sorted((repr(c), gens[u]) for u, c in arrows.items()))

    return {n: (gens[n], ends(out[n]), ends(into[n])) for n in gens}


@_nogc
def iso_check(m1, m2, cap: int = 10**6):
    """Search for a delta-preserving idempotent-respecting generator bijection.

    Returns the witness dict or None.  Raises CapExceeded past ``cap``
    search nodes.  Both modules should be reduced first for a meaningful
    homotopy-equivalence test.
    """
    if type(m1) is not type(m2):
        return None
    if len(m1.generators) != len(m2.generators):
        return None
    out1, in1 = _adjacency(m1.generators, m1.delta)
    out2, in2 = _adjacency(m2.generators, m2.delta)
    sig1 = _signatures(m1, out1, in1)
    sig2 = _signatures(m2, out2, in2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    order = sorted(m1.generators, key=lambda n: (sig1[n], n))
    candidates: dict[tuple, list[str]] = {}  # signature -> generators of m2, sorted
    for y in sorted(m2.generators):
        candidates.setdefault(sig2[y], []).append(y)
    nodes = 0
    assign: dict[str, str] = {}
    inverse: dict[str, str] = {}

    def consistent(x, y):
        """Every arrow between x and itself or an assigned generator has its
        image at y, and every such arrow at y has its preimage at x."""
        for arrows1, arrows2 in ((out1[x], out2[y]), (in1[x], in2[y])):
            for t, c in arrows1.items():
                u = y if t == x else assign.get(t)
                if u is not None and arrows2.get(u) != c:
                    return False
            for u, c in arrows2.items():
                t = x if u == y else inverse.get(u)
                if t is not None and arrows1.get(t) != c:
                    return False
        return True

    # Depth-first over ``order`` with an explicit stack: stack[i] iterates
    # the candidates of order[i], and order[:len(stack) - 1] are assigned.
    if not order:
        return {}
    stack = [iter(candidates[sig1[order[0]]])]
    while stack:
        x = order[len(stack) - 1]
        for y in stack[-1]:
            if y in inverse:
                continue
            nodes += 1
            if nodes > cap:
                raise CapExceeded(f"isomorphism search exceeded {cap} nodes")
            if consistent(x, y):
                assign[x] = y
                inverse[y] = x
                break
        else:  # no candidate left: backtrack into the previous generator
            stack.pop()
            if stack:
                del inverse[assign.pop(order[len(stack) - 1])]
            continue
        if len(stack) == len(order):
            return dict(assign)
        stack.append(iter(candidates[sig1[order[len(stack)]]]))
    return None


# ---------------------------------------------------------------------------
# underlying F2 spaces, the induced complex and mapping cones


def module_f2_basis(module: TypeDModule) -> list[tuple]:
    """F2 basis (key, x) of the underlying space A (x) M: generators x in name
    order, and the basis keys whose right idempotent is that of x."""
    alg = module.algebra
    return [(key, name) for name, idem in sorted(module.generators.items())
            for key in alg.basis_keys(len(idem)) if alg.key_right_pairs(key) == idem]


def right_action(alg: SurfaceAlgebra, key, terms) -> set:
    """The basis vectors (key2, y) of sum a * c (x) y over (c, y) in ``terms``,
    a the element of ``key``; a vector that recurs cancels in pairs."""
    elt = alg.expand(key)
    out: set = set()
    for c, y in terms:
        out.symmetric_difference_update((k2, y) for k2 in alg.decompose(elt * c))
    return out


def induced_complex(module: TypeDModule):
    """The underlying F2 complex on basis {algebra corner x generator}."""
    from .gf2 import F2ChainComplex

    alg = module.algebra
    basis = module_f2_basis(module)
    outgoing, _ = _adjacency(module.generators, module.delta)
    named = {b: f"g{i}" for i, b in enumerate(basis)}
    entries = []
    for b in basis:
        key, name = b
        image = right_action(alg, key, ((c, t) for t, c in outgoing[name].items()))
        image.symmetric_difference_update((k2, name) for k2 in alg.decompose(alg.expand(key).d()))
        entries.extend((named[b], named[v]) for v in image)
    return F2ChainComplex([named[b] for b in basis], entries)


def mapping_cone(f, M: TypeDModule, N: TypeDModule) -> TypeDModule:
    """The cone of f = {x: [(c, y), ...]}: M -> N, on generators ("M", x) and
    ("N", y).  It squares to zero exactly when M and N do and f is a chain map."""
    m, n = M.rename(lambda x: ("M", x)), N.rename(lambda y: ("N", y))
    delta = {**m.delta, **n.delta}
    for x, terms in f.items():
        for c, y in terms:
            key = (("M", x), ("N", y))
            delta[key] = delta[key] + c if key in delta else c
    return TypeDModule(M.algebra, {**m.generators, **n.generators}, delta)
