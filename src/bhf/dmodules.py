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

``validate`` checks I(src) * coeff * I(dst) = coeff as a filter on terms,
with no products.  It is exact: a horizontal section of I(S) composed with
a diagram d returns d when its points are the starts of d and kills d
otherwise, so the sandwich keeps exactly the terms whose starts lie one on
each pair of S and whose ends lie one on each pair of the target idempotent
(``SurfaceAlgebra.sandwich``).  A DD coefficient is checked on both
diagrams of every tensor term.
"""

from __future__ import annotations

import itertools

from .strands import AlgebraElement, StrandError, SurfaceAlgebra


class ModuleError(ValueError):
    pass


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

    def __add__(self, other: "TensorElement") -> "TensorElement":
        return TensorElement(self.n1, self.n2, self.terms ^ other.terms)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        from .strands import multiply_diagrams

        acc = set()
        for a1, a2 in self.terms:
            for b1, b2 in other.terms:
                c1 = multiply_diagrams(a1, b1)
                if c1 is None:
                    continue
                c2 = multiply_diagrams(a2, b2)
                if c2 is None:
                    continue
                acc ^= {(c1, c2)}
        return TensorElement(self.n1, self.n2, acc)

    def d(self) -> "TensorElement":
        from .strands import differentiate_diagram

        acc = set()
        for a1, a2 in self.terms:
            for s in differentiate_diagram(a1):
                acc ^= {(s, a2)}
            for s in differentiate_diagram(a2):
                acc ^= {(a1, s)}
        return TensorElement(self.n1, self.n2, acc)

    def decompose(self, alg1: SurfaceAlgebra, alg2: SurfaceAlgebra):
        """Write the element in the product basis key1 (x) key2.

        The least diagram pair of a sum of basis-pair expansions is the pair
        of all-minima placements of some basis pair, so peeling it is exact.
        """
        rest = set(self.terms)
        out = []
        while rest:
            d1, d2 = min(rest)
            k1 = alg1.key_of_leading(d1)
            k2 = alg2.key_of_leading(d2)
            out.append((k1, k2))
            prod = {
                (a, b)
                for a in alg1.expand(k1).terms
                for b in alg2.expand(k2).terms
            }
            rest ^= prod
        return sorted(out)

    def sorted_terms(self):
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for a, b in self.sorted_terms():
            sa = "".join(f"({s}>{t})" for s, t in a) or "1"
            sb = "".join(f"({s}>{t})" for s, t in b) or "1"
            bits.append(f"{sa}|{sb}")
        return "+".join(bits)


# ---------------------------------------------------------------------------


class TypeDModule:
    """Left type D module over a surface algebra."""

    def __init__(self, algebra: SurfaceAlgebra, generators, delta, provenance: str = "",
                 check: bool = True):
        self.algebra = algebra
        self.generators: dict[str, Idempotent] = {
            name: _norm_idem(algebra, idem) for name, idem in dict(generators).items()
        }
        self.delta: dict[tuple[str, str], AlgebraElement] = {}
        for (s, t), coeff in dict(delta).items():
            if coeff.is_zero():
                continue
            self.delta[(s, t)] = coeff
        self.provenance = provenance
        if check:
            self.validate()

    def idempotent_element(self, name: str) -> AlgebraElement:
        return self.algebra.idempotent(self.generators[name])

    def validate(self):
        for (s, t), coeff in self.delta.items():
            if s not in self.generators or t not in self.generators:
                raise ModuleError(f"arrow ({s},{t}) uses unknown generator")
            sandwich = self.algebra.sandwich(self.generators[s], coeff, self.generators[t])
            if sandwich != coeff:
                raise ModuleError(f"coefficient of {s}->{t} not idempotent-compatible")

    def arrows(self):
        return sorted(self.delta.items())

    def verify_d2(self) -> list[tuple[str, str, AlgebraElement]]:
        """Nonzero residual terms of the structure equation, per (src, tgt)."""
        residual: dict[tuple[str, str], AlgebraElement] = {}
        zero = AlgebraElement.zero(self.algebra.n)
        for (x, y), c in self.delta.items():
            residual[(x, y)] = residual.get((x, y), zero) + c.d()
            for (y2, z), c2 in self.delta.items():
                if y2 != y:
                    continue
                residual[(x, z)] = residual.get((x, z), zero) + c * c2
        return sorted((x, z, r) for (x, z), r in residual.items() if not r.is_zero())

    def is_reduced(self) -> bool:
        return not any(
            self._unit_arrow(s, t, c) for (s, t), c in self.delta.items()
        )

    def _unit_arrow(self, s, t, coeff) -> bool:
        return self.generators[s] == self.generators[t] and coeff == self.idempotent_element(s)

    def reduce(self) -> "TypeDModule":
        gens, delta = _cancel_all(
            dict(self.generators),
            dict(self.delta),
            unit=self._unit_arrow,
            mul=lambda a, b: a * b,
        )
        return TypeDModule(self.algebra, gens, delta, provenance=self.provenance, check=False)

    def rename(self, fn) -> "TypeDModule":
        gens = {fn(n): idem for n, idem in self.generators.items()}
        delta = {(fn(s), fn(t)): c for (s, t), c in self.delta.items()}
        return TypeDModule(self.algebra, gens, delta, provenance=self.provenance, check=False)

    def __repr__(self):
        return f"TypeDModule({len(self.generators)} generators, {len(self.delta)} arrows)"


class UTypeDModule:
    """Type D module whose arrows carry U powers: coeff is {upower: element}."""

    def __init__(self, algebra: SurfaceAlgebra, generators, delta, check: bool = True):
        self.algebra = algebra
        self.generators = {n: _norm_idem(algebra, i) for n, i in dict(generators).items()}
        self.delta: dict[tuple[str, str], dict[int, AlgebraElement]] = {}
        for (s, t), coeff in dict(delta).items():
            coeff = {m: e for m, e in coeff.items() if not e.is_zero()}
            if coeff:
                self.delta[(s, t)] = coeff
        if check:
            self.validate()

    def idempotent_element(self, name):
        return self.algebra.idempotent(self.generators[name])

    def validate(self):
        for (s, t), coeff in self.delta.items():
            if s not in self.generators or t not in self.generators:
                raise ModuleError(f"arrow ({s},{t}) uses unknown generator")
            for m, e in coeff.items():
                if m < 0:
                    raise ModuleError(f"negative U power on {s}->{t}")
                if self.algebra.sandwich(self.generators[s], e, self.generators[t]) != e:
                    raise ModuleError(f"coefficient of {s}->{t} (U^{m}) not compatible")

    def verify_d2(self):
        residual: dict[tuple[str, str, int], AlgebraElement] = {}
        zero = AlgebraElement.zero(self.algebra.n)

        def bump(key, val):
            residual[key] = residual.get(key, zero) + val

        for (x, y), c in self.delta.items():
            for m, e in c.items():
                bump((x, y, m), e.d())
            for (y2, z), c2 in self.delta.items():
                if y2 != y:
                    continue
                for m1, e1 in c.items():
                    for m2, e2 in c2.items():
                        bump((x, z, m1 + m2), e1 * e2)
        return sorted((x, z, m, r) for (x, z, m), r in residual.items() if not r.is_zero())

    def _unit_arrow(self, s, t, coeff) -> bool:
        return (
            self.generators[s] == self.generators[t]
            and set(coeff) == {0}
            and coeff[0] == self.idempotent_element(s)
        )

    def reduce(self) -> "UTypeDModule":
        def mul(c1, c2):
            out: dict[int, AlgebraElement] = {}
            for m1, e1 in c1.items():
                for m2, e2 in c2.items():
                    p = e1 * e2
                    if p.is_zero():
                        continue
                    m = m1 + m2
                    out[m] = out.get(m, AlgebraElement.zero(p.n)) + p
            return {m: e for m, e in out.items() if not e.is_zero()}

        gens, delta = _cancel_all(
            dict(self.generators), dict(self.delta), unit=self._unit_arrow, mul=mul,
            add=_add_ucoeff, is_zero=lambda c: not c,
        )
        return UTypeDModule(self.algebra, gens, delta, check=False)

    def __repr__(self):
        return f"UTypeDModule({len(self.generators)} generators, {len(self.delta)} arrows)"


class TypeDDModule:
    """Bimodule with two commuting left algebra coefficients."""

    def __init__(self, algebra1: SurfaceAlgebra, algebra2: SurfaceAlgebra,
                 generators, delta, provenance: str = "", check: bool = True):
        self.algebra1 = algebra1
        self.algebra2 = algebra2
        self.generators: dict[str, tuple[Idempotent, Idempotent]] = {}
        for name, (i1, i2) in dict(generators).items():
            self.generators[name] = (_norm_idem(algebra1, i1), _norm_idem(algebra2, i2))
        self.delta: dict[tuple[str, str], TensorElement] = {}
        for (s, t), coeff in dict(delta).items():
            if coeff.is_zero():
                continue
            self.delta[(s, t)] = coeff
        self.provenance = provenance
        if check:
            self.validate()

    def unit_tensor(self, name) -> TensorElement:
        i1, i2 = self.generators[name]
        e1, e2 = self.algebra1.idempotent(i1), self.algebra2.idempotent(i2)
        return TensorElement.from_elements(e1, e2)

    def validate(self):
        alg1, alg2 = self.algebra1, self.algebra2
        for (s, t), coeff in self.delta.items():
            if s not in self.generators or t not in self.generators:
                raise ModuleError(f"arrow ({s},{t}) uses unknown generator")
            (s1, s2), (t1, t2) = self.generators[s], self.generators[t]
            if (coeff.n1, coeff.n2) != (alg1.n, alg2.n) or any(
                alg1.diagram_corner(d1) != (s1, t1) or alg2.diagram_corner(d2) != (s2, t2)
                for d1, d2 in coeff.terms
            ):
                raise ModuleError(f"coefficient of {s}->{t} not idempotent-compatible")

    def verify_d2(self):
        residual: dict[tuple[str, str], TensorElement] = {}
        zero = TensorElement(self.algebra1.n, self.algebra2.n)
        for (x, y), c in self.delta.items():
            residual[(x, y)] = residual.get((x, y), zero) + c.d()
            for (y2, z), c2 in self.delta.items():
                if y2 != y:
                    continue
                residual[(x, z)] = residual.get((x, z), zero) + c * c2
        return sorted((x, z, r) for (x, z), r in residual.items() if not r.is_zero())

    def _unit_arrow(self, s, t, coeff) -> bool:
        return self.generators[s] == self.generators[t] and coeff == self.unit_tensor(s)

    def reduce(self) -> "TypeDDModule":
        gens, delta = _cancel_all(
            dict(self.generators), dict(self.delta),
            unit=self._unit_arrow, mul=lambda a, b: a * b,
        )
        return TypeDDModule(self.algebra1, self.algebra2, gens, delta,
                            provenance=self.provenance, check=False)

    def restrict_weight(self, weight1: int) -> "TypeDDModule":
        """Keep the generators whose first idempotent has the given weight."""
        keep = {n for n, (i1, _) in self.generators.items() if len(i1) == weight1}
        gens = {n: self.generators[n] for n in keep}
        delta = {k: c for k, c in self.delta.items() if k[0] in keep and k[1] in keep}
        return TypeDDModule(self.algebra1, self.algebra2, gens, delta,
                            provenance=self.provenance, check=False)

    def __repr__(self):
        return f"TypeDDModule({len(self.generators)} generators, {len(self.delta)} arrows)"


# ---------------------------------------------------------------------------
# cancellation and isomorphism


def _add_default(a, b):
    return a + b


def _is_zero_default(c):
    return c.is_zero()


def _add_ucoeff(c1, c2):
    out = dict(c1)
    for m, e in c2.items():
        tot = out.get(m, AlgebraElement.zero(e.n)) + e
        if tot.is_zero():
            out.pop(m, None)
        else:
            out[m] = tot
    return out


def _cancel_all(gens, delta, unit, mul, add=_add_default, is_zero=_is_zero_default):
    """Cancel unit arrows until none remain; deterministic order.

    Each round removes the lexicographically least (src, dst) with a unit
    coefficient and rewires w -> dst, src -> t into w -> t with the product
    coefficient, mod 2.
    """
    while True:
        cancelable = sorted(k for k, c in delta.items() if k[0] != k[1] and unit(*k, c))
        if not cancelable:
            return gens, delta
        s0, t0 = cancelable[0]
        into = [(w, c) for (w, t), c in delta.items() if t == t0 and w not in (s0, t0)]
        outof = [(t, c) for (s, t), c in delta.items() if s == s0 and t not in (s0, t0)]
        newdelta = {
            (s, t): c
            for (s, t), c in delta.items()
            if s not in (s0, t0) and t not in (s0, t0)
        }
        for w, cw in into:
            for t, ct in outof:
                prod = mul(cw, ct)
                if is_zero(prod):
                    continue
                key = (w, t)
                if key in newdelta:
                    tot = add(newdelta[key], prod)
                    if is_zero(tot):
                        del newdelta[key]
                    else:
                        newdelta[key] = tot
                else:
                    newdelta[key] = prod
        del gens[s0]
        del gens[t0]
        delta = newdelta


def _signature(module, name):
    outs = sorted((repr(c), _idem_key(module, t)) for (s, t), c in module.delta.items() if s == name)
    ins = sorted((repr(c), _idem_key(module, s)) for (s, t), c in module.delta.items() if t == name)
    return (_idem_key(module, name), tuple(outs), tuple(ins))


def _idem_key(module, name):
    return module.generators[name]


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
    sig1 = {n: _signature(m1, n) for n in m1.generators}
    sig2 = {n: _signature(m2, n) for n in m2.generators}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None
    order = sorted(m1.generators, key=lambda n: (sig1[n], n))
    candidates = {
        n: sorted(y for y in m2.generators if sig2[y] == sig1[n]) for n in order
    }
    nodes = 0
    assign: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x, y):
        if m1.delta.get((x, x)) != m2.delta.get((y, y)):
            return False
        for t, yt in assign.items():
            if m1.delta.get((x, t)) != m2.delta.get((y, yt)):
                return False
            if m1.delta.get((t, x)) != m2.delta.get((yt, y)):
                return False
        return True

    # Depth-first over ``order`` with an explicit stack: stack[i] iterates
    # the candidates of order[i], and order[:len(stack) - 1] are assigned.
    if not order:
        return {}
    stack = [iter(candidates[order[0]])]
    while stack:
        x = order[len(stack) - 1]
        for y in stack[-1]:
            if y in used:
                continue
            nodes += 1
            if nodes > cap:
                raise CapExceeded(f"isomorphism search exceeded {cap} nodes")
            if consistent(x, y):
                assign[x] = y
                used.add(y)
                break
        else:  # no candidate left: backtrack into the previous generator
            stack.pop()
            if stack:
                used.remove(assign.pop(order[len(stack) - 1]))
            continue
        if len(stack) == len(order):
            return dict(assign)
        stack.append(iter(candidates[order[len(stack)]]))
    return None


def reduced_isomorphic(m1, m2, cap: int = 10**6) -> bool:
    """Homotopy-equivalence test used throughout: reduce, then exact iso."""
    return iso_check(m1.reduce(), m2.reduce(), cap=cap) is not None


# ---------------------------------------------------------------------------
# induced F2 chain complex of a type D module


def induced_complex(module: TypeDModule):
    """The underlying F2 complex on basis {algebra corner x generator}."""
    from .gf2 import F2ChainComplex

    alg = module.algebra
    basis = []
    for name, idem in module.generators.items():
        for w in range(0, 2 * alg.k + 1):
            for key in alg.basis_keys(w):
                if alg.key_right_pairs(key) == idem:
                    basis.append((key, name))
    entries: set = set()
    for (key, name) in basis:
        elt = alg.expand(key)
        de = elt.d()
        if not de.is_zero():
            for k2 in alg.decompose(de):
                entries ^= {((key, name), (k2, name))}
        for (s, t), coeff in module.delta.items():
            if s != name:
                continue
            prod = elt * coeff
            if prod.is_zero():
                continue
            for k2 in alg.decompose(prod):
                entries ^= {((key, name), (k2, t))}
    named = {b: f"g{i}" for i, b in enumerate(basis)}
    return F2ChainComplex(
        [named[b] for b in basis],
        [(named[a], named[b]) for a, b in entries],
    )
