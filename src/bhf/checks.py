"""Bundled verification suite: every mathematical gate as a callable check.

Each check returns (ok, detail).  ``run_all`` drives them with either the
full acceptance-level sample sizes or reduced ones for a quick CLI pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .pmc import standard_pmc, reverse
from .strands import (
    AlgebraElement,
    RawProducts,
    algebra_of,
    make_diagram,
    to_opposite,
    torus_element,
    TORUS_NAMES,
)
from .dmodules import TypeDModule, iso_check, induced_complex
from .pairing import mor_d_d, mor_dd_d
from .f2u import F2UComplex, F2UDecomposition
from .knots import (
    alexander_polynomial,
    cfk_to_cfd,
    figure8_cfk,
    satellite,
    staircase_cfk,
    tau,
    trefoil_cfk,
    unknot_cfk,
)
from . import catalog


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# torus algebra


def check_torus_algebra():
    alg = algebra_of(standard_pmc("torus"))
    problems = []
    dims = [alg.dim_summand(i) for i in (-1, 0, 1)]
    if dims != [1, 8, 7]:
        problems.append(f"summand dimensions {dims} != [1, 8, 7]")
    if not all(b.d().is_zero() for b in alg.summand_basis(0)):
        problems.append("nonzero differential on the weight-1 summand")
    # full multiplication table against the path-algebra model
    named = {n: torus_element(n) for n in TORUS_NAMES}
    back = {v: k for k, v in named.items()}
    for a, b in itertools.product(TORUS_NAMES, repeat=2):
        prod = named[a] * named[b]
        got = back.get(prod) if not prod.is_zero() else None
        want = _path_product(a, b)
        if got != want:
            problems.append(f"{a}*{b} = {got}, path algebra says {want}")
    return not problems, "; ".join(problems) or "dim A(torus,0)=8, relations and table match"


def _path_product(a, b):
    """The product of two named torus elements, None for 0, in the path
    algebra on vertices iota0, iota1 with rho1, rho3: 0 -> 1, rho2: 1 -> 0,
    modulo rho2*rho1 = rho3*rho2 = 0."""
    src = {"iota0": 0, "rho1": 0, "rho3": 0, "rho12": 0, "rho123": 0,
           "iota1": 1, "rho2": 1, "rho23": 1}
    tgt = {"iota0": 0, "rho2": 0, "rho12": 0,
           "iota1": 1, "rho1": 1, "rho3": 1, "rho23": 1, "rho123": 1}
    word = {"iota0": "", "iota1": "", "rho1": "1", "rho2": "2", "rho3": "3",
            "rho12": "12", "rho23": "23", "rho123": "123"}
    if tgt[a] != src[b]:
        return None
    w = word[a] + word[b]
    if "21" in w or "32" in w:
        return None
    name = "rho" + w if w else a  # an empty word joins two equal idempotents
    return name if name in TORUS_NAMES else None


# ---------------------------------------------------------------------------
# strand algebra property suite


def _random_diagram(rng: random.Random, n: int):
    """Random partial permutation (downward strands included: nilCoxeter case)."""
    size = rng.randint(0, n)
    starts = sorted(rng.sample(range(1, n + 1), size))
    targets = rng.sample(range(1, n + 1), size)
    return make_diagram(n, list(zip(starts, targets)))


def check_strand_properties(samples: int = 10000, seed: int = 2024):
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, 6)
        a, b, c = (AlgebraElement(n, [_random_diagram(rng, n)]) for _ in range(3))
        if not a.d().d().is_zero():
            return False, f"d^2 != 0 on {a!r}"
        if (a * b).d() != a.d() * b + a * b.d():
            return False, f"Leibniz fails on {a!r}, {b!r}"
        if (a * b) * c != a * (b * c):
            return False, f"associativity fails on {a!r}, {b!r}, {c!r}"
    return True, f"{samples} random samples: d^2=0, Leibniz, associativity"


def check_closure(max_genus: int = 2):
    import math

    problems = []
    for kind in ("split", "antipodal"):
        for k in range(1, max_genus + 1):
            alg = algebra_of(standard_pmc(kind, k))
            for w in range(0, 2 * k + 1):
                keys = alg.basis_keys(w)
                elts = [alg.expand(key) for key in keys]
                records = RawProducts()  # one memo for every product of this weight
                for a in elts:
                    da = a.d(records)
                    if not da.is_zero() and not alg.contains(da):
                        problems.append(f"{kind}:{k} differential escapes the span")
                for a, b in itertools.product(elts, repeat=2):
                    p = a.__mul__(b, records)
                    if not p.is_zero() and not alg.contains(p):
                        problems.append(f"{kind}:{k} product escapes the span")
            # idempotent counts and unit action
            for w in range(0, 2 * k + 1):
                count = len(alg.indecomposable_idempotents(weight=w))
                if count != math.comb(2 * k, w):
                    problems.append(f"{kind}:{k} idempotent count at weight {w}")
            unit = alg.unit()
            for w in range(0, 2 * k + 1):
                for key in alg.basis_keys(w):
                    e = alg.expand(key)
                    if unit * e != e or e * unit != e:
                        problems.append(f"{kind}:{k} unit fails on {key}")
                        break
    return not problems, "; ".join(sorted(set(problems))) or "closure, idempotents and unit verified"


def check_opposite():
    problems = []
    for kind, k in (("split", 1), ("split", 2), ("antipodal", 2)):
        circle = standard_pmc(kind, k)
        alg = algebra_of(circle)
        rng = random.Random(11)
        keys = [key for w in range(0, 2 * k + 1) for key in alg.basis_keys(w)]
        sample = rng.sample(keys, min(40, len(keys)))
        for k1 in sample:
            for k2 in sample[:10]:
                a, b = alg.expand(k1), alg.expand(k2)
                lhs = to_opposite(a * b, circle)
                rhs = to_opposite(b, circle) * to_opposite(a, circle)
                if lhs != rhs:
                    problems.append(f"op not an anti-homomorphism on {kind}:{k}")
            a = alg.expand(k1)
            if to_opposite(a.d(), circle) != to_opposite(a, circle).d():
                problems.append(f"op does not commute with d on {kind}:{k}")
            back = to_opposite(to_opposite(a, circle), reverse(circle))
            if back != a:
                problems.append(f"op not an involution on {kind}:{k}")
    ex = to_opposite(torus_element("rho1"), standard_pmc("torus"))
    if ex != torus_element("rho3"):
        problems.append("op(rho1) != rho3 on the torus")
    return not problems, "; ".join(sorted(set(problems))) or "anti-homomorphism, involution, d-compatible"


# ---------------------------------------------------------------------------
# modules and pairing


def check_surgery_triangle():
    tri = catalog.solid_tori()
    ok = tri.report["exact"] and not any(
        M.verify_d2() for M in (tri.h_infinity, tri.h_minus1, tri.h_zero))
    return ok, str(tri.report)


def check_pairing_fixture():
    C = mor_d_d(catalog.solid_torus("inf"), catalog.solid_torus("minus1"))
    rank = C.homology_rank()
    gens = sorted(C.generators)
    ok = rank == 1 and len(gens) == 3
    return ok, f"generators {gens}, homology rank {rank}"


def check_dd_identity():
    problems = []
    B = catalog.dd_identity(standard_pmc("torus"))
    central = B.restrict_weight(1)
    want = {
        ("x[1|1]", "x[2|2]"): "(1>2)|(3>4)+(1>4)|(1>4)+(3>4)|(1>2)",
        ("x[2|2]", "x[1|1]"): "(2>3)|(2>3)",
    }
    got = {k: repr(v) for k, v in central.delta.items()}
    if got != want:
        problems.append(f"torus central summand mismatch: {got}")
    for which in ("inf", "minus1", "zero"):
        M = catalog.solid_torus(which)
        out = mor_dd_d(B, M).reduce()
        if iso_check(out, M.reduce()) is None:
            problems.append(f"Mor(DD(Id), {which}) not isomorphic to the input")
    for kind in ("split", "antipodal"):
        try:
            catalog.dd_identity(standard_pmc(kind, 2))
        except Exception as e:
            problems.append(f"dd_identity({kind}:2): {e}")
    return not problems, "; ".join(problems) or "central summand exact; identity action; genus 2 gates"


def check_dehn_twists():
    problems = []
    for t in catalog.TWIST_NAMES:
        try:
            catalog.dehn_twist_dd(t)
        except Exception as e:
            problems.append(f"{t}: {e}")
    for t in catalog.TWIST_NAMES:
        for which in ("inf", "minus1", "zero"):
            M = catalog.solid_torus(which)
            out = catalog.apply_twist_word([t, catalog.twist_inverse(t)], M)
            if iso_check(out.reduce(), M.reduce()) is None:
                problems.append(f"{t} then inverse on {which} is not the identity")
    return not problems, "; ".join(problems) or "d^2=0 and twist-inverse identities"


def check_genus1_pipeline():
    problems = []
    if catalog.hf_genus1([], left="h_inf", base="h_minus1") != 1:
        problems.append("S^3 fixture (empty word) rank != 1")
    if catalog.hf_genus1(["Tm"]) != 1:
        problems.append("S^3 via one twist rank != 1")
    if catalog.hf_genus1([]) != 2:
        problems.append("S^2 x S^1 fixture rank != 2")
    for p in range(2, 8):
        r = catalog.hf_genus1(["Tm"] * p)
        if r != p:
            problems.append(f"L({p},1) rank {r} != {p}")
    return not problems, "; ".join(problems) or "S^3, S^2xS^1 and L(p,1) ranks for p in 2..7"


def twist_word_matrix(word):
    """The word's action on the homology lattice of the torus, as (a, b, c, d).

    Gluing two zero-framed solid tori through the word gives a lens space
    (or S^1 x S^2) whose homology rank is |c| for the lower-left entry c,
    or 2 when c = 0.
    """
    mats = {
        "Tm": ((1, 0), (1, 1)), "Tm'": ((1, 0), (-1, 1)),
        "Tl": ((1, -1), (0, 1)), "Tl'": ((1, 1), (0, 1)),
    }
    a, b, c, d = 1, 0, 0, 1
    for tok in word:
        (p, q), (r, s) = mats[tok]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def lattice_rank(word) -> int:
    """The SL2(Z) lattice oracle for ``catalog.hf_genus1(word)``."""
    c = twist_word_matrix(word)[2]
    return abs(c) if c else 2


def check_genus1_lattice(samples: int = 60, max_length: int = 12, seed: int = 11):
    rng = random.Random(seed)
    words = [["Tm"] * 32, ["Tm", "Tl'"] * 5]
    words += [[rng.choice(catalog.TWIST_NAMES) for _ in range(rng.randint(0, max_length))]
              for _ in range(samples)]
    for word in words:
        rank = catalog.hf_genus1(word)
        if rank != lattice_rank(word):
            return False, f"{' '.join(word)}: rank {rank}, lattice oracle {lattice_rank(word)}"
    return True, (f"Tm^32, (Tm Tl')^5 and {samples} random words of length <= {max_length} "
                  "match the lattice oracle")


def check_knot_invariants():
    knots = {"trefoil": trefoil_cfk(), "figure8": figure8_cfk(), "unknot": unknot_cfk()}
    taus = {"trefoil": -1, "figure8": 0, "unknot": 0}
    polys = {"trefoil": {1: 1, 0: -1, -1: 1}, "figure8": {1: -1, 0: 3, -1: -1}, "unknot": {0: 1}}
    problems = [f"tau({k}) != {t}" for k, t in taus.items() if tau(knots[k]) != t]
    problems += [f"Alexander({k}) wrong" for k, poly in polys.items()
                 if alexander_polynomial(knots[k]) != poly]
    return not problems, "; ".join(problems) or "tau and Alexander polynomials match"


def check_cfk_to_cfd():
    problems = []
    m0 = cfk_to_cfd(unknot_cfk(), 0)
    h0 = catalog.solid_torus("zero")
    if iso_check(m0.rename(lambda n: "n"), h0) is None:
        problems.append("unknot at framing 0 is not the zero-framed solid torus")
    m1 = cfk_to_cfd(trefoil_cfk(), 1)
    mus = [g for g in m1.generators if g.startswith("mu")]
    if len(mus) != 3 or len(m1.generators) != 8:
        problems.append(f"trefoil at framing 1: {len(m1.generators)} generators, {len(mus)} mu")
    for complex_ in (unknot_cfk(), trefoil_cfk(), figure8_cfk()):
        for n in range(-4, 5):
            try:
                cfk_to_cfd(complex_, n)  # d^2 = 0 gated inside
            except Exception as e:
                problems.append(f"framing {n}: {e}")
    return not problems, "; ".join(problems) or "translations verified across framings -4..4"


def check_satellite():
    res = satellite("cable21", trefoil_cfk(), -2)
    dec = res.decomposition
    problems = []
    if len(res.mor_complex.generators) != 29:
        problems.append(f"{len(res.mor_complex.generators)} generators != 29")
    if not (dec.free_rank == 1 and tuple(dec.torsion) == (2, 1) and not dec.unit_torsion):
        problems.append(f"decomposition {dec}")
    if res.u0_rank != 5:
        problems.append(f"U=0 rank {res.u0_rank} != 5")
    return not problems, "; ".join(problems) or "29 generators; F2[U] + U^2 + U torsion; U=0 rank 5"


def check_satellite_truncation(sizes=(25, 49, 97)):
    """The C/U^N oracle, N = 1..3, on cable21 satellites of plain staircases
    of k generators at framing -2(k - 1).  The free rank must be 1, as for
    every knot in S^3, and C/U is the U = 0 specialization."""
    problems, shapes = [], []
    for k in sizes:
        res = satellite("cable21", staircase_cfk([1] * (k - 1)), -2 * (k - 1))
        dec = res.decomposition
        shapes.append(f"{k}:{len(res.mor_complex.generators)}")
        fault = _truncation_fault(res.mor_complex, dec, 3)
        if dec.free_rank != 1 or dec.truncated_rank(1) != res.u0_rank or fault:
            problems.append(f"{k} generators: {fault or dec}, U=0 rank {res.u0_rank}")
    return not problems, "; ".join(problems) or (
        f"companion:Mor generators {' '.join(shapes)}; C/U^N ranks agree for N=1..3")


def check_underslides(genus2: bool = True):
    # the torus slides, each paired literally through its own bimodule and
    # never through a twist, against the lattice oracle of the word they spell
    problems = []
    torus, h0 = standard_pmc("torus"), catalog.solid_torus("zero")
    slides = {t: catalog.underslide_dd(catalog.make_arcslide(torus, *feet))
              for t, feet in catalog.TWIST_SLIDES.items()}
    rng = random.Random(3)
    words = [list(slides)] + [rng.choices(list(slides), k=rng.randint(1, 8)) for _ in range(12)]
    for word in words:
        M = h0
        for t in reversed(word):
            M = mor_dd_d(slides[t], M).reduce()
        if mor_d_d(h0, M).homology_rank() != lattice_rank(word):
            problems.append(f"the torus slides of {' '.join(word)} miss the lattice oracle")
    if genus2:
        for kind in ("split", "antipodal"):
            circle = standard_pmc(kind, 2)
            for slide in catalog.all_underslides(circle):
                try:
                    catalog.underslide_dd(slide)  # d^2 = 0 gated inside
                except Exception as e:
                    problems.append(f"{kind}:2 slide ({slide.b1},{slide.c1}): {e}")
    return not problems, "; ".join(problems) or f"{len(words)} torus slide words match the lattice"


def check_swap_invert():
    """Gluing the sides the other way round gives the same manifold:
    hf_genus1(w, L, B) == hf_genus1(w^-1, B, L), w^-1 the reversed word of
    inverse letters, on genus-1 words in both spellings between solid tori
    and on split:2 words between handlebody:2 sides."""
    rng = random.Random(18)
    letters = [*catalog.TWIST_NAMES,
               *(f"underslide:split:1:{b1}:{c1}" for b1, c1 in catalog.TWIST_SLIDES.values())]
    split2 = [f"underslide:split:2:{s.b1}:{s.c1}"
              for s in catalog.all_underslides(standard_pmc("split", 2))]
    tori = ("h_0", "h_inf", "h_minus1")
    cases = [(rng.choices(letters, k=rng.randint(0, 9)), *rng.choices(tori, k=2)) for _ in range(150)]
    cases += [(rng.choices(split2, k=rng.randint(0, 6)), "handlebody:2", "handlebody:2")
              for _ in range(20)]
    for word, left, base in cases:
        inverse = [catalog.twist_inverse(t) for t in reversed(word)]
        if catalog.hf_genus1(word, left, base) != catalog.hf_genus1(inverse, base, left):
            return False, f"{' '.join(word)} between {left} and {base} changes rank when swapped"
    return True, "150 genus-1 and 20 split:2 words keep their rank when swapped and inverted"


# ---------------------------------------------------------------------------
# F2[U] Smith-form oracle


def random_f2u_complex(rng: random.Random, max_gens: int = 8, max_degree: int = 4):
    """A random valid complex: a two-layer map or a disguised standard form."""
    n = rng.randint(1, max_gens)
    gens = [f"g{i}" for i in range(n)]
    diff: dict = {}
    if rng.random() < 0.5 and n >= 2:
        # arbitrary matrix, read as a two-layer complex
        cut = rng.randint(1, n - 1)
        for j in range(cut, n):
            for i in range(cut):
                if rng.random() < 0.45:
                    p = rng.getrandbits(max_degree + 1)
                    if p:
                        diff[(gens[j], gens[i])] = p
    else:
        # standard pieces conjugated by random filtered-free transvections
        mat = [[0] * n for _ in range(n)]
        i = 0
        while i + 1 < n:
            if rng.random() < 0.7:
                mat[i + 1][i] = 1 << rng.randint(0, max_degree)  # d(g_{i+1}) = U^k g_i
                i += 2
            else:
                i += 1
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            t = rng.randint(0, max_degree)
            # e_i <- e_i + U^t e_j: row j += U^t row i, col i += U^t col j
            for c in range(n):
                mat[j][c] ^= mat[i][c] << t
            for r in range(n):
                mat[r][i] ^= mat[r][j] << t
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    diff[(gens[j], gens[i])] = mat[i][j]
    return F2UComplex(gens, diff)


def _truncation_fault(C: F2UComplex, dec: F2UDecomposition, top: int):
    """Where the rank of C/U^N, N = 1..top, differs from the prediction."""
    for N in range(1, top + 1):
        want, got = dec.truncated_rank(N), C.truncate(N).homology_rank()
        if want != got:
            return f"N={N} predicted {want} brute {got}"
    return None


def check_snf_oracle(samples: int = 1000, seed: int = 7):
    rng = random.Random(seed)
    for trial in range(samples):
        C = random_f2u_complex(rng)
        dec = C.homology()
        fault = _truncation_fault(C, dec, max([1] + list(dec.torsion)) + 2)
        if fault:
            return False, f"trial {trial}: {fault} ({dec})"
    return True, f"{samples} random complexes, all truncation ranks agree"


def check_reduce_preserves_homology(samples: int = 30, seed: int = 5):
    rng = random.Random(seed)
    alg = algebra_of(standard_pmc("torus"))
    problems = []
    for _ in range(samples):
        M = _random_bipartite_module(rng, alg)
        before = induced_complex(M).homology_rank()
        red = M.reduce()
        if red.verify_d2():
            problems.append("reduce broke the structure equation")
            break
        after = induced_complex(red).homology_rank()
        if before != after:
            problems.append(f"homology rank changed {before} -> {after}")
            break
        again = red.reduce()
        if iso_check(red, again) is None:
            problems.append("reduce is not idempotent")
            break
    return not problems, "; ".join(problems) or f"{samples} random modules preserved"


def _random_bipartite_module(rng: random.Random, alg, layers: int = 2):
    """A random torus type D module: ``layers`` layers of 1 to 3 generators
    (a0.., b0.., ...), arrows only from one layer into the next, each a
    random sum of the corner's keys.  With two layers no arrows compose;
    with more, d^2 = 0 may fail."""
    sizes = [rng.randint(1, 3) for _ in range(layers)]
    names = [[f"{chr(ord('a') + i)}{j}" for j in range(n)] for i, n in enumerate(sizes)]
    gens = {}
    for layer in names:
        for g in layer:
            gens[g] = (1,) if rng.random() < 0.5 else (2,)
    delta = {}
    for upper, lower in zip(names, names[1:]):
        for src in upper:
            for dst in lower:
                if rng.random() < 0.6:
                    keys = alg.corner_keys(gens[src], gens[dst])
                    if not keys:
                        continue
                    coeff = AlgebraElement.zero(alg.n)
                    for key in keys:
                        if rng.random() < 0.5:
                            coeff = coeff + alg.expand(key)
                    delta[(src, dst)] = coeff  # the module drops a zero one
    return TypeDModule(alg, gens, delta)


# ---------------------------------------------------------------------------
# driver


ALL_CHECKS = [
    ("torus_algebra", check_torus_algebra, {}),
    ("strand_properties", check_strand_properties, {"samples": 10000}),
    ("closure", check_closure, {}),
    ("opposite_algebra", check_opposite, {}),
    ("surgery_triangle", check_surgery_triangle, {}),
    ("pairing_fixture", check_pairing_fixture, {}),
    ("dd_identity", check_dd_identity, {}),
    ("dehn_twists", check_dehn_twists, {}),
    ("genus1_pipeline", check_genus1_pipeline, {}),
    ("genus1_lattice", check_genus1_lattice, {}),
    ("knot_invariants", check_knot_invariants, {}),
    ("cfk_to_cfd", check_cfk_to_cfd, {}),
    ("satellite", check_satellite, {}),
    ("satellite_truncation", check_satellite_truncation, {}),
    ("underslides", check_underslides, {}),
    ("swap_invert", check_swap_invert, {}),
    ("snf_oracle", check_snf_oracle, {"samples": 1000}),
    ("reduce_homology", check_reduce_preserves_homology, {}),
]

FAST_OVERRIDES = {
    "strand_properties": {"samples": 1500},
    "snf_oracle": {"samples": 150},
    "underslides": {"genus2": False},
    "genus1_lattice": {"samples": 10},
    "satellite_truncation": {"sizes": (25,)},
}


def run_all(fast: bool = False):
    results = []
    for name, fn, kwargs in ALL_CHECKS:
        opts = dict(kwargs)
        if fast:
            opts.update(FAST_OVERRIDES.get(name, {}))
        try:
            ok, detail = fn(**opts)
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"exception: {e}"
        results.append(CheckResult(name, ok, detail))
    return results
