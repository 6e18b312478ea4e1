"""The bench workloads: seeded instance sets, the request each instance makes
of bhf, and the independent oracle that checks each answer.

``make_instances`` is a pure function of (workload, seed) and runs no bhf
code, so the program under test sees only the generated inputs.  Sizes are
fixed per stratum and the seed picks among inputs of the same size, so the
work in one instance set changes little from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("genus1", "satellite", "bimodules")


def make_instances(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}/{seed}")
    instances, prefix = _GENERATORS[workload](rng)
    for i, inst in enumerate(instances):
        inst["id"] = f"{prefix}{i:02d}"
    return instances


def digest(instances: list[dict]) -> str:
    text = json.dumps(instances, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prepare(workload: str, bhf) -> dict:
    """Catalog objects that every instance of the workload shares."""
    if workload == "genus1":
        return {"h_0": bhf.solid_torus("h_0"),
                "twists": [bhf.dehn_twist_dd(t) for t in TWISTS]}
    if workload == "satellite":
        return {"torus": bhf.torus_algebra()}
    return {}


def solve(inst: dict, state: dict, bhf):
    """The timed request; returns a JSON-able answer."""
    return _SOLVERS[inst["kind"]](inst, state, bhf)


def check(inst: dict, answer, state: dict, bhf) -> str | None:
    """The untimed oracle; returns why the answer is wrong, or None."""
    return _CHECKS[inst["kind"]](inst, answer, state, bhf)


# ---------------------------------------------------------------------------
# genus1: hf_genus1 on twist words

TWISTS = ("Tm", "Tm'", "Tl", "Tl'")

# The twists acting on the homology lattice of the torus, as in the lattice
# oracle of tests/test_catalog.py: gluing two h_0 solid tori through a word
# gives rank |c| for the lower-left entry c, or 2 (S1 x S2) when c = 0.
LATTICE = {
    "Tm": ((1, 0), (1, 1)), "Tm'": ((1, 0), (-1, 1)),
    "Tl": ((1, -1), (0, 1)), "Tl'": ((1, 1), (0, 1)),
}

# Short random words: lengths 6..14 in turn, lattice entries at most 8.  The
# time of hf_genus1 on such a word follows the total size of the modules it
# passes through, sum |a| + |c| over the suffixes of the word (correlation
# 0.96 on bhf 0.1.0), so word i is drawn with that sum fixed at one of
# 16..30 in turn: the median and tail latencies then move little with the
# seed.
RANDOM_WORDS = 34
RANDOM_ENTRY_CAP = 8
RANDOM_WORK = (16, 30)
LENS_POWERS = (20, 26, 32)  # deep words Tm^p over small modules
# Continued-fraction words Tm^a Tl'^b ... with rank 48..64.  On these words
# the final morphism complex has 2|a| + 3|c| generators (measured on bhf
# 0.1.0), so each word is drawn with exactly one of these sizes.
WIDE_SIZES = (197, 213, 227)
WIDE_RANKS = (48, 64)


def word_matrix(word):
    a, b, c, d = 1, 0, 0, 1
    for tok in word:
        (p, q), (r, s) = LATTICE[tok]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return a, b, c, d


def module_work(word) -> int:
    """Sum of |a| + |c| over the suffixes of the word.  On the block words
    below, |a| + |c| is the generator count of the reduced module, so the
    sum tracks the modules apply_twist_word builds on the way."""
    total = 0
    for k in range(len(word)):
        a, _, c, _ = word_matrix(word[k:])
        total += abs(a) + abs(c)
    return total


def lattice_rank(word) -> int:
    c = word_matrix(word)[2]
    return abs(c) if c else 2


def _wide_word(rng, size):
    lo, hi = WIDE_RANKS
    while True:
        word = []
        while abs(word_matrix(word)[2]) < lo:
            word += ["Tm"] * rng.randint(1, 3) + ["Tl'"] * rng.randint(1, 3)
        a, _, c, _ = word_matrix(word)
        if abs(c) <= hi and 2 * abs(a) + 3 * abs(c) == size:
            return word


def _genus1(rng):
    out = []
    lo, hi = RANDOM_WORK
    for i in range(RANDOM_WORDS):
        length = 6 + i % 9
        work = lo + (hi - lo) * i // (RANDOM_WORDS - 1)
        while True:
            word = [rng.choice(TWISTS) for _ in range(length)]
            if (max(map(abs, word_matrix(word))) <= RANDOM_ENTRY_CAP
                    and module_work(word) == work):
                break
        out.append({"kind": "random", "word": word})
    for p in LENS_POWERS:
        out.append({"kind": "lens", "word": ["Tm"] * p})
    for size in WIDE_SIZES:
        out.append({"kind": "wide", "word": _wide_word(rng, size)})
    rng.shuffle(out)
    return out, "g"


def _solve_word(inst, state, bhf):
    return bhf.hf_genus1(inst["word"])


def _check_word(inst, answer, state, bhf):
    want = lattice_rank(inst["word"])
    return None if answer == want else f"rank {answer}, lattice oracle {want}"


# ---------------------------------------------------------------------------
# satellite: the (2,1)-cable of staircase companions

# Companions are symmetric staircases: generators x0..x_k with alternating
# vertical and horizontal arrows of the given step lengths, so that
# tau = -(sum of steps) / 2.  Strata: 5-generator staircases with half-sums
# 2, 3, 4 in turn; 7-generator ones with half-sums 3, 4; two plain
# staircases of 9 and 11 generators; and the pinned trefoil fixture.
STAIR5 = 31
STAIR7 = 6
PLAIN_STEPS = (8, 10)


def _split(rng, total, parts):
    """A uniform choice among the ways to write ``total`` as ``parts`` steps
    of length 1..3."""
    choices = [c for c in itertools.product((1, 2, 3), repeat=parts) if sum(c) == total]
    return list(rng.choice(choices))


def _satellite(rng):
    # Framings 2tau-1, 2tau, 2tau+1 hit the three branches of cfk_to_cfd; the
    # middle one is cheaper, so each size meets every framing equally often.
    shift = rng.randrange(3)
    out = []
    for i in range(STAIR5):
        half = _split(rng, 2 + i % 3, 2)
        out.append({"kind": "stair", "steps": half + half[::-1],
                    "offset": (i // 3 + shift) % 3 - 1})
    for i in range(STAIR7):
        half = _split(rng, 3 + i % 2, 3)
        out.append({"kind": "stair", "steps": half + half[::-1],
                    "offset": (i // 2 + shift) % 3 - 1})
    for n in PLAIN_STEPS:
        out.append({"kind": "stair", "steps": [1] * n, "offset": rng.randrange(3) - 1})
    out.append({"kind": "fixture"})
    rng.shuffle(out)
    return out, "s"


def staircase(bhf, steps):
    top = sum(steps) // 2
    alexander, parities, entries = {}, {}, []
    for i in range(len(steps) + 1):
        alexander[f"x{i}"] = top - sum(steps[:i])
        parities[f"x{i}"] = 1 if i % 2 == 0 else -1
    for i, step in enumerate(steps):
        if i % 2 == 0:  # vertical arrow x_i -> x_{i+1}
            entries.append((f"x{i}", 0, f"x{i + 1}"))
        else:  # horizontal arrow x_{i+1} -> U^step x_i
            entries.append((f"x{i + 1}", step, f"x{i}"))
    return bhf.CFKComplex(alexander, entries, parities=parities)


def _satellite_answer(res):
    dec = res.decomposition
    return {
        "gens": len(res.mor_complex.generators),
        "free_rank": dec.free_rank,
        "torsion": list(dec.torsion),
        "unit_torsion": list(dec.unit_torsion),
        "u0_rank": res.u0_rank,
        "truncated_1": dec.truncated_rank(1),
    }


def _solve_stair(inst, state, bhf):
    companion = staircase(bhf, inst["steps"])
    framing = -sum(inst["steps"]) + inst["offset"]
    return _satellite_answer(bhf.satellite("cable21", companion, framing))


def _solve_fixture(inst, state, bhf):
    return _satellite_answer(bhf.satellite("cable21", bhf.trefoil_cfk(), -2))


def _check_satellite(answer):
    if answer["free_rank"] != 1:
        return f"free rank {answer['free_rank']}, expected 1"
    if answer["truncated_1"] != answer["u0_rank"]:
        return f"truncated_rank(1) {answer['truncated_1']} != U=0 rank {answer['u0_rank']}"
    return None


def _check_stair(inst, answer, state, bhf):
    want_tau = -sum(inst["steps"]) // 2
    got_tau = bhf.tau(staircase(bhf, inst["steps"]))
    if got_tau != want_tau:
        return f"tau {got_tau}, expected {want_tau}"
    return _check_satellite(answer)


TREFOIL_FIXTURE = {"gens": 29, "free_rank": 1, "torsion": [2, 1], "unit_torsion": [],
                   "u0_rank": 5, "truncated_1": 5}


def _check_fixture(inst, answer, state, bhf):
    if answer != TREFOIL_FIXTURE:
        return f"trefoil cable {answer}, pinned {TREFOIL_FIXTURE}"
    return _check_satellite(answer)


# ---------------------------------------------------------------------------
# bimodules: genus-2 DD bimodules, built and dumped, or loaded from a dump

SPLIT2 = ((1, 3), (2, 4), (5, 7), (6, 8))
IDENTITY_BUILDS = 2
UNDERSLIDE_BUILDS = 5
LOADS_PER_BUILD = 4


def _matchings(points):
    if not points:
        yield ()
        return
    first = points[0]
    for other in points[1:]:
        rest = [p for p in points if p not in (first, other)]
        for tail in _matchings(rest):
            yield ((first, other),) + tail


def _connected(pairs, n):
    """One circle after surgery on every pair (the validity rule of a circle)."""
    partner = {}
    for i, j in pairs:
        partner[i], partner[j] = j, i
    seen, t, steps = set(), 1, 0
    while t not in seen:
        seen.add(t)
        t = partner[t + 1 if t < n else 1]
        steps += 1
    return steps == n


def genus2_circles() -> list[tuple]:
    return [m for m in _matchings(list(range(1, 9))) if _connected(m, 8)]


def underslides(pairs) -> list[tuple[int, int]]:
    """(b1, c1) of every underslide: b1 slides over the adjacent foot c1 and
    lies strictly between c1 and its partner."""
    partner = {}
    for i, j in pairs:
        partner[i], partner[j] = j, i
    out = []
    for b1 in sorted(partner):
        for c1 in (b1 - 1, b1 + 1):
            if c1 not in partner or partner[b1] == c1:
                continue
            lo, hi = sorted((c1, partner[c1]))
            if lo < b1 < hi:
                out.append((b1, c1))
    return out


def _bimodules(rng):
    circles = [c for c in genus2_circles() if c != SPLIT2]
    picks = rng.sample(circles, IDENTITY_BUILDS + UNDERSLIDE_BUILDS)
    builds = [{"kind": "identity", "circle": c} for c in picks[:IDENTITY_BUILDS]]
    for c in picks[IDENTITY_BUILDS:]:
        b1, c1 = rng.choice(underslides(c))
        builds.append({"kind": "underslide", "circle": c, "b1": b1, "c1": c1})
    rng.shuffle(builds)
    builds.insert(0, {"kind": "pair", "circle": SPLIT2})
    out = []
    for i, build in enumerate(builds):
        build["build"] = i
        out.append(build)
        for _ in range(LOADS_PER_BUILD):
            out.append({"kind": "load", "source": rng.randrange(i + 1)})
    return out, "b"


def _finish_build(inst, state, bhf, module):
    text = bhf.dumps(bhf.serialize(module))
    state.setdefault("dumps", {})[inst["build"]] = text
    state["module"] = module  # for the oracle, which runs next
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
            "gens": len(module.generators), "arrows": len(module.delta)}


def _solve_identity(inst, state, bhf):
    circle = bhf.make_pmc(2, inst["circle"])
    return _finish_build(inst, state, bhf, bhf.dd_identity(circle))


def _solve_underslide(inst, state, bhf):
    circle = bhf.make_pmc(2, inst["circle"])
    slide = bhf.make_arcslide(circle, inst["b1"], inst["c1"])
    return _finish_build(inst, state, bhf, bhf.underslide_dd(slide))


def _solve_load(inst, state, bhf):
    text = state.get("dumps", {}).get(inst["source"])
    if text is None:
        raise LookupError(f"build {inst['source']} left no dump")
    module = bhf.parse_document(text)
    state["module"] = module
    return {"gens": len(module.generators), "arrows": len(module.delta)}


def _check_build(gens):
    def check(inst, answer, state, bhf):
        if answer["gens"] != gens:
            return f"{answer['gens']} generators, expected {gens}"
        return None
    return check


def _check_pair(inst, answer, state, bhf):
    reason = _check_build(16)(inst, answer, state, bhf)
    if reason:
        return reason
    identity = state["module"]
    handlebody = bhf.handlebody(2)
    paired = bhf.mor_dd_d(identity, handlebody).reduce()
    if bhf.iso_check(paired, handlebody) is None:
        return "mor_dd_d(dd_identity, handlebody(2)) is not handlebody(2)"
    return None


def _check_load(inst, answer, state, bhf):
    text = state["dumps"][inst["source"]]
    if bhf.dumps(state["module"]) != text:
        return "re-dump differs from the loaded dump"
    return None


_GENERATORS = {"genus1": _genus1, "satellite": _satellite, "bimodules": _bimodules}
_SOLVERS = {
    "random": _solve_word, "lens": _solve_word, "wide": _solve_word,
    "stair": _solve_stair, "fixture": _solve_fixture,
    "pair": _solve_identity, "identity": _solve_identity,
    "underslide": _solve_underslide, "load": _solve_load,
}
_CHECKS = {
    "random": _check_word, "lens": _check_word, "wide": _check_word,
    "stair": _check_stair, "fixture": _check_fixture,
    "pair": _check_pair, "identity": _check_build(16),
    "underslide": _check_build(20), "load": _check_load,
}
