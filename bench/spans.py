"""Per-layer spans for the bench, recorded from outside the bhf package.

Each entry point below is replaced, on its module or class, by a wrapper
that times the call, subtracts the time of the spans nested inside it (self
time) and adds counters read off the arguments and the result.  Spans are
aggregated in memory by (instance id, parent entry point, entry point), so a
traced pass keeps the call tree per instance without storing each of the
million small calls a genus-1 pass makes.

A module-level function is also rebound wherever another bhf module holds
it under its own name: ``catalog`` imports ``mor_d_d`` and ``mor_dd_d`` from
``pairing`` and ``knots`` imports ``mor_d_ud``, and calls through those names
would otherwise be missed.  ``bhf.serialize`` on the package is the function
of that name, so the module is reached through ``sys.modules``.

An entry point whose module, class or function no longer exists is
reported as missing; installing the rest goes on.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _sizes(obj):
    """(generators, arrows) of a module or complex, whichever kind it is."""
    for attr in ("delta", "entries", "differential"):
        arrows = getattr(obj, attr, None)
        if arrows is not None:
            return len(obj.generators), len(arrows)
    raise TypeError(f"no arrows on {type(obj).__name__}")


def _cells(matrix):
    size = getattr(matrix, "size", None)  # numpy array
    return int(size) if size is not None else matrix.m * matrix.n  # f2u matrix


def _mul(c, args, result):
    a, b = args[0], args[1]
    c["pairs"] += len(a.terms) * len(b.terms)
    c["nonzero"] += bool(result.terms)


def _expand(c, args, result):
    c.setdefault("keys", set()).add((args[0], args[1]))  # (algebra, basis key)


def _keys_out(c, args, result):
    c["keys_out"] += len(result)


def _tensor_pairs(c, args, result):
    c["pairs"] += len(args[0].terms) * len(args[1].terms)


def _arrows_in(c, args, result):
    c["arrows_in"] += len(args[0].delta)


def _sizes_out(c, args, result):
    gens, arrows = _sizes(result)
    c["gens_out"] += gens
    c["arrows_out"] += arrows


def _reduce(c, args, result):
    c["gens_in"] += len(args[0].generators)
    _sizes_out(c, args, result)


def _cells_in(c, args, result):
    c["cells"] += _cells(args[0])


def _reps_out(c, args, result):
    c["reps_out"] += len(result)


def _gens_in(c, args, result):
    c["gens_in"] += len(args[0].generators)


def _substitutions(c, args, result):
    c["substitutions"] += result[1].substitutions


def _gens_out(c, args, result):
    c["gens_out"] += len(result.generators)


def _arrows_out(c, args, result):
    c["arrows_out"] += len(result.delta)


def _bytes_out(c, args, result):
    c["bytes"] += len(result)


def _bytes_in(c, args, result):
    text = args[0]
    c["bytes"] += len(text) if isinstance(text, str) else 0


@dataclass(frozen=True)
class EntryPoint:
    """One traced layer boundary.

    ``targets`` are "Class.method" or "function" paths inside ``module``;
    all that exist are wrapped and their spans pooled under ``name``.
    ``counters`` lists (metric suffix, unit, better) reported next to
    ``.calls`` and ``.self_s``; ``count`` fills the raw sums they use.
    """

    name: str
    module: str
    targets: tuple[str, ...]
    counters: tuple[tuple[str, str, str], ...] = ()
    count: Callable | None = None


_COUNT = ("count", "lower")
ENTRY_POINTS = (
    EntryPoint("strands.mul", "bhf.strands", ("AlgebraElement.__mul__",),
               (("pairs", *_COUNT), ("nonzero_ratio", "ratio", "higher")), _mul),
    EntryPoint("strands.d", "bhf.strands", ("AlgebraElement.d",)),
    EntryPoint("strands.expand", "bhf.strands", ("SurfaceAlgebra.expand",),
               (("distinct_ratio", "ratio", "higher"),), _expand),
    EntryPoint("strands.decompose", "bhf.strands", ("SurfaceAlgebra.decompose",),
               (("keys_out", *_COUNT),), _keys_out),
    EntryPoint("strands.idempotent", "bhf.strands", ("SurfaceAlgebra.idempotent",)),
    EntryPoint("strands.basis_keys", "bhf.strands", ("SurfaceAlgebra.basis_keys",),
               (("keys_out", *_COUNT),), _keys_out),
    EntryPoint("strands.corner_keys", "bhf.strands", ("SurfaceAlgebra.corner_keys",)),
    EntryPoint("dmodules.tensor_mul", "bhf.dmodules", ("TensorElement.__mul__",),
               (("pairs", *_COUNT),), _tensor_pairs),
    EntryPoint("dmodules.tensor_decompose", "bhf.dmodules", ("TensorElement.decompose",)),
    EntryPoint("dmodules.validate", "bhf.dmodules",
               ("TypeDModule.validate", "UTypeDModule.validate", "TypeDDModule.validate")),
    EntryPoint("dmodules.verify_d2", "bhf.dmodules",
               ("TypeDModule.verify_d2", "UTypeDModule.verify_d2", "TypeDDModule.verify_d2"),
               (("arrows_in", *_COUNT),), _arrows_in),
    EntryPoint("dmodules.reduce", "bhf.dmodules",
               ("TypeDModule.reduce", "UTypeDModule.reduce", "TypeDDModule.reduce"),
               (("gens_in", *_COUNT), ("gens_out", *_COUNT), ("arrows_out", *_COUNT)), _reduce),
    *(
        EntryPoint(f"pairing.{fn}", "bhf.pairing", (fn,),
                   (("gens_out", *_COUNT), ("arrows_out", *_COUNT)), _sizes_out)
        for fn in ("mor_dd_d", "mor_d_d", "mor_d_ud")
    ),
    EntryPoint("gf2.gf2_rank", "bhf.gf2", ("gf2_rank",), (("cells", *_COUNT),), _cells_in),
    EntryPoint("gf2.validate", "bhf.gf2", ("F2ChainComplex.validate",)),
    EntryPoint("gf2.homology_rank", "bhf.gf2", ("F2ChainComplex.homology_rank",)),
    EntryPoint("gf2.homology_representatives", "bhf.gf2",
               ("F2ChainComplex.homology_representatives",),
               (("reps_out", *_COUNT),), _reps_out),
    EntryPoint("f2u.homology", "bhf.f2u", ("f2u_homology",), (("gens_in", *_COUNT),), _gens_in),
    EntryPoint("f2u.snf", "bhf.f2u", ("smith_normal_form",), (("cells", *_COUNT),), _cells_in),
    EntryPoint("f2u.validate", "bhf.f2u", ("F2UComplex.validate",)),
    EntryPoint("knots.simplify_basis", "bhf.knots", ("simplify_basis",),
               (("substitutions", *_COUNT),), _substitutions),
    EntryPoint("knots.cfk_to_cfd", "bhf.knots", ("cfk_to_cfd",),
               (("gens_out", *_COUNT),), _gens_out),
    EntryPoint("knots.tau", "bhf.knots", ("tau",)),
    EntryPoint("catalog.apply_twist_word", "bhf.catalog", ("apply_twist_word",),
               (("gens_out", *_COUNT),), _gens_out),
    EntryPoint("catalog.dd_identity", "bhf.catalog", ("dd_identity",),
               (("arrows_out", *_COUNT),), _arrows_out),
    EntryPoint("catalog.underslide_dd", "bhf.catalog", ("underslide_dd",),
               (("arrows_out", *_COUNT),), _arrows_out),
    EntryPoint("serialize.dumps", "bhf.serialize", ("dumps",),
               (("bytes", "bytes", "lower"),), _bytes_out),
    EntryPoint("serialize.parse_document", "bhf.serialize", ("parse_document",),
               (("bytes", "bytes", "lower"),), _bytes_in),
    EntryPoint("serialize.serialize", "bhf.serialize", ("serialize",)),
)

OVERHEAD = "trace.overhead_ratio"


def metric_specs(entry_points=ENTRY_POINTS) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for ep in entry_points:
        out.append((f"{ep.name}.calls", "count", "lower"))
        out.append((f"{ep.name}.self_s", "s", "lower"))
        out.extend((f"{ep.name}.{suffix}", unit, better) for suffix, unit, better in ep.counters)
    out.append((OVERHEAD, "ratio", "lower"))
    return out


class Recorder:
    """Spans and counters of one pass; records only while ``instance`` is set."""

    def __init__(self):
        self.instance: str | None = None
        self._stack: list[list] = []  # [entry point name, child time]
        # (instance, parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str, str], list] = {}
        self.counts: dict[str, defaultdict] = {}
        self.counter_errors: set[str] = set()

    def wrap(self, ep: EntryPoint, fn):
        counts = self.counts.setdefault(ep.name, defaultdict(int))
        count = ep.count
        stack = self._stack
        edges = self.edges
        name = ep.name

        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else "-"
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (self.instance, parent, name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dt, dt - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dt
                    edge[2] += dt - frame[1]
            if count is not None:
                try:
                    count(counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.counter_errors.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, entry_points=ENTRY_POINTS) -> dict[str, float]:
        """Per-layer metric values of this pass (no overhead ratio)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (_, _, name), (n, _, s) in self.edges.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        out = {}
        for ep in entry_points:
            n = calls.get(ep.name, 0)
            c = self.counts.get(ep.name, {})
            out[f"{ep.name}.calls"] = n
            out[f"{ep.name}.self_s"] = self_s.get(ep.name, 0.0)
            for suffix, _, _ in ep.counters:
                if suffix == "nonzero_ratio":
                    value = c.get("nonzero", 0) / n if n else 0.0
                elif suffix == "distinct_ratio":
                    value = len(c.get("keys", ())) / n if n else 0.0
                else:
                    value = c.get(suffix, 0)
                out[f"{ep.name}.{suffix}"] = value
        return out

    def edge_table(self) -> list[dict]:
        return [
            {"instance": i, "parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (i, p, n), (c, t, s) in sorted(self.edges.items())
        ]


class Installation:
    """Wrappers installed for one recorder; ``uninstall`` restores the originals."""

    def __init__(self, recorder: Recorder, entry_points=ENTRY_POINTS):
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        for ep in entry_points:
            if not self._install(recorder, ep):
                self.missing.append(ep.name)

    def _install(self, recorder: Recorder, ep: EntryPoint) -> bool:
        try:
            importlib.import_module(ep.module)
        except ImportError:
            return False
        module = sys.modules[ep.module]
        found = False
        for target in ep.targets:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                continue
            found = True
            wrapper = recorder.wrap(ep, fn)
            self._set(owner, attr, wrapper)
            if owner is module:
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is module or not (name == "bhf" or name.startswith("bhf.")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, key, wrapper)
        return found

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
