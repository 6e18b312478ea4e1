"""The bench's per-layer tracer still finds every entry point it wraps.

``bench/spans.py`` wraps methods by looking them up on their classes, for
instance ``vars(TypeDModule)["reduce"]``.  A refactor that moves a traced
method off its class would leave that layer unmeasured; these tests catch
it in the main suite and not only in ``bench/selftest.py``.
"""

import importlib.util
import sys
from pathlib import Path

from bhf.catalog import dehn_twist_dd, solid_torus
from bhf.knots import cable21_pattern

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    if "bench_spans" not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        module = sys.modules["bench_spans"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_spans"]


def test_every_bench_entry_point_is_found():
    spans = _spans()
    installation = spans.Installation(spans.Recorder())
    try:
        assert installation.missing == []
    finally:
        installation.uninstall()


def test_shared_module_methods_are_traced_for_every_kind():
    spans = _spans()
    modules = [solid_torus("minus1"), cable21_pattern(), dehn_twist_dd("Tm")]
    recorder = spans.Recorder()
    installation = spans.Installation(recorder)
    try:
        recorder.instance = "kinds"
        for module in modules:
            module.validate()
            module.verify_d2()
            module.reduce()
    finally:
        recorder.instance = None
        installation.uninstall()
    metrics = recorder.metrics()
    for name in ("dmodules.validate", "dmodules.verify_d2", "dmodules.reduce"):
        assert metrics[f"{name}.calls"] == len(modules), name
