"""One registry for the process-wide memos of ``bhf``.

Every memo that outlives a call (solid tori and twisted solid tori, twist
bimodules and their halves, pattern halves, standard circles, their
algebras and the torus elements) is a ``functools.lru_cache`` made by
``memo`` and registered by module and qualified name; call-local caches
and a half's own memos (``TargetHalf.product``) are not.  ``clear()``
empties every registered memo, circles, algebras (with their own caches)
and torus elements included: these compare by value, so what was built
before a clear still works with what is built after it.  An algebra's own
caches include the corner of each admissible diagram
(``SurfaceAlgebra.admissible_corner``), which every module check over that
algebra shares, and its corner-key table, the basis keys of each corner
filed one weight at a time (``SurfaceAlgebra.corner_keys``), which every
Mor builder shares; they go with the algebra, so they need no entry here.
``sizes()`` counts the entries of each memo.

``_nogc`` is the package's other piece of process-wide state: the guard
that pauses CPython's cyclic garbage collector around the public entry
points that allocate in bulk (parsing and writing documents, building
catalog bimodules, pairing, cancelling, homology).  The objects they build
are tuples, frozensets and dicts that hold no reference cycles, so the
collector finds nothing in them and its passes are pure cost.  The guard
leaves alone a collector that is already off, which covers nested calls
and callers that paused it themselves; ``tests/test_nogc.py`` holds the
pipelines to leaving no cyclic garbage.  The switch is process-wide, so a
thread running beside a guarded call may lose the pause early or share it;
that moves when cycles are freed, never what a call returns.
"""

import functools
import gc

_registry: dict = {}


def memo(fn=None, *, maxsize=None):
    """``@memo`` or ``@memo(maxsize=N)``: a registered ``functools.lru_cache``."""
    if fn is None:
        return functools.partial(memo, maxsize=maxsize)
    _registry[f"{fn.__module__}.{fn.__qualname__}"] = cached = functools.lru_cache(maxsize)(fn)
    return cached


def clear() -> None:
    for cached in _registry.values():
        cached.cache_clear()


def sizes() -> dict[str, int]:
    return {name: cached.cache_info().currsize for name, cached in _registry.items()}


def _nogc(fn):
    """``fn`` with the cyclic garbage collector paused for the call, when it
    is enabled; it is enabled again on return and on a raise."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    # ``__wrapped__`` marks the bench's tracing wrappers (``bench/spans.py``),
    # which must all be gone after a traced pass; this one stays
    del paused.__wrapped__
    return paused
