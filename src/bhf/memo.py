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
"""

import functools

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
