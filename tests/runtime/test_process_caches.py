"""``clear_process_caches`` keeps cold measurements cold.

Cold runs (perfbench's ``sweep-cold``, the cold evaluators in
``test_replay.py``) reset the process-global memos before each measured
operation. A memo the reset misses would let a "cold" run read warm state,
so every ``functools.lru_cache`` of the cost model's core and utility
modules must be empty after the reset. The zoo's graph cache is set-up,
not a cost-model memo, and is out of scope.
"""

import importlib
import inspect
import pkgutil

import repro.core
import repro.utils
from repro import api
from repro.runtime.bench import clear_process_caches


def _modules(package):
    yield package
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        yield importlib.import_module(info.name)


def _lru_caches(module):
    """``name -> cache`` for every lru_cache defined in ``module``, at
    module level or on one of its classes."""
    owners = [module] + [
        value
        for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    found = {}
    for owner in owners:
        for value in vars(owner).values():
            wrapped = getattr(value, "__wrapped__", None)
            if hasattr(value, "cache_info") and getattr(wrapped, "__module__", None) == module.__name__:
                found[f"{module.__name__}:{wrapped.__qualname__}"] = value
    return found


def core_and_utils_caches():
    caches = {}
    for package in (repro.core, repro.utils):
        for module in _modules(package):
            caches.update(_lru_caches(module))
    return caches


def test_every_core_and_utils_lru_cache_is_empty_after_the_reset():
    caches = core_and_utils_caches()
    # The discovery must see the memos a sweep is known to fill.
    assert {
        "repro.core.parallelism:_search_cached",
        "repro.utils.mathutils:_factors_cached",
    } <= set(caches)

    api.sweep("squeezenet", "zc706", jobs=1)
    assert caches["repro.core.parallelism:_search_cached"].cache_info().currsize > 0

    clear_process_caches()
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert sizes == dict.fromkeys(caches, 0)
