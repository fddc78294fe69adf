"""Reset the process-global memos before a cold measurement.

The module holds :func:`clear_process_caches` only. perfbench
(``perfbench/``), the repository's one timing harness, calls it before
each cold operation, and its tracer imports this module by name, so the
module and the function keep their names.
"""

from __future__ import annotations


def clear_process_caches() -> None:
    """Reset the process-global memoization the cost model accumulates.

    The parallelism search and divisor tables are ``lru_cache``-backed
    process globals; clearing them makes a "cold" measurement honestly
    cold instead of riding on earlier evaluations in the same process.
    """
    from repro.core import parallelism
    from repro.utils import mathutils

    parallelism._search_cached.cache_clear()
    mathutils._factors_cached.cache_clear()
