"""Execution runtime: parallel, cached batch evaluation (sweeps and DSE).

This layer sits between the cost model and every bulk caller (``api.sweep``,
the DSE samplers/searchers, the CLI). See ``docs/architecture.md`` for the
cache-key and worker-pool design.
"""

from repro.runtime.batch import BatchEvaluator, BatchItem, RunStats
from repro.runtime.cache import CacheEntry, DiskCache, LRUCache
from repro.runtime.fingerprint import (
    CACHE_SCHEMA_VERSION,
    context_fingerprint,
    fingerprint,
    spec_fingerprint,
)

__all__ = [
    "BatchEvaluator",
    "BatchItem",
    "RunStats",
    "CacheEntry",
    "DiskCache",
    "LRUCache",
    "CACHE_SCHEMA_VERSION",
    "context_fingerprint",
    "fingerprint",
    "spec_fingerprint",
]
