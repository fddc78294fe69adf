"""Parallel, cached batch evaluation of architecture specs.

The paper's methodology banks on MCCM evaluations being cheap enough to
spend freely (Section V-E: ~6 ms/design); this module makes the library
spend them *well*:

* every request is fingerprinted (:mod:`repro.runtime.fingerprint`) and
  memoized through an in-memory LRU plus an optional on-disk JSON cache,
  so sweeps, local search, and repeated CLI runs never re-evaluate a
  design they have already seen;
* fingerprint misses are evaluated by one
  :class:`~repro.core.cost.vector.PopulationKernel` per evaluator (and
  per pool worker), **incrementally** through a
  :class:`~repro.runtime.segcache.SegmentCostCache`: designs sharing
  segments (every DSE neighbourhood, most sweeps) share the per-segment
  build and costing work, with composed reports bit-identical to the
  cold path;
* cache misses fan out over a ``multiprocessing`` worker pool with
  chunked dispatch, while results stream back to the caller **in request
  order** so downstream code stays deterministic;
* every batch records :class:`RunStats` (evaluations, cache hits, wall
  time) and can report incremental progress through a callback.

``jobs=1`` short-circuits the pool entirely and evaluates inline with the
same builder/model objects a serial caller would use, so single-process
results are bit-identical to the pre-runtime code path. The default
``jobs="auto"`` only forks when it can plausibly win: never on a 1-CPU
host, and never for a batch whose miss count is too small to amortize
pool startup — ``benchmarks/results/runtime_scaling.txt`` documents the
sub-1x "speedup" that forcing a pool on a small host actually delivers.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cnn.graph import CNNGraph
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.results import CostReport
from repro.core.cost.vector import PopulationKernel, PopulationOutcome
from repro.core.notation import ArchitectureSpec
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, Precision
from repro.runtime.cache import CacheEntry, DiskCache, LRUCache
from repro.runtime.fingerprint import spec_fingerprint
from repro.runtime.segcache import DEFAULT_SEGMENT_ENTRIES, SegmentCostCache
from repro.utils.mathutils import ceil_div

#: ``progress(completed, total)`` — invoked after each item of a batch.
ProgressCallback = Callable[[int, int], None]

#: ``jobs="auto"``: smallest miss count worth a worker pool. Pool startup
#: costs ~100 ms plus per-task pickling; with segment-cached evaluations
#: running well under a millisecond, small batches always lose the fork.
AUTO_FORK_MIN_MISSES = 128

#: ``jobs="auto"``: misses each forked worker should have to chew on.
AUTO_MISSES_PER_WORKER = 32

@dataclass
class RunStats:
    """Accounting for one batch (or one evaluator's lifetime)."""

    submitted: int = 0
    #: Designs actually built and costed (cache misses).
    evaluations: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    infeasible: int = 0
    elapsed_seconds: float = 0.0
    jobs: int = 1

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    @property
    def ms_per_design(self) -> float:
        if self.submitted == 0:
            return 0.0
        return 1000.0 * self.elapsed_seconds / self.submitted

    def to_dict(self) -> dict:
        """JSON-ready counters (used by the CLI's ``--json`` and the service)."""
        return {
            "submitted": self.submitted,
            "evaluations": self.evaluations,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "infeasible": self.infeasible,
            "elapsed_seconds": self.elapsed_seconds,
            "jobs": self.jobs,
        }

    def absorb(self, other: "RunStats") -> None:
        """Fold another run's counters into this one (for lifetime totals)."""
        self.submitted += other.submitted
        self.evaluations += other.evaluations
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.infeasible += other.infeasible
        self.elapsed_seconds += other.elapsed_seconds
        self.jobs = max(self.jobs, other.jobs)


@dataclass(frozen=True)
class BatchItem:
    """One finalized result of a streamed batch, in request order."""

    index: int
    spec: ArchitectureSpec
    #: The fingerprint the evaluator caches ``spec`` under (``key_for``).
    key: str
    report: Optional[CostReport]
    reason: Optional[str] = None
    cached: bool = False

    @property
    def feasible(self) -> bool:
        return self.report is not None


# --- worker-process plumbing -------------------------------------------------
# Each worker builds one kernel (builder, model, worker-local segment cache)
# at pool start; tasks then carry only the lightweight ArchitectureSpec.
# Segments memoize within each worker's share of the batch without any
# cross-process synchronization.

_WORKER_KERNEL: Optional[PopulationKernel] = None


def _worker_init(
    graph: CNNGraph,
    board: FPGABoard,
    precision: Precision,
    segment_entries: int = DEFAULT_SEGMENT_ENTRIES,
) -> None:
    global _WORKER_KERNEL
    segcache = SegmentCostCache(segment_entries) if segment_entries > 0 else None
    _WORKER_KERNEL = PopulationKernel(
        MultipleCEBuilder(graph, board, precision), segment_cache=segcache
    )


def _as_entry(outcome: PopulationOutcome) -> CacheEntry:
    return CacheEntry(report=outcome.report, reason=outcome.reason)


def _worker_evaluate(spec: ArchitectureSpec) -> CacheEntry:
    assert _WORKER_KERNEL is not None, "worker pool not initialized"
    return _as_entry(_WORKER_KERNEL.evaluate([spec])[0])


class BatchEvaluator:
    """Fingerprinted, memoized, optionally parallel spec evaluation.

    Parameters
    ----------
    graph, board, precision:
        The evaluation context; fixed for the evaluator's lifetime and
        folded into every cache key.
    jobs:
        Worker processes. ``"auto"`` (default) evaluates inline unless the
        host has multiple CPUs **and** a batch carries enough fingerprint
        misses to amortize pool startup (see :data:`AUTO_FORK_MIN_MISSES`);
        results are identical either way. ``1`` always evaluates inline —
        bit-identical to the historical serial path. ``0`` means "one per
        CPU"; any other integer forces that many workers.
    cache_entries:
        Capacity of the in-memory LRU.
    cache_dir:
        Optional directory for the persistent JSON cache shared across
        processes and runs.
    segment_cache:
        Optional externally shared
        :class:`~repro.runtime.segcache.SegmentCostCache`; it must belong
        to this evaluator's (model, board, precision) context. Default:
        a private cache of ``segment_cache_entries`` entries.
    segment_cache_entries:
        Capacity of the private segment cache; ``None`` (default) uses
        :data:`~repro.runtime.segcache.DEFAULT_SEGMENT_ENTRIES`, and ``0``
        disables segment memoization entirely (full rebuild per
        fingerprint miss — the pre-incremental behavior, kept for
        benchmarking the difference).
    progress:
        Default per-batch progress callback; overridable per call.
    """

    def __init__(
        self,
        graph: CNNGraph,
        board: FPGABoard,
        precision: Precision = DEFAULT_PRECISION,
        *,
        jobs: Union[int, str] = "auto",
        cache_entries: int = 65536,
        cache_dir: Optional[Union[str, Path]] = None,
        chunk_size: Optional[int] = None,
        segment_cache: Optional[SegmentCostCache] = None,
        segment_cache_entries: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if segment_cache_entries is None:
            segment_cache_entries = DEFAULT_SEGMENT_ENTRIES
        self._auto_jobs = jobs == "auto"
        if self._auto_jobs:
            jobs = 1
        elif not isinstance(jobs, int):
            raise ValueError(f'jobs must be an int >= 0 or "auto", got {jobs!r}')
        elif jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.graph = graph
        self.board = board
        self.precision = precision
        self.jobs = jobs if jobs > 0 else (multiprocessing.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.progress = progress
        self._builder = MultipleCEBuilder(graph, board, precision)
        self._context = self._builder.context
        self._memory = LRUCache(max_entries=cache_entries)
        self._disk = DiskCache(cache_dir) if cache_dir is not None else None
        if segment_cache is not None:
            self._segcache: Optional[SegmentCostCache] = segment_cache.bind(self._context)
        elif segment_cache_entries > 0:
            self._segcache = SegmentCostCache(segment_cache_entries, context=self._context)
        else:
            self._segcache = None
        self._segment_entries = (
            self._segcache.max_entries if self._segcache is not None else 0
        )
        self._kernel = PopulationKernel(self._builder, segment_cache=self._segcache)
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_jobs = 0
        self.last_run = RunStats(jobs=self.jobs)
        self.totals = RunStats(jobs=self.jobs)

    # --- lifecycle -----------------------------------------------------------
    @property
    def builder(self) -> MultipleCEBuilder:
        return self._builder

    @property
    def segment_cache(self) -> Optional[SegmentCostCache]:
        """This evaluator's segment cache (``None`` when disabled)."""
        return self._segcache

    def _effective_jobs(self, miss_count: int) -> int:
        """Workers to use for a batch with ``miss_count`` fingerprint misses.

        Explicit ``jobs`` values are honored as-is. ``"auto"`` refuses to
        fork when the host has one CPU or the batch is too small for the
        pool to pay for itself, and otherwise sizes the pool so each worker
        has at least :data:`AUTO_MISSES_PER_WORKER` misses to amortize its
        startup.
        """
        if not self._auto_jobs:
            return self.jobs
        cpus = multiprocessing.cpu_count() or 1
        if cpus <= 1 or miss_count < AUTO_FORK_MIN_MISSES:
            return 1
        return max(2, min(cpus, miss_count // AUTO_MISSES_PER_WORKER))

    def _ensure_pool(self, jobs: int) -> "multiprocessing.pool.Pool":
        # An existing pool is reused even if a later batch resolves to a
        # different auto size: worker startup dwarfs the marginal gain of
        # resizing, and results never depend on the worker count.
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                processes=jobs,
                initializer=_worker_init,
                initargs=(self.graph, self.board, self.precision, self._segment_entries),
            )
            self._pool_jobs = jobs
        return self._pool

    def close(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_jobs = 0

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # --- cache plumbing ------------------------------------------------------
    @property
    def context(self) -> str:
        """Fingerprint of this evaluator's (CNN, board, precision) context."""
        return self._context

    def key_for(self, spec: ArchitectureSpec) -> str:
        """The stable fingerprint this evaluator uses for ``spec``."""
        return spec_fingerprint(self._context, spec)

    def _lookup(self, key: str, stats: RunStats) -> Optional[CacheEntry]:
        entry = self._memory.get(key)
        if entry is not None:
            stats.memory_hits += 1
            return entry
        if self._disk is not None:
            entry = self._disk.get(key)
            if entry is not None:
                stats.disk_hits += 1
                self._memory.put(key, entry)
                return entry
        return None

    def _store(self, key: str, entry: CacheEntry) -> None:
        self._memory.put(key, entry)
        if self._disk is not None:
            self._disk.put(key, entry)

    # --- evaluation ----------------------------------------------------------
    def stream(
        self,
        specs: Iterable[ArchitectureSpec],
        progress: Optional[ProgressCallback] = None,
        *,
        keys: Optional[Sequence[str]] = None,
    ) -> Iterator[BatchItem]:
        """Evaluate ``specs``, yielding :class:`BatchItem` in request order.

        Cache hits yield immediately; misses are dispatched to the worker
        pool (when ``jobs > 1``) and merged back in order as they finish.
        Duplicate specs within one batch are evaluated once. ``keys`` are
        the specs' fingerprints (:meth:`key_for`), in order, for a caller
        that already holds them; by default they are computed here.
        """
        spec_list = list(specs)
        total = len(spec_list)
        if keys is not None and len(keys) != total:
            raise ValueError(f"{len(keys)} keys for {total} specs")
        callback = progress if progress is not None else self.progress
        stats = RunStats(submitted=total, jobs=self.jobs)
        self.last_run = stats
        start = time.perf_counter()

        if keys is None:
            keys = [self.key_for(spec) for spec in spec_list]
        resolved: dict = {}
        cached_keys = set()
        pending: List[Tuple[str, ArchitectureSpec]] = []
        pending_seen = set()
        for key, spec in zip(keys, spec_list):
            if key in resolved or key in pending_seen:
                continue
            entry = self._lookup(key, stats)
            if entry is not None:
                resolved[key] = entry
                cached_keys.add(key)
            else:
                pending_seen.add(key)
                pending.append((key, spec))

        use_jobs = self._effective_jobs(len(pending))
        if use_jobs > 1 and self._pool is not None:
            # An existing pool is reused whatever size this batch resolved
            # to; record the worker count that will actually run.
            use_jobs = self._pool_jobs
        stats.jobs = use_jobs
        entries = self._dispatch([spec for _key, spec in pending], use_jobs)
        inflight = zip((key for key, _spec in pending), entries)

        yielded = set()
        try:
            for index, (key, spec) in enumerate(zip(keys, spec_list)):
                while key not in resolved:
                    ready_key, entry = next(inflight)
                    stats.evaluations += 1
                    if not entry.feasible:
                        stats.infeasible += 1
                    self._store(ready_key, entry)
                    resolved[ready_key] = entry
                entry = resolved[key]
                duplicate = key in yielded
                if duplicate:
                    # Later occurrence of a spec already handled this batch:
                    # memoized, so account it as an in-memory hit.
                    stats.memory_hits += 1
                yielded.add(key)
                stats.elapsed_seconds = time.perf_counter() - start
                if callback is not None:
                    callback(index + 1, total)
                yield BatchItem(
                    index=index,
                    spec=spec,
                    key=key,
                    report=entry.report,
                    reason=entry.reason,
                    cached=duplicate or key in cached_keys,
                )
        finally:
            stats.elapsed_seconds = time.perf_counter() - start
            self.totals.absorb(stats)

    def _dispatch(
        self, specs: Sequence[ArchitectureSpec], jobs: int
    ) -> Iterator[CacheEntry]:
        """Evaluate cache misses — inline when serial, pooled when not."""
        if not specs:
            return iter(())
        if jobs == 1 or len(specs) == 1:
            return map(_as_entry, self._kernel.evaluate(specs))
        pool = self._ensure_pool(jobs)
        if self.chunk_size is not None:
            chunk = self.chunk_size
        else:
            # Aim for ~4 chunks per worker: enough slack to rebalance a
            # straggler, big enough that per-chunk pickling does not drown
            # the sub-millisecond segment-cached evaluations.
            chunk = max(1, min(64, ceil_div(len(specs), self._pool_jobs * 4)))
        return pool.imap(_worker_evaluate, specs, chunksize=chunk)

    def evaluate_specs(
        self,
        specs: Iterable[ArchitectureSpec],
        progress: Optional[ProgressCallback] = None,
    ) -> List[Optional[CostReport]]:
        """Batch evaluate; ``None`` marks infeasible specs (request order)."""
        return [item.report for item in self.stream(specs, progress=progress)]

    def evaluate_spec(self, spec: ArchitectureSpec) -> Optional[CostReport]:
        """Evaluate one spec through the cache (no pool round-trip)."""
        return self.evaluate_specs([spec])[0]

    def evaluate_entry(self, spec: ArchitectureSpec) -> CacheEntry:
        """Like :meth:`evaluate_spec` but keeps the infeasibility reason."""
        # Exhaust the stream so its stats finalization runs deterministically
        # rather than at garbage collection.
        item = list(self.stream([spec]))[0]
        return CacheEntry(report=item.report, reason=item.reason)

    # --- DSE conveniences ----------------------------------------------------
    def stream_designs(
        self, designs: Iterable, progress: Optional[ProgressCallback] = None
    ) -> Iterator[BatchItem]:
        """:meth:`stream` over :class:`~repro.dse.space.CustomDesign` points.

        The design-level entry point every DSE batch flows through
        (campaign generations arrive here via
        ``DesignEvaluator.evaluate_batch``); yields full
        :class:`BatchItem` records for callers that need per-design
        feasibility reasons. The evaluator — and with it the worker pool,
        fingerprint cache, and segment cache — is meant to be reused
        across generations, so each generation's batch starts warm.
        """
        return self.stream([design.to_spec() for design in designs], progress=progress)

    def evaluate_designs(self, designs: Iterable, progress=None) -> List[Optional[CostReport]]:
        """Batch evaluate :class:`~repro.dse.space.CustomDesign` points."""
        return [item.report for item in self.stream_designs(designs, progress=progress)]

    def cache_info(self) -> dict:
        """Introspection snapshot used by the CLI and benchmarks."""
        info = {
            "memory_entries": len(self._memory),
            "memory_hits": self._memory.hits,
            "memory_misses": self._memory.misses,
            "jobs": "auto" if self._auto_jobs else self.jobs,
        }
        if self._disk is not None:
            info["disk_dir"] = str(self._disk.directory)
            info["disk_hits"] = self._disk.hits
            info["disk_misses"] = self._disk.misses
        if self._segcache is not None:
            info["segment_cache"] = self._segcache.info()
        return info
