"""Parallel, cached batch evaluation of architecture specs.

The paper's methodology banks on MCCM evaluations being cheap enough to
spend freely (Section V-E: ~6 ms/design); this module makes the library
spend them *well*:

* every request is fingerprinted (:mod:`repro.runtime.fingerprint`) and
  memoized through an in-memory LRU plus an optional on-disk JSON cache,
  so sweeps, local search, and repeated CLI runs never re-evaluate a
  design they have already seen;
* fingerprint misses are built and costed by one
  :class:`~repro.core.cost.vector.PopulationKernel` per evaluator (and
  per pool worker);
* cache misses fan out over a ``multiprocessing`` worker pool with
  chunked dispatch, while results stream back to the caller **in request
  order** so downstream code stays deterministic;
* every batch records :class:`RunStats` (evaluations, cache hits, wall
  time).

``jobs=1`` short-circuits the pool entirely and evaluates inline with the
same builder/model objects a serial caller would use, so single-process
results are bit-identical to the pre-runtime code path. The default
``jobs="auto"`` only forks when it can plausibly win: never on a 1-CPU
host, and never for a batch whose miss count is too small to amortize
pool startup — ``benchmarks/test_runtime_scaling.py`` prints the sub-1x
"speedup" that forcing a pool on a small host actually delivers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cnn.graph import CNNGraph
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.results import CostReport
from repro.core.cost.vector import PopulationKernel, PopulationOutcome
from repro.core.notation import ArchitectureSpec
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, Precision
from repro.runtime.cache import CacheEntry, DiskCache, LRUCache
from repro.runtime.fingerprint import spec_fingerprint
from repro.utils.mathutils import ceil_div

if TYPE_CHECKING:  # multiprocessing loads when a pool starts
    import multiprocessing.pool

    from repro.core.cost.export import RawJSON

#: ``jobs="auto"``: smallest miss count worth a worker pool. Pool startup
#: costs ~100 ms plus per-task pickling; with cold evaluations running
#: around a millisecond, small batches always lose the fork.
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
    #: The report's JSON text when this batch's disk tier wrote it (see
    #: :meth:`DiskCache.put`); None otherwise.
    report_text: Optional[RawJSON] = None

    @property
    def feasible(self) -> bool:
        return self.report is not None


# --- worker-process plumbing -------------------------------------------------
# Each worker builds one kernel (builder and model) at pool start; tasks
# then carry only the lightweight ArchitectureSpec.

_WORKER_KERNEL: Optional[PopulationKernel] = None


def _worker_init(graph: CNNGraph, board: FPGABoard, precision: Precision) -> None:
    global _WORKER_KERNEL
    _WORKER_KERNEL = PopulationKernel(MultipleCEBuilder(graph, board, precision))


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
    memory:
        The in-memory tier: by default a private 65,536-entry
        :class:`LRUCache`. Evaluators of different contexts may share one
        (a fingerprint hashes its context, so their keys never collide);
        a service worker's contexts all do.
    cache_dir:
        Optional directory for the persistent JSON cache shared across
        processes and runs.
    segment_cache_entries:
        Compatibility shim from when evaluators held a segment cache:
        ``0`` (no segment cache, today the only path) is accepted and
        any other value raises :class:`ValueError`. Its one caller is
        ``perfbench/inproc.py``'s ``recost_front``; the benchmark change
        that drops that argument (``ROADMAP.md``) deletes this one too.
    """

    def __init__(
        self,
        graph: CNNGraph,
        board: FPGABoard,
        precision: Precision = DEFAULT_PRECISION,
        *,
        jobs: Union[int, str] = "auto",
        memory: Optional[LRUCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        segment_cache_entries: int = 0,
    ) -> None:
        if segment_cache_entries != 0:
            raise ValueError(
                "the segment cache has been removed; segment_cache_entries "
                f"accepts only 0, got {segment_cache_entries}"
            )
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
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self._builder = MultipleCEBuilder(graph, board, precision)
        self._context = self._builder.context
        self._memory = memory if memory is not None else LRUCache()
        self._disk = DiskCache(cache_dir) if cache_dir is not None else None
        self._kernel = PopulationKernel(self._builder)
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_jobs = 0
        self.last_run = RunStats(jobs=self.jobs)
        self.totals = RunStats(jobs=self.jobs)

    # --- lifecycle -----------------------------------------------------------
    @property
    def builder(self) -> MultipleCEBuilder:
        return self._builder

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
        cpus = os.cpu_count() or 1
        if cpus <= 1 or miss_count < AUTO_FORK_MIN_MISSES:
            return 1
        return max(2, min(cpus, miss_count // AUTO_MISSES_PER_WORKER))

    def _ensure_pool(self, jobs: int) -> "multiprocessing.pool.Pool":
        # An existing pool is reused even if a later batch resolves to a
        # different auto size: worker startup dwarfs the marginal gain of
        # resizing, and results never depend on the worker count.
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(
                processes=jobs,
                initializer=_worker_init,
                initargs=(self.graph, self.board, self.precision),
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

    def in_memory(self, key: str) -> bool:
        """Whether the in-memory tier holds ``key`` (a replay of it reads no
        disk and evaluates nothing); counts no hit or miss."""
        return key in self._memory

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

    def _store(self, key: str, entry: CacheEntry) -> Optional[RawJSON]:
        """Keep ``entry``; the report's text when the disk tier wrote one."""
        self._memory.put(key, entry)
        return self._disk.put(key, entry) if self._disk is not None else None

    # --- evaluation ----------------------------------------------------------
    def stream(
        self,
        specs: Iterable[ArchitectureSpec],
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
        texts: dict = {}  # report texts the disk tier wrote, until yielded
        try:
            for index, (key, spec) in enumerate(zip(keys, spec_list)):
                while key not in resolved:
                    ready_key, entry = next(inflight)
                    stats.evaluations += 1
                    if not entry.feasible:
                        stats.infeasible += 1
                    texts[ready_key] = self._store(ready_key, entry)
                    resolved[ready_key] = entry
                entry = resolved[key]
                duplicate = key in yielded
                if duplicate:
                    # Later occurrence of a spec already handled this batch:
                    # memoized, so account it as an in-memory hit.
                    stats.memory_hits += 1
                yielded.add(key)
                stats.elapsed_seconds = time.perf_counter() - start
                yield BatchItem(
                    index=index,
                    spec=spec,
                    key=key,
                    report=entry.report,
                    reason=entry.reason,
                    cached=duplicate or key in cached_keys,
                    report_text=texts.pop(key, None),
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
        # Aim for ~4 chunks per worker: enough slack to rebalance a
        # straggler, big enough that per-chunk pickling does not drown the
        # millisecond evaluations.
        chunk = max(1, min(64, ceil_div(len(specs), self._pool_jobs * 4)))
        return pool.imap(_worker_evaluate, specs, chunksize=chunk)

    def evaluate_specs(self, specs: Iterable[ArchitectureSpec]) -> List[Optional[CostReport]]:
        """Batch evaluate; ``None`` marks infeasible specs (request order)."""
        return [item.report for item in self.stream(specs)]

    def evaluate_designs(self, designs: Iterable) -> List[Optional[CostReport]]:
        """Batch evaluate :class:`~repro.dse.space.CustomDesign` points.

        The entry point of every DSE batch (samples, local-search
        neighbourhoods, campaign generations). The evaluator, and with it
        the worker pool and fingerprint cache, is meant to be reused across
        batches, so each generation starts warm.
        """
        return self.evaluate_specs([design.to_spec() for design in designs])

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
        return info
