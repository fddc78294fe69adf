"""Runtime scaling: parallel workers and the evaluation cache.

The acceptance experiment for the batch-evaluation runtime: a 200-sample
DSE run (Xception on VCU110, the Fig. 10 setting) evaluated

* serially (``jobs=1``) — the reference path,
* with 4 *forced* worker processes (``jobs=4``) — results must be
  identical; the wall-clock ratio is reported honestly (on hosts without
  4 real cores the pool is a net loss, and the artifact says so instead
  of advertising a sub-1x ratio as a "speedup"),
* with ``jobs="auto"`` — the default heuristic, which refuses to fork
  when the host or the batch cannot amortize the pool,
* again against a warm on-disk cache — the cache-hit rate must be
  positive (it is in fact 100%) and the run dramatically faster.

The wall-clock ratios depend on the host (shared CI runners advertise more
vCPUs than they reliably deliver), so they are printed, not asserted;
perfbench (``perfbench/``) is the gated timing harness.
"""

import os
import time

from repro.api import resolve_board, resolve_model
from repro.dse import CustomDesignSpace, sample_space
from repro.runtime import BatchEvaluator
from benchmarks.conftest import show

MODEL = "xception"
BOARD = "vcu110"
SAMPLES = 200
SEED = 2025
PARALLEL_JOBS = 4


def _timed_run(evaluator, space, **kwargs):
    start = time.perf_counter()
    results, stats = sample_space(evaluator, space, SAMPLES, seed=SEED, **kwargs)
    return results, stats, time.perf_counter() - start


def test_runtime_scaling(tmp_path):
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    space = CustomDesignSpace(graph.conv_specs())
    cache_dir = tmp_path / "cache"

    # Warm the process-global memoization (parallelism/divisor LRUs) first;
    # forked workers inherit it, so timing a cold serial run against warm
    # workers would overstate the parallel speedup.
    _timed_run(BatchEvaluator(graph, board), space)

    serial, serial_stats, serial_time = _timed_run(
        BatchEvaluator(graph, board), space
    )

    with BatchEvaluator(graph, board, jobs=PARALLEL_JOBS) as evaluator:
        parallel, parallel_stats, parallel_time = _timed_run(evaluator, space)

    with BatchEvaluator(graph, board, jobs="auto") as evaluator:
        auto, auto_stats, auto_time = _timed_run(evaluator, space)

    # Populate the on-disk cache, then replay against it cold.
    with BatchEvaluator(graph, board, cache_dir=cache_dir) as evaluator:
        _timed_run(evaluator, space)
    with BatchEvaluator(graph, board, cache_dir=cache_dir) as evaluator:
        cached, cached_stats, cached_time = _timed_run(evaluator, space)

    speedup = serial_time / parallel_time if parallel_time else float("inf")
    cache_speedup = serial_time / cached_time if cached_time else float("inf")
    submitted = cached_stats.evaluated + cached_stats.failed
    hit_rate = cached_stats.cache_hits / submitted if submitted else 0.0
    cpus = os.cpu_count() or 1

    parallel_verdict = (
        f"speedup {speedup:.2f}x"
        if speedup >= 1.0
        else f"SLOWDOWN {speedup:.2f}x (pool overhead; {cpus} CPU(s) cannot feed "
        f"{PARALLEL_JOBS} workers)"
    )
    text = (
        f"DSE batch evaluation: {MODEL} on {BOARD}, {SAMPLES} samples, seed {SEED}\n"
        f"host CPUs:            {cpus}\n"
        f"\n"
        f"serial   (jobs=1):    {serial_time:8.2f} s   "
        f"{serial_stats.ms_per_design:6.2f} ms/design\n"
        f"forced   (jobs={PARALLEL_JOBS}):    {parallel_time:8.2f} s   "
        f"{parallel_verdict}\n"
        f"auto     (jobs=auto): {auto_time:8.2f} s   "
        f"resolved to {auto_stats.jobs} job(s)\n"
        f"warm disk cache:      {cached_time:8.2f} s   "
        f"speedup {cache_speedup:.2f}x, hit rate {100 * hit_rate:.0f}%\n"
    )
    show("runtime scaling", text)

    # Correctness: parallelism and caching must not change a single result.
    assert [(d, r) for d, r in parallel] == [(d, r) for d, r in serial]
    assert [(d, r) for d, r in auto] == [(d, r) for d, r in serial]
    assert [(d, r) for d, r in cached] == [(d, r) for d, r in serial]
    assert parallel_stats.jobs == PARALLEL_JOBS
    # The auto heuristic must never fork on a host that cannot win from it.
    if cpus == 1:
        assert auto_stats.jobs == 1

    # Cache effectiveness: repeated runs answer from the cache.
    assert cached_stats.cache_hits > 0
    assert hit_rate == 1.0


def test_cached_hit():
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    space = CustomDesignSpace(graph.conv_specs())
    evaluator = BatchEvaluator(graph, board)
    designs = list(space.sample(32, seed=1))
    warm = evaluator.evaluate_designs(designs)

    reports = evaluator.evaluate_designs(designs)
    assert reports == warm
    assert any(r is not None for r in reports)
    assert evaluator.last_run.cache_hits == len(designs)
