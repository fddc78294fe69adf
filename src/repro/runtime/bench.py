"""Hot-path benchmark harness (``repro bench`` / ``benchmarks/test_hotpath.py``).

One instrument, one seeded design sample (the Fig. 10 custom space),
one measurement per rung of the cache hierarchy:

* **cold** — a fresh evaluator with segment memoization disabled and the
  process-global computation caches cleared: what evaluation cost before
  incremental evaluation existed (and still costs for a one-off design).
* **warmup** — a fresh evaluator populating its segment cache for the
  first time: every design pays its own segment builds, minus whatever
  the batch's designs already share with each other.
* **segment-cached** — a second evaluator *sharing* the now-warm segment
  cache but with a fresh fingerprint cache: every design is a
  fingerprint miss, so each evaluation runs the full incremental path —
  look up its N segments, run the Eq. 2/3 composition. This is the
  steady state of a DSE session or a warm service answering design
  variations.
* **fingerprint-cached** — the same batch replayed against the warm
  evaluator: pure fingerprint hits, the service's replay path.

The harness verifies that all report streams are bit-identical before
reporting any timing, so a "fast but wrong" regression cannot produce a
flattering number. Results are machine-readable
(``benchmarks/results/hotpath.json``) so the perf trajectory is tracked
across PRs.
"""

from __future__ import annotations

import json
import os
import time
from typing import List

from repro.api import resolve_board, resolve_model
from repro.dse.space import CustomDesignSpace
from repro.runtime.batch import BatchEvaluator
from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError

#: ``--quick`` acceptance gate: segment-cached evaluation must beat the
#: cold path by at least this factor. Deliberately far below the measured
#: ratio (>= 5x on every tested host) so CI noise cannot trip it.
QUICK_SPEEDUP_THRESHOLD = 2.0

#: Canonical benchmark setting: the paper's heaviest DSE configuration.
DEFAULT_MODEL = "xception"
DEFAULT_BOARD = "vcu110"
DEFAULT_SAMPLES = 96
DEFAULT_SEED = 2025


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


def _timed_batch(evaluator: BatchEvaluator, specs) -> tuple:
    start = time.perf_counter()
    reports = evaluator.evaluate_specs(specs)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def run_hotpath_benchmark(
    model: str = DEFAULT_MODEL,
    board: str = DEFAULT_BOARD,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Time cold vs segment-cached vs fingerprint-cached evaluation.

    Returns a JSON-ready dict; ``identical`` is True only when every rung
    produced a bit-identical report stream.
    """
    graph = resolve_model(model)
    fpga = resolve_board(board)
    space = CustomDesignSpace(graph.conv_specs())
    designs = list(space.sample(samples, seed=seed))
    specs = [design.to_spec() for design in designs]
    if not specs:
        raise ValueError("benchmark sample is empty")

    clear_process_caches()
    cold_reports, cold_time = _timed_batch(
        BatchEvaluator(graph, fpga, jobs=1, segment_cache_entries=0), specs
    )

    # Warm a segment cache from scratch (its own honest timing), then hand
    # the warm cache to a *fresh* evaluator: every design below is a
    # fingerprint miss evaluated through the incremental segment path.
    clear_process_caches()
    warm_evaluator = BatchEvaluator(graph, fpga, jobs=1)
    warm_reports, warm_time = _timed_batch(warm_evaluator, specs)

    seg_evaluator = BatchEvaluator(
        graph, fpga, jobs=1, segment_cache=warm_evaluator.segment_cache
    )
    seg_reports, seg_time = _timed_batch(seg_evaluator, specs)

    fp_reports, fp_time = _timed_batch(seg_evaluator, specs)

    identical = cold_reports == warm_reports == seg_reports == fp_reports
    count = len(specs)
    seg_cache = seg_evaluator.segment_cache
    feasible = sum(1 for report in cold_reports if report is not None)

    def per_design(elapsed: float) -> float:
        return 1000.0 * elapsed / count

    cold_ms = per_design(cold_time)
    warm_ms = per_design(warm_time)
    seg_ms = per_design(seg_time)
    fp_ms = per_design(fp_time)
    return {
        "model": model,
        "board": board,
        "samples": count,
        "feasible": feasible,
        "seed": seed,
        "identical": identical,
        "cold": {"elapsed_seconds": cold_time, "ms_per_design": cold_ms},
        "warmup": {
            "elapsed_seconds": warm_time,
            "ms_per_design": warm_ms,
            "speedup_vs_cold": cold_ms / warm_ms if warm_ms else float("inf"),
        },
        "segment_cached": {
            "elapsed_seconds": seg_time,
            "ms_per_design": seg_ms,
            "speedup_vs_cold": cold_ms / seg_ms if seg_ms else float("inf"),
            "cache": seg_cache.info() if seg_cache is not None else None,
        },
        "fingerprint_cached": {
            "elapsed_seconds": fp_time,
            "ms_per_design": fp_ms,
            "speedup_vs_cold": cold_ms / fp_ms if fp_ms else float("inf"),
        },
        "host_cpus": os.cpu_count() or 1,
    }


def format_hotpath_result(result: dict) -> str:
    """Human-readable rendering of :func:`run_hotpath_benchmark` output."""
    seg = result["segment_cached"]
    fp = result["fingerprint_cached"]
    cache = seg.get("cache") or {}
    warm = result["warmup"]
    lines = [
        f"MCCM hot path: {result['model']} on {result['board']}, "
        f"{result['samples']} sampled designs (seed {result['seed']}), "
        f"{result['host_cpus']} CPU(s)",
        "",
        f"cold (full rebuild):   {result['cold']['ms_per_design']:8.3f} ms/design",
        f"segment-cache warmup:  {warm['ms_per_design']:8.3f} ms/design   "
        f"{warm['speedup_vs_cold']:6.1f}x vs cold",
        f"segment-cached:        {seg['ms_per_design']:8.3f} ms/design   "
        f"{seg['speedup_vs_cold']:6.1f}x vs cold",
        f"fingerprint-cached:    {fp['ms_per_design']:8.3f} ms/design   "
        f"{fp['speedup_vs_cold']:6.1f}x vs cold",
        "",
        f"segment cache: {cache.get('entries', 0)} entries, "
        f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses "
        f"({100 * cache.get('hit_rate', 0.0):.0f}%), "
        f"{cache.get('evaluations', 0)} block evaluations computed",
        f"reports bit-identical across all paths: {result['identical']}",
    ]
    return "\n".join(lines)


def write_hotpath_json(result: dict, path: str) -> None:
    """Write the benchmark result where CI / the benchmark suite expect it.

    Creates missing parent directories; a path that cannot be written
    raises :class:`MCCMError`.
    """
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_atomic(path, text.encode("utf-8"))
    except OSError as error:
        raise MCCMError(f"cannot write benchmark result {path}: {error}") from None


def check_hotpath_result(
    result: dict, threshold: float = QUICK_SPEEDUP_THRESHOLD
) -> List[str]:
    """Guard-rail verdicts for ``repro bench --quick`` (empty = pass)."""
    problems: List[str] = []
    if not result["identical"]:
        problems.append(
            "segment-cached reports are NOT bit-identical to the cold path"
        )
    speedup = result["segment_cached"]["speedup_vs_cold"]
    if speedup < threshold:
        problems.append(
            f"segment-cached evaluation is only {speedup:.2f}x faster than "
            f"cold (guard threshold {threshold:.1f}x)"
        )
    return problems
