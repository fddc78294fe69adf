"""Hot-path acceptance: cold vs segment-cached vs fingerprint-cached.

The paper's methodology rests on MCCM evaluations being cheap enough to
spend freely (Section V-E, ~6 ms/design over an 846-billion-point space);
this benchmark tracks what one evaluation actually costs at every rung of
the runtime's cache hierarchy, on the Fig. 10 setting (Xception, VCU110,
seed 2025). It emits ``results/hotpath.json`` (machine-readable, consumed
by CI and future PRs' comparisons) and asserts the two properties the
segment cache must never lose:

* composed reports are **bit-identical** to the cold path's, and
* segment-cached evaluation is decisively faster than a full rebuild
  (>= 2x as a contention-proof floor; >= 5x under
  ``MCCM_REQUIRE_SPEEDUP=1`` — below the ~6–10x measured on a 2-vCPU
  host with Python 3.11).
"""

import os

from repro.api import resolve_board, resolve_model
from repro.core.cost.export import report_to_dict
from repro.dse.space import CustomDesignSpace
from repro.runtime.batch import BatchEvaluator
from repro.runtime.bench import (
    clear_process_caches,
    format_hotpath_result,
    run_hotpath_benchmark,
    write_hotpath_json,
)

MODEL = "xception"
BOARD = "vcu110"
SAMPLES = 96
SEED = 2025


def test_hotpath(results_dir):
    result = run_hotpath_benchmark(
        model=MODEL, board=BOARD, samples=SAMPLES, seed=SEED
    )

    write_hotpath_json(result, str(results_dir / "hotpath.json"))
    print(f"\n=== hotpath.json ===\n{format_hotpath_result(result)}\n")

    # Correctness before speed: every cache rung must reproduce the cold
    # reports bit-for-bit (the harness compares full report equality).
    assert result["identical"] is True
    assert result["feasible"] > 0

    speedup = result["segment_cached"]["speedup_vs_cold"]
    assert speedup >= 2.0, (
        f"segment-cached evaluation only {speedup:.2f}x faster than cold"
    )
    if os.environ.get("MCCM_REQUIRE_SPEEDUP"):
        assert speedup >= 5.0, (
            f"expected >= 5x segment-cached speedup, got {speedup:.2f}x"
        )
    # The fingerprint rung sits above the segment rung by construction.
    assert (
        result["fingerprint_cached"]["ms_per_design"]
        <= result["segment_cached"]["ms_per_design"]
    )


def test_hotpath_bit_identity_detailed(results_dir):
    """Field-level identity via the lossless export, not just ``==``."""
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    space = CustomDesignSpace(graph.conv_specs())
    specs = [design.to_spec() for design in space.sample(32, seed=SEED)]

    clear_process_caches()
    cold = BatchEvaluator(graph, board, jobs=1, segment_cache_entries=0)
    cold_reports = cold.evaluate_specs(specs)

    clear_process_caches()
    cached = BatchEvaluator(graph, board, jobs=1)
    cached.evaluate_specs(specs)  # warm the segment cache
    replay = BatchEvaluator(graph, board, jobs=1, segment_cache=cached.segment_cache)
    cached_reports = replay.evaluate_specs(specs)

    for cold_report, cached_report in zip(cold_reports, cached_reports):
        assert (cold_report is None) == (cached_report is None)
        if cold_report is not None:
            assert report_to_dict(cold_report) == report_to_dict(cached_report)


def test_benchmark_segment_cached_evaluation(benchmark):
    """pytest-benchmark unit: one design through the warm segment path."""
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    space = CustomDesignSpace(graph.conv_specs())
    spec = next(iter(space.sample(1, seed=SEED))).to_spec()
    warm = BatchEvaluator(graph, board, jobs=1)
    reference = warm.evaluate_spec(spec)

    def evaluate_fresh_fingerprint():
        evaluator = BatchEvaluator(
            graph, board, jobs=1, segment_cache=warm.segment_cache
        )
        return evaluator.evaluate_spec(spec)

    report = benchmark(evaluate_fresh_fingerprint)
    assert report == reference
