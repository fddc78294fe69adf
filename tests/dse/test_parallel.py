"""Parallel/serial equivalence and determinism of the DSE stack."""

import pytest

from repro.api import sweep
from repro.dse import CustomDesignSpace, Objective, guided_search, sample_space
from repro.runtime import BatchEvaluator


@pytest.fixture(scope="module")
def context(roomy_board):
    from tests.conftest import build_tiny_cnn

    return build_tiny_cnn(), roomy_board


def _keys(result):
    return [
        (design.pipelined_layers, design.cuts, report.throughput_fps,
         report.buffer_requirement_bytes, report.latency_cycles)
        for design, report in result.evaluated
    ]


class TestSweepParallel:
    def test_parallel_sweep_equals_serial(self, context):
        cnn, board = context
        serial = sweep(cnn, board, ce_counts=[2, 3, 4])
        parallel = sweep(cnn, board, ce_counts=[2, 3, 4], jobs=2)
        assert list(parallel) == list(serial)

    def test_sweep_collects_skipped(self, context):
        cnn, board = context
        # tiny CNN has 8 conv layers: SegmentedRR beyond 8 CEs is infeasible
        result = sweep(cnn, board, architectures=["segmentedrr"], ce_counts=[2, 9, 10])
        assert len(result) == 1
        assert len(result.skipped) == 2
        assert {skip.ce_count for skip in result.skipped} == {9, 10}
        assert all(skip.reason for skip in result.skipped)

    def test_sweep_stats_populated(self, context):
        cnn, board = context
        result = sweep(cnn, board, ce_counts=[2, 3])
        assert result.stats.submitted == result.stats.evaluations == len(result)

    def test_explicit_runtime_must_match_request(self, context, small_board):
        from repro.runtime import BatchEvaluator

        cnn, board = context
        runtime = BatchEvaluator(cnn, board)
        with pytest.raises(ValueError):
            sweep(cnn, small_board, ce_counts=[2], runtime=runtime)
        with pytest.raises(ValueError):
            sweep(cnn, board, ce_counts=[2], runtime=runtime, jobs=2)
        # matching context is accepted and reuses the runtime's cache
        sweep(cnn, board, ce_counts=[2], runtime=runtime)
        again = sweep(cnn, board, ce_counts=[2], runtime=runtime)
        assert again.stats.cache_hits == len(again)

    def test_sweep_cache_dir_round_trip(self, context, tmp_path):
        cnn, board = context
        warm = sweep(cnn, board, ce_counts=[2, 3], cache_dir=tmp_path / "c")
        cold = sweep(cnn, board, ce_counts=[2, 3], cache_dir=tmp_path / "c")
        assert list(cold) == list(warm)
        assert cold.stats.evaluations == 0
        assert cold.stats.cache_hits == len(warm)


class TestSampleSpaceParallel:
    def test_same_designs_any_jobs(self, context):
        cnn, board = context
        space = CustomDesignSpace(cnn.conv_specs(), ce_counts=(2, 3, 4))
        serial, _ = sample_space(BatchEvaluator(cnn, board), space, 12, seed=3)
        with BatchEvaluator(cnn, board, jobs=2) as evaluator:
            parallel, stats = sample_space(evaluator, space, 12, seed=3)
        assert [(d, r) for d, r in parallel] == [(d, r) for d, r in serial]
        assert stats.jobs == 2

    def test_cache_hits_reported(self, context):
        cnn, board = context
        space = CustomDesignSpace(cnn.conv_specs(), ce_counts=(2, 3, 4))
        evaluator = BatchEvaluator(cnn, board)
        _, first = sample_space(evaluator, space, 10, seed=4)
        _, second = sample_space(evaluator, space, 10, seed=4)
        assert first.cache_hits == 0
        assert second.cache_hits == 10


class TestGuidedSearchDeterminism:
    def test_jobs_do_not_change_the_search(self, context):
        cnn, board = context
        space = CustomDesignSpace(cnn.conv_specs(), ce_counts=(2, 3, 4))
        objective = Objective(cost_metric="buffers")
        serial = guided_search(
            BatchEvaluator(cnn, board), space, samples=10, objective=objective, seed=11
        )
        with BatchEvaluator(cnn, board, jobs=2) as evaluator:
            parallel = guided_search(
                evaluator, space, samples=10, objective=objective, seed=11
            )
        assert _keys(parallel) == _keys(serial)
        assert _keys(parallel) and _keys(serial)

    def test_same_seed_same_result(self, context):
        cnn, board = context
        space = CustomDesignSpace(cnn.conv_specs(), ce_counts=(2, 3, 4))
        objective = Objective(cost_metric="buffers")
        evaluator = BatchEvaluator(cnn, board)
        a = guided_search(evaluator, space, samples=8, objective=objective, seed=5)
        b = guided_search(evaluator, space, samples=8, objective=objective, seed=5)
        assert _keys(a) == _keys(b)
