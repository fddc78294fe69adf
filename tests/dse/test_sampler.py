"""Tests for design evaluation and sampling."""

import pytest

from repro.dse.sampler import sample_space
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.runtime import BatchEvaluator


@pytest.fixture(scope="module")
def setup(roomy_board):
    from tests.conftest import build_tiny_cnn

    cnn = build_tiny_cnn()
    evaluator = BatchEvaluator(cnn, roomy_board)
    space = CustomDesignSpace(evaluator.builder.conv_specs, ce_counts=(2, 3, 4))
    return evaluator, space


class TestEvaluateDesigns:
    def test_returns_report(self, setup):
        evaluator, space = setup
        design = CustomDesign(pipelined_layers=2, cuts=(5,), num_layers=8)
        [report] = evaluator.evaluate_designs([design])
        assert report is not None
        assert report.latency_cycles > 0

    def test_caches_results(self, setup):
        evaluator, _ = setup
        design = CustomDesign(pipelined_layers=2, cuts=(5,), num_layers=8)
        [first] = evaluator.evaluate_designs([design])
        [second] = evaluator.evaluate_designs([design])
        assert first is second

    def test_custom_name_in_report(self, setup):
        evaluator, _ = setup
        design = CustomDesign(pipelined_layers=1, cuts=(4, 6), num_layers=8)
        [report] = evaluator.evaluate_designs([design])
        assert report.accelerator_name == "Custom-p1-s3"


class TestSampleSpace:
    def test_counts_and_stats(self, setup):
        evaluator, space = setup
        results, stats = sample_space(evaluator, space, count=15, seed=1)
        assert stats.evaluated == len(results)
        assert stats.evaluated + stats.failed == 15
        assert stats.elapsed_seconds >= 0.0
        assert stats.ms_per_design >= 0.0

    def test_results_carry_reports(self, setup):
        evaluator, space = setup
        results, _ = sample_space(evaluator, space, count=10, seed=2)
        for design, report in results:
            assert design.ce_count >= 2
            assert report.throughput_fps > 0

    def test_empty_run(self, setup):
        evaluator, space = setup
        results, stats = sample_space(evaluator, space, count=0, seed=3)
        assert results == [] and stats.evaluated == 0
        assert stats.ms_per_design == 0.0
