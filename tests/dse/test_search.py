"""Tests for DSE search strategies and objectives."""

import pytest

from repro.dse.objectives import Objective, matches_throughput, throughput_at_most_cost
from repro.dse.search import guided_search, local_search, random_search, run_search
from repro.dse.space import CustomDesignSpace
from repro.runtime import BatchEvaluator


def assert_distinct_front_designs(result):
    """Each design appears at most once on a search's front."""
    keys = [(d.pipelined_layers, d.cuts) for d, _ in result.front]
    assert len(keys) == len(set(keys)), keys


@pytest.fixture(scope="module")
def setup(roomy_board):
    from tests.conftest import build_tiny_cnn

    cnn = build_tiny_cnn()
    evaluator = BatchEvaluator(cnn, roomy_board)
    space = CustomDesignSpace(evaluator.builder.conv_specs, ce_counts=(2, 3, 4))
    return evaluator, space


class TestObjective:
    def test_score_prefers_throughput(self, setup):
        evaluator, space = setup
        result = random_search(evaluator, space, samples=10, seed=5)
        objective = Objective(cost_metric="buffers", cost_weight=0.0)
        best_design, best_report = result.best_by(objective)
        assert best_report.throughput_fps == max(
            report.throughput_fps for _, report in result.evaluated
        )

    def test_relative_normalization(self, setup):
        evaluator, space = setup
        result = random_search(evaluator, space, samples=5, seed=6)
        _, reference = result.evaluated[0]
        objective = Objective.relative_to(reference)
        assert objective.score(reference) == pytest.approx(0.0)

    def test_constraints(self, setup):
        evaluator, space = setup
        result = random_search(evaluator, space, samples=5, seed=7)
        _, report = result.evaluated[0]
        assert throughput_at_most_cost(report.metric("buffers"))(report)
        assert matches_throughput(report.throughput_fps)(report)
        assert not matches_throughput(report.throughput_fps * 2)(report)


class TestRandomSearch:
    def test_front_is_subset(self, setup):
        evaluator, space = setup
        result = random_search(evaluator, space, samples=20, seed=0)
        evaluated_keys = {(d.pipelined_layers, d.cuts) for d, _ in result.evaluated}
        front_keys = {(d.pipelined_layers, d.cuts) for d, _ in result.front}
        assert front_keys <= evaluated_keys
        assert result.front

    def test_deterministic(self, setup):
        evaluator, space = setup
        a = random_search(evaluator, space, samples=10, seed=4)
        b = random_search(evaluator, space, samples=10, seed=4)
        assert [
            (d.pipelined_layers, d.cuts) for d, _ in a.evaluated
        ] == [(d.pipelined_layers, d.cuts) for d, _ in b.evaluated]

    def test_best_by_raises_on_empty(self, setup):
        _, space = setup
        from repro.dse.sampler import SampleStats
        from repro.dse.search import SearchResult

        empty = SearchResult(
            evaluated=[], front=[], stats=SampleStats(0, 0, 0.0)
        )
        with pytest.raises(ValueError):
            empty.best_by(Objective())


class TestLocalAndGuidedSearch:
    def test_local_search_never_worse(self, setup):
        evaluator, space = setup
        result = random_search(evaluator, space, samples=10, seed=9)
        start_design, start_report = result.evaluated[0]
        objective = Objective.relative_to(start_report)
        improved_design, improved_report = local_search(
            evaluator, space, start_design, objective, iterations=10, seed=1
        )
        assert improved_report is not None
        assert objective.score(improved_report) >= objective.score(start_report)

    def test_guided_search_front_at_least_random(self, setup):
        evaluator, space = setup
        objective = Objective(cost_metric="buffers")
        guided = guided_search(evaluator, space, samples=15, objective=objective, seed=2)
        assert guided.front
        assert guided.stats.evaluated > 0
        assert_distinct_front_designs(guided)

    def test_guided_stats_count_the_refinement(self, monkeypatch):
        from repro.hw.boards import FPGABoard
        from tests.conftest import build_tiny_cnn

        # Three DSPs: some of the sample and of the refinement is infeasible.
        board = FPGABoard(name="tiny", dsp_count=3, bram_bytes=256 * 1024, bandwidth_gbps=2.0)
        evaluator = BatchEvaluator(build_tiny_cnn(), board)
        space = CustomDesignSpace(evaluator.builder.conv_specs, ce_counts=(2, 3, 4))
        reports = []
        evaluate_designs = evaluator.evaluate_designs

        def spy(designs):
            batch = evaluate_designs(designs)
            reports.extend(batch)
            return batch

        monkeypatch.setattr(evaluator, "evaluate_designs", spy)
        stats = guided_search(evaluator, space, samples=30, objective=Objective(), seed=1).stats
        totals = evaluator.totals
        assert len(reports) == totals.submitted > 30  # the refinement submits too
        feasible = sum(report is not None for report in reports)
        assert (stats.evaluated, stats.failed) == (feasible, len(reports) - feasible)
        assert stats.failed > 0
        assert stats.cache_hits == totals.cache_hits > 0
        assert stats.elapsed_seconds >= totals.elapsed_seconds


class TestRunSearch:
    def test_random_strategy_matches_function(self, setup):
        evaluator, space = setup
        via_strategy = run_search("random", evaluator, space, samples=12, seed=4)
        direct = random_search(evaluator, space, samples=12, seed=4)
        assert [design for design, _ in via_strategy.evaluated] == [
            design for design, _ in direct.evaluated
        ]
        assert [design for design, _ in via_strategy.front] == [
            design for design, _ in direct.front
        ]

    def test_guided_strategy_matches_function(self, setup):
        evaluator, space = setup
        via_strategy = run_search("guided", evaluator, space, samples=10, seed=3)
        direct = guided_search(
            evaluator, space, samples=10, objective=Objective(), seed=3
        )
        assert [design for design, _ in via_strategy.evaluated] == [
            design for design, _ in direct.evaluated
        ]

    def test_evolve_strategy_is_seed_deterministic(self, setup):
        evaluator, space = setup
        from repro.dse.evolve import EvolutionConfig

        config = EvolutionConfig(population=6, generations=2)
        first = run_search("evolve", evaluator, space, evolution=config, seed=5)
        second = run_search("evolve", evaluator, space, evolution=config, seed=5)
        assert [design for design, _ in first.evaluated] == [
            design for design, _ in second.evaluated
        ]
        assert first.stats.evaluated == second.stats.evaluated
        assert first.front
        assert_distinct_front_designs(first)

    def test_unknown_strategy_rejected(self, setup):
        evaluator, space = setup
        with pytest.raises(ValueError):
            run_search("annealing", evaluator, space)
