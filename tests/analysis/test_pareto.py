"""Tests for Pareto-front utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import (
    FRONT_CSV_COLUMNS,
    crowding_distance_vectors,
    figure_cost,
    front_to_csv,
    hypervolume,
    pareto_front,
    report_front,
    scatter_points,
)
from repro.api import sweep


class TestParetoFront:
    def test_single_item(self):
        assert pareto_front([(1.0, 1.0)], lambda p: p[0], lambda p: p[1]) == [(1.0, 1.0)]

    def test_dominated_point_removed(self):
        points = [(10.0, 5.0), (8.0, 6.0)]  # second: less benefit, more cost
        front = pareto_front(points, lambda p: p[0], lambda p: p[1])
        assert front == [(10.0, 5.0)]

    def test_incomparable_points_kept(self):
        points = [(10.0, 5.0), (12.0, 7.0)]
        front = pareto_front(points, lambda p: p[0], lambda p: p[1])
        assert len(front) == 2

    def test_sorted_by_cost(self):
        points = [(12.0, 7.0), (10.0, 5.0), (14.0, 9.0)]
        front = pareto_front(points, lambda p: p[0], lambda p: p[1])
        costs = [cost for _, cost in front]
        assert costs == sorted(costs)

    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150)
    def test_front_is_non_dominated(self, points):
        front = pareto_front(points, lambda p: p[0], lambda p: p[1])
        assert front  # never empty for non-empty input
        for member in front:
            for other in points:
                strictly_better = (
                    other[0] >= member[0]
                    and other[1] <= member[1]
                    and (other[0] > member[0] or other[1] < member[1])
                )
                assert not strictly_better


class TestCrowdingDistance:
    def test_two_or_fewer_items_are_boundary(self):
        assert crowding_distance_vectors([(1.0, 1.0)]) == [float("inf")]
        assert crowding_distance_vectors([(1.0, 1.0), (2.0, 2.0)]) == [
            float("inf"),
            float("inf"),
        ]

    def test_boundaries_infinite_interior_finite(self):
        points = [(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)]
        distances = crowding_distance_vectors(points)
        assert distances[0] == float("inf")
        assert distances[2] == float("inf")
        # Interior: sum of normalized gaps, one per axis: 3/3 + 3/3.
        assert distances[1] == pytest.approx(2.0)

    def test_denser_region_scores_lower(self):
        # Two interior points; the one crammed next to a neighbour is denser.
        points = [(0.0, 0.0), (1.0, 1.0), (1.1, 1.1), (10.0, 10.0)]
        distances = crowding_distance_vectors(points)
        assert 0.0 < distances[1] < distances[2]  # tighter neighbour gap

    def test_degenerate_axis_ignored(self):
        points = [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]
        distances = crowding_distance_vectors(points)
        assert distances[0] == float("inf") and distances[2] == float("inf")
        assert distances[1] == pytest.approx(1.0)


class TestHypervolume:
    def test_empty(self):
        assert hypervolume([], lambda p: p[0], lambda p: p[1]) == 0.0

    def test_single_point_rectangle(self):
        volume = hypervolume(
            [(3.0, 2.0)], lambda p: p[0], lambda p: p[1], reference=(0.0, 10.0)
        )
        assert volume == pytest.approx(3.0 * (10.0 - 2.0))

    def test_staircase(self):
        points = [(1.0, 1.0), (2.0, 3.0)]
        volume = hypervolume(
            points, lambda p: p[0], lambda p: p[1], reference=(0.0, 5.0)
        )
        # (5-1)*1 + (5-3)*(2-1)
        assert volume == pytest.approx(4.0 + 2.0)

    def test_dominated_point_contributes_nothing(self):
        base = [(2.0, 3.0)]
        extra = base + [(1.0, 4.0)]  # dominated: less benefit, more cost
        ref = (0.0, 10.0)
        assert hypervolume(
            extra, lambda p: p[0], lambda p: p[1], reference=ref
        ) == pytest.approx(hypervolume(base, lambda p: p[0], lambda p: p[1], reference=ref))

    def test_adding_nondominated_point_grows_volume(self):
        ref = (0.0, 10.0)
        small = hypervolume([(2.0, 3.0)], lambda p: p[0], lambda p: p[1], reference=ref)
        grown = hypervolume(
            [(2.0, 3.0), (4.0, 6.0)], lambda p: p[0], lambda p: p[1], reference=ref
        )
        assert grown > small

    def test_default_reference_uses_max_front_cost(self):
        points = [(1.0, 1.0), (2.0, 3.0)]
        # Default ref cost = 3 (max front cost): only the cheap point's
        # rectangle up to that line counts.
        assert hypervolume(points, lambda p: p[0], lambda p: p[1]) == pytest.approx(
            (3.0 - 1.0) * 1.0
        )


class TestFrontCsv:
    def test_columns_and_stability(self, roomy_board):
        from tests.conftest import build_tiny_cnn

        reports = sweep(build_tiny_cnn(), roomy_board, ce_counts=[2, 3])
        entries = [("cell", report) for report in reports]
        text = front_to_csv(entries, "buffers")
        lines = text.splitlines()
        assert lines[0] == ",".join(FRONT_CSV_COLUMNS)
        assert len(lines) == 1 + len(entries)
        # Byte-for-byte stable across identical inputs (the CI kill/resume
        # smoke compares these files directly).
        assert text == front_to_csv(entries, "buffers")


class TestReportHelpers:
    @pytest.fixture(scope="class")
    def reports(self, roomy_board):
        from tests.conftest import build_tiny_cnn

        return sweep(build_tiny_cnn(), roomy_board, ce_counts=[2, 3, 4])

    def test_report_front_subset(self, reports):
        front = report_front(reports, "buffers")
        assert set(r.accelerator_name for r in front) <= set(
            r.accelerator_name for r in reports
        )

    def test_scatter_points_units(self, reports):
        points = scatter_points(reports, "buffers")
        for (name, fps, cost_mib), report in zip(points, reports):
            assert name == report.accelerator_name
            assert fps == report.throughput_fps
            assert cost_mib == pytest.approx(report.buffer_requirement_bytes / 2**20)

    def test_figure_cost_scales_only_bytes(self, reports):
        for report in reports:
            assert figure_cost(report, "access") == report.metric("access") / 2**20
            assert figure_cost(report, "latency") == report.latency_seconds
