"""Tests for the Fig. 9 utilization and buffer-share analysis."""

import pytest

from repro.analysis.utilization import (
    normalized_buffer_shares,
    normalized_underutilization,
    per_segment_utilization,
    slowest_segment,
)
from repro.api import evaluate


@pytest.fixture(scope="module")
def pair(zc706):
    from tests.conftest import build_tiny_cnn

    cnn = build_tiny_cnn()
    return (
        evaluate(cnn, zc706, "segmented", ce_count=4),
        evaluate(cnn, zc706, "hybrid", ce_count=4),
    )


class TestPerSegmentUtilization:
    def test_one_entry_per_segment(self, pair):
        for report in pair:
            rows = per_segment_utilization(report)
            assert len(rows) == len(report.segments)

    def test_bounds(self, pair):
        for report in pair:
            for row in per_segment_utilization(report):
                assert 0.0 <= row.utilization <= 1.0
                assert row.underutilization == pytest.approx(1.0 - row.utilization)


class TestBufferShares:
    def test_shares_sum_to_one(self, pair):
        for report in pair:
            shares = normalized_buffer_shares(report)
            assert len(shares) == len(report.segments)
            assert sum(shares) == pytest.approx(1.0)
            assert all(share >= 0.0 for share in shares)


class TestNormalizedUnderutilization:
    def test_minimum_is_one(self, pair):
        matrices = normalized_underutilization(list(pair))
        values = [v for row in matrices for v in row if v > 0]
        assert min(values) == pytest.approx(1.0)

    def test_shape_matches_segments(self, pair):
        matrices = normalized_underutilization(list(pair))
        for matrix, report in zip(matrices, pair):
            assert len(matrix) == len(report.segments)


class TestSlowestSegment:
    def test_identifies_max(self, pair):
        for report in pair:
            index, cycles = slowest_segment(report)
            assert cycles == max(s.time_cycles for s in report.segments)
            assert report.segments[index].time_cycles == cycles
