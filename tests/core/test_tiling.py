"""Tests for tile counts and the Eq. 2/3 pipeline primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import PipelinedCEsBlock
from repro.core.engine import ComputeEngine
from repro.core.tiling import (
    MAX_TILES,
    MIN_TILES,
    ce_busy_cycles,
    pipeline_cycles,
    row_cycle_runs,
    stage_latencies,
    tile_count_for,
)
from tests.core.test_parallelism import make_spec


def tile_rows(height, tile_count):
    """OFM rows of each tile: ``ceil(height / tile_count)`` per tile while
    rows remain."""
    full = -(-height // tile_count)
    return [max(0, min(full, height - full * t)) for t in range(tile_count)]


class TestTileCount:
    def test_clamped_to_min(self):
        assert tile_count_for(1) == MIN_TILES

    def test_clamped_to_max(self):
        assert tile_count_for(224) == MAX_TILES

    def test_block_uses_smallest_height(self, precision):
        specs = (make_spec(h=32), make_spec(h=4, index=1))
        engine = ComputeEngine.fitted("CE1", 16, specs)
        block = PipelinedCEsBlock("B1", (engine, engine), specs, precision, 16.0)
        assert block.tile_counts() == [4]


class TestTileRows:
    def test_rows_sum_to_height(self):
        # With the layer's height as its cycle count, each tile's cycles
        # are its rows.
        for tiles in (2, 3, 4, 8):
            assert ce_busy_cycles(row_cycle_runs(14, 14, tiles)) == 14

    def test_last_tile_may_be_empty(self):
        # Three one-row tiles, no partial tile, then one empty tile.
        assert row_cycle_runs(3, 3, 4) == (3, 1, 0)

    @given(st.integers(1, 64), st.integers(2, 8))
    def test_rows_cover_exactly(self, height, tiles):
        full_tiles, full_rows, partial_rows = row_cycle_runs(height, height, tiles)
        assert full_tiles * full_rows + partial_rows == height
        assert full_tiles + (partial_rows > 0) <= tiles
        assert 0 <= partial_rows < full_rows


class TestTileCycles:
    def test_tile_sum_at_least_layer_total(self):
        assert ce_busy_cycles(row_cycle_runs(14, 1000, 4)) >= 1000

    def test_empty_tile_is_free(self):
        assert row_cycle_runs(3, 999, 4) == (3, 333, 0)
        assert stage_latencies([row_cycle_runs(3, 999, 4)], 4) == [333, 333, 333, 0]

    @given(st.integers(1, 64), st.integers(2, 8), st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_proportional_to_rows(self, height, tiles, full):
        total = ce_busy_cycles(row_cycle_runs(height, full, tiles))
        assert full <= total <= full + tiles  # each tile rounds up at most 1

    @given(st.integers(1, 512), st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_runs_follow_tile_rows(self, height, tiles, full):
        expected = [-(-full * rows // height) for rows in tile_rows(height, tiles)]
        assert stage_latencies([row_cycle_runs(height, full, tiles)], tiles) == expected


def make_runs(cycles_per_ce, tiles):
    return [row_cycle_runs(tiles * 2, cycles, tiles) for cycles in cycles_per_ce]


class TestPipelineCycles:
    def test_num_stages(self):
        assert len(stage_latencies(make_runs([100, 100, 100], 4), 4)) == 4 + 3 - 1

    def test_single_ce_latency_is_total(self):
        latency, _ = pipeline_cycles(make_runs([120], 4), 4)
        assert latency == pytest.approx(120, abs=4)

    def test_balanced_pipeline_latency(self):
        # L CEs of identical per-tile cost c with T tiles: (T + L - 1) * c.
        latency, _ = pipeline_cycles(make_runs([400, 400], 4), 4)
        assert latency == 100 * (4 + 2 - 1)

    def test_latency_bounded_by_bottleneck(self):
        latency, bottleneck = pipeline_cycles(make_runs([100, 900, 100], 4), 4)
        assert latency >= bottleneck

    def test_bottleneck_is_slowest_ce(self):
        assert pipeline_cycles(make_runs([100, 900, 100], 4), 4)[1] == 900

    def test_ce_busy_cycles(self):
        assert list(map(ce_busy_cycles, make_runs([100, 900], 4))) == [100, 900]

    def test_stage_latency_is_max_of_active(self):
        # Stage 1: CE0 tile1 (100) and CE1 tile0 (200) -> 200.
        assert stage_latencies(make_runs([400, 800], 4), 4)[1] == 200

    @given(
        st.lists(st.integers(1, 10**5), min_size=1, max_size=6),
        st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_eq2_invariants(self, cycles, tiles):
        runs = make_runs(cycles, tiles)
        latency, bottleneck = pipeline_cycles(runs, tiles)
        # Eq. 2 latency can never beat the slowest CE's busy time (Eq. 3)
        # and can never exceed the fully serialized execution.
        assert latency >= bottleneck
        assert latency <= sum(map(ce_busy_cycles, runs)) + tiles * len(cycles)
