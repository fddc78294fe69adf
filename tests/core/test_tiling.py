"""Tests for tile schedules and the Eq. 2/3 pipeline primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import (
    MAX_TILES,
    MIN_TILES,
    build_schedule,
    ce_busy_cycles,
    select_tile_count,
    tile_cycle_runs,
    tile_ofm_elements,
    tile_rows,
)
from repro.utils.errors import ResourceError
from tests.core.test_parallelism import make_spec


class TestSelectTileCount:
    def test_clamped_to_min(self):
        assert select_tile_count([make_spec(h=1)]) == MIN_TILES

    def test_clamped_to_max(self):
        assert select_tile_count([make_spec(h=224)]) == MAX_TILES

    def test_uses_smallest_height(self):
        specs = [make_spec(h=32), make_spec(h=4, index=1)]
        assert select_tile_count(specs) == 4

    def test_rejects_empty(self):
        with pytest.raises(ResourceError):
            select_tile_count([])


class TestTileRows:
    def test_rows_sum_to_height(self):
        spec = make_spec(h=14)
        for tiles in (2, 3, 4, 8):
            total = sum(tile_rows(spec, tiles, t) for t in range(tiles))
            assert total == 14

    def test_last_tile_may_be_empty(self):
        spec = make_spec(h=3)
        rows = [tile_rows(spec, 4, t) for t in range(4)]
        assert rows == [1, 1, 1, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ResourceError):
            tile_rows(make_spec(), 4, 4)

    @given(st.integers(1, 64), st.integers(2, 8))
    def test_rows_cover_exactly(self, height, tiles):
        spec = make_spec(h=height)
        rows = [tile_rows(spec, tiles, t) for t in range(tiles)]
        assert sum(rows) == height
        assert all(r >= 0 for r in rows)

    def test_tile_ofm_elements(self):
        spec = make_spec(k=16, h=8, w=8)
        assert tile_ofm_elements(spec, 4, 0) == 2 * 8 * 16


class TestTileCycles:
    def test_tile_sum_at_least_layer_total(self):
        spec = make_spec(h=14)
        full = 1000
        assert ce_busy_cycles(tile_cycle_runs(spec, full, 4)) >= full

    def test_empty_tile_is_free(self):
        # Three one-row tiles, no partial tile, then one empty tile.
        spec = make_spec(h=3)
        assert tile_cycle_runs(spec, 999, 4) == (3, 333, 0)
        assert build_schedule([spec], [999], 4).cycles == ((333, 333, 333, 0),)

    @given(st.integers(1, 64), st.integers(2, 8), st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_proportional_to_rows(self, height, tiles, full):
        spec = make_spec(h=height)
        total = ce_busy_cycles(tile_cycle_runs(spec, full, tiles))
        assert full <= total <= full + tiles  # each tile rounds up at most 1

    @given(st.integers(1, 512), st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_runs_follow_tile_rows(self, height, tiles, full):
        spec = make_spec(h=height)
        expected = tuple(
            -(-full * tile_rows(spec, tiles, t) // height) for t in range(tiles)
        )
        assert build_schedule([spec], [full], tiles).cycles == (expected,)


def make_schedule(cycles_per_ce, tiles):
    specs = [make_spec(h=tiles * 2, index=i) for i in range(len(cycles_per_ce))]
    return build_schedule(specs, cycles_per_ce, tiles)


class TestPipelineSchedule:
    def test_num_stages(self):
        schedule = make_schedule([100, 100, 100], 4)
        assert schedule.num_stages == 4 + 3 - 1

    def test_single_ce_latency_is_total(self):
        schedule = make_schedule([120], 4)
        assert schedule.latency_cycles() == pytest.approx(120, abs=4)

    def test_balanced_pipeline_latency(self):
        # L CEs of identical per-tile cost c with T tiles: (T + L - 1) * c.
        schedule = make_schedule([400, 400], 4)
        per_tile = 100
        assert schedule.latency_cycles() == per_tile * (4 + 2 - 1)

    def test_latency_bounded_by_bottleneck(self):
        schedule = make_schedule([100, 900, 100], 4)
        assert schedule.latency_cycles() >= schedule.bottleneck_cycles()

    def test_bottleneck_is_slowest_ce(self):
        schedule = make_schedule([100, 900, 100], 4)
        assert schedule.bottleneck_cycles() == 900

    def test_ce_busy_cycles(self):
        schedule = make_schedule([100, 900], 4)
        assert schedule.ce_busy_cycles(0) == 100
        assert schedule.ce_busy_cycles(1) == 900

    def test_active_ces_skew(self):
        schedule = make_schedule([100, 100, 100], 4)
        assert schedule.active_ces(0) == [0]
        assert set(schedule.active_ces(2)) == {0, 1, 2}
        assert schedule.active_ces(schedule.num_stages - 1) == [2]

    def test_stage_latency_is_max_of_active(self):
        schedule = make_schedule([400, 800], 4)
        # Stage 1: CE0 tile1 (100) and CE1 tile0 (200) -> 200.
        assert schedule.stage_latency(1) == 200

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ResourceError):
            build_schedule([make_spec()], [100, 200], 4)

    @given(
        st.lists(st.integers(1, 10**5), min_size=1, max_size=6),
        st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_eq2_invariants(self, cycles, tiles):
        schedule = make_schedule(cycles, tiles)
        latency = schedule.latency_cycles()
        bottleneck = schedule.bottleneck_cycles()
        # Eq. 2 latency can never beat the slowest CE's busy time (Eq. 3)
        # and can never exceed the fully serialized execution.
        assert latency >= bottleneck
        assert latency <= sum(schedule.ce_busy_cycles(j) for j in range(schedule.num_ces)) + tiles * len(cycles)
