"""Tests for the buffer requirement equations (Eqs. 4, 5, 8)."""

import pytest

from repro.core.cost.buffers import (
    per_ce_max_weight_bytes,
    pipelined_buffer_requirement,
    pipelined_fm_tile_bytes,
    pipelined_mandatory_bytes,
    single_ce_buffer_requirement,
    single_ce_mandatory_bytes,
)
from repro.core.engine import ComputeEngine
from repro.hw.datatypes import DEFAULT_PRECISION
from tests.core.test_parallelism import make_spec


@pytest.fixture()
def engine():
    return ComputeEngine.fitted("CE1", 32, [make_spec()])


class TestSingleCE:
    def test_eq4_structure(self, engine, precision):
        specs = [make_spec(k=8, index=0), make_spec(k=32, index=1)]
        requirement = single_ce_buffer_requirement(specs, engine, precision)
        max_fms = max(s.fms_elements for s in specs) * precision.activation_bytes
        max_tile = max(
            engine.weights_tile_elements(s) for s in specs
        ) * precision.weight_bytes
        assert requirement == max_fms + max_tile

    def test_empty_is_zero(self, engine, precision):
        assert single_ce_buffer_requirement([], engine, precision) == 0

    def test_mandatory_below_ideal(self, engine, precision):
        specs = [make_spec(k=64, h=16, w=16)]
        assert single_ce_mandatory_bytes(specs, engine, precision) <= (
            single_ce_buffer_requirement(specs, engine, precision)
        )

    def test_mandatory_positive(self, engine, precision):
        assert single_ce_mandatory_bytes([make_spec()], engine, precision) > 0

    def test_residual_copies_grow_requirement(self, engine, precision):
        plain = make_spec()
        residual = make_spec()
        object.__setattr__(residual, "fms_copies", 2)
        assert single_ce_buffer_requirement(
            [residual], engine, precision
        ) > single_ce_buffer_requirement([plain], engine, precision)


class TestPipelined:
    def test_eq5_single_round(self, precision):
        specs = [make_spec(index=0), make_spec(k=32, index=1)]
        requirement = pipelined_buffer_requirement([specs], [4], 2, precision)
        expected = sum(
            s.weight_count * precision.weight_bytes
            + 2 * pipelined_fm_tile_bytes(s, 4, precision)
            for s in specs
        )
        assert requirement == expected

    def test_multi_round_uses_worst_case(self, precision):
        round1 = [make_spec(k=8, index=0), make_spec(k=8, index=1)]
        round2 = [make_spec(k=64, index=2), make_spec(k=8, index=3)]
        requirement = pipelined_buffer_requirement(
            [round1, round2], [4, 4], 2, precision
        )
        # Position 0's weight buffer must fit the k=64 layer; doubled for
        # cross-round prefetch.
        weights = per_ce_max_weight_bytes([round1, round2], 2, precision)
        assert weights[0] == 64 * 8 * 9 * precision.weight_bytes
        assert requirement >= 2 * sum(weights)

    def test_empty_is_zero(self, precision):
        assert pipelined_buffer_requirement([], [], 0, precision) == 0

    def test_mandatory_below_ideal(self, precision):
        rounds = [[make_spec(index=0), make_spec(k=32, index=1)]]
        mandatory = pipelined_mandatory_bytes(rounds, [4], 2, precision)
        ideal = pipelined_buffer_requirement(rounds, [4], 2, precision)
        assert 0 < mandatory <= ideal

    def test_fm_tile_scales_with_tile_count(self, precision):
        spec = make_spec(h=16)
        assert pipelined_fm_tile_bytes(spec, 2, precision) > (
            pipelined_fm_tile_bytes(spec, 8, precision)
        )

    def test_rounds_must_be_ce_count_groups(self, precision):
        # Layer i runs on CE position i % ce_count; a short round may only
        # come last.
        rounds = [[make_spec(index=0)], [make_spec(index=1), make_spec(index=2)]]
        with pytest.raises(ValueError, match="groups of 2"):
            pipelined_buffer_requirement(rounds, [4, 4], 2, precision)
        assert pipelined_buffer_requirement(rounds[::-1], [4, 4], 2, precision) > 0

    def test_per_ce_weights_alignment(self, precision):
        rounds = [[make_spec(k=8, index=0)], [make_spec(k=16, index=1)]]
        weights = per_ce_max_weight_bytes(rounds, 1, precision)
        assert weights == [16 * 8 * 9 * precision.weight_bytes]
