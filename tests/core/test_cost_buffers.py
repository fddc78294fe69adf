"""Tests for the buffer requirement equations (Eqs. 4, 5, 8), as blocks
lay them out."""

import pytest

from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock
from repro.core.cost.terms import LayerColumns
from repro.core.engine import ComputeEngine
from tests.core.test_parallelism import make_spec


@pytest.fixture()
def engine():
    return ComputeEngine.fitted("CE1", 32, [make_spec()])


def single(specs, engine, precision):
    return SingleCEBlock("B1", engine, tuple(specs), precision, bytes_per_cycle=16.0)


def pipelined(specs, engine, ce_count, precision):
    return PipelinedCEsBlock(
        "B1", (engine,) * ce_count, tuple(specs), precision, bytes_per_cycle=16.0
    )


def fm_tile_bytes(spec, tile_count, precision):
    """FMsBufferSz of Eq. 5: one OFM tile of ``spec`` (largest tile)."""
    return LayerColumns((spec,), precision).fm_tiles(slice(None), (tile_count,))[0]


class TestSingleCE:
    def test_eq4_structure(self, engine, precision):
        specs = [make_spec(k=8, index=0), make_spec(k=32, index=1)]
        max_fms = max(s.fms_elements for s in specs) * precision.activation_bytes
        max_tile = max(
            engine.weights_tile_elements(s) for s in specs
        ) * precision.weight_bytes
        assert single(specs, engine, precision).ideal_buffer_bytes() == max_fms + max_tile

    def test_mandatory_below_ideal(self, engine, precision):
        block = single([make_spec(k=64, h=16, w=16)], engine, precision)
        assert block.mandatory_buffer_bytes() <= block.ideal_buffer_bytes()

    def test_mandatory_positive(self, engine, precision):
        assert single([make_spec()], engine, precision).mandatory_buffer_bytes() > 0

    def test_residual_copies_grow_requirement(self, engine, precision):
        plain = make_spec()
        residual = make_spec()
        object.__setattr__(residual, "fms_copies", 2)
        assert single([residual], engine, precision).ideal_buffer_bytes() > (
            single([plain], engine, precision).ideal_buffer_bytes()
        )


class TestPipelined:
    def test_eq5_single_round(self, engine, precision):
        specs = [make_spec(index=0), make_spec(k=32, index=1)]
        block = pipelined(specs, engine, 2, precision)
        (tile_count,) = block.tile_counts()
        expected = sum(
            s.weight_count * precision.weight_bytes
            + 2 * fm_tile_bytes(s, tile_count, precision)
            for s in specs
        )
        assert block.ideal_buffer_bytes() == expected

    def test_multi_round_uses_worst_case(self, engine, precision):
        round1 = [make_spec(k=8, index=0), make_spec(k=8, index=1)]
        round2 = [make_spec(k=64, index=2), make_spec(k=8, index=3)]
        block = pipelined(round1 + round2, engine, 2, precision)
        # Position 0's weight buffer must fit the k=64 layer; doubled for
        # cross-round prefetch.
        weights = block.layout.positions[0]
        assert weights[0] == 64 * 8 * 9 * precision.weight_bytes
        assert block.ideal_buffer_bytes() >= 2 * sum(weights)

    def test_mandatory_below_ideal(self, engine, precision):
        block = pipelined([make_spec(index=0), make_spec(k=32, index=1)], engine, 2, precision)
        assert 0 < block.mandatory_buffer_bytes() <= block.ideal_buffer_bytes()

    def test_fm_tile_scales_with_tile_count(self, precision):
        spec = make_spec(h=16)
        assert fm_tile_bytes(spec, 2, precision) > fm_tile_bytes(spec, 8, precision)

    def test_fm_tile_is_whole_ofm_rows(self, precision):
        # 8 rows over 4 tiles: 2 rows of 8 x 16 outputs.
        spec = make_spec(k=16, h=8, w=8)
        assert fm_tile_bytes(spec, 4, precision) == 2 * 8 * 16 * precision.activation_bytes

    def test_per_ce_weights_alignment(self, engine, precision):
        # One CE, two rounds: its weight buffer fits the larger layer.
        specs = [make_spec(k=8, index=0), make_spec(k=16, index=1)]
        block = pipelined(specs, engine, 1, precision)
        assert block.layout.positions[0] == [16 * 8 * 9 * precision.weight_bytes]
