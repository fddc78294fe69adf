"""Tests for the Multiple-CE Builder."""

import pytest

from repro.cnn.zoo.common import NetBuilder
from repro.core.architectures import hybrid, segmented, segmented_rr
from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock
from repro.core.builder import MultipleCEBuilder
from repro.core.notation import ArchitectureSpec, BlockSpec, parse_notation
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.runtime.fingerprint import context_fingerprint
from repro.runtime.segcache import SegmentCostCache
from repro.utils.errors import ResourceError


@pytest.fixture()
def builder(tiny_cnn, small_board):
    return MultipleCEBuilder(tiny_cnn, small_board)


class TestPEDistribution:
    def test_pe_total_matches_board(self, builder, small_board):
        accelerator = builder.build(segmented(builder.conv_specs, 3))
        assert accelerator.total_pes == small_board.pe_count

    def test_each_ce_gets_at_least_one_pe(self, builder):
        accelerator = builder.build(segmented_rr(builder.conv_specs, 6))
        block = accelerator.blocks[0]
        assert isinstance(block, PipelinedCEsBlock)
        assert all(engine.pe_count >= 1 for engine in block.engines)
        assert sum(engine.pe_count for engine in block.engines) == accelerator.total_pes

    def test_pes_proportional_to_workload(self, builder):
        accelerator = builder.build(segmented(builder.conv_specs, 2))
        b1, b2 = accelerator.blocks
        ratio_pe = b1.pe_count / b2.pe_count
        ratio_macs = b1.macs / b2.macs
        assert ratio_pe == pytest.approx(ratio_macs, rel=0.5)

    def test_rejects_more_ces_than_pes(self, tiny_cnn):
        tiny_board = FPGABoard(name="nano", dsp_count=2, bram_bytes=4096, bandwidth_gbps=1.0)
        builder = MultipleCEBuilder(tiny_cnn, tiny_board)
        with pytest.raises(ResourceError):
            builder.build(segmented(builder.conv_specs, 3))


class TestBlockConstruction:
    def test_segmented_builds_single_blocks(self, builder):
        accelerator = builder.build(segmented(builder.conv_specs, 3))
        assert all(isinstance(block, SingleCEBlock) for block in accelerator.blocks)

    def test_rr_builds_one_pipelined_block(self, builder):
        accelerator = builder.build(segmented_rr(builder.conv_specs, 3))
        assert len(accelerator.blocks) == 1
        assert isinstance(accelerator.blocks[0], PipelinedCEsBlock)

    def test_hybrid_builds_both_kinds(self, builder):
        accelerator = builder.build(hybrid(builder.conv_specs, 4))
        assert isinstance(accelerator.blocks[0], PipelinedCEsBlock)
        assert isinstance(accelerator.blocks[1], SingleCEBlock)

    def test_blocks_cover_all_layers_once(self, builder, tiny_specs):
        accelerator = builder.build(segmented(builder.conv_specs, 3))
        indices = [spec.index for block in accelerator.blocks for spec in block.specs]
        assert indices == list(range(len(tiny_specs)))

    def test_notation_input(self, builder, tiny_specs):
        accelerator = builder.build(
            parse_notation("{L1-L2: CE1-CE2, L3-Last: CE3}")
        )
        assert len(accelerator.blocks) == 2
        assert accelerator.blocks[0].specs[0].index == 0

    def test_round_robin_layer_assignment(self, builder):
        accelerator = builder.build(segmented_rr(builder.conv_specs, 3))
        block = accelerator.blocks[0]
        rounds = block.rounds()
        assert sum(len(r) for r in rounds) == len(block.specs)
        assert all(len(r) <= 3 for r in rounds)


class TestInterfaces:
    def test_inter_segment_sizes(self, builder, precision):
        accelerator = builder.build(segmented(builder.conv_specs, 3))
        assert len(accelerator.inter_segment_bytes) == 2
        for size, block in zip(accelerator.inter_segment_bytes, accelerator.blocks):
            expected = block.specs[-1].ofm_elements * precision.activation_bytes
            assert size == expected

    def test_boundary_fm_bytes(self, builder, tiny_specs, precision):
        accelerator = builder.build(segmented_rr(builder.conv_specs, 2))
        assert accelerator.input_fm_bytes == (
            tiny_specs[0].ifm_elements * precision.activation_bytes
        )
        assert accelerator.output_fm_bytes == (
            tiny_specs[-1].ofm_elements * precision.activation_bytes
        )

    def test_describe_mentions_blocks(self, builder):
        accelerator = builder.build(hybrid(builder.conv_specs, 3))
        text = accelerator.describe()
        assert "B1" in text and "B2" in text


class TestContext:
    def test_context_names_the_layers_the_builder_costs(self, small_board):
        # The builder copies the graph's conv specs when it is constructed;
        # a conv added to the graph afterwards is not costed, so it must
        # not be fingerprinted either.
        net = NetBuilder("growing", (32, 32, 3))
        for filters in (8, 16, 32):
            net.conv(filters, kernel=3, name=f"c{filters}")
        graph = net.build()
        three_layers = context_fingerprint(graph, small_board, DEFAULT_PRECISION)
        builder = MultipleCEBuilder(graph, small_board)
        net.conv(64, kernel=3, name="c64")
        four_layers = context_fingerprint(graph, small_board, DEFAULT_PRECISION)

        assert len(builder.conv_specs) == 3
        assert builder.context == three_layers != four_layers
        cache = SegmentCostCache(64)
        accelerator = builder.build(segmented(builder.conv_specs, 2), cache=cache)
        assert sum(len(block.specs) for block in accelerator.blocks) == 3
        assert cache.context == three_layers
