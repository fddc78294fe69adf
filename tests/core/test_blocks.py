"""Tests for the single-CE and pipelined-CEs building blocks."""

import dataclasses

import pytest

from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock
from repro.core.engine import ComputeEngine
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.utils.errors import ResourceError
from tests.core.test_parallelism import make_spec

BPC = 16.0  # bytes per cycle, zc706-like


def make_single(specs=None, pes=64):
    specs = tuple(specs or (make_spec(index=0), make_spec(k=32, index=1)))
    engine = ComputeEngine.fitted("B1.CE1", pes, specs)
    return SingleCEBlock(
        name="B1",
        engine=engine,
        specs=specs,
        precision=DEFAULT_PRECISION,
        bytes_per_cycle=BPC,
    )


def make_pipelined(layer_count=4, ce_count=2, pes=64):
    specs = tuple(make_spec(index=i) for i in range(layer_count))
    per_position = [[] for _ in range(ce_count)]
    for offset, spec in enumerate(specs):
        per_position[offset % ce_count].append(spec)
    engines = tuple(
        ComputeEngine.fitted(f"B1.CE{i + 1}", pes // ce_count, position or list(specs[:1]))
        for i, position in enumerate(per_position)
    )
    return PipelinedCEsBlock(
        name="B1",
        engines=engines,
        specs=specs,
        precision=DEFAULT_PRECISION,
        bytes_per_cycle=BPC,
    )


class TestSingleCEBlock:
    def test_rejects_empty_layers(self):
        engine = ComputeEngine.fitted("CE", 4, [make_spec()])
        with pytest.raises(ResourceError):
            SingleCEBlock(
                name="B", engine=engine, specs=(), precision=DEFAULT_PRECISION,
                bytes_per_cycle=BPC,
            )

    def test_ideal_at_least_mandatory(self):
        block = make_single()
        assert block.ideal_buffer_bytes() >= block.mandatory_buffer_bytes() > 0

    def test_buffer_components_sum_to_ideal(self):
        block = make_single()
        assert sum(block.buffer_components()) == block.ideal_buffer_bytes()

    def test_throughput_interval_equals_latency(self):
        block = make_single()
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert evaluation.throughput_interval_cycles == evaluation.latency_cycles

    def test_latency_at_least_compute(self):
        block = make_single()
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert evaluation.latency_cycles >= evaluation.compute_cycles

    def test_one_segment(self):
        evaluation = make_single().evaluate(10**9)
        assert len(evaluation.segments) == 1
        assert evaluation.segments[0].layer_indices == (0, 1)

    def test_boundary_bytes_counted_once(self):
        block = make_single()
        base = block.evaluate(10**9)
        extra = block.evaluate(10**9, input_extra_bytes=1000, output_extra_bytes=500)
        assert extra.accesses.total_bytes == base.accesses.total_bytes + 1500
        assert extra.accesses.fm_bytes == base.accesses.fm_bytes + 1500

    def test_smaller_buffer_never_faster(self):
        block = make_single([make_spec(k=64, h=16, w=16, index=0)])
        roomy = block.evaluate(10**9)
        tight = block.evaluate(block.mandatory_buffer_bytes())
        assert tight.latency_cycles >= roomy.latency_cycles
        assert tight.accesses.total_bytes >= roomy.accesses.total_bytes

    def test_macs_sum(self):
        block = make_single()
        assert block.macs == sum(spec.macs for spec in block.specs)


class TestPipelinedCEsBlock:
    def test_rejects_empty(self):
        engine = ComputeEngine.fitted("CE", 4, [make_spec()])
        with pytest.raises(ResourceError):
            PipelinedCEsBlock(
                name="B", engines=(engine,), specs=(), precision=DEFAULT_PRECISION,
                bytes_per_cycle=BPC,
            )

    def test_rejects_more_engines_than_layers(self):
        engines = tuple(ComputeEngine.fitted(f"CE{i}", 4, [make_spec()]) for i in range(3))
        with pytest.raises(ResourceError, match="cannot occupy"):
            PipelinedCEsBlock(
                name="B", engines=engines, specs=(make_spec(index=0), make_spec(index=1)),
                precision=DEFAULT_PRECISION, bytes_per_cycle=BPC,
            )

    def test_rounds_partition_layers(self):
        block = make_pipelined(layer_count=7, ce_count=3)
        rounds = block.rounds()
        assert [len(r) for r in rounds] == [3, 3, 1]
        flattened = [spec.index for r in rounds for spec in r]
        assert flattened == list(range(7))

    def test_one_segment_per_round(self):
        block = make_pipelined(layer_count=7, ce_count=3)
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert len(evaluation.segments) == 3

    def test_single_round_single_segment(self):
        block = make_pipelined(layer_count=2, ce_count=2)
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert len(evaluation.segments) == 1

    def test_ideal_at_least_mandatory(self):
        block = make_pipelined()
        assert block.ideal_buffer_bytes() >= block.mandatory_buffer_bytes() > 0

    def test_buffer_components_sum_to_ideal(self):
        for layer_count, ce_count in ((2, 2), (7, 3)):
            block = make_pipelined(layer_count=layer_count, ce_count=ce_count)
            assert sum(block.buffer_components()) == block.ideal_buffer_bytes()

    def test_full_buffer_reaches_access_floor(self, precision):
        block = make_pipelined(layer_count=4, ce_count=2)
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        floor = sum(s.weight_count for s in block.specs) * precision.weight_bytes
        assert evaluation.accesses.total_bytes == floor

    def test_starved_weights_cost_stage_multiples(self, precision):
        block = make_pipelined(layer_count=4, ce_count=2)
        evaluation = block.evaluate(block.mandatory_buffer_bytes())
        floor = sum(s.weight_count for s in block.specs) * precision.weight_bytes
        assert evaluation.accesses.total_bytes > floor

    def test_latency_at_least_interval(self):
        block = make_pipelined(layer_count=6, ce_count=3)
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert evaluation.latency_cycles >= evaluation.throughput_interval_cycles

    def test_pe_count_sums_engines(self):
        block = make_pipelined(ce_count=2, pes=64)
        assert block.pe_count == sum(engine.pe_count for engine in block.engines)


class TestFrozen:
    """Blocks and engines are frozen, so a block's cached layout can never
    describe fields it no longer has."""

    @pytest.mark.parametrize("field", ["specs", "engine", "bytes_per_cycle"])
    def test_single_ce_block(self, field):
        block = make_single()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, field, getattr(block, field))

    @pytest.mark.parametrize("field", ["specs", "engines", "precision"])
    def test_pipelined_block(self, field):
        block = make_pipelined()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(block, field, getattr(block, field))

    def test_dual_engine_block(self):
        from tests.core.test_dual import make_block

        block = make_block()
        with pytest.raises(dataclasses.FrozenInstanceError):
            block.specs = block.specs[:2]

    def test_compute_engine(self):
        engine = make_single().engine
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.pe_count = 1

    def test_layout_is_built_once_and_replace_starts_afresh(self):
        block = make_single()
        assert block.layout is block.layout
        narrowed = dataclasses.replace(block, specs=block.specs[:1])
        assert narrowed.layout is not block.layout
        assert narrowed.layout.layer_indices == (0,)
        assert narrowed.evaluate(10**9).segments[0].layer_indices == (0,)
