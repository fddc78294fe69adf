"""Tests for the dual-engine Hybrid tail (Section II-C extension)."""

import pytest

from repro.api import build_accelerator, evaluate
from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.core.dual import DualEngineBlock, fused_pairs, has_mixed_conv_types, split_by_kind
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.utils.errors import ResourceError
from tests.core.test_parallelism import make_spec


def make_dw_spec(c=32, h=8, w=8, r=3, index=0):
    return ConvSpec(
        index=index,
        name=f"dw{index}",
        kind=LayerKind.DEPTHWISE_CONV,
        filters=c,
        channels=1,
        out_height=h,
        out_width=w,
        kernel_height=r,
        kernel_width=r,
        ifm_elements=h * w * c,
        ofm_elements=h * w * c,
        weight_count=c * r * r,
        macs=c * h * w * r * r,
    )


def mixed_specs():
    return (
        make_spec(k=32, c=16, index=0),   # std
        make_dw_spec(index=1),            # dw -> fuses with next
        make_spec(k=64, c=32, r=1, s=1, index=2),  # pw consumer
        make_dw_spec(index=3),            # dw at a pair boundary
        make_spec(k=32, c=32, r=1, s=1, index=4),
    )


def make_block(pes=64):
    return DualEngineBlock.fitted(
        "B2", pes, mixed_specs(), precision=DEFAULT_PRECISION, bytes_per_cycle=16.0
    )


class TestTypeSplitting:
    def test_split_by_kind(self):
        depthwise, standard = split_by_kind(mixed_specs())
        assert len(depthwise) == 2 and len(standard) == 3

    def test_has_mixed_detects(self):
        assert has_mixed_conv_types(mixed_specs())
        assert not has_mixed_conv_types((make_spec(),))

    def test_rejects_uniform_layers(self):
        with pytest.raises(ResourceError):
            DualEngineBlock.fitted(
                "B", 16, (make_spec(),), DEFAULT_PRECISION, bytes_per_cycle=16.0
            )

    def test_rejects_single_pe(self):
        with pytest.raises(ResourceError):
            DualEngineBlock.fitted(
                "B", 1, mixed_specs(), DEFAULT_PRECISION, bytes_per_cycle=16.0
            )


class TestFusion:
    def test_fused_pairs_found(self):
        assert fused_pairs(mixed_specs()) == [(1, 2), (3, 4)]
        assert make_block().layout.pairs == [(1, 2), (3, 4)]

    def test_engine_routing(self):
        # Each layer's Eq. 1 cycles are its own engine's.
        block = make_block()
        specs = mixed_specs()
        assert block.layout.cycles[1] == block.dw_engine.layer_cycles(specs[1])
        assert block.layout.cycles[0] == block.std_engine.layer_cycles(specs[0])

    def test_pe_count_sums_both_engines(self):
        block = make_block(pes=64)
        assert block.pe_count == 64

    def test_fused_intermediate_shrinks_buffer(self):
        block = make_block()
        # The largest FMs belong to a fused consumer, whose input is now a
        # row band: the FM buffer is below the unfused footprint.
        unfused = max(spec.fms_elements for spec in block.specs)
        assert block.buffer_components()[0] < unfused * block.precision.activation_bytes


class TestEvaluation:
    def test_evaluate_basics(self):
        block = make_block()
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        assert evaluation.kind == "dual"
        assert evaluation.latency_cycles > 0
        assert len(evaluation.segments) == 1
        assert evaluation.macs == block.macs

    def test_fusion_saves_compute_time_vs_serial(self):
        block = make_block()
        evaluation = block.evaluate(block.ideal_buffer_bytes())
        serial = sum(
            (block.dw_engine if s.kind is LayerKind.DEPTHWISE_CONV else block.std_engine)
            .layer_cycles(s)
            for s in block.specs
        )
        assert evaluation.compute_cycles < serial

    def test_buffer_components_sum_to_ideal(self):
        block = make_block()
        assert sum(block.buffer_components()) == block.ideal_buffer_bytes()

    def test_mandatory_not_above_ideal(self):
        block = make_block()
        assert block.mandatory_buffer_bytes() <= block.ideal_buffer_bytes()


class TestHybridDualTemplate:
    def test_builds_dual_tail_for_mobilenet(self, vcu108):
        accelerator = build_accelerator("mobilenetv2", vcu108, "hybriddual", ce_count=4)
        assert isinstance(accelerator.blocks[-1], DualEngineBlock)

    def test_falls_back_for_resnet(self, vcu108):
        # ResNet50 has no depthwise layers: plain single-CE tail.
        accelerator = build_accelerator("resnet50", vcu108, "hybriddual", ce_count=4)
        assert not isinstance(accelerator.blocks[-1], DualEngineBlock)

    def test_dual_reduces_buffers_for_mixed_cnns(self):
        plain = evaluate("mobilenetv2", "zc706", "hybrid", ce_count=4)
        dual = evaluate("mobilenetv2", "zc706", "hybriddual", ce_count=4)
        assert dual.buffer_requirement_bytes <= plain.buffer_requirement_bytes

    def test_dual_report_valid(self):
        report = evaluate("xception", "vcu110", "hybriddual", ce_count=5)
        assert report.throughput_fps > 0
        assert 0.0 < report.pe_utilization <= 1.0

    def test_describe_mentions_dual(self, vcu108):
        accelerator = build_accelerator("mobilenetv2", vcu108, "hybriddual", ce_count=3)
        assert "dual-engine" in accelerator.describe()

    def test_simulator_handles_dual_tail(self, vcu108):
        # The synthesis substitute treats the dual block like a single-CE
        # block via the shared evaluate/buffer_components protocol.
        from repro.core.cost.model import default_model
        from repro.synth.simulator import SynthesisSimulator

        accelerator = build_accelerator("mobilenetv2", vcu108, "hybriddual", ce_count=4)
        report = default_model().evaluate(accelerator)
        simulation = SynthesisSimulator(accelerator).run()
        assert simulation.access_bytes == report.accesses.total_bytes
        assert simulation.buffer_bytes >= report.buffer_requirement_bytes
