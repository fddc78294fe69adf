"""Tests for the composing MCCM model (Section IV-B) and the CostReport."""

import pytest

from repro import api
from repro.core.architectures import hybrid, segmented, segmented_rr
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.model import MCCM, default_model
from repro.core.cost.results import AccessBreakdown, metric_is_higher_better
from repro.core.notation import parse_notation


@pytest.fixture()
def builder(tiny_cnn, small_board):
    return MultipleCEBuilder(tiny_cnn, small_board)


@pytest.fixture()
def roomy_builder(tiny_cnn, roomy_board):
    return MultipleCEBuilder(tiny_cnn, roomy_board)


def evaluate(builder, spec):
    return default_model().evaluate(builder.build(spec))


class TestComposition:
    def test_latency_is_sum_of_blocks(self, builder):
        report = evaluate(builder, segmented(builder.conv_specs, 3))
        assert report.latency_cycles == pytest.approx(
            sum(block.latency_cycles for block in report.blocks)
        )

    def test_coarse_pipeline_interval_is_slowest_block(self, roomy_builder):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 3))
        slowest = max(block.throughput_interval_cycles for block in report.blocks)
        assert report.throughput_interval_cycles == pytest.approx(slowest)

    def test_pipelined_throughput_beats_inverse_latency(self, roomy_builder):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 3))
        assert report.throughput_interval_cycles < report.latency_cycles

    def test_bandwidth_floor_enforced(self, builder, small_board):
        report = evaluate(builder, segmented(builder.conv_specs, 3))
        floor = report.accesses.total_bytes / small_board.bytes_per_cycle
        assert report.throughput_interval_cycles >= floor - 1

    def test_buffer_requirement_includes_interfaces(self, builder, roomy_builder):
        spec = segmented(builder.conv_specs, 3)
        report = evaluate(builder, spec)
        accelerator = builder.build(spec)
        block_ideal = sum(b.ideal_buffer_bytes() for b in accelerator.blocks)
        inter = 2 * sum(accelerator.inter_segment_bytes)
        assert report.buffer_requirement_bytes == block_ideal + inter

    def test_rr_has_no_interfaces(self, builder):
        report = evaluate(builder, segmented_rr(builder.conv_specs, 2))
        accelerator = builder.build(segmented_rr(builder.conv_specs, 2))
        assert report.buffer_requirement_bytes == (
            accelerator.blocks[0].ideal_buffer_bytes()
        )

    def test_fits_onchip_flag(self, roomy_builder, builder):
        roomy = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 2))
        tight = evaluate(builder, segmented_rr(builder.conv_specs, 2))
        assert roomy.fits_onchip
        assert not tight.fits_onchip

    def test_access_floor_with_roomy_board(self, roomy_builder, precision):
        report = evaluate(roomy_builder, hybrid(roomy_builder.conv_specs, 3))
        weights = sum(s.weight_count for s in roomy_builder.conv_specs)
        floor = weights * precision.weight_bytes
        boundary = report.blocks[0].segments[0]  # input load exists
        assert report.accesses.total_bytes >= floor
        # Roomy board: only weights + the network input/output FMs move.
        specs = roomy_builder.conv_specs
        edge = (specs[0].ifm_elements + specs[-1].ofm_elements) * precision.activation_bytes
        assert report.accesses.total_bytes == floor + edge

    def test_segment_indices_global(self, builder):
        report = evaluate(builder, segmented(builder.conv_specs, 3))
        assert [segment.index for segment in report.segments] == [0, 1, 2]

    def test_notation_recorded(self, builder):
        report = evaluate(builder, parse_notation("{L1-L4: CE1, L5-Last: CE2}"))
        assert report.notation == "{L1-L4: CE1, L5-L8: CE2}"


class TestInterpreterIndependence:
    def test_latency_adds_block_latencies_left_to_right(self):
        # Compensated summation (sum() on Python 3.12 and later) reads
        # 46033294.166666664 for these seven blocks.
        report = api.evaluate("xception", "vcu108", "segmented", 7)
        assert repr(report.latency_cycles) == "46033294.16666667"
        total = 0.0
        for block in report.blocks:
            total += block.latency_cycles
        assert report.latency_cycles == total


class TestCostReport:
    def test_derived_units(self, roomy_builder, roomy_board):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 2))
        assert report.latency_seconds == pytest.approx(
            report.latency_cycles / roomy_board.clock_hz
        )
        assert report.latency_ms == pytest.approx(report.latency_seconds * 1e3)
        assert report.throughput_fps == pytest.approx(
            roomy_board.clock_hz / report.throughput_interval_cycles
        )

    def test_metric_lookup(self, roomy_builder):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 2))
        assert report.metric("latency") == report.latency_seconds
        assert report.metric("throughput") == report.throughput_fps
        assert report.metric("access") == float(report.accesses.total_bytes)
        assert report.metric("buffers") == float(report.buffer_requirement_bytes)

    def test_metric_unknown(self, roomy_builder):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 2))
        with pytest.raises(KeyError) as raised:
            report.metric("power")
        assert raised.value.args == (
            "unknown metric 'power'; expected one of "
            "['access', 'accesses', 'buffer', 'buffers', 'latency', 'throughput']",
        )

    def test_metric_values_are_pinned(self):
        report = api.evaluate("squeezenet", "zc706", "segmentedrr", ce_count=2)
        values = {name: report.metric(name) for name in (
            "latency", "throughput", "access", "accesses", "buffers", "buffer"
        )}
        assert values == {
            "latency": 0.004133365,
            "throughput": 250.08784335497845,
            "access": 3102160.0,
            "accesses": 3102160.0,
            "buffers": 3139648.0,
            "buffer": 3139648.0,
        }
        assert all(type(value) is float for value in values.values())

    def test_pe_utilization_unit_interval(self, roomy_builder):
        report = evaluate(roomy_builder, segmented_rr(roomy_builder.conv_specs, 2))
        assert 0.0 < report.pe_utilization <= 1.0

    def test_summary_text(self, roomy_builder):
        report = evaluate(roomy_builder, segmented(roomy_builder.conv_specs, 2))
        text = report.summary()
        assert "FPS" in text and "MiB" in text

    def test_metric_direction(self):
        assert metric_is_higher_better("throughput")
        assert not metric_is_higher_better("latency")


class TestAccessBreakdown:
    def test_addition(self):
        total = AccessBreakdown(weight_bytes=10, fm_bytes=5) + AccessBreakdown(
            weight_bytes=1, fm_bytes=2
        )
        assert total.weight_bytes == 11 and total.fm_bytes == 7

    def test_fractions(self):
        breakdown = AccessBreakdown(weight_bytes=30, fm_bytes=10)
        assert breakdown.weight_fraction == pytest.approx(0.75)

    def test_empty_fraction(self):
        assert AccessBreakdown().weight_fraction == 0.0
