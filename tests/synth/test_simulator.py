"""Tests for the synthesis-substitute reference simulator."""

import hashlib

import pytest

from repro.api import build_accelerator
from repro.core.cost.model import default_model
from repro.synth.simulator import (
    BRAM_BLOCK_BYTES,
    SynthesisSimulator,
    quantize_buffer,
)


@pytest.fixture(scope="module")
def tiny_pair():
    """(accelerator, report, simulation) for one small instance."""
    from tests.conftest import build_tiny_cnn
    from repro.hw.boards import FPGABoard

    board = FPGABoard(name="t", dsp_count=128, bram_bytes=256 * 1024, bandwidth_gbps=2.0)
    accelerator = build_accelerator(build_tiny_cnn(), board, "segmentedrr", ce_count=2)
    report = default_model().evaluate(accelerator)
    simulation = SynthesisSimulator(accelerator).run()
    return accelerator, report, simulation


class TestQuantizeBuffer:
    def test_zero(self):
        assert quantize_buffer(0) == 0

    def test_rounds_up_to_blocks(self):
        assert quantize_buffer(1) == 2 * BRAM_BLOCK_BYTES  # 1 data + 1 controller

    def test_exact_block(self):
        assert quantize_buffer(BRAM_BLOCK_BYTES) == 2 * BRAM_BLOCK_BYTES

    def test_monotone(self):
        previous = 0
        for size in (1, 100, 5000, 50000, 10**6):
            current = quantize_buffer(size)
            assert current >= previous
            assert current >= size
            previous = current


class TestSimulationResult:
    def test_latency_at_least_model(self, tiny_pair):
        _, report, simulation = tiny_pair
        # The reference carries overheads the model ignores, so it is slower.
        assert simulation.latency_cycles >= report.latency_cycles

    def test_latency_within_model_ballpark(self, tiny_pair):
        _, report, simulation = tiny_pair
        assert simulation.latency_cycles <= 1.5 * report.latency_cycles

    def test_accesses_exactly_match_model(self, tiny_pair):
        # Table IV: access estimation is exact by construction.
        _, report, simulation = tiny_pair
        assert simulation.access_bytes == report.accesses.total_bytes

    def test_buffers_at_least_requirement(self, tiny_pair):
        _, report, simulation = tiny_pair
        assert simulation.buffer_bytes >= report.buffer_requirement_bytes

    def test_segments_cover_blocks(self, tiny_pair):
        accelerator, _, simulation = tiny_pair
        rounds = sum(
            len(block.rounds()) if hasattr(block, "rounds") else 1
            for block in accelerator.blocks
        )
        assert len(simulation.segments) == rounds

    def test_segment_times_sum_to_latency(self, tiny_pair):
        _, _, simulation = tiny_pair
        # Sequential block chain: segment cycles stack up to total latency.
        assert sum(s.cycles for s in simulation.segments) >= simulation.latency_cycles * 0.99

    def test_fps_derivation(self, tiny_pair):
        _, _, simulation = tiny_pair
        assert simulation.throughput_fps == pytest.approx(
            simulation.clock_hz / simulation.throughput_interval_cycles
        )

    def test_deterministic(self, tiny_pair):
        accelerator, _, simulation = tiny_pair
        again = SynthesisSimulator(accelerator).run()
        assert again.latency_cycles == simulation.latency_cycles
        assert again.buffer_bytes == simulation.buffer_bytes


class TestCoarsePipelineSimulation:
    def test_segmented_interval_below_latency(self, tiny_cnn, roomy_board):
        accelerator = build_accelerator(tiny_cnn, roomy_board, "segmented", ce_count=3)
        simulation = SynthesisSimulator(accelerator).run()
        assert simulation.throughput_interval_cycles < simulation.latency_cycles

    def test_hybrid_runs(self, tiny_cnn, small_board):
        accelerator = build_accelerator(tiny_cnn, small_board, "hybrid", ce_count=3)
        simulation = SynthesisSimulator(accelerator).run()
        assert simulation.latency_cycles > 0
        assert simulation.buffer_bytes > 0


#: Exact results for MobileNetV2 on VCU108 with 4 CEs, one design per
#: template: ``(latency, interval, buffer bytes, access bytes, sha256 of
#: the segments' repr)``. Floats are pinned by ``repr``, so a change in the
#: last bit of any segment time fails.
SIMULATION_PINS = {
    "segmented": (
        1803862.6666666665,
        503891.99999999953,
        4598784,
        4806016,
        "0ba757793e222054e9024ba3d9ef95214fbb78576c10b9f72a92e4ef7d8826d5",
    ),
    "segmentedrr": (
        922616.2812500001,
        734001.0,
        5455872,
        4806016,
        "acc3a1c4d3db72f1569de193084d56ca22486535d30566968a38332fac9fd1e7",
    ),
    "hybrid": (
        1101292.0,
        550828.0,
        4428288,
        4806016,
        "7e76f6611cb564d11d82d551a83512320c3cfa24aef8f0353d41dccb20a28218",
    ),
    "hybriddual": (
        1512876.0,
        962412.0,
        4225536,
        6010240,
        "f3e9d6e847d84804ac6d678d13a23cfd03f25dae0508f85e354414aece00417e",
    ),
}


@pytest.mark.parametrize("architecture", sorted(SIMULATION_PINS))
def test_simulation_is_pinned(architecture, vcu108):
    accelerator = build_accelerator("mobilenetv2", vcu108, architecture, ce_count=4)
    result = SynthesisSimulator(accelerator).run()
    digest = hashlib.sha256(repr(result.segments).encode()).hexdigest()
    assert (
        result.latency_cycles,
        result.throughput_interval_cycles,
        result.buffer_bytes,
        result.access_bytes,
        digest,
    ) == SIMULATION_PINS[architecture]
