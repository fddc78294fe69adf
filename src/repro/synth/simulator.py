"""Cycle-approximate reference simulator — the synthesis substitute.

The paper validates MCCM against Vitis HLS synthesis reports (Table IV).
With no FPGA toolchain available, this module plays the reference role: it
executes the *same* schedule the accelerator would run, but at a finer
detail level than the analytical model:

* tile-by-tile execution with per-tile pipeline fill/drain overhead;
* weight/FM transfers serialized through a shared :class:`MemoryPort`
  with per-burst protocol overhead (the model assumes an ideal pipe);
* per-stage handshake cycles between pipelined CEs;
* buffers quantized to whole BRAM blocks plus a controller block each
  (synthesis instantiates discrete BRAM36 primitives).

Off-chip access *byte counts* are taken from the same deterministic access
model — matching the paper's observation that access estimates are exact
(Table IV last row) because "the accesses are deterministic and independent
of the optimizations of the synthesis".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.blocks import PipelinedCEsBlock
from repro.core.builder import Accelerator, Block
from repro.core.cost.accesses import pipelined_weight_traffic, single_ce_traffic
from repro.core.cost.buffers import position_maxima
from repro.core.cost.model import MCCM, boundary_traffic
from repro.core.tiling import stage_latencies
from repro.synth.memory import MemoryPort
from repro.utils.mathutils import ceil_div, ordered_sum

#: Pipeline fill/drain cycles charged per processed tile or layer start
#: (MAC-array depth, accumulator flush, control FSM transitions).
TILE_STARTUP_CYCLES = 64
#: Handshake cycles between pipelined CEs at every stage boundary.
STAGE_HANDSHAKE_CYCLES = 32
#: BRAM36 primitive capacity (36 Kbit) in bytes.
BRAM_BLOCK_BYTES = 4608
#: Extra BRAM blocks per physical buffer (output registers / controller).
BRAM_CONTROLLER_BLOCKS = 1
#: Images simulated to measure the steady-state initiation interval.
PIPELINE_WARMUP_IMAGES = 4


@dataclass(frozen=True)
class SimulatedSegment:
    """Reference timing of one segment (layer range or round)."""

    label: str
    cycles: float
    compute_cycles: float
    memory_wait_cycles: float


@dataclass(frozen=True)
class SimulationResult:
    """Reference ("synthesis") measurements for one accelerator."""

    accelerator_name: str
    latency_cycles: float
    throughput_interval_cycles: float
    buffer_bytes: int
    access_bytes: int
    segments: Tuple[SimulatedSegment, ...]
    clock_hz: float

    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.clock_hz

    @property
    def throughput_fps(self) -> float:
        if self.throughput_interval_cycles <= 0:
            return 0.0
        return self.clock_hz / self.throughput_interval_cycles


def quantize_buffer(num_bytes: int) -> int:
    """Round one buffer up to whole BRAM blocks plus a controller block."""
    if num_bytes <= 0:
        return 0
    blocks = ceil_div(num_bytes, BRAM_BLOCK_BYTES) + BRAM_CONTROLLER_BLOCKS
    return blocks * BRAM_BLOCK_BYTES


class SynthesisSimulator:
    """Runs the reference simulation of a built accelerator."""

    def __init__(self, accelerator: Accelerator) -> None:
        self.accelerator = accelerator
        self._plan = MCCM._allocate(accelerator, MCCM._block_footprints(accelerator))

    # -- public API --------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate one inference (latency) and a short image stream
        (throughput), and measure implementation buffer sizes."""
        block_times, segments = self._simulate_blocks()
        latency = ordered_sum(time for time, _interval in block_times)
        interval = self._steady_state_interval(block_times)
        report = MCCM().evaluate(self.accelerator)
        return SimulationResult(
            accelerator_name=self.accelerator.name,
            latency_cycles=latency,
            throughput_interval_cycles=interval,
            buffer_bytes=self._measure_buffers(),
            access_bytes=report.accesses.total_bytes,
            segments=tuple(segments),
            clock_hz=self.accelerator.board.clock_hz,
        )

    # -- buffers -----------------------------------------------------------------
    def _measure_buffers(self) -> int:
        """BRAM-quantized total of every physical buffer in the design."""
        total = 0
        for block in self.accelerator.blocks:
            for component in block.buffer_components():
                total += quantize_buffer(component)
        copies = 2 if self.accelerator.coarse_pipelined else 1
        sizes = self.accelerator.inter_segment_bytes
        if sizes:
            if copies == 2:
                for size in sizes:
                    total += 2 * quantize_buffer(size)
            else:
                total += quantize_buffer(max(sizes))
        return total

    # -- timing ------------------------------------------------------------------
    def _simulate_blocks(self) -> Tuple[List[Tuple[float, float]], List[SimulatedSegment]]:
        """Per-block (latency, steady-interval) plus per-segment detail."""
        times: List[Tuple[float, float]] = []
        segments: List[SimulatedSegment] = []
        plan = self._plan
        for index, (block, (input_extra, output_extra)) in enumerate(
            zip(self.accelerator.blocks, boundary_traffic(self.accelerator, plan))
        ):
            if isinstance(block, PipelinedCEsBlock):
                time, interval, block_segments = self._simulate_pipelined(
                    block, plan.block_bytes[index], input_extra, output_extra
                )
                times.append((time, interval))
            else:
                time, block_segments = self._simulate_sequential(
                    block, plan.block_bytes[index], input_extra, output_extra
                )
                times.append((time, time))
            segments.extend(block_segments)
        return times, segments

    def _simulate_sequential(
        self,
        block: Block,
        allocated: int,
        input_extra: int,
        output_extra: int,
    ) -> Tuple[float, List[SimulatedSegment]]:
        """Layer-by-layer execution with double-buffered weight streaming.

        Serves both single-CE and dual-engine blocks from their layouts:
        the Eq. 6 ``terms`` and each layer's Eq. 1 ``cycles`` (a dual-engine
        block's layers run one at a time here, unfused).
        """
        port = MemoryPort(self.accelerator.board.bytes_per_cycle)
        layout = block.layout
        traffic = single_ce_traffic(layout.terms, allocated)
        now = 0.0
        compute_total = 0.0
        wait_total = 0.0
        last = len(block.specs) - 1
        for position, (spec, access, compute) in enumerate(
            zip(block.specs, traffic, layout.cycles)
        ):
            layer_bytes = sum(access)
            if position == 0:
                layer_bytes += input_extra
            if position == last:
                layer_bytes += output_extra
            # Weight (and re-streamed FM) traffic is chunked and prefetched
            # into the second buffer half while the array computes.
            chunks = max(1, ceil_div(spec.filters, max(1, spec.filters // 8)))
            chunk_bytes = ceil_div(layer_bytes, chunks)
            chunk_compute = compute / chunks
            layer_start = now
            ready = now
            for _ in range(chunks):
                transfer_done = port.request(ready, chunk_bytes)
                begin = max(ready, transfer_done)
                ready = begin + chunk_compute + TILE_STARTUP_CYCLES / chunks
            now = ready
            compute_total += compute
            wait_total += (now - layer_start) - compute
        segment = SimulatedSegment(
            label=block.name,
            cycles=now,
            compute_cycles=compute_total,
            memory_wait_cycles=max(0.0, wait_total),
        )
        return now, [segment]

    def _simulate_pipelined(
        self,
        block: PipelinedCEsBlock,
        allocated: int,
        input_extra: int,
        output_extra: int,
    ) -> Tuple[float, float, List[SimulatedSegment]]:
        """Stage-by-stage execution of every round through a shared port,
        from the block's layout: each round's Eq. 2 tile runs and Eq. 7
        weights."""
        port = MemoryPort(self.accelerator.board.bytes_per_cycle)
        layout = block.layout
        # The FM double-buffers each CE position reserves: one OFM row of
        # its largest layer, twice.
        ofm_rows = [
            block.precision.activation_bytes * spec.out_width * spec.filters
            for spec in block.specs
        ]
        fm_reserved = 2 * sum(position_maxima(ofm_rows, block.ce_count))
        weight_buffers = block._weight_buffer_split(max(0, allocated - fm_reserved))

        now = 0.0
        segments: List[SimulatedSegment] = []
        interval_total = 0.0
        last = len(layout.rounds) - 1
        for round_index, (round_, tile_count) in enumerate(
            zip(layout.rounds, layout.tile_counts)
        ):
            stages = stage_latencies(layout.runs[round_], tile_count)
            round_bytes = sum(
                pipelined_weight_traffic(layout.weights[round_], tile_count, weight_buffers)
            )
            if round_index == 0:
                round_bytes += input_extra
            if round_index == last:
                round_bytes += output_extra
            # Weight traffic spreads across the round's stages.
            per_stage_bytes = ceil_div(round_bytes, len(stages))
            round_start = now
            compute_total = 0.0
            for stage_compute in stages:
                transfer_done = port.request(now, per_stage_bytes)
                stage_end = max(now + stage_compute, transfer_done)
                now = stage_end + STAGE_HANDSHAKE_CYCLES
                compute_total += stage_compute
            round_time = now - round_start
            busy = layout.bottlenecks[round_index]
            interval_total += max(
                busy + tile_count * STAGE_HANDSHAKE_CYCLES,
                port.transfer_cycles(round_bytes),
            )
            segments.append(
                SimulatedSegment(
                    label=f"{block.name}.r{round_index + 1}",
                    cycles=round_time,
                    compute_cycles=compute_total,
                    memory_wait_cycles=max(0.0, round_time - compute_total),
                )
            )
        return now, interval_total, segments

    def _steady_state_interval(self, block_times: Sequence[Tuple[float, float]]) -> float:
        """Initiation interval of the coarse-grained pipeline.

        Simulates a short stream of images through the block chain: image
        ``i`` enters block ``b`` when both its previous block finished and
        the block freed up. Without coarse pipelining the interval is the
        end-to-end latency.
        """
        latencies = [time for time, _ in block_times]
        intervals = [interval for _, interval in block_times]
        if not self.accelerator.coarse_pipelined and len(block_times) > 1:
            return ordered_sum(latencies)
        if len(block_times) == 1:
            return intervals[0]
        images = PIPELINE_WARMUP_IMAGES + 2
        groups = self.accelerator.block_groups
        free_at = {group: 0.0 for group in groups}
        finishes: List[float] = []
        for _image in range(images):
            ready = 0.0
            for b, latency in enumerate(latencies):
                start = max(ready, free_at[groups[b]])
                end = start + latency
                free_at[groups[b]] = start + intervals[b]
                ready = end
            finishes.append(ready)
        return finishes[-1] - finishes[-2]
