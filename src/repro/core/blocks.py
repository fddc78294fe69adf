"""The multiple-CE building blocks (Section III-B, Section IV-A).

* :class:`SingleCEBlock` — one engine processing a range of layers to
  completion, one layer at a time (Fig. 4a).
* :class:`PipelinedCEsBlock` — a chain of engines processing layers
  concurrently at tile granularity (Fig. 4b); when it owns more layers than
  engines it processes them CE-count at a time in rounds (the SegmentedRR
  pattern), and each round is one *segment* for fine-grained reporting.
* :class:`~repro.core.dual.DualEngineBlock` — the Hybrid's two-sub-CE
  tail, a single-CE-role block whose fused pairs run on both engines.

All three expose the same evaluation interface: ideal and mandatory buffer
bytes, and ``evaluate(allocated_bytes, ...)`` returning a
:class:`~repro.core.cost.results.BlockEvaluation`. The single-CE and
dual-engine blocks share :func:`sequential_evaluation`.

Everything a block's cost depends on except the allocation and the
boundary traffic — the per-layer byte terms, Eq. 1 cycles, the rounds with
their Eq. 2/3 tile runs and cycles, and the Eq. 4/5 footprints — is
computed once, on first use, into the block's ``layout``, from slices of
the context's :class:`~repro.core.cost.terms.LayerColumns` (the builder
passes its table as ``columns``; a block whose specs are not rows of it,
such as one built by hand or by :func:`dataclasses.replace`, builds a
table of its own specs; :func:`block_rows` decides). Blocks are frozen, so
a layout can never go stale, and a block whose costs a segment cache
already holds never builds one. The synthesis simulator reads the same
layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.cost.accesses import pipelined_weight_traffic, single_ce_traffic
from repro.core.cost.buffers import (
    PositionBytes,
    pipelined_footprint,
    position_maxima,
    single_ce_buffers,
    single_ce_streaming_bytes,
)
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, SegmentCost
from repro.core.cost.terms import LayerColumns, LayerTerms
from repro.core.engine import ComputeEngine
from repro.core.tiling import TileRuns, pipeline_cycles, row_cycle_runs, tile_count_for
from repro.hw.datatypes import Precision
from repro.utils.errors import ResourceError


def block_rows(block) -> Tuple[LayerColumns, int]:
    """The layer columns ``block`` reads, and the row of its first layer.

    The context's table when the block's specs are consecutive rows of it
    at the block's precision; otherwise a table of the block's own specs,
    so a block never reads columns of other layers.
    """
    columns = block.columns
    if columns is not None:
        start = columns.row_of(block.specs, block.precision)
        if start is not None:
            return columns, start
    return LayerColumns(block.specs, block.precision), 0


class SingleCELayout(NamedTuple):
    """What a :class:`SingleCEBlock` costs with, computed once."""

    terms: List[LayerTerms]
    #: Eq. 1 cycles of each layer, and their sum.
    cycles: List[int]
    compute_cycles: int
    layer_indices: Tuple[int, ...]
    macs: int
    #: Eq. 4's FM and weights-tile buffers.
    components: Tuple[int, int]
    mandatory: int
    ideal: int


def single_ce_layout(block: "SingleCEBlock") -> SingleCELayout:
    """Everything about ``block`` that does not depend on its allocation."""
    columns, start = block_rows(block)
    rows = slice(start, start + len(block.specs))
    engine = block.engine
    tiles = columns.weights_tiles(rows, engine)
    cycles = columns.cycles(rows, (engine.strategy,))
    components = single_ce_buffers(columns, rows, tiles)
    return SingleCELayout(
        terms=columns.single_ce_terms(rows, tiles),
        cycles=cycles,
        compute_cycles=sum(cycles),
        layer_indices=tuple(columns.index[rows]),
        macs=sum(columns.macs[rows]),
        components=components,
        mandatory=single_ce_streaming_bytes(columns, rows, tiles),
        ideal=sum(components),
    )


@dataclass(frozen=True)
class SingleCEBlock:
    """A single-CE building block: CE ``engine`` processes ``specs`` in order."""

    name: str
    engine: ComputeEngine
    specs: Tuple[ConvSpec, ...]
    precision: Precision
    bytes_per_cycle: float
    #: The context's layer columns (see :func:`block_rows`).
    columns: Optional[LayerColumns] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ResourceError(f"{self.name}: block has no layers")
        if self.bytes_per_cycle <= 0:
            raise ResourceError(f"{self.name}: bandwidth must be positive")

    kind = "single"

    @property
    def pe_count(self) -> int:
        return self.engine.pe_count

    @property
    def macs(self) -> int:
        return sum(spec.macs for spec in self.specs)

    @cached_property
    def layout(self) -> SingleCELayout:
        return single_ce_layout(self)

    def ideal_buffer_bytes(self) -> int:
        """Eq. 4 requirement for guaranteed-minimum accesses."""
        return self.layout.ideal

    def mandatory_buffer_bytes(self) -> int:
        """Smallest allocation the block can stream through."""
        return self.layout.mandatory

    def buffer_components(self) -> List[int]:
        """The physical buffers making up the Eq. 4 requirement, in bytes.

        One FM buffer (reused across layers) and one weights-tile buffer.
        Consumers that model implementation effects (e.g. the synthesis
        substitute's BRAM-block quantization) operate per component.
        """
        return list(self.layout.components)

    def evaluate(
        self,
        allocated_bytes: int,
        input_extra_bytes: int = 0,
        output_extra_bytes: int = 0,
        segment_index: int = 0,
    ) -> BlockEvaluation:
        """Cost the block with ``allocated_bytes`` of on-chip buffer, one
        layer per step of :func:`sequential_evaluation`."""
        layout = self.layout
        return sequential_evaluation(
            self,
            single_ce_traffic(layout.terms, allocated_bytes),
            layout.cycles,
            allocated_bytes,
            input_extra_bytes,
            output_extra_bytes,
            segment_index,
        )


def sequential_evaluation(
    block,
    traffic: Sequence[Tuple[int, int, int]],
    cycles: Sequence[int],
    allocated_bytes: int,
    input_extra_bytes: int,
    output_extra_bytes: int,
    segment_index: int,
) -> BlockEvaluation:
    """The evaluation of a block that runs one step at a time: a layer of a
    :class:`SingleCEBlock`, a layer or fused pair of a
    :class:`~repro.core.dual.DualEngineBlock`.

    ``traffic`` holds each step's Eq. 6 ``(weight, ifm, ofm)`` off-chip
    bytes and ``cycles`` its compute cycles. Latency sums per-step wall
    times, each the max of the compute cycles and the step's off-chip
    traffic over the bandwidth (memory time is modelled, not assumed hidden
    — Section IV-A1). Such a block processes one input at a time end to
    end, so its throughput interval equals its latency.

    ``input_extra_bytes`` / ``output_extra_bytes`` are boundary FM
    transfers charged by the composition layer (Eq. 9): the CNN input load,
    the CNN output store, and spilled inter-segment buffers. They are
    attributed to the first/last step's memory time here so the
    fine-grained breakdown (Fig. 6) sees them.
    """
    layout = block.layout
    bytes_per_cycle = block.bytes_per_cycle
    weight_bytes = 0
    fm_bytes = input_extra_bytes + output_extra_bytes
    wall_cycles = 0.0
    last = len(traffic) - 1
    for position, ((weights, ifm, ofm), step_cycles) in enumerate(zip(traffic, cycles)):
        weight_bytes += weights
        fm_bytes += ifm + ofm
        step_bytes = weights + ifm + ofm
        if position == 0:
            step_bytes += input_extra_bytes
        if position == last:
            step_bytes += output_extra_bytes
        wall_cycles += max(float(step_cycles), step_bytes / bytes_per_cycle)
    breakdown = AccessBreakdown(weight_bytes=weight_bytes, fm_bytes=fm_bytes)
    segment = SegmentCost(
        index=segment_index,
        label=block.name,
        layer_indices=layout.layer_indices,
        compute_cycles=layout.compute_cycles,
        memory_cycles=breakdown.total_bytes / bytes_per_cycle,
        accesses=breakdown,
        pe_count=block.pe_count,
        macs=layout.macs,
        buffer_requirement_bytes=layout.ideal,
    )
    return BlockEvaluation(
        name=block.name,
        kind=block.kind,
        segments=(segment,),
        latency_cycles=wall_cycles,
        throughput_interval_cycles=wall_cycles,
        accesses=breakdown,
        buffer_requirement_bytes=layout.ideal,
        buffer_allocated_bytes=allocated_bytes,
        pe_count=block.pe_count,
    )


class PipelinedLayout(NamedTuple):
    """What a :class:`PipelinedCEsBlock` costs with, computed once.

    ``rounds`` slices the block's layers CE-count at a time; position ``j``
    of a round is its ``j``-th layer. Every other list but ``weights`` has
    one entry per round.
    """

    rounds: List[slice]
    tile_counts: List[int]
    #: weightsSz of each layer, the input of Eq. 7.
    weights: List[int]
    #: Each layer's Eq. 2 tile cycles on its position's engine.
    runs: List[TileRuns]
    #: Eq. 2 latency and Eq. 3 bottleneck, in cycles.
    latencies: Tuple[int, ...]
    bottlenecks: Tuple[int, ...]
    layer_indices: List[Tuple[int, ...]]
    macs: List[int]
    pe_counts: List[int]
    #: Eq. 5 requirement of each round alone.
    requirements: List[int]
    positions: PositionBytes
    #: The FM double-buffers every CE position reserves.
    fm_buffer_bytes: int
    mandatory: int
    ideal: int


def pipelined_layout(block: "PipelinedCEsBlock") -> PipelinedLayout:
    """Everything about ``block`` that does not depend on its allocation.

    Column kernels over the block's rows give each layer its Eq. 1 cycles
    (on its position's engine), its FM tile and its Eq. 2 tile runs; a CE
    position's Eq. 4/5 maxima are over a strided slice. Only the Eq. 2
    stage scan loops, in each round.
    """
    columns, start = block_rows(block)
    engines = block.engines
    ce_count = len(engines)
    count = len(block.specs)
    rows = slice(start, start + count)
    rounds = [slice(offset, offset + ce_count) for offset in range(0, count, ce_count)]
    heights = columns.out_height[rows]
    tile_counts = [tile_count_for(min(heights[round_])) for round_ in rounds]
    layer_tiles = list(chain.from_iterable(map(repeat, tile_counts, repeat(ce_count))))
    weights = columns.weights[rows]
    fm_tiles = columns.fm_tiles(rows, layer_tiles)
    cycles = columns.cycles(rows, [engine.strategy for engine in engines])
    runs = list(map(row_cycle_runs, heights, cycles, layer_tiles))
    latencies, bottlenecks = zip(
        *[pipeline_cycles(runs[round_], tile_count) for round_, tile_count in zip(rounds, tile_counts)]
    )
    index = columns.index[rows]
    macs = columns.macs[rows]
    pe_counts = list(accumulate(engine.pe_count for engine in engines))
    positions = (
        position_maxima(weights, ce_count),
        position_maxima(fm_tiles, ce_count),
        position_maxima(columns.stream_tiles[rows], ce_count),
    )
    mandatory, ideal = pipelined_footprint(positions, len(rounds))
    return PipelinedLayout(
        rounds=rounds,
        tile_counts=tile_counts,
        weights=weights,
        runs=runs,
        latencies=latencies,
        bottlenecks=bottlenecks,
        layer_indices=[tuple(index[round_]) for round_ in rounds],
        macs=[sum(macs[round_]) for round_ in rounds],
        pe_counts=[pe_counts[min(count - round_.start, ce_count) - 1] for round_ in rounds],
        # Eq. 5 of one pass: every weight resident, FM tiles doubled.
        requirements=[sum(weights[round_]) + 2 * sum(fm_tiles[round_]) for round_ in rounds],
        positions=positions,
        fm_buffer_bytes=2 * sum(positions[1]),
        mandatory=mandatory,
        ideal=ideal,
    )


def split_weight_budget(demands: Sequence[int], weight_budget: int) -> List[int]:
    """Split a weight-buffer budget across CE positions.

    Proportional to each position's ``demands`` (its worst-round weight
    footprint), capped at that footprint (surplus flows to still-hungry
    positions).
    """
    remaining = max(0, weight_budget)
    allocation = [0] * len(demands)
    unsatisfied = list(range(len(demands)))
    while remaining > 0 and unsatisfied:
        total_demand = sum(demands[j] - allocation[j] for j in unsatisfied)
        if total_demand <= 0:
            break
        if total_demand <= remaining:
            for j in unsatisfied:
                allocation[j] = demands[j]
            remaining -= total_demand
            break
        progressed = False
        for j in list(unsatisfied):
            share = remaining * (demands[j] - allocation[j]) // total_demand
            grant = min(share, demands[j] - allocation[j])
            if grant > 0:
                allocation[j] += grant
                progressed = True
        remaining = max(0, weight_budget - sum(allocation))
        unsatisfied = [j for j in unsatisfied if allocation[j] < demands[j]]
        if not progressed:
            # Sub-integer shares left; hand the remainder to the neediest.
            if unsatisfied:
                j = max(unsatisfied, key=lambda j: demands[j] - allocation[j])
                grant = min(remaining, demands[j] - allocation[j])
                allocation[j] += grant
            break
    return allocation


@dataclass(frozen=True)
class PipelinedCEsBlock:
    """A pipelined-CEs building block: ``engines[j]`` owns every
    ``(round, position j)`` layer; rounds execute back to back."""

    name: str
    engines: Tuple[ComputeEngine, ...]
    specs: Tuple[ConvSpec, ...]
    precision: Precision
    bytes_per_cycle: float
    #: The context's layer columns (see :func:`block_rows`).
    columns: Optional[LayerColumns] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ResourceError(f"{self.name}: block has no layers")
        if not self.engines:
            raise ResourceError(f"{self.name}: block has no engines")
        if len(self.specs) < len(self.engines):
            raise ResourceError(
                f"{self.name}: {len(self.specs)} layer(s) cannot occupy "
                f"{len(self.engines)} pipelined CEs"
            )
        if self.bytes_per_cycle <= 0:
            raise ResourceError(f"{self.name}: bandwidth must be positive")

    kind = "pipelined"

    @property
    def ce_count(self) -> int:
        return len(self.engines)

    @property
    def pe_count(self) -> int:
        return sum(engine.pe_count for engine in self.engines)

    @property
    def macs(self) -> int:
        return sum(spec.macs for spec in self.specs)

    @cached_property
    def layout(self) -> PipelinedLayout:
        return pipelined_layout(self)

    def rounds(self) -> List[Tuple[ConvSpec, ...]]:
        """Layer groups processed CE-count at a time (Section III-B)."""
        return [self.specs[round_] for round_ in self.layout.rounds]

    def tile_counts(self) -> List[int]:
        return list(self.layout.tile_counts)

    def ideal_buffer_bytes(self) -> int:
        """Eq. 5 requirement (worst case across rounds for multi-round)."""
        return self.layout.ideal

    def mandatory_buffer_bytes(self) -> int:
        """FM double-buffers plus one streaming weights tile per CE."""
        return self.layout.mandatory

    def buffer_components(self) -> List[int]:
        """The physical buffers making up the Eq. 5 requirement, in bytes.

        Per CE position: a weight buffer (doubled for multi-round prefetch)
        and two FM tile buffers (double buffering).
        """
        layout = self.layout
        weights, fm_tiles, _ = layout.positions
        weight_copies = 1 if len(layout.rounds) == 1 else 2
        components: List[int] = []
        for position in range(self.ce_count):
            components.extend([weights[position]] * weight_copies)
            components.extend([fm_tiles[position], fm_tiles[position]])
        return components

    def _weight_buffer_split(self, weight_budget: int) -> List[int]:
        """:func:`split_weight_budget` over this block's CE positions."""
        return split_weight_budget(self.layout.positions[0], weight_budget)

    def evaluate(
        self,
        allocated_bytes: int,
        input_extra_bytes: int = 0,
        output_extra_bytes: int = 0,
        segment_index: int = 0,
    ) -> BlockEvaluation:
        """Cost the block with ``allocated_bytes`` of on-chip buffer.

        Each round is one segment. Round latency follows Eq. 2 (sum of
        stage maxima), overlapped with the round's weight traffic; the
        block's throughput interval drops the fill/drain bubbles (Eq. 3:
        the slowest CE's busy time bounds steady-state throughput).
        Boundary FM transfers (``input_extra_bytes`` to the first round,
        ``output_extra_bytes`` to the last) are charged per Eq. 9.
        """
        layout = self.layout
        bytes_per_cycle = self.bytes_per_cycle
        weight_buffers = self._weight_buffer_split(
            max(0, allocated_bytes - layout.fm_buffer_bytes)
        )
        segments: List[SegmentCost] = []
        latency = 0.0
        interval = 0.0
        total_weight_bytes = 0
        last = len(layout.rounds) - 1
        for round_index, (round_, tile_count) in enumerate(
            zip(layout.rounds, layout.tile_counts)
        ):
            weight_bytes = sum(
                pipelined_weight_traffic(layout.weights[round_], tile_count, weight_buffers)
            )
            boundary_bytes = 0
            if round_index == 0:
                boundary_bytes += input_extra_bytes
            if round_index == last:
                boundary_bytes += output_extra_bytes
            memory_cycles = (weight_bytes + boundary_bytes) / bytes_per_cycle
            round_latency = layout.latencies[round_index]
            latency += max(float(round_latency), memory_cycles)
            interval += max(float(layout.bottlenecks[round_index]), memory_cycles)
            total_weight_bytes += weight_bytes
            segments.append(
                SegmentCost(
                    index=segment_index + round_index,
                    label=f"{self.name}.r{round_index + 1}",
                    layer_indices=layout.layer_indices[round_index],
                    compute_cycles=round_latency,
                    memory_cycles=memory_cycles,
                    accesses=AccessBreakdown(
                        weight_bytes=weight_bytes, fm_bytes=boundary_bytes
                    ),
                    pe_count=layout.pe_counts[round_index],
                    macs=layout.macs[round_index],
                    buffer_requirement_bytes=layout.requirements[round_index],
                )
            )
        return BlockEvaluation(
            name=self.name,
            kind=self.kind,
            segments=tuple(segments),
            latency_cycles=latency,
            throughput_interval_cycles=interval,
            accesses=AccessBreakdown(
                weight_bytes=total_weight_bytes,
                fm_bytes=input_extra_bytes + output_extra_bytes,
            ),
            buffer_requirement_bytes=layout.ideal,
            buffer_allocated_bytes=allocated_bytes,
            pe_count=self.pe_count,
        )
