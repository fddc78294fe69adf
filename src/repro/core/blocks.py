"""The two multiple-CE building blocks (Section III-B, Section IV-A).

* :class:`SingleCEBlock` — one engine processing a range of layers to
  completion, one layer at a time (Fig. 4a).
* :class:`PipelinedCEsBlock` — a chain of engines processing layers
  concurrently at tile granularity (Fig. 4b); when it owns more layers than
  engines it processes them CE-count at a time in rounds (the SegmentedRR
  pattern), and each round is one *segment* for fine-grained reporting.

Both expose the same evaluation interface: ideal and mandatory buffer
bytes, and ``evaluate(allocated_bytes, ...)`` returning a
:class:`~repro.core.cost.results.BlockEvaluation`.

Everything a block's cost depends on except the allocation and the
boundary traffic — the per-layer byte terms, Eq. 1 cycles, the rounds with
their Eq. 2/3 cycles, and the Eq. 4/5 footprints — is computed once, on
first use, into the block's ``layout``. Blocks are frozen, so a layout can
never go stale, and a block whose costs a segment cache already holds
never builds one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.cost.accesses import pipelined_weight_traffic, single_ce_traffic
from repro.core.cost.buffers import (
    PositionBytes,
    pipelined_footprint,
    pipelined_position_bytes,
    single_ce_buffers,
    single_ce_streaming_bytes,
)
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, SegmentCost
from repro.core.cost.terms import LayerTerms, layer_terms, pipelined_terms
from repro.core.engine import ComputeEngine
from repro.core.tiling import pipeline_cycles, select_tile_count, tile_cycle_runs
from repro.hw.datatypes import Precision
from repro.utils.errors import ResourceError


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
    terms = layer_terms(block.specs, block.engine, block.precision)
    cycles = [block.engine.layer_cycles(spec) for spec in block.specs]
    components = single_ce_buffers(terms)
    return SingleCELayout(
        terms=terms,
        cycles=cycles,
        compute_cycles=sum(cycles),
        layer_indices=tuple(spec.index for spec in block.specs),
        macs=block.macs,
        components=components,
        mandatory=single_ce_streaming_bytes(terms),
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
    def access_engine(self) -> ComputeEngine:
        """Engine whose weight tiles parameterize the Eq. 6 access model."""
        return self.engine

    def layer_cycles(self, spec: ConvSpec) -> int:
        """Eq. 1 cycles for one of this block's layers."""
        return self.engine.layer_cycles(spec)

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
        """Cost the block with ``allocated_bytes`` of on-chip buffer.

        Latency sums per-layer wall times, each the max of Eq. 1 compute
        cycles and the layer's off-chip traffic over the bandwidth (memory
        time is modelled, not assumed hidden — Section IV-A1). A single-CE
        block processes one input at a time end to end, so its throughput
        interval equals its latency.

        ``input_extra_bytes`` / ``output_extra_bytes`` are boundary FM
        transfers charged by the composition layer (Eq. 9): the CNN input
        load, the CNN output store, and spilled inter-segment buffers. They
        are attributed to the first/last layer's memory time here so the
        fine-grained breakdown (Fig. 6) sees them.
        """
        layout = self.layout
        bytes_per_cycle = self.bytes_per_cycle
        traffic = single_ce_traffic(layout.terms, allocated_bytes)
        weight_bytes = 0
        fm_bytes = input_extra_bytes + output_extra_bytes
        wall_cycles = 0.0
        last = len(traffic) - 1
        for position, ((weights, ifm, ofm), cycles) in enumerate(zip(traffic, layout.cycles)):
            weight_bytes += weights
            fm_bytes += ifm + ofm
            layer_bytes = weights + ifm + ofm
            if position == 0:
                layer_bytes += input_extra_bytes
            if position == last:
                layer_bytes += output_extra_bytes
            wall_cycles += max(float(cycles), layer_bytes / bytes_per_cycle)
        breakdown = AccessBreakdown(weight_bytes=weight_bytes, fm_bytes=fm_bytes)
        segment = SegmentCost(
            index=segment_index,
            label=self.name,
            layer_indices=layout.layer_indices,
            compute_cycles=layout.compute_cycles,
            memory_cycles=breakdown.total_bytes / bytes_per_cycle,
            accesses=breakdown,
            pe_count=self.pe_count,
            macs=layout.macs,
            buffer_requirement_bytes=layout.ideal,
        )
        return BlockEvaluation(
            name=self.name,
            kind=self.kind,
            segments=(segment,),
            latency_cycles=wall_cycles,
            throughput_interval_cycles=wall_cycles,
            accesses=breakdown,
            buffer_requirement_bytes=layout.ideal,
            buffer_allocated_bytes=allocated_bytes,
            pe_count=self.pe_count,
        )


class PipelinedRound(NamedTuple):
    """One round of a :class:`PipelinedCEsBlock`: its layers on CE
    positions ``0 .. len(specs) - 1`` and everything but its weight traffic."""

    specs: Tuple[ConvSpec, ...]
    tile_count: int
    #: weightsSz of each layer, the input of Eq. 7.
    weights: List[int]
    #: Eq. 2 latency and Eq. 3 bottleneck, in cycles.
    latency: int
    bottleneck: int
    layer_indices: Tuple[int, ...]
    macs: int
    pe_count: int
    #: Eq. 5 requirement of this round alone.
    requirement: int


class PipelinedLayout(NamedTuple):
    """What a :class:`PipelinedCEsBlock` costs with, computed once."""

    rounds: List[PipelinedRound]
    positions: PositionBytes
    #: The FM double-buffers every CE position reserves.
    fm_buffer_bytes: int
    mandatory: int
    ideal: int


def pipelined_layout(block: "PipelinedCEsBlock") -> PipelinedLayout:
    """Everything about ``block`` that does not depend on its allocation."""
    ce_count = block.ce_count
    rounds: List[PipelinedRound] = []
    round_terms = []
    for start in range(0, len(block.specs), ce_count):
        specs = block.specs[start : start + ce_count]
        tile_count = select_tile_count(specs)
        terms = pipelined_terms(specs, tile_count, block.precision)
        engines = block.engines[: len(specs)]
        latency, bottleneck = pipeline_cycles(
            [
                tile_cycle_runs(spec, engine.layer_cycles(spec), tile_count)
                for spec, engine in zip(specs, engines)
            ],
            tile_count,
        )
        # One layer per position, so the round's terms are its positions.
        requirement = pipelined_footprint(tuple(zip(*terms)), 1)[1]
        rounds.append(
            PipelinedRound(
                specs=specs,
                tile_count=tile_count,
                weights=[layer.weights for layer in terms],
                latency=latency,
                bottleneck=bottleneck,
                layer_indices=tuple(spec.index for spec in specs),
                macs=sum(spec.macs for spec in specs),
                pe_count=sum(engine.pe_count for engine in engines),
                requirement=requirement,
            )
        )
        round_terms.append(terms)
    positions = pipelined_position_bytes(round_terms, ce_count)
    mandatory, ideal = pipelined_footprint(positions, len(rounds))
    return PipelinedLayout(
        rounds=rounds,
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
        return [round_.specs for round_ in self.layout.rounds]

    def tile_counts(self) -> List[int]:
        return [round_.tile_count for round_ in self.layout.rounds]

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
        for position in range(len(layout.rounds[0].specs)):
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
        for round_index, round_ in enumerate(layout.rounds):
            weight_bytes = sum(
                pipelined_weight_traffic(round_.weights, round_.tile_count, weight_buffers)
            )
            boundary_bytes = 0
            if round_index == 0:
                boundary_bytes += input_extra_bytes
            if round_index == last:
                boundary_bytes += output_extra_bytes
            memory_cycles = (weight_bytes + boundary_bytes) / bytes_per_cycle
            latency += max(float(round_.latency), memory_cycles)
            interval += max(float(round_.bottleneck), memory_cycles)
            total_weight_bytes += weight_bytes
            segments.append(
                SegmentCost(
                    index=segment_index + round_index,
                    label=f"{self.name}.r{round_index + 1}",
                    layer_indices=round_.layer_indices,
                    compute_cycles=round_.latency,
                    memory_cycles=memory_cycles,
                    accesses=AccessBreakdown(
                        weight_bytes=weight_bytes, fm_bytes=boundary_bytes
                    ),
                    pe_count=round_.pe_count,
                    macs=round_.macs,
                    buffer_requirement_bytes=round_.requirement,
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
