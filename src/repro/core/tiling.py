"""Tile schedules for pipelined-CEs blocks (Fig. 4b).

Tile-grained pipelining slices every layer's OFM into the same number of
row-band tiles; CE ``j`` processes tile ``t`` of its layer in pipeline stage
``t + j``, so a block of ``L`` layers and ``T`` tiles runs in ``T + L - 1``
stages. Stage latency is the slowest active CE (Eq. 2); CE idleness in the
fill/drain stages is exactly the latency cost of pipelining the paper
discusses in Section IV-A1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.utils.errors import ResourceError

#: Bounds on tiles per pipelined pass. The lower bound enables double
#: buffering at all; the upper bound keeps per-tile overheads (and the
#: stage bookkeeping) proportionate, mirroring the row-block tile sizes of
#: the tile-grained baselines (Wei et al. [41]).
MIN_TILES = 2
MAX_TILES = 8


def select_tile_count(specs: Sequence[ConvSpec]) -> int:
    """Number of row-band tiles shared by all layers of a pipelined pass.

    Bounded by the smallest OFM height among the layers (a tile must contain
    at least one output row for every layer) and clamped into
    ``[MIN_TILES, MAX_TILES]``.
    """
    if not specs:
        raise ResourceError("cannot tile an empty layer set")
    return tile_count_for(min(spec.out_height for spec in specs))


def tile_count_for(min_height: int) -> int:
    """:func:`select_tile_count` of layers whose smallest OFM height is
    ``min_height``."""
    return min(max(min_height, MIN_TILES), MAX_TILES)


#: One CE's Eq. 2 tile latencies ``Lat(FMsTile_ij, CE_j)`` as runs:
#: ``(full_tiles, full_cycles, partial_cycles)``. Tiles ``0 .. full_tiles - 1``
#: take ``full_cycles``; tile ``full_tiles``, when there is one, takes
#: ``partial_cycles`` (0 when no rows are left for it); later tiles are empty.
TileRuns = Tuple[int, int, int]


def _row_runs(height: int, tile_count: int) -> Tuple[int, int, int]:
    """``(full_tiles, full_rows, partial_rows)`` of ``height`` rows over
    ``tile_count`` tiles of ``ceil(height / tile_count)`` rows each."""
    full_rows = -(-height // tile_count)
    full_tiles = height // full_rows
    return full_tiles, full_rows, height - full_tiles * full_rows


def tile_rows(spec: ConvSpec, tile_count: int, tile_index: int) -> int:
    """OFM rows of layer ``spec`` covered by tile ``tile_index``.

    Rows are distributed as evenly as integer division allows; trailing
    tiles may be smaller (or empty when a layer has fewer rows than tiles).
    """
    if tile_index < 0 or tile_index >= tile_count:
        raise ResourceError(f"tile index {tile_index} out of range 0..{tile_count - 1}")
    full_tiles, full_rows, partial_rows = _row_runs(spec.out_height, tile_count)
    if tile_index < full_tiles:
        return full_rows
    return partial_rows if tile_index == full_tiles else 0


def tile_ofm_elements(spec: ConvSpec, tile_count: int, tile_index: int) -> int:
    """OFM elements produced by one tile of ``spec``."""
    return tile_rows(spec, tile_count, tile_index) * spec.out_width * spec.filters


def tile_cycle_runs(spec: ConvSpec, cycles_full_layer: int, tile_count: int) -> TileRuns:
    """Cycles one CE spends on each tile of ``spec`` (Eq. 2's
    ``Lat(FMsTile_ij, CE_j)``), as :data:`TileRuns`.

    The full-layer Eq. 1 cycle count is apportioned by each tile's share of
    OFM rows, with a ceiling so the tile sum never undershoots the layer
    total. :func:`tile_rows` gives full tiles, at most one partial tile,
    then empty tiles, so three values describe every tile.
    """
    return row_cycle_runs(spec.out_height, cycles_full_layer, tile_count)


def row_cycle_runs(height: int, cycles_full_layer: int, tile_count: int) -> TileRuns:
    """:func:`tile_cycle_runs` of a layer ``height`` OFM rows tall: the form
    a block layout maps over its height and cycle columns."""
    full_tiles, full_rows, partial_rows = _row_runs(height, tile_count)
    return (
        full_tiles,
        -(-cycles_full_layer * full_rows // height),
        -(-cycles_full_layer * partial_rows // height),
    )


def ce_busy_cycles(runs: TileRuns) -> int:
    """Eq. 3 inner sum: one CE's active cycles over all its tiles."""
    full_tiles, full_cycles, partial_cycles = runs
    return full_tiles * full_cycles + partial_cycles


def stage_latencies(runs: Sequence[TileRuns], tile_count: int) -> List[int]:
    """Eq. 2 per stage: the slowest active CE bounds each of the
    ``tile_count + len(runs) - 1`` stages (CE ``j`` runs tile ``t`` in stage
    ``j + t``, the Fig. 4b skew)."""
    stages = [0] * (tile_count + len(runs) - 1)
    for first, (full_tiles, full_cycles, partial_cycles) in enumerate(runs):
        end = first + full_tiles
        for stage in range(first, end):
            if stages[stage] < full_cycles:
                stages[stage] = full_cycles
        if partial_cycles and stages[end] < partial_cycles:
            stages[end] = partial_cycles
    return stages


def pipeline_cycles(runs: Sequence[TileRuns], tile_count: int) -> Tuple[int, int]:
    """Eq. 2 latency and Eq. 3 bottleneck of one pipelined pass.

    The latency sums the stage maxima; the bottleneck is the busiest CE's
    total, which bounds the steady-state throughput.
    """
    return (
        sum(stage_latencies(runs, tile_count)),
        max(map(ce_busy_cycles, runs)),
    )


@dataclass(frozen=True)
class PipelineSchedule:
    """Stage-by-stage view of one pipelined pass over ``len(runs)`` CEs.

    ``runs[j]`` holds CE ``j``'s tile cycles (:func:`tile_cycle_runs`);
    CE ``j`` is active in stages ``j .. j + tile_count - 1`` working on tiles
    ``0 .. tile_count - 1`` (Fig. 4b skew).
    """

    runs: Tuple[TileRuns, ...]
    tile_count: int

    @property
    def num_ces(self) -> int:
        return len(self.runs)

    @property
    def num_stages(self) -> int:
        """``PipeStages`` of Eq. 2: tiles + CEs - 1."""
        return self.tile_count + self.num_ces - 1

    @property
    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """``cycles[j][t]``: CE ``j``'s cycle count for tile ``t``."""
        rows = []
        for full_tiles, full_cycles, partial_cycles in self.runs:
            row = [full_cycles] * full_tiles + [partial_cycles]
            rows.append(tuple(row[: self.tile_count]) + (0,) * (self.tile_count - len(row)))
        return tuple(rows)

    @cached_property
    def stage_cycles(self) -> List[int]:
        """Eq. 2 latency of every stage."""
        return stage_latencies(self.runs, self.tile_count)

    def stage_latency(self, stage: int) -> int:
        """Eq. 2: the slowest active CE bounds the stage."""
        return self.stage_cycles[stage]

    def latency_cycles(self) -> int:
        """Eq. 2 outer sum: total cycles for one input through the pass."""
        return pipeline_cycles(self.runs, self.tile_count)[0]

    def ce_busy_cycles(self, ce_index: int) -> int:
        """Eq. 3 inner sum: CE ``ce_index``'s total active cycles."""
        return ce_busy_cycles(self.runs[ce_index])

    def bottleneck_cycles(self) -> int:
        """Eq. 3 denominator: the slowest CE's busy cycles."""
        return pipeline_cycles(self.runs, self.tile_count)[1]

    def active_ces(self, stage: int) -> List[int]:
        """Indices of CEs active in ``stage`` (Fig. 4b's activeCEs)."""
        cycles = self.cycles
        return [
            j
            for j in range(self.num_ces)
            if 0 <= stage - j < self.tile_count and cycles[j][stage - j] > 0
        ]


def build_schedule(
    specs: Sequence[ConvSpec], full_layer_cycles: Sequence[int], tile_count: int
) -> PipelineSchedule:
    """Construct the tile schedule for one pipelined pass.

    ``full_layer_cycles[j]`` is the Eq. 1 cycle count of layer ``j`` on its
    dedicated CE; the schedule splits it across ``tile_count`` tiles.
    """
    if len(specs) != len(full_layer_cycles):
        raise ResourceError("specs and cycle counts must align")
    return PipelineSchedule(
        runs=tuple(
            tile_cycle_runs(spec, full, tile_count)
            for spec, full in zip(specs, full_layer_cycles)
        ),
        tile_count=tile_count,
    )
