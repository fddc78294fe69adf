"""Tile schedules for pipelined-CEs blocks (Fig. 4b).

Tile-grained pipelining slices every layer's OFM into the same number of
row-band tiles; CE ``j`` processes tile ``t`` of its layer in pipeline stage
``t + j``, so a block of ``L`` layers and ``T`` tiles runs in ``T + L - 1``
stages. Stage latency is the slowest active CE (Eq. 2); CE idleness in the
fill/drain stages is exactly the latency cost of pipelining the paper
discusses in Section IV-A1.

These are the Eq. 2/3 primitives over plain integers: a pipelined block's
layout (:func:`repro.core.blocks.pipelined_layout`) maps
:func:`row_cycle_runs` over its height and cycle columns, and the
synthesis simulator walks the same runs stage by stage through
:func:`stage_latencies`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: Bounds on tiles per pipelined pass. The lower bound enables double
#: buffering at all; the upper bound keeps per-tile overheads (and the
#: stage bookkeeping) proportionate, mirroring the row-block tile sizes of
#: the tile-grained baselines (Wei et al. [41]).
MIN_TILES = 2
MAX_TILES = 8


def tile_count_for(min_height: int) -> int:
    """Number of row-band tiles shared by all layers of a pipelined pass
    whose smallest OFM height is ``min_height``.

    A tile must contain at least one output row of every layer, and the
    count is clamped into ``[MIN_TILES, MAX_TILES]``.
    """
    return min(max(min_height, MIN_TILES), MAX_TILES)


#: One CE's Eq. 2 tile latencies ``Lat(FMsTile_ij, CE_j)`` as runs:
#: ``(full_tiles, full_cycles, partial_cycles)``. Tiles ``0 .. full_tiles - 1``
#: take ``full_cycles``; tile ``full_tiles``, when there is one, takes
#: ``partial_cycles`` (0 when no rows are left for it); later tiles are empty.
TileRuns = Tuple[int, int, int]


def row_cycle_runs(height: int, cycles_full_layer: int, tile_count: int) -> TileRuns:
    """Cycles one CE spends on each tile of a layer ``height`` OFM rows
    tall (Eq. 2's ``Lat(FMsTile_ij, CE_j)``), as :data:`TileRuns`.

    The full-layer Eq. 1 cycle count is apportioned by each tile's share of
    OFM rows, with a ceiling so the tile sum never undershoots the layer
    total. Rows go ``ceil(height / tile_count)`` to a tile: full tiles, at
    most one partial tile, then empty tiles, so three values describe
    every tile. A block layout maps this over its height and cycle columns.
    """
    full_rows = -(-height // tile_count)
    full_tiles = height // full_rows
    partial_rows = height - full_tiles * full_rows
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
