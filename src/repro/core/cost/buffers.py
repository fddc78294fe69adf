"""On-chip buffer requirement models (Eqs. 4, 5, and 8).

These compute the buffer sizes that *guarantee minimum off-chip accesses*
(one access per weight, none per FM element beyond the network edges),
assuming unlimited on-chip memory — the paper's Section IV-A2 definition.
Whether the budget actually accommodates them is the allocator's problem
(:mod:`repro.core.cost.allocation`).

Each model reads slices of the layer columns of :mod:`repro.core.cost.terms`
and runs once per block, when the block lays itself out
(:mod:`repro.core.blocks`, :mod:`repro.core.dual`).
"""

from __future__ import annotations

from operator import add
from typing import List, Sequence, Tuple

from repro.core.cost.terms import LayerColumns

#: Per CE position: the largest weights, FM tile and streaming weights tile
#: over the rounds that position processes.
PositionBytes = Tuple[List[int], List[int], List[int]]


def single_ce_buffers(
    columns: LayerColumns, rows: slice, weights_tiles: Sequence[int]
) -> Tuple[int, int]:
    """Eq. 4's two buffers: the largest layer FMs and the largest weights tile.

    Buffers are reused across layers because a single-CE processes them one
    at a time; the FM term counts the OFM's residual copies.
    ``weights_tiles`` are the engine's tiles of ``rows``
    (:meth:`LayerColumns.weights_tiles`).
    """
    return max(columns.live_fms[rows]), max(weights_tiles)


def single_ce_streaming_bytes(
    columns: LayerColumns, rows: slice, weights_tiles: Sequence[int]
) -> int:
    """Smallest buffer a single-CE block can stream through.

    One IFM row band, one OFM row, and one weights tile for the worst layer.
    Below this the engine cannot make forward progress, so the allocator
    never hands out less.
    """
    return max(map(add, columns.stream_bytes[rows], weights_tiles))


def position_maxima(values: Sequence[int], ce_count: int) -> List[int]:
    """Largest of ``values`` at each CE position, when layer ``i`` runs on
    position ``i % ce_count`` (rounds of ``ce_count`` layers): a strided
    slice per position, 0 for a position no layer reaches."""
    if len(values) <= ce_count:  # one round: each position holds one layer
        return list(values) + [0] * (ce_count - len(values))
    return [max(values[position::ce_count]) for position in range(ce_count)]


def pipelined_footprint(positions: PositionBytes, round_count: int) -> Tuple[int, int]:
    """``(mandatory, ideal)`` bytes of a pipelined block of ``round_count`` rounds.

    Ideal is Eq. 5, generalized to multi-round (SegmentedRR) blocks. A
    single pass needs ``sum_i (weightsSz_i + 2 * FMsBufferSz_i)``: every
    pipelined layer's weights stay resident after first load and every
    CE-to-CE interface is double-buffered. With multiple rounds (Section
    IV-B2) the same physical buffers serve every round, so each CE's weight
    buffer and FM double-buffer must fit the *largest* tiles across the
    rounds it processes. Weight buffers are themselves doubled: round-robin
    blocks prefetch the next round's weights while computing the current
    one (the tile-grained pipeline of Wei et al. [41] stalls otherwise),
    which is why the SegmentedRR pattern has the largest buffer footprint
    in Table I.

    Mandatory is the smallest workable buffer: the FM double-buffers plus
    one weights tile per CE. The FM double-buffers are not optional —
    tile-grained pipelining cannot run without them ("the buffer sizes are
    tailored to the available on-chip memory", Section IV-A3) — while
    weights can stream.
    """
    weights, fm_tiles, weight_tiles = positions
    fm_buffers = 2 * sum(fm_tiles)
    weight_copies = 1 if round_count == 1 else 2
    return fm_buffers + sum(weight_tiles), weight_copies * sum(weights) + fm_buffers
