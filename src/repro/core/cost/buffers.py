"""On-chip buffer requirement models (Eqs. 4, 5, and 8).

These compute the buffer sizes that *guarantee minimum off-chip accesses*
(one access per weight, none per FM element beyond the network edges),
assuming unlimited on-chip memory — the paper's Section IV-A2 definition.
Whether the budget actually accommodates them is the allocator's problem
(:mod:`repro.core.cost.allocation`).

Each model reads the per-layer byte terms of :mod:`repro.core.cost.terms`;
the spec-level functions build those terms and apply the same code.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.cost.terms import (  # noqa: F401 (pipelined_fm_tile_bytes is re-exported)
    LayerTerms,
    PipelinedTerms,
    layer_terms,
    pipelined_fm_tile_bytes,
    pipelined_terms,
)
from repro.core.engine import ComputeEngine
from repro.core.tiling import select_tile_count
from repro.hw.datatypes import Precision

#: Per CE position: the largest weights, FM tile and streaming weights tile
#: over the rounds that position processes.
PositionBytes = Tuple[List[int], List[int], List[int]]


def single_ce_buffers(terms: Sequence[LayerTerms]) -> Tuple[int, int]:
    """Eq. 4's two buffers: the largest layer FMs and the largest weights tile.

    Buffers are reused across layers because a single-CE processes them one
    at a time; the FM term counts the OFM's residual copies.
    """
    return (
        max(layer.ifm + layer.live_ofm for layer in terms),
        max(layer.weights_tile for layer in terms),
    )


def single_ce_streaming_bytes(terms: Sequence[LayerTerms]) -> int:
    """Smallest buffer a single-CE block can stream through.

    One IFM row band, one OFM row, and one weights tile for the worst layer.
    Below this the engine cannot make forward progress, so the allocator
    never hands out less.
    """
    return max(layer.ifm_band + layer.ofm_row + layer.weights_tile for layer in terms)


def single_ce_buffer_requirement(
    specs: Sequence[ConvSpec], engine: ComputeEngine, precision: Precision
) -> int:
    """Eq. 4: largest layer FMs plus the largest weights tile, in bytes."""
    if not specs:
        return 0
    return sum(single_ce_buffers(layer_terms(specs, engine, precision)))


def single_ce_mandatory_bytes(
    specs: Sequence[ConvSpec], engine: ComputeEngine, precision: Precision
) -> int:
    """:func:`single_ce_streaming_bytes` of ``specs`` on ``engine``."""
    if not specs:
        return 0
    return single_ce_streaming_bytes(layer_terms(specs, engine, precision))


def pipelined_position_bytes(
    round_terms: Sequence[Sequence[PipelinedTerms]], ce_count: int
) -> PositionBytes:
    """Largest weights, FM tile and weights tile of each CE position."""
    weights = [0] * ce_count
    fm_tiles = [0] * ce_count
    weight_tiles = [0] * ce_count
    for terms in round_terms:
        for position, (layer_weights, fm_tile, weights_tile) in enumerate(terms):
            if weights[position] < layer_weights:
                weights[position] = layer_weights
            if fm_tiles[position] < fm_tile:
                fm_tiles[position] = fm_tile
            if weight_tiles[position] < weights_tile:
                weight_tiles[position] = weights_tile
    return weights, fm_tiles, weight_tiles


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


def _positions(
    rounds: Sequence[Sequence[ConvSpec]],
    tile_counts: Sequence[int],
    ce_count: int,
    precision: Precision,
) -> PositionBytes:
    return pipelined_position_bytes(
        [
            pipelined_terms(round_specs, tile_count, precision)
            for round_specs, tile_count in zip(rounds, tile_counts)
        ],
        ce_count,
    )


def pipelined_buffer_requirement(
    rounds: Sequence[Sequence[ConvSpec]],
    tile_counts: Sequence[int],
    ce_count: int,
    precision: Precision,
) -> int:
    """Eq. 5 requirement of the given rounds (see :func:`pipelined_footprint`)."""
    if not rounds:
        return 0
    positions = _positions(rounds, tile_counts, ce_count, precision)
    return pipelined_footprint(positions, len(rounds))[1]


def pipelined_mandatory_bytes(
    rounds: Sequence[Sequence[ConvSpec]],
    tile_counts: Sequence[int],
    ce_count: int,
    precision: Precision,
) -> int:
    """Smallest workable buffer of the given rounds (see
    :func:`pipelined_footprint`)."""
    if not rounds:
        return 0
    positions = _positions(rounds, tile_counts, ce_count, precision)
    return pipelined_footprint(positions, len(rounds))[0]


def per_ce_max_weight_bytes(
    rounds: Sequence[Sequence[ConvSpec]], ce_count: int, precision: Precision
) -> List[int]:
    """Largest per-round weight footprint of each CE position, in bytes."""
    # The tile counts only size the FM tiles, which are dropped here.
    tile_counts = [select_tile_count(round_specs) for round_specs in rounds]
    return _positions(rounds, tile_counts, ce_count, precision)[0]
