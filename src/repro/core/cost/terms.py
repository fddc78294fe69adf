"""Per-layer byte terms of the buffer (Eqs. 4/5) and access (Eqs. 6/7) models.

Every term depends only on a layer, its engine's weights tile, the tile
count of its pipelined round and the precision. A block computes them
once (its layout, :mod:`repro.core.blocks`); the equations in
:mod:`repro.core.cost.buffers` and :mod:`repro.core.cost.accesses` then run
over plain integers.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.cnn.graph import ConvSpec
from repro.core.dataflow import ifm_row_elements, ofm_row_elements
from repro.core.engine import ComputeEngine
from repro.core.tiling import tile_ofm_elements
from repro.hw.datatypes import Precision


class LayerTerms(NamedTuple):
    """Bytes of one layer processed on a single CE (Eqs. 4 and 6)."""

    weights: int
    ifm: int
    ofm: int
    #: The OFM with its residual copies, as it stays live on-chip (Eq. 4).
    live_ofm: int
    #: Minimum resident weights, the weights tile of the engine's dataflow.
    weights_tile: int
    #: The streaming working set: one IFM row band and one OFM row.
    ifm_band: int
    ofm_row: int


def layer_terms(
    specs: Sequence[ConvSpec], engine: ComputeEngine, precision: Precision
) -> List[LayerTerms]:
    """:class:`LayerTerms` of every layer ``engine`` processes."""
    act = precision.activation_bytes
    wbytes = precision.weight_bytes
    terms = []
    for spec in specs:
        ofm = spec.ofm_elements * act
        terms.append(
            LayerTerms(
                spec.weight_count * wbytes,
                spec.ifm_elements * act,
                ofm,
                ofm * spec.fms_copies,
                engine.weights_tile_elements(spec) * wbytes,
                ifm_row_elements(spec) * act,
                ofm_row_elements(spec) * act,
            )
        )
    return terms


class PipelinedTerms(NamedTuple):
    """Bytes of one layer in one pipelined round (Eqs. 5 and 7)."""

    weights: int
    #: FMsBufferSz of Eq. 5: the layer's largest OFM tile.
    fm_tile: int
    #: The smallest streamable weights: one filter (C x R x S).
    weights_tile: int


def pipelined_fm_tile_bytes(spec: ConvSpec, tile_count: int, precision: Precision) -> int:
    """FMsBufferSz of Eq. 5: one OFM tile of ``spec`` (largest tile)."""
    return tile_ofm_elements(spec, tile_count, 0) * precision.activation_bytes


def pipelined_terms(
    round_specs: Sequence[ConvSpec], tile_count: int, precision: Precision
) -> List[PipelinedTerms]:
    """:class:`PipelinedTerms` of every layer of one round."""
    wbytes = precision.weight_bytes
    terms = []
    for spec in round_specs:
        weights = spec.weight_count * wbytes
        filter_weights = spec.channels * spec.kernel_height * spec.kernel_width * wbytes
        terms.append(
            PipelinedTerms(
                weights,
                pipelined_fm_tile_bytes(spec, tile_count, precision),
                min(weights, filter_weights),
            )
        )
    return terms
