"""CE dataflows (Section II-B) and the buffer tiles they imply.

A dataflow names which operand moves least frequently: weight-stationary
(WS), output-stationary (OS), or input-stationary (IS). The access model of
Eq. 6 is written for an OS dataflow with two local fallbacks (OS local
input-stationary, OS local weight-stationary); the dataflow chosen for a CE
determines the minimum resident *weights tile* used by the buffer model
(Eq. 4) and by the streaming chunk sizing.
"""

from __future__ import annotations

import enum

from repro.cnn.graph import ConvSpec
from repro.core.parallelism import ParallelismStrategy


class Dataflow(enum.Enum):
    """Which operand is scheduled to move least frequently."""

    WEIGHT_STATIONARY = "ws"
    OUTPUT_STATIONARY = "os"
    INPUT_STATIONARY = "is"


#: Library default, matching the Eq. 6 derivation.
DEFAULT_DATAFLOW = Dataflow.OUTPUT_STATIONARY


def weights_tile_elements(
    spec: ConvSpec, strategy: ParallelismStrategy, dataflow: Dataflow
) -> int:
    """Minimum weights resident on-chip while processing ``spec``.

    * OS / IS: only the filters currently being accumulated need their
      weights resident — the K-parallelism degree worth of filters, each of
      ``C x R x S`` weights (this is the "portion of layer weights" of
      Fig. 4a).
    * WS: the whole layer's weights stay resident by definition.
    """
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        return spec.weight_count
    pk = strategy.degrees6[0]  # Dimension.FILTERS
    per_filter = spec.channels * spec.kernel_height * spec.kernel_width
    return min(spec.weight_count, max(1, pk) * per_filter)


def ifm_row_elements(spec: ConvSpec) -> int:
    """Elements of one IFM row band needed to produce one OFM row.

    Used as the minimum input working buffer: a sliding window of
    ``kernel_height`` input rows across the full width and all channels.
    The IFM spatial size is reconstructed from the layer's IFM element count
    so the estimate stays consistent for strided and padded layers.
    """
    ifm = spec.ifm_elements
    ifm_rows = round((ifm / spec.channels) ** 0.5) or 1
    return max(1, min(ifm, ifm // ifm_rows * spec.kernel_height))


def ofm_row_elements(spec: ConvSpec) -> int:
    """Elements of one OFM row (full width, all filters)."""
    return spec.out_width * spec.filters
