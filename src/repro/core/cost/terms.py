"""Per-layer integer columns of the latency (Eq. 1), buffer (Eqs. 4/5) and
access (Eqs. 6/7) models.

Most of what these equations read from a layer depends only on the layer
and the precision: its loop extents, its byte counts, its streaming
working set. :class:`LayerColumns` holds those integers once per
(CNN, precision) context, one list per quantity;
:class:`~repro.core.builder.MultipleCEBuilder` builds one table per
context and every block it builds reads slices of it
(:mod:`repro.core.blocks`). What an engine or a pipelined round decides —
Eq. 1 cycles, the weights tile, the FM tile — is computed from those
slices by column kernels (``map``/``zip``/``max``/``sum``) with no Python
loop per layer; a pipelined CE position reads a strided slice.
"""

from __future__ import annotations

from itertools import cycle, repeat
from operator import add, floordiv, mul, neg
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.dataflow import Dataflow, ifm_row_elements, ofm_row_elements
from repro.core.engine import ComputeEngine
from repro.core.parallelism import ParallelismStrategy, SearchKey, search_key
from repro.hw.datatypes import Precision


def _ceilings(negated: List[int], degrees: Tuple[int, ...]) -> Iterable[int]:
    """``-ceil(extent / degree)`` of negated extents, the ``i``-th row's
    degree ``degrees[i % len(degrees)]``."""
    return negated if max(degrees) == 1 else map(floordiv, negated, cycle(degrees))


class LayerTerms(NamedTuple):
    """Bytes of one layer processed on a single CE (Eqs. 4 and 6).

    Blocks build these rows with ``zip`` over :class:`LayerColumns`
    slices, so a row is a plain tuple in this field order.
    """

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


class LayerColumns:
    """The integer columns of one (CNN, precision) context, row ``i`` for
    ``specs[i]``.

    Byte columns are at the context's precision. Extent columns are
    negated, so that ``column // degree`` is ``-ceil(extent / degree)``
    and a product of an even number of them is a product of ceilings.
    """

    def __init__(self, specs: Sequence[ConvSpec], precision: Precision) -> None:
        self.specs: Tuple[ConvSpec, ...] = tuple(specs)
        self.precision = precision
        act = precision.activation_bytes
        wbytes = precision.weight_bytes
        #: Each layer's Eq. 1 search key, shared by every engine fit.
        self.keys: Tuple[SearchKey, ...] = tuple(map(search_key, self.specs))
        self.index = [spec.index for spec in self.specs]
        self.macs = [spec.macs for spec in self.specs]
        self.out_height = [spec.out_height for spec in self.specs]
        self.neg_filters = [-spec.filters for spec in self.specs]
        self.neg_channels = [-spec.channels for spec in self.specs]
        self.neg_height = [-height for height in self.out_height]
        self.neg_width = [-spec.out_width for spec in self.specs]
        self.neg_kernel_height = [-spec.kernel_height for spec in self.specs]
        self.neg_kernel_width = [-spec.kernel_width for spec in self.specs]
        crs = [spec.channels * spec.kernel_height * spec.kernel_width for spec in self.specs]
        self.neg_crs = [-value for value in crs]
        self.weights = [spec.weight_count * wbytes for spec in self.specs]
        #: One filter's weights (C x R x S), the unit of every weights tile.
        self.filter_weights = [value * wbytes for value in crs]
        #: The smallest streamable weights: one filter, or the whole layer.
        self.stream_tiles = list(map(min, self.weights, self.filter_weights))
        self.ifm = [spec.ifm_elements * act for spec in self.specs]
        self.ofm = [spec.ofm_elements * act for spec in self.specs]
        self.live_ofm = [ofm * spec.fms_copies for ofm, spec in zip(self.ofm, self.specs)]
        #: Eq. 4's FM term: the IFM plus the live OFM.
        self.live_fms = list(map(add, self.ifm, self.live_ofm))
        self.ifm_band = [ifm_row_elements(spec) * act for spec in self.specs]
        self.ofm_row = [ofm_row_elements(spec) * act for spec in self.specs]
        #: One IFM row band plus one OFM row.
        self.stream_bytes = list(map(add, self.ifm_band, self.ofm_row))

    def row_of(self, specs: Sequence[ConvSpec], precision: Precision) -> Optional[int]:
        """The row of ``specs[0]`` when ``specs`` are consecutive rows of
        this table and ``precision`` is its precision, else ``None``."""
        start = specs[0].index
        if (
            start >= 0
            and precision == self.precision
            and self.specs[start : start + len(specs)] == specs
        ):
            return start
        return None

    def cycles(self, rows: slice, strategies: Sequence[ParallelismStrategy]) -> List[int]:
        """Eq. 1 cycles of ``rows``, the ``i``-th row on an engine unrolled
        as ``strategies[i % len(strategies)]``: one strategy for a single
        CE, one per position for pipelined CEs taking rows round-robin."""
        k, c, h, w, r, s = zip(*[strategy.degrees6 for strategy in strategies])
        # Three negated ceilings, then C x R x S negated or three more
        # ceilings: an even number of negative factors.
        product = map(
            mul,
            map(mul, _ceilings(self.neg_filters[rows], k), _ceilings(self.neg_height[rows], h)),
            _ceilings(self.neg_width[rows], w),
        )
        if max(c) == max(r) == max(s) == 1:
            return list(map(mul, product, self.neg_crs[rows]))
        return list(
            map(
                mul,
                map(mul, product, _ceilings(self.neg_channels[rows], c)),
                map(
                    mul,
                    _ceilings(self.neg_kernel_height[rows], r),
                    _ceilings(self.neg_kernel_width[rows], s),
                ),
            )
        )

    def weights_tiles(self, rows: slice, engine: ComputeEngine) -> List[int]:
        """Eq. 4's weights tile of ``rows`` on ``engine``: the layer's
        weights under weight-stationary, else K-degree filters' worth."""
        if engine.dataflow is Dataflow.WEIGHT_STATIONARY:
            return self.weights[rows]
        pk = engine.strategy.degrees6[0]
        if pk == 1:
            return self.stream_tiles[rows]
        return list(map(min, self.weights[rows], map(mul, self.filter_weights[rows], repeat(pk))))

    def fm_tiles(self, rows: slice, tile_counts: Iterable[int]) -> List[int]:
        """FMsBufferSz of Eq. 5 for ``rows``, each split into its tile
        count: one OFM tile of ``ceil(height / tile_count)`` rows."""
        full_rows = map(neg, map(floordiv, self.neg_height[rows], tile_counts))
        return list(map(mul, full_rows, self.ofm_row[rows]))

    def single_ce_terms(self, rows: slice, weights_tiles: List[int]) -> List[LayerTerms]:
        """:class:`LayerTerms` rows of ``rows`` on an engine whose weights
        tiles (:meth:`weights_tiles`) are ``weights_tiles``."""
        return list(
            zip(
                self.weights[rows],
                self.ifm[rows],
                self.ofm[rows],
                self.live_ofm[rows],
                weights_tiles,
                self.ifm_band[rows],
                self.ofm_row[rows],
            )
        )
