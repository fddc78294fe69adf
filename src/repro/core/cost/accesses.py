"""Off-chip access models (Eqs. 6 and 7).

Weights start off-chip at the beginning of every inference (Section IV-A2
generality assumption), so the floor is one access per weight; feature maps
cost extra traffic only when the on-chip budget cannot hold them.

Boundary feature maps (the network input, the network output, and the FMs
crossing block interfaces) are accounted for at the accelerator-composition
level (Eq. 9), not here — the per-block models below treat their first
layer's IFM and last layer's OFM as already/still on-chip unless told
otherwise, which keeps every byte counted exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.cost.terms import LayerTerms, layer_terms, pipelined_terms
from repro.core.engine import ComputeEngine
from repro.hw.datatypes import Precision


@dataclass(frozen=True)
class LayerAccess:
    """Per-layer traffic: the Acc(Li, CEj) terms of Eq. 6."""

    layer_index: int
    weight_bytes: int
    ifm_bytes: int
    ofm_bytes: int

    @property
    def fm_bytes(self) -> int:
        return self.ifm_bytes + self.ofm_bytes

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.fm_bytes


def single_ce_traffic(
    terms: Sequence[LayerTerms],
    buffer_bytes: int,
    input_onchip: bool = True,
    output_onchip: bool = True,
) -> List[Tuple[int, int, int]]:
    """Eq. 6 applied to every layer a single-CE block processes.

    Returns each layer's ``(weight, ifm, ofm)`` off-chip bytes. A forward
    pass decides, layer by layer, whether the produced OFM can stay on-chip
    for the next layer (a one-layer lookahead checks the consumer's working
    set also fits). When an IFM is off-chip the model takes the cheaper of
    the two Eq. 6 options, each sized with the best split of the remaining
    budget, which is the "Multiple-CE Builder heuristics identify the
    buffer sizes that minimize accesses in each option" step:

    * OS local-input-stationary: IFM elements loaded once, weights
      re-streamed once per resident IFM chunk,
      ``weightsSz * ceil(IFMsSz / IFMsBufferSz) + IFMsSz``;
    * OS local-weight-stationary: weights loaded once, IFM re-streamed,
      ``IFMsSz * ceil(weightsSz / weightsBufferSz) + weightsSz``.

    ``input_onchip`` / ``output_onchip`` describe the block interfaces: when
    the composition layer keeps the inter-segment FMs on-chip (or charges
    their spill separately per Eq. 9), the boundary layers see them as free.
    """
    results: List[Tuple[int, int, int]] = []
    prev_ofm_onchip = input_onchip
    last = len(terms) - 1
    for position, layer in enumerate(terms):
        weight_total, ifm_total, ofm_total, ofm_live, wtile_min, row_in, row_out = layer

        # --- decide whether this layer's OFM stays on-chip -------------------
        if position == last:
            keep_ofm = output_onchip
        else:
            consumer = terms[position + 1]
            producer_fits = (
                (ifm_total if prev_ofm_onchip else row_in)
                + ofm_live
                + wtile_min
                <= buffer_bytes
            )
            consumer_fits = (
                ofm_live + consumer.weights_tile + consumer.ofm_row <= buffer_bytes
            )
            keep_ofm = producer_fits and consumer_fits

        # --- per-layer traffic (Eq. 6) ---------------------------------------
        ofm_access = 0 if keep_ofm else ofm_total
        ofm_reserve = ofm_live if keep_ofm else row_out

        if prev_ofm_onchip:
            # (1 - offCh(IFMs)) * weightsSz: IFM resident, weights stream once.
            weight_access = weight_total
            ifm_access = 0
        else:
            working = max(1, buffer_bytes - ofm_reserve)
            ifm_passes = -(-ifm_total // max(row_in, working - wtile_min))
            weight_passes = -(-weight_total // max(wtile_min, working - row_in))
            if (
                weight_total * ifm_passes + ifm_total
                <= ifm_total * weight_passes + weight_total
            ):
                weight_access = weight_total * ifm_passes
                ifm_access = ifm_total
            else:
                weight_access = weight_total
                ifm_access = ifm_total * weight_passes

        results.append((weight_access, ifm_access, ofm_access))
        prev_ofm_onchip = keep_ofm
    return results


def single_ce_accesses(
    specs: Sequence[ConvSpec],
    engine: ComputeEngine,
    buffer_bytes: int,
    precision: Precision,
    input_onchip: bool = True,
    output_onchip: bool = True,
) -> List[LayerAccess]:
    """:func:`single_ce_traffic` of ``specs`` on ``engine``, per layer."""
    traffic = single_ce_traffic(
        layer_terms(specs, engine, precision), buffer_bytes, input_onchip, output_onchip
    )
    return [
        LayerAccess(spec.index, weight_bytes, ifm_bytes, ofm_bytes)
        for spec, (weight_bytes, ifm_bytes, ofm_bytes) in zip(specs, traffic)
    ]


def pipelined_weight_traffic(
    weights: Sequence[int], tile_count: int, weight_buffer_bytes: Sequence[int]
) -> List[int]:
    """Eq. 7 for one pipelined pass (one round): each layer's weight bytes.

    A layer's CE is active in ``tile_count`` stages. Weights that fit in the
    CE's weight buffer are loaded once (``offCh(weights_i, 1)`` is always 1);
    the remainder must be re-fetched in every stage. FMs move only through
    the on-chip double buffers, so their off-chip traffic is zero here.
    """
    traffic = []
    for position, weight_total in enumerate(weights):
        buffer = weight_buffer_bytes[position] if position < len(weight_buffer_bytes) else 0
        resident = min(weight_total, max(0, buffer))
        traffic.append(resident + (weight_total - resident) * tile_count)
    return traffic


def pipelined_weight_accesses(
    round_specs: Sequence[ConvSpec],
    tile_count: int,
    weight_buffer_bytes: Sequence[int],
    precision: Precision,
) -> List[LayerAccess]:
    """:func:`pipelined_weight_traffic` of one round's layers, per layer."""
    terms = pipelined_terms(round_specs, tile_count, precision)
    traffic = pipelined_weight_traffic(
        [layer.weights for layer in terms], tile_count, weight_buffer_bytes
    )
    return [
        LayerAccess(spec.index, weight_bytes, 0, 0)
        for spec, weight_bytes in zip(round_specs, traffic)
    ]


def minimum_accesses_bytes(specs: Sequence[ConvSpec], precision: Precision) -> int:
    """The Section IV-A2 floor: one access per weight, no FM traffic.

    Network input/output loads are composition-level and excluded, matching
    how the per-block models count.
    """
    return sum(spec.weight_count for spec in specs) * precision.weight_bytes
