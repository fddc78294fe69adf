"""Differential oracle: the block models against their per-call reference.

All three block kinds cost themselves from a layout of integer byte terms
computed once per block; pipelined blocks take each round's Eq. 2 latency
and Eq. 3 bottleneck from at most three tile cycle counts per CE. This
module keeps the per-layer, per-tile, per-call code they replaced as the
reference: the tile-by-tile schedule scan, the Eq. 6 loop over ``ConvSpec``
records, the Eq. 4/5 buffer functions, and the dual-engine block as it
was before it had a layout (:class:`ReferenceDualBlock`). Hypothesis checks
that every footprint and every ``BlockEvaluation`` field agrees exactly,
over output heights 1–512 (full, partial and empty tiles), 1–11 CEs with
multi-round blocks, mixed depthwise/standard layer lists with fused pairs,
int8/int16/fp32 weights and activations, allocations from 0 to above the
ideal footprint, and non-zero boundary traffic.

Blocks lay themselves out from slices of a context's layer columns. The
drawn blocks read a longer context's table as a builder's blocks do, no
table, or a table their specs do not match (another precision or other
layers); :class:`TestBuilderBlocksMatchReference` also draws the blocks a
:class:`~repro.core.builder.MultipleCEBuilder` makes for zoo models,
dual-engine HybridDual tails included.

Raise the example budget with ``pytest -m fuzz --hypothesis-profile=ci``.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Tuple

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from repro.api import resolve_board, resolve_model
from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.core.architectures import TEMPLATES, build_template
from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock, split_weight_budget
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.accesses import pipelined_weight_traffic, single_ce_traffic
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, SegmentCost
from repro.core.cost.terms import LayerColumns
from repro.core.dataflow import Dataflow, ofm_row_elements
from repro.core.dual import DualEngineBlock, has_mixed_conv_types
from repro.core.engine import ComputeEngine
from repro.core.parallelism import Dimension, ParallelismStrategy
from repro.core.tiling import (
    MAX_TILES,
    MIN_TILES,
    pipeline_cycles,
    row_cycle_runs,
    stage_latencies,
)
from repro.dse.space import CustomDesignSpace
from repro.hw.boards import PAPER_BOARDS
from repro.hw.datatypes import FP32, INT8, INT16, Precision
from repro.utils.errors import ResourceError
from repro.utils.mathutils import ceil_div

pytestmark = pytest.mark.fuzz


# --- the reference: per-call code, tile by tile and layer by layer ------------


def reference_tile_rows(spec, tile_count, tile_index):
    base = -(-spec.out_height // tile_count)
    start = base * tile_index
    if start >= spec.out_height:
        return 0
    return min(base, spec.out_height - start)


def reference_tile_cycles(spec, cycles_full_layer, tile_count, tile_index):
    rows = reference_tile_rows(spec, tile_count, tile_index)
    if rows == 0:
        return 0
    return -(-cycles_full_layer * rows // spec.out_height)


def reference_stage_latencies(specs, full_layer_cycles, tile_count):
    """Eq. 2 per stage, scanning every CE's per-tile cycle list."""
    cycles = [
        [reference_tile_cycles(spec, full, tile_count, t) for t in range(tile_count)]
        for spec, full in zip(specs, full_layer_cycles)
    ]
    stages = []
    for stage in range(tile_count + len(cycles) - 1):
        latency = 0
        for ce_index, row in enumerate(cycles):
            tile = stage - ce_index
            if 0 <= tile < tile_count:
                latency = max(latency, row[tile])
        stages.append(latency)
    return stages, max(sum(row) for row in cycles)


def reference_schedule(specs, full_layer_cycles, tile_count):
    """Eq. 2 latency and Eq. 3 bottleneck of one pipelined pass."""
    stages, bottleneck = reference_stage_latencies(specs, full_layer_cycles, tile_count)
    return sum(stages), bottleneck


def reference_tile_count(specs):
    return min(max(min(spec.out_height for spec in specs), MIN_TILES), MAX_TILES)


def reference_ifm_row_elements(spec):
    ifm_rows = max(1, round((spec.ifm_elements / max(1, spec.channels)) ** 0.5))
    row = spec.ifm_elements // max(1, ifm_rows)
    return max(1, min(spec.ifm_elements, row * spec.kernel_height))


class ReferenceAccess(NamedTuple):
    """One layer's Eq. 6 off-chip bytes."""

    weight_bytes: int
    ifm_bytes: int
    ofm_bytes: int

    @property
    def fm_bytes(self):
        return self.ifm_bytes + self.ofm_bytes

    @property
    def total_bytes(self):
        return self.weight_bytes + self.fm_bytes


def reference_single_ce_accesses(specs, engine, buffer_bytes, precision):
    """The Eq. 6 loop over ``ConvSpec`` records: each layer's
    :class:`ReferenceAccess`, a ``(weight, ifm, ofm)`` tuple."""
    act = precision.activation_bytes
    wbytes = precision.weight_bytes
    results = []
    prev_ofm_onchip = True
    last = len(specs) - 1
    for position, spec in enumerate(specs):
        weight_total = spec.weight_count * wbytes
        ifm_total = spec.ifm_elements * act
        ofm_total = spec.ofm_elements * act
        ofm_live = ofm_total * spec.fms_copies
        wtile_min = engine.weights_tile_elements(spec) * wbytes
        row_in = reference_ifm_row_elements(spec) * act
        row_out = ofm_row_elements(spec) * act
        if position == last:
            keep_ofm = True
        else:
            consumer = specs[position + 1]
            consumer_wtile = engine.weights_tile_elements(consumer) * wbytes
            consumer_row_out = ofm_row_elements(consumer) * act
            producer_fits = (
                (ifm_total if prev_ofm_onchip else row_in) + ofm_live + wtile_min
                <= buffer_bytes
            )
            consumer_fits = ofm_live + consumer_wtile + consumer_row_out <= buffer_bytes
            keep_ofm = producer_fits and consumer_fits
        ofm_access = 0 if keep_ofm else ofm_total
        ofm_reserve = ofm_live if keep_ofm else row_out
        if prev_ofm_onchip:
            weight_access = weight_total
            ifm_access = 0
        else:
            working = max(1, buffer_bytes - ofm_reserve)
            ifm_buffer = max(row_in, working - wtile_min)
            weight_buffer = max(wtile_min, working - row_in)
            ifm_passes = -(-ifm_total // max(1, ifm_buffer))
            weight_passes = -(-weight_total // max(1, weight_buffer))
            option_is = weight_total * ifm_passes + ifm_total
            option_ws = ifm_total * weight_passes + weight_total
            if option_is <= option_ws:
                weight_access = weight_total * ifm_passes
                ifm_access = ifm_total
            else:
                weight_access = weight_total
                ifm_access = ifm_total * weight_passes
        results.append(ReferenceAccess(weight_access, ifm_access, ofm_access))
        prev_ofm_onchip = keep_ofm
    return results


def reference_single_ce_buffer_requirement(specs, engine, precision):
    max_fms = max(spec.fms_elements for spec in specs) * precision.activation_bytes
    max_tile = max(engine.weights_tile_elements(spec) for spec in specs) * precision.weight_bytes
    return max_fms + max_tile


def reference_single_ce_mandatory_bytes(specs, engine, precision):
    act = precision.activation_bytes
    return max(
        reference_ifm_row_elements(spec) * act
        + ofm_row_elements(spec) * act
        + engine.weights_tile_elements(spec) * precision.weight_bytes
        for spec in specs
    )


def reference_fm_tile_bytes(spec, tile_count, precision):
    return (
        reference_tile_rows(spec, tile_count, 0)
        * spec.out_width
        * spec.filters
        * precision.activation_bytes
    )


def reference_per_ce_max_weight_bytes(rounds, ce_count, precision):
    per_ce = [0] * ce_count
    for round_specs in rounds:
        for position, spec in enumerate(round_specs):
            per_ce[position] = max(per_ce[position], spec.weight_count * precision.weight_bytes)
    return per_ce


def reference_pipelined_buffer_requirement(rounds, tile_counts, ce_count, precision):
    if len(rounds) == 1:
        return sum(
            spec.weight_count * precision.weight_bytes
            + 2 * reference_fm_tile_bytes(spec, tile_counts[0], precision)
            for spec in rounds[0]
        )
    per_ce_weights = [0] * ce_count
    per_ce_fm = [0] * ce_count
    for round_specs, tile_count in zip(rounds, tile_counts):
        for position, spec in enumerate(round_specs):
            per_ce_weights[position] = max(
                per_ce_weights[position], spec.weight_count * precision.weight_bytes
            )
            per_ce_fm[position] = max(
                per_ce_fm[position], reference_fm_tile_bytes(spec, tile_count, precision)
            )
    return 2 * sum(per_ce_weights) + 2 * sum(per_ce_fm)


def reference_pipelined_mandatory_bytes(rounds, tile_counts, ce_count, precision):
    per_ce_fm = [0] * ce_count
    per_ce_tile = [0] * ce_count
    for round_specs, tile_count in zip(rounds, tile_counts):
        for position, spec in enumerate(round_specs):
            per_ce_fm[position] = max(
                per_ce_fm[position], reference_fm_tile_bytes(spec, tile_count, precision)
            )
            tile_w = (
                spec.channels * spec.kernel_height * spec.kernel_width * precision.weight_bytes
            )
            per_ce_tile[position] = max(
                per_ce_tile[position], min(tile_w, spec.weight_count * precision.weight_bytes)
            )
    return 2 * sum(per_ce_fm) + sum(per_ce_tile)


def reference_pipelined_weight_accesses(round_specs, tile_count, buffers, precision):
    results = []
    for position, spec in enumerate(round_specs):
        weight_total = spec.weight_count * precision.weight_bytes
        buffer = buffers[position] if position < len(buffers) else 0
        resident = min(weight_total, max(0, buffer))
        results.append(resident + (weight_total - resident) * tile_count)
    return results


def reference_rounds(block):
    ce_count = block.ce_count
    rounds = [
        tuple(block.specs[start : start + ce_count])
        for start in range(0, len(block.specs), ce_count)
    ]
    return rounds, [reference_tile_count(round_specs) for round_specs in rounds]


def reference_footprint(block):
    """``(mandatory, ideal)`` bytes, per block kind."""
    if block.kind == "dual":
        reference = ReferenceDualBlock(block)
        return reference.mandatory_buffer_bytes(), reference.ideal_buffer_bytes()
    if block.kind == "single":
        return (
            reference_single_ce_mandatory_bytes(block.specs, block.engine, block.precision),
            reference_single_ce_buffer_requirement(block.specs, block.engine, block.precision),
        )
    rounds, tile_counts = reference_rounds(block)
    args = (rounds, tile_counts, block.ce_count, block.precision)
    return (
        reference_pipelined_mandatory_bytes(*args),
        reference_pipelined_buffer_requirement(*args),
    )


def reference_single_evaluate(block, allocated, input_extra, output_extra, segment_index):
    accesses = reference_single_ce_accesses(
        block.specs, block.engine, allocated, block.precision
    )
    compute_cycles = 0
    wall_cycles = 0.0
    last = len(block.specs) - 1
    for position, (spec, access) in enumerate(zip(block.specs, accesses)):
        layer_compute = block.engine.layer_cycles(spec)
        layer_bytes = sum(access)
        if position == 0:
            layer_bytes += input_extra
        if position == last:
            layer_bytes += output_extra
        compute_cycles += layer_compute
        wall_cycles += max(float(layer_compute), layer_bytes / block.bytes_per_cycle)
    breakdown = AccessBreakdown()
    for weight, ifm, ofm in accesses:
        breakdown = breakdown + AccessBreakdown(weight_bytes=weight, fm_bytes=ifm + ofm)
    breakdown = breakdown + AccessBreakdown(fm_bytes=input_extra + output_extra)
    ideal = reference_footprint(block)[1]
    segment = SegmentCost(
        index=segment_index,
        label=block.name,
        layer_indices=tuple(spec.index for spec in block.specs),
        compute_cycles=compute_cycles,
        memory_cycles=breakdown.total_bytes / block.bytes_per_cycle,
        accesses=breakdown,
        pe_count=block.pe_count,
        macs=sum(spec.macs for spec in block.specs),
        buffer_requirement_bytes=ideal,
    )
    return BlockEvaluation(
        name=block.name,
        kind=block.kind,
        segments=(segment,),
        latency_cycles=wall_cycles,
        throughput_interval_cycles=wall_cycles,
        accesses=breakdown,
        buffer_requirement_bytes=ideal,
        buffer_allocated_bytes=allocated,
        pe_count=block.pe_count,
    )


def reference_pipelined_evaluate(block, allocated, input_extra, output_extra, segment_index):
    precision = block.precision
    ce_count = block.ce_count
    rounds, tile_counts = reference_rounds(block)
    fm_reserved = 2 * sum(
        max(
            reference_fm_tile_bytes(round_specs[pos], tile_counts[r], precision)
            for r, round_specs in enumerate(rounds)
            if pos < len(round_specs)
        )
        for pos in range(ce_count)
    )
    weight_buffers = split_weight_budget(
        reference_per_ce_max_weight_bytes(rounds, ce_count, precision),
        max(0, allocated - fm_reserved),
    )
    segments = []
    latency = 0.0
    interval = 0.0
    total_access = AccessBreakdown()
    for round_index, (round_specs, tile_count) in enumerate(zip(rounds, tile_counts)):
        cycles = [block.engines[pos].layer_cycles(spec) for pos, spec in enumerate(round_specs)]
        compute_latency, busy = reference_schedule(round_specs, cycles, tile_count)
        weight_bytes = sum(
            reference_pipelined_weight_accesses(round_specs, tile_count, weight_buffers, precision)
        )
        boundary_bytes = 0
        if round_index == 0:
            boundary_bytes += input_extra
        if round_index == len(rounds) - 1:
            boundary_bytes += output_extra
        breakdown = AccessBreakdown(weight_bytes=weight_bytes) + AccessBreakdown(
            fm_bytes=boundary_bytes
        )
        memory_cycles = breakdown.total_bytes / block.bytes_per_cycle
        latency += max(float(compute_latency), memory_cycles)
        interval += max(float(busy), memory_cycles)
        total_access = total_access + breakdown
        segments.append(
            SegmentCost(
                index=segment_index + round_index,
                label=f"{block.name}.r{round_index + 1}",
                layer_indices=tuple(spec.index for spec in round_specs),
                compute_cycles=compute_latency,
                memory_cycles=memory_cycles,
                accesses=breakdown,
                pe_count=sum(block.engines[pos].pe_count for pos in range(len(round_specs))),
                macs=sum(spec.macs for spec in round_specs),
                buffer_requirement_bytes=reference_pipelined_buffer_requirement(
                    [round_specs], [tile_count], ce_count, precision
                ),
            )
        )
    return BlockEvaluation(
        name=block.name,
        kind=block.kind,
        segments=tuple(segments),
        latency_cycles=latency,
        throughput_interval_cycles=interval,
        accesses=total_access,
        buffer_requirement_bytes=reference_footprint(block)[1],
        buffer_allocated_bytes=allocated,
        pe_count=block.pe_count,
    )


class ReferenceDualBlock:
    """The dual-engine block before it had a layout: the per-call methods
    of ``DualEngineBlock``, verbatim but for calling this module's
    :func:`reference_single_ce_accesses` and
    :func:`reference_single_ce_mandatory_bytes`, over a block's fields."""

    FUSION_FILL_FRACTION = DualEngineBlock.FUSION_FILL_FRACTION

    kind = "dual"

    def __init__(self, block):
        self.name = block.name
        self.dw_engine = block.dw_engine
        self.std_engine = block.std_engine
        self.specs = block.specs
        self.precision = block.precision
        self.bytes_per_cycle = block.bytes_per_cycle

    # -- structural properties ---------------------------------------------------
    @property
    def pe_count(self) -> int:
        return self.dw_engine.pe_count + self.std_engine.pe_count

    @property
    def macs(self) -> int:
        return sum(spec.macs for spec in self.specs)

    def engine_for(self, spec: ConvSpec) -> ComputeEngine:
        if spec.kind is LayerKind.DEPTHWISE_CONV:
            return self.dw_engine
        return self.std_engine

    @property
    def access_engine(self) -> ComputeEngine:
        """Engine whose weight tiles parameterize the Eq. 6 access model."""
        return self.std_engine

    def layer_cycles(self, spec: ConvSpec) -> int:
        """Eq. 1 cycles on the sub-engine owning this layer's type."""
        return self.engine_for(spec).layer_cycles(spec)

    def fused_pairs(self) -> List[Tuple[int, int]]:
        """(dw_position, consumer_position) pairs eligible for fusion."""
        pairs = []
        for position in range(len(self.specs) - 1):
            first, second = self.specs[position], self.specs[position + 1]
            if (
                first.kind is LayerKind.DEPTHWISE_CONV
                and second.kind is not LayerKind.DEPTHWISE_CONV
            ):
                pairs.append((position, position + 1))
        return pairs

    # -- buffer model (Eq. 4, with fused intermediates shrunk to row bands) -------
    def _effective_fms_elements(self, position: int) -> int:
        """Live FM elements while processing layer ``position``.

        A fused dw→consumer pair never materializes the depthwise OFM: the
        consumer eats rows as they are produced, so the intermediate costs
        one ``kernel_height``-row band instead of a full feature map — the
        buffer saving of fused-layer accelerators (Alwani et al. [1]).
        """
        spec = self.specs[position]
        fused = dict(self.fused_pairs())
        consumers = {consumer: dw for dw, consumer in fused.items()}
        ifm = spec.ifm_elements
        ofm = spec.ofm_elements * spec.fms_copies
        if position in fused:
            consumer = self.specs[position + 1]
            band_rows = consumer.kernel_height
            band = min(spec.ofm_elements, band_rows * spec.out_width * spec.filters)
            ofm = band * spec.fms_copies
        if position in consumers:
            producer = self.specs[position - 1]
            band = min(
                producer.ofm_elements,
                spec.kernel_height * producer.out_width * producer.filters,
            )
            ifm = band
        return ifm + ofm

    def ideal_buffer_bytes(self) -> int:
        return sum(self.buffer_components())

    def mandatory_buffer_bytes(self) -> int:
        return min(
            reference_single_ce_mandatory_bytes(self.specs, self.std_engine, self.precision),
            self.ideal_buffer_bytes(),
        )

    def buffer_components(self) -> List[int]:
        act = self.precision.activation_bytes
        wbytes = self.precision.weight_bytes
        max_fms = max(
            self._effective_fms_elements(position) for position in range(len(self.specs))
        ) * act
        max_tile = max(
            self.engine_for(spec).weights_tile_elements(spec) for spec in self.specs
        ) * wbytes
        return [max_fms, max_tile]

    # -- evaluation ---------------------------------------------------------------
    def evaluate(
        self,
        allocated_bytes: int,
        input_extra_bytes: int = 0,
        output_extra_bytes: int = 0,
        segment_index: int = 0,
    ) -> BlockEvaluation:
        """Sequential schedule with dw→consumer fusion.

        A fused pair costs ``max(dw, consumer) * (1 + fill)`` cycles —
        both engines run concurrently on the pair — while unfused layers
        cost their own engine's Eq. 1 cycles (the other engine idles).
        """
        accesses = reference_single_ce_accesses(
            self.specs, self.std_engine, allocated_bytes, self.precision
        )
        fused = dict(self.fused_pairs())
        fused_consumers = set(fused.values())

        compute_cycles = 0
        wall_cycles = 0.0
        last = len(self.specs) - 1
        position = 0
        while position <= last:
            spec = self.specs[position]
            layer_bytes = accesses[position].total_bytes
            if position == 0:
                layer_bytes += input_extra_bytes
            if position in fused and position + 1 <= last:
                consumer = self.specs[position + 1]
                dw_cycles = self.dw_engine.layer_cycles(spec)
                consumer_cycles = self.std_engine.layer_cycles(consumer)
                pair_cycles = ceil_div(
                    int(max(dw_cycles, consumer_cycles) * (1 + self.FUSION_FILL_FRACTION)),
                    1,
                )
                layer_bytes += accesses[position + 1].total_bytes
                if position + 1 == last:
                    layer_bytes += output_extra_bytes
                compute_cycles += pair_cycles
                wall_cycles += max(float(pair_cycles), layer_bytes / self.bytes_per_cycle)
                position += 2
                continue
            engine = self.engine_for(spec)
            layer_cycles = engine.layer_cycles(spec)
            if position == last:
                layer_bytes += output_extra_bytes
            compute_cycles += layer_cycles
            wall_cycles += max(float(layer_cycles), layer_bytes / self.bytes_per_cycle)
            position += 1

        breakdown = AccessBreakdown(
            weight_bytes=sum(access.weight_bytes for access in accesses),
            fm_bytes=sum(access.fm_bytes for access in accesses)
            + input_extra_bytes
            + output_extra_bytes,
        )
        memory_cycles = breakdown.total_bytes / self.bytes_per_cycle
        segment = SegmentCost(
            index=segment_index,
            label=self.name,
            layer_indices=tuple(spec.index for spec in self.specs),
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            accesses=breakdown,
            pe_count=self.pe_count,
            macs=self.macs,
            buffer_requirement_bytes=self.ideal_buffer_bytes(),
        )
        return BlockEvaluation(
            name=self.name,
            kind=self.kind,
            segments=(segment,),
            latency_cycles=wall_cycles,
            throughput_interval_cycles=wall_cycles,
            accesses=breakdown,
            buffer_requirement_bytes=self.ideal_buffer_bytes(),
            buffer_allocated_bytes=allocated_bytes,
            pe_count=self.pe_count,
        )


def reference_dual_evaluate(block, allocated, input_extra, output_extra, segment_index):
    return ReferenceDualBlock(block).evaluate(allocated, input_extra, output_extra, segment_index)


# --- strategies ----------------------------------------------------------------

#: Small heights make partial and empty tiles common; the wide range
#: covers every tile count and large row counts per tile.
heights = st.one_of(st.integers(1, 17), st.integers(1, 512))


def conv_spec(index, k, c, h, w, r, stride, copies):
    """A standard convolution of ``k`` filters over ``c`` channels, its
    output ``h`` x ``w``, its kernel ``r`` x ``r``, its OFM live ``copies``
    times."""
    return ConvSpec(
        index=index,
        name=f"L{index}",
        kind=LayerKind.STANDARD_CONV,
        filters=k,
        channels=c,
        out_height=h,
        out_width=w,
        kernel_height=r,
        kernel_width=r,
        ifm_elements=h * stride * w * stride * c,
        ofm_elements=h * w * k,
        weight_count=k * c * r * r,
        macs=k * c * h * w * r * r,
        fms_copies=copies,
    )


@st.composite
def layer_lists(draw, min_size, max_size):
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(1, 64),  # filters
                st.integers(1, 64),  # channels
                heights,
                st.integers(1, 64),  # out width
                st.sampled_from([1, 3, 5, 7]),  # kernel
                st.sampled_from([1, 2]),  # stride
                st.integers(1, 3),  # live OFM copies (residual fan-out)
            ),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return tuple(conv_spec(index, *shape) for index, shape in enumerate(shapes))


#: Degrees of the C, R and S loops: mostly 1, as the Eq. 1 search leaves them.
minor_degrees = st.sampled_from([1, 1, 1, 2, 3])


def make_engine(pk, ph, pw, minor, spare, dataflow):
    """An engine of the given K, H, W and (C, R, S) degrees, with ``spare``
    PEs beyond their product."""
    return ComputeEngine(
        name="CE",
        pe_count=pk * ph * pw * minor[0] * minor[1] * minor[2] + spare,
        strategy=ParallelismStrategy.from_dict(
            {
                Dimension.FILTERS: pk,
                Dimension.OUT_HEIGHT: ph,
                Dimension.OUT_WIDTH: pw,
                Dimension.CHANNELS: minor[0],
                Dimension.KERNEL_HEIGHT: minor[1],
                Dimension.KERNEL_WIDTH: minor[2],
            }
        ),
        dataflow=dataflow,
    )


engines = st.builds(
    make_engine,
    st.integers(1, 32),
    st.integers(1, 8),
    st.integers(1, 8),
    st.one_of(st.just((1, 1, 1)), st.tuples(minor_degrees, minor_degrees, minor_degrees)),
    st.integers(0, 64),
    st.sampled_from(list(Dataflow)),
)
datatypes = st.sampled_from([INT8, INT16, FP32])
precisions = st.builds(Precision, datatypes, datatypes)
bandwidths = st.floats(min_value=0.25, max_value=256.0, allow_nan=False, allow_infinity=False)


def as_depthwise(spec):
    """``spec`` as a depthwise convolution: one channel per filter."""
    k, r = spec.filters, spec.kernel_height
    return dataclasses.replace(
        spec,
        kind=LayerKind.DEPTHWISE_CONV,
        channels=1,
        ifm_elements=spec.ifm_elements // spec.channels * k,
        weight_count=k * r * r,
        macs=k * spec.out_height * spec.out_width * r * r,
    )


@st.composite
def mixed_layer_lists(draw, min_size, max_size):
    """Standard and depthwise layers in any order, so fused depthwise→
    standard pairs, unfused depthwise layers and runs of either occur."""
    specs = draw(layer_lists(min_size, max_size))
    depthwise = draw(st.lists(st.booleans(), min_size=len(specs), max_size=len(specs)))
    return tuple(as_depthwise(spec) if dw else spec for spec, dw in zip(specs, depthwise))


@st.composite
def block_layers(draw, min_size, max_size, lists=layer_lists):
    """A block's layers, its precision and the layer columns it is given.

    Most blocks get what a builder gives them: a table of a longer context
    at their precision, their layers consecutive rows of it. The others get
    no table, a table at another precision, or another context's table (as
    after :func:`dataclasses.replace`), and must cost their own layers.
    """
    before = draw(st.integers(0, 3))
    context = draw(lists(before + min_size, before + max_size + 3))
    count = draw(st.integers(min_size, min(max_size, len(context) - before)))
    specs = context[before : before + count]
    precision = draw(precisions)
    table = draw(st.sampled_from(["context", "context", "none", "precision", "other"]))
    if table == "none":
        return specs, precision, None
    if table == "precision":
        return specs, precision, LayerColumns(context, draw(precisions))
    if table == "other":
        context = draw(lists(len(context), len(context)))
    return specs, precision, LayerColumns(context, precision)


@st.composite
def single_blocks(draw):
    specs, precision, columns = draw(block_layers(1, 12))
    return SingleCEBlock(
        name="B2",
        engine=draw(engines),
        specs=specs,
        precision=precision,
        bytes_per_cycle=draw(bandwidths),
        columns=columns,
    )


@st.composite
def pipelined_blocks(draw):
    ce_count = draw(st.integers(1, 11))
    specs, precision, columns = draw(block_layers(ce_count, 3 * ce_count + 2))
    return PipelinedCEsBlock(
        name="B3",
        engines=tuple(draw(st.lists(engines, min_size=ce_count, max_size=ce_count))),
        specs=specs,
        precision=precision,
        bytes_per_cycle=draw(bandwidths),
        columns=columns,
    )


@st.composite
def dual_blocks(draw):
    specs, precision, columns = draw(block_layers(2, 12, lists=mixed_layer_lists))
    if not has_mixed_conv_types(specs):
        reject()
    return DualEngineBlock(
        name="B4",
        dw_engine=draw(engines),
        std_engine=draw(engines),
        specs=specs,
        precision=precision,
        bytes_per_cycle=draw(bandwidths),
        columns=columns,
    )


#: Zoo contexts for builder-made blocks: plain, depthwise-separable and
#: residual CNNs on four boards.
ZOO_CONTEXTS = [
    ("squeezenet", "zc706"),
    ("mobilenetv2", "zcu102"),
    ("resnet50", "vcu110"),
    ("xception", "vcu108"),
]


@st.composite
def builder_blocks(draw):
    """A block a :class:`MultipleCEBuilder` built: from a template design
    (a HybridDual tail of a depthwise-separable CNN is a dual-engine
    block) or a sampled custom one."""
    model, board = draw(st.sampled_from(ZOO_CONTEXTS))
    builder = MultipleCEBuilder(resolve_model(model), resolve_board(board), draw(precisions))
    specs = builder.conv_specs
    try:
        if draw(st.booleans()):
            template = draw(st.sampled_from(sorted(TEMPLATES)))
            design = build_template(template, specs, draw(st.integers(2, 11)))
        else:
            seed = draw(st.integers(0, 2**16))
            design = next(iter(CustomDesignSpace(specs).sample(1, seed=seed))).to_spec()
        accelerator = builder.build(design)
    except ResourceError:
        reject()
    return draw(st.sampled_from(accelerator.blocks))


@st.composite
def builder_dual_tails(draw):
    """The dual-engine tail of a HybridDual design of a CNN mixing
    depthwise and standard convolutions, as a builder made it."""
    model = draw(st.sampled_from(["mobilenetv2", "xception"]))
    board = draw(st.sampled_from(PAPER_BOARDS))
    builder = MultipleCEBuilder(resolve_model(model), resolve_board(board), draw(precisions))
    design = build_template("hybriddual", builder.conv_specs, draw(st.integers(2, 11)))
    try:
        tail = builder.build(design).blocks[-1]
    except ResourceError:
        reject()
    if tail.kind != "dual":
        reject()
    return tail


def footprint_edges(footprint):
    """The allocations at and beside a block's mandatory and ideal bytes."""
    mandatory, ideal = footprint
    return sorted({0, max(0, mandatory - 1), mandatory, max(0, ideal - 1), ideal, ideal + 1})


@st.composite
def evaluation_inputs(draw, footprint):
    """Allocations from 0 to above the ideal footprint, with boundary traffic."""
    ideal = footprint[1]
    edges = footprint_edges(footprint)
    allocated = draw(st.one_of(st.sampled_from(edges), st.integers(0, 2 * ideal + 64)))
    extras = st.one_of(st.just(0), st.integers(1, 10**7))
    return allocated, draw(extras), draw(extras), draw(st.integers(0, 20))


# --- the oracle ------------------------------------------------------------------

REFERENCE_EVALUATE = {
    "single": reference_single_evaluate,
    "pipelined": reference_pipelined_evaluate,
    "dual": reference_dual_evaluate,
}


def check_block(block, data):
    """``block`` against the reference, at drawn allocations, or with
    ``data`` None (an explicit example) at every edge of its footprint."""
    footprint = reference_footprint(block)
    assert (block.mandatory_buffer_bytes(), block.ideal_buffer_bytes()) == footprint
    if block.kind == "dual":
        reference = ReferenceDualBlock(block)
        assert block.layout.pairs == reference.fused_pairs()
        assert block.buffer_components() == reference.buffer_components()
    if data is None:
        evaluations = [(allocated, 0, 0, 0) for allocated in footprint_edges(footprint)]
    else:
        evaluations = data.draw(st.lists(evaluation_inputs(footprint), min_size=1, max_size=4))
    # Several evaluations share one layout; each must match on its own.
    for inputs in evaluations:
        assert block.evaluate(*inputs) == REFERENCE_EVALUATE[block.kind](block, *inputs)


def dual_example(layers, dw_engine, std_engine):
    """A dual-engine block of ``layers`` (``conv_spec`` arguments after the
    index, a leading ``"dw"`` making one depthwise) at int16, on its own
    layer columns."""
    specs = tuple(
        as_depthwise(conv_spec(index, *layer[1:])) if layer[0] == "dw" else conv_spec(index, *layer)
        for index, layer in enumerate(layers)
    )
    return DualEngineBlock(
        name="B4",
        dw_engine=dw_engine,
        std_engine=std_engine,
        specs=specs,
        precision=Precision(INT16, INT16),
        bytes_per_cycle=4.0,
        columns=LayerColumns(specs, Precision(INT16, INT16)),
    )


#: Dual blocks whose depthwise layer has a weights tile on its own engine
#: unlike its tile on the standard engine, the one Eq. 6 and the mandatory
#: bytes read (weight-stationary holds every filter, the other dataflows K
#: degree filters). In the first three the tile changes what Eq. 6 charges
#: at the mandatory allocation: it is larger on the depthwise engine, then
#: smaller, then the depthwise layer sits between two standard ones. In the
#: last it changes the mandatory bytes.
DUAL_TILE_EXAMPLES = [
    dual_example(
        [(16, 4, 16, 4, 7, 1, 2), ("dw", 4, 16, 16, 8, 3, 1, 1)],
        make_engine(1, 1, 1, (1, 1, 1), 0, Dataflow.WEIGHT_STATIONARY),
        make_engine(1, 1, 1, (1, 1, 1), 0, Dataflow.OUTPUT_STATIONARY),
    ),
    dual_example(
        [(16, 8, 4, 8, 3, 1, 2), ("dw", 64, 32, 4, 8, 1, 1, 1)],
        make_engine(4, 1, 1, (1, 1, 1), 0, Dataflow.OUTPUT_STATIONARY),
        make_engine(4, 1, 1, (1, 1, 1), 0, Dataflow.WEIGHT_STATIONARY),
    ),
    dual_example(
        [(8, 8, 4, 8, 7, 1, 2), ("dw", 64, 32, 4, 8, 5, 1, 1), (32, 64, 4, 4, 1, 1, 1)],
        make_engine(1, 1, 1, (1, 1, 1), 0, Dataflow.WEIGHT_STATIONARY),
        make_engine(8, 1, 1, (1, 1, 1), 0, Dataflow.OUTPUT_STATIONARY),
    ),
    dual_example(
        [("dw", 64, 64, 8, 8, 7, 1, 1), (4, 64, 8, 8, 1, 1, 1)],
        make_engine(1, 2, 2, (1, 1, 1), 0, Dataflow.WEIGHT_STATIONARY),
        make_engine(1, 2, 2, (1, 1, 1), 0, Dataflow.OUTPUT_STATIONARY),
    ),
]


class TestBlocksMatchReference:
    @given(block=single_blocks(), data=st.data())
    def test_single_ce_block(self, block, data):
        check_block(block, data)

    @given(block=pipelined_blocks(), data=st.data())
    def test_pipelined_block(self, block, data):
        check_block(block, data)
        rounds, tile_counts = reference_rounds(block)
        assert block.rounds() == rounds
        assert block.tile_counts() == tile_counts

    @given(block=dual_blocks(), data=st.data())
    @example(block=DUAL_TILE_EXAMPLES[0], data=None)
    @example(block=DUAL_TILE_EXAMPLES[1], data=None)
    @example(block=DUAL_TILE_EXAMPLES[2], data=None)
    @example(block=DUAL_TILE_EXAMPLES[3], data=None)
    def test_dual_engine_block(self, block, data):
        check_block(block, data)


class TestBuilderBlocksMatchReference:
    @given(block=builder_blocks(), data=st.data())
    def test_builder_made_block(self, block, data):
        # The block reads the builder's table, not one of its own.
        assert block.columns.row_of(block.specs, block.precision) == block.specs[0].index
        check_block(block, data)

    @given(block=builder_dual_tails(), data=st.data())
    def test_builder_made_dual_tail(self, block, data):
        assert block.columns.row_of(block.specs, block.precision) == block.specs[0].index
        check_block(block, data)


class TestLayoutKernelsMatchReference:
    @given(block=single_blocks(), budget=st.integers(0, 10**7))
    def test_single_ce_traffic(self, block, budget):
        assert single_ce_traffic(block.layout.terms, budget) == reference_single_ce_accesses(
            block.specs, block.engine, budget, block.precision
        )

    @given(block=pipelined_blocks(), buffers=st.lists(st.integers(-5, 10**6), max_size=11))
    def test_pipelined_weights(self, block, buffers):
        layout = block.layout
        rounds, tile_counts = reference_rounds(block)
        assert layout.positions[0] == reference_per_ce_max_weight_bytes(
            rounds, block.ce_count, block.precision
        )
        for round_, round_specs, tile_count in zip(layout.rounds, rounds, tile_counts):
            assert pipelined_weight_traffic(
                layout.weights[round_], tile_count, buffers
            ) == reference_pipelined_weight_accesses(
                round_specs, tile_count, buffers, block.precision
            )

    @given(
        specs=layer_lists(1, 11),
        tile_count=st.integers(1, 8),
        data=st.data(),
    )
    def test_stage_latencies(self, specs, tile_count, data):
        cycles = data.draw(
            st.lists(st.integers(0, 10**9), min_size=len(specs), max_size=len(specs))
        )
        runs = [
            row_cycle_runs(spec.out_height, full, tile_count)
            for spec, full in zip(specs, cycles)
        ]
        stages, bottleneck = reference_stage_latencies(specs, cycles, tile_count)
        assert stage_latencies(runs, tile_count) == stages
        assert pipeline_cycles(runs, tile_count) == (sum(stages), bottleneck)
