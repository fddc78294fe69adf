"""Differential oracle: the block models against their per-call reference.

The single-CE and pipelined-CEs blocks cost themselves from a layout of
integer byte terms computed once per block, and take each round's Eq. 2
latency and Eq. 3 bottleneck from at most three tile cycle counts per CE.
This module keeps the per-layer, per-tile, per-call code they replaced as
the reference: the tile-by-tile schedule scan, the Eq. 6 loop over
``ConvSpec`` records, and the Eq. 4/5 buffer functions. Hypothesis checks
that every footprint and every ``BlockEvaluation`` field agrees exactly,
over output heights 1–512 (full, partial and empty tiles), 1–11 CEs with
multi-round blocks, int8/int16/fp32 weights and activations, allocations
from 0 to above the ideal footprint, and non-zero boundary traffic.

Blocks lay themselves out from slices of a context's layer columns. The
drawn blocks read a longer context's table as a builder's blocks do, no
table, or a table their specs do not match (another precision or other
layers); :class:`TestBuilderBlocksMatchReference` also draws the blocks a
:class:`~repro.core.builder.MultipleCEBuilder` makes for zoo models.

Raise the example budget with ``pytest -m fuzz --hypothesis-profile=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from repro.api import resolve_board, resolve_model
from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.core.architectures import TEMPLATES, build_template
from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock, split_weight_budget
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.accesses import pipelined_weight_accesses, single_ce_accesses
from repro.core.cost.buffers import (
    per_ce_max_weight_bytes,
    pipelined_buffer_requirement,
    pipelined_mandatory_bytes,
    single_ce_buffer_requirement,
    single_ce_mandatory_bytes,
)
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, SegmentCost
from repro.core.cost.terms import LayerColumns
from repro.core.dataflow import Dataflow, ofm_row_elements
from repro.core.engine import ComputeEngine
from repro.core.parallelism import Dimension, ParallelismStrategy
from repro.core.tiling import build_schedule, select_tile_count
from repro.dse.space import CustomDesignSpace
from repro.hw.datatypes import FP32, INT8, INT16, Precision
from repro.utils.errors import ResourceError

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
    """``build_schedule(...).latency_cycles()`` / ``.bottleneck_cycles()``."""
    stages, bottleneck = reference_stage_latencies(specs, full_layer_cycles, tile_count)
    return sum(stages), bottleneck


def reference_ifm_row_elements(spec):
    ifm_rows = max(1, round((spec.ifm_elements / max(1, spec.channels)) ** 0.5))
    row = spec.ifm_elements // max(1, ifm_rows)
    return max(1, min(spec.ifm_elements, row * spec.kernel_height))


def reference_single_ce_accesses(
    specs, engine, buffer_bytes, precision, input_onchip=True, output_onchip=True
):
    """The Eq. 6 loop over ``ConvSpec`` records: ``(weight, ifm, ofm)`` bytes."""
    act = precision.activation_bytes
    wbytes = precision.weight_bytes
    results = []
    prev_ofm_onchip = input_onchip
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
            keep_ofm = output_onchip
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
        results.append((weight_access, ifm_access, ofm_access))
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
    return rounds, [select_tile_count(round_specs) for round_specs in rounds]


def reference_footprint(block):
    """``(mandatory, ideal)`` bytes, per block kind."""
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


# --- strategies ----------------------------------------------------------------

#: Small heights make partial and empty tiles common; the wide range
#: covers every tile count and large row counts per tile.
heights = st.one_of(st.integers(1, 17), st.integers(1, 512))


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
    return tuple(
        ConvSpec(
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
        for index, (k, c, h, w, r, stride, copies) in enumerate(shapes)
    )


#: Degrees of the C, R and S loops: mostly 1, as the Eq. 1 search leaves them.
minor_degrees = st.sampled_from([1, 1, 1, 2, 3])

engines = st.builds(
    lambda pk, ph, pw, minor, spare, dataflow: ComputeEngine(
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
    ),
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


@st.composite
def block_layers(draw, min_size, max_size):
    """A block's layers, its precision and the layer columns it is given.

    Most blocks get what a builder gives them: a table of a longer context
    at their precision, their layers consecutive rows of it. The others get
    no table, a table at another precision, or another context's table (as
    after :func:`dataclasses.replace`), and must cost their own layers.
    """
    before = draw(st.integers(0, 3))
    context = draw(layer_lists(before + min_size, before + max_size + 3))
    count = draw(st.integers(min_size, min(max_size, len(context) - before)))
    specs = context[before : before + count]
    precision = draw(precisions)
    table = draw(st.sampled_from(["context", "context", "none", "precision", "other"]))
    if table == "none":
        return specs, precision, None
    if table == "precision":
        return specs, precision, LayerColumns(context, draw(precisions))
    if table == "other":
        context = draw(layer_lists(len(context), len(context)))
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
    """A single-CE or pipelined block a :class:`MultipleCEBuilder` built:
    from a template design or a sampled custom one."""
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
    blocks = [block for block in accelerator.blocks if block.kind != "dual"]
    if not blocks:
        reject()
    return draw(st.sampled_from(blocks))


@st.composite
def evaluation_inputs(draw, footprint):
    """Allocations from 0 to above the ideal footprint, with boundary traffic."""
    mandatory, ideal = footprint
    edges = sorted({0, max(0, mandatory - 1), mandatory, max(0, ideal - 1), ideal, ideal + 1})
    allocated = draw(st.one_of(st.sampled_from(edges), st.integers(0, 2 * ideal + 64)))
    extras = st.one_of(st.just(0), st.integers(1, 10**7))
    return allocated, draw(extras), draw(extras), draw(st.integers(0, 20))


# --- the oracle ------------------------------------------------------------------


def check_block(block, data, reference_evaluate):
    footprint = reference_footprint(block)
    assert (block.mandatory_buffer_bytes(), block.ideal_buffer_bytes()) == footprint
    # Several evaluations share one layout; each must match on its own.
    for inputs in data.draw(st.lists(evaluation_inputs(footprint), min_size=1, max_size=4)):
        assert block.evaluate(*inputs) == reference_evaluate(block, *inputs)


class TestBlocksMatchReference:
    @given(block=single_blocks(), data=st.data())
    def test_single_ce_block(self, block, data):
        check_block(block, data, reference_single_evaluate)

    @given(block=pipelined_blocks(), data=st.data())
    def test_pipelined_block(self, block, data):
        check_block(block, data, reference_pipelined_evaluate)
        rounds, tile_counts = reference_rounds(block)
        assert block.rounds() == rounds
        assert block.tile_counts() == tile_counts


class TestBuilderBlocksMatchReference:
    @given(block=builder_blocks(), data=st.data())
    def test_builder_made_block(self, block, data):
        # The block reads the builder's table, not one of its own.
        assert block.columns.row_of(block.specs, block.precision) == block.specs[0].index
        reference = {
            "single": reference_single_evaluate,
            "pipelined": reference_pipelined_evaluate,
        }[block.kind]
        check_block(block, data, reference)


class TestPublicFunctionsMatchReference:
    @given(
        specs=layer_lists(1, 12),
        engine=engines,
        precision=precisions,
        budget=st.integers(0, 10**7),
        input_onchip=st.booleans(),
        output_onchip=st.booleans(),
    )
    def test_single_ce_accesses(
        self, specs, engine, precision, budget, input_onchip, output_onchip
    ):
        accesses = single_ce_accesses(
            specs, engine, budget, precision, input_onchip, output_onchip
        )
        assert [access.layer_index for access in accesses] == [spec.index for spec in specs]
        assert [
            (access.weight_bytes, access.ifm_bytes, access.ofm_bytes) for access in accesses
        ] == reference_single_ce_accesses(
            specs, engine, budget, precision, input_onchip, output_onchip
        )

    @given(specs=layer_lists(1, 12), engine=engines, precision=precisions)
    def test_single_ce_buffers(self, specs, engine, precision):
        assert single_ce_buffer_requirement(
            specs, engine, precision
        ) == reference_single_ce_buffer_requirement(specs, engine, precision)
        assert single_ce_mandatory_bytes(
            specs, engine, precision
        ) == reference_single_ce_mandatory_bytes(specs, engine, precision)

    @given(block=pipelined_blocks(), buffers=st.lists(st.integers(-5, 10**6), max_size=11))
    def test_pipelined_functions(self, block, buffers):
        rounds, tile_counts = reference_rounds(block)
        args = (rounds, tile_counts, block.ce_count, block.precision)
        assert pipelined_buffer_requirement(*args) == reference_pipelined_buffer_requirement(
            *args
        )
        assert pipelined_mandatory_bytes(*args) == reference_pipelined_mandatory_bytes(*args)
        assert per_ce_max_weight_bytes(
            rounds, block.ce_count, block.precision
        ) == reference_per_ce_max_weight_bytes(rounds, block.ce_count, block.precision)
        for round_specs, tile_count in zip(rounds, tile_counts):
            accesses = pipelined_weight_accesses(
                round_specs, tile_count, buffers, block.precision
            )
            assert [access.weight_bytes for access in accesses] == (
                reference_pipelined_weight_accesses(
                    round_specs, tile_count, buffers, block.precision
                )
            )

    @given(
        specs=layer_lists(1, 11),
        tile_count=st.integers(1, 8),
        data=st.data(),
    )
    def test_schedule(self, specs, tile_count, data):
        cycles = data.draw(
            st.lists(st.integers(0, 10**9), min_size=len(specs), max_size=len(specs))
        )
        schedule = build_schedule(specs, cycles, tile_count)
        stages, bottleneck = reference_stage_latencies(specs, cycles, tile_count)
        assert [schedule.stage_latency(s) for s in range(schedule.num_stages)] == stages
        assert schedule.latency_cycles() == sum(stages)
        assert schedule.bottleneck_cycles() == bottleneck
