"""Dual-engine single-CE block: the Hybrid's two-sub-CE tail (Section II-C).

"If CNN has two types of convolutional layers, the second part could have
two sub-CEs [30]": for CNNs mixing depthwise and standard/pointwise
convolutions (MobileNetV2, Xception), the Hybrid's tail splits its PEs
into a depthwise engine and a standard engine. Consecutive
depthwise→pointwise pairs are *fused*: the pointwise engine starts
consuming rows as the depthwise engine produces them, so the pair's cost
is the slower engine plus a fill overhead rather than the sum — the core
benefit of the FiBHA/SECDA-style designs the paper cites.

Like the other blocks (:mod:`repro.core.blocks`), a dual-engine block lays
itself out once, from slices of the context's layer columns
(:func:`~repro.core.blocks.block_rows`): the fused pairs, each layer's
Eq. 1 cycles and Eq. 4 weights tile on the engine that owns it, the Eq. 4
FM term with fused intermediates shrunk to row bands, the standard
engine's Eq. 6 terms, and the fused schedule's steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import not_
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.core.blocks import block_rows, sequential_evaluation
from repro.core.cost.accesses import single_ce_traffic
from repro.core.cost.buffers import single_ce_streaming_bytes
from repro.core.cost.results import BlockEvaluation
from repro.core.cost.terms import LayerColumns, LayerTerms
from repro.core.engine import ComputeEngine
from repro.hw.datatypes import Precision
from repro.utils.errors import ResourceError
from repro.utils.mathutils import proportional_allocation


def split_by_kind(specs: Tuple[ConvSpec, ...]) -> Tuple[List[ConvSpec], List[ConvSpec]]:
    """Partition layers into (depthwise, standard/pointwise) groups."""
    depthwise = [s for s in specs if s.kind is LayerKind.DEPTHWISE_CONV]
    standard = [s for s in specs if s.kind is not LayerKind.DEPTHWISE_CONV]
    return depthwise, standard


def has_mixed_conv_types(specs: Tuple[ConvSpec, ...]) -> bool:
    """Whether a dual-engine tail is applicable (both groups non-empty)."""
    depthwise, standard = split_by_kind(specs)
    return bool(depthwise) and bool(standard)


def fused_pairs(specs: Sequence[ConvSpec]) -> List[Tuple[int, int]]:
    """(dw_position, consumer_position) pairs eligible for fusion: each
    depthwise layer directly followed by a non-depthwise one."""
    depthwise = [spec.kind is LayerKind.DEPTHWISE_CONV for spec in specs]
    return [
        (position, position + 1)
        for position in range(len(specs) - 1)
        if depthwise[position] and not depthwise[position + 1]
    ]


class DualLayout(NamedTuple):
    """What a :class:`DualEngineBlock` costs with, computed once."""

    #: Eq. 6 terms, on the standard engine's weights tiles.
    terms: List[LayerTerms]
    #: Eq. 1 cycles of each layer on the engine that owns it.
    cycles: List[int]
    pairs: List[Tuple[int, int]]
    #: The fused schedule: each step's layers (a fused pair or one layer)
    #: and its cycles, and their sum.
    steps: List[slice]
    step_cycles: List[int]
    compute_cycles: int
    layer_indices: Tuple[int, ...]
    macs: int
    #: Eq. 4's FM and weights-tile buffers.
    components: Tuple[int, int]
    mandatory: int
    ideal: int


def dual_layout(block: "DualEngineBlock") -> DualLayout:
    """Everything about ``block`` that does not depend on its allocation."""
    columns, start = block_rows(block)
    specs = block.specs
    rows = slice(start, start + len(specs))
    depthwise = [spec.kind is LayerKind.DEPTHWISE_CONV for spec in specs]

    def owned(on_dw: List[int], on_std: List[int]) -> List[int]:
        """Each layer's value on the engine that owns it."""
        return [dw if owner else std for dw, std, owner in zip(on_dw, on_std, depthwise)]

    cycles = owned(
        columns.cycles(rows, (block.dw_engine.strategy,)),
        columns.cycles(rows, (block.std_engine.strategy,)),
    )
    std_tiles = columns.weights_tiles(rows, block.std_engine)
    tiles = owned(columns.weights_tiles(rows, block.dw_engine), std_tiles)
    pairs = fused_pairs(specs)
    # A fused dw→consumer pair never materializes the depthwise OFM: the
    # consumer eats rows as they are produced, so the intermediate costs
    # one ``kernel_height``-row band instead of a full feature map — the
    # buffer saving of fused-layer accelerators (Alwani et al. [1]).
    fms = columns.live_fms[rows]
    steps: List[slice] = []
    step_cycles: List[int] = []
    position = 0
    for producer, consumer in pairs:
        row = start + producer
        band = min(columns.ofm[row], specs[consumer].kernel_height * columns.ofm_row[row])
        fms[producer] = columns.ifm[row] + band * specs[producer].fms_copies
        fms[consumer] = band + columns.live_ofm[row + 1]
        steps.extend(slice(single, single + 1) for single in range(position, producer))
        step_cycles.extend(cycles[position:producer])
        # Both engines run the pair concurrently, plus a pipeline fill.
        steps.append(slice(producer, consumer + 1))
        step_cycles.append(
            int(max(cycles[producer], cycles[consumer]) * (1 + block.FUSION_FILL_FRACTION))
        )
        position = consumer + 1
    steps.extend(slice(single, single + 1) for single in range(position, len(specs)))
    step_cycles.extend(cycles[position:])
    components = (max(fms), max(tiles))
    ideal = sum(components)
    return DualLayout(
        terms=columns.single_ce_terms(rows, std_tiles),
        cycles=cycles,
        pairs=pairs,
        steps=steps,
        step_cycles=step_cycles,
        compute_cycles=sum(step_cycles),
        layer_indices=tuple(columns.index[rows]),
        macs=sum(columns.macs[rows]),
        components=components,
        mandatory=min(single_ce_streaming_bytes(columns, rows, std_tiles), ideal),
        ideal=ideal,
    )


@dataclass(frozen=True)
class DualEngineBlock:
    """A single-CE-role block with two type-specialized sub-engines.

    The block still processes its layer range in order (one *pair or layer*
    at a time), so buffers are reused as in Eq. 4; only the compute
    schedule differs: a depthwise layer immediately followed by its
    consumer runs fused with it on the two engines.
    """

    name: str
    dw_engine: ComputeEngine
    std_engine: ComputeEngine
    specs: Tuple[ConvSpec, ...]
    precision: Precision
    bytes_per_cycle: float
    #: The context's layer columns (see :func:`~repro.core.blocks.block_rows`).
    columns: Optional[LayerColumns] = field(default=None, compare=False, repr=False)

    #: Pipeline-fill penalty of a fused pair, as a fraction of the faster
    #: member's cycles (the first rows must exist before the consumer runs).
    FUSION_FILL_FRACTION = 0.15

    kind = "dual"

    def __post_init__(self) -> None:
        if not self.specs:
            raise ResourceError(f"{self.name}: block has no layers")
        if not has_mixed_conv_types(self.specs):
            raise ResourceError(
                f"{self.name}: dual-engine block needs both depthwise and "
                f"standard convolutions"
            )
        if self.bytes_per_cycle <= 0:
            raise ResourceError(f"{self.name}: bandwidth must be positive")

    @classmethod
    def fitted(
        cls,
        name: str,
        pe_count: int,
        specs: Tuple[ConvSpec, ...],
        precision: Precision,
        bytes_per_cycle: float,
        columns: Optional[LayerColumns] = None,
    ) -> "DualEngineBlock":
        """Split ``pe_count`` between the sub-engines by workload and fit
        each engine's parallelism to its own layer group, with the search
        keys of ``columns`` when ``specs`` are its rows."""
        depthwise, standard = split_by_kind(specs)
        if not depthwise or not standard:
            raise ResourceError(f"{name}: layers are not mixed-type")
        loads = [
            float(sum(s.macs for s in depthwise)),
            float(sum(s.macs for s in standard)),
        ]
        if pe_count < 2:
            raise ResourceError(f"{name}: needs at least 2 PEs for two engines")
        dw_pes, std_pes = proportional_allocation(pe_count, loads, minimum=1)
        start = None if columns is None else columns.row_of(specs, precision)
        dw_keys = std_keys = None
        if start is not None:
            keys = columns.keys[start : start + len(specs)]
            on_dw = [s.kind is LayerKind.DEPTHWISE_CONV for s in specs]
            dw_keys = tuple(compress(keys, on_dw))
            std_keys = tuple(compress(keys, map(not_, on_dw)))
        return cls(
            name=name,
            dw_engine=ComputeEngine.fitted(f"{name}.dwCE", dw_pes, depthwise, keys=dw_keys),
            std_engine=ComputeEngine.fitted(f"{name}.stdCE", std_pes, standard, keys=std_keys),
            specs=specs,
            precision=precision,
            bytes_per_cycle=bytes_per_cycle,
            columns=columns,
        )

    @property
    def pe_count(self) -> int:
        return self.dw_engine.pe_count + self.std_engine.pe_count

    @property
    def macs(self) -> int:
        return sum(spec.macs for spec in self.specs)

    @cached_property
    def layout(self) -> DualLayout:
        return dual_layout(self)

    def ideal_buffer_bytes(self) -> int:
        """Eq. 4 requirement, fused intermediates shrunk to row bands."""
        return self.layout.ideal

    def mandatory_buffer_bytes(self) -> int:
        """Smallest allocation the block can stream through."""
        return self.layout.mandatory

    def buffer_components(self) -> List[int]:
        """One FM buffer and one weights-tile buffer, in bytes."""
        return list(self.layout.components)

    def evaluate(
        self,
        allocated_bytes: int,
        input_extra_bytes: int = 0,
        output_extra_bytes: int = 0,
        segment_index: int = 0,
    ) -> BlockEvaluation:
        """Sequential schedule with dw→consumer fusion: one step of
        :func:`~repro.core.blocks.sequential_evaluation` per fused pair or
        unfused layer.

        A fused pair costs ``max(dw, consumer) * (1 + fill)`` cycles —
        both engines run concurrently on the pair — while unfused layers
        cost their own engine's Eq. 1 cycles (the other engine idles).
        """
        layout = self.layout
        traffic = single_ce_traffic(layout.terms, allocated_bytes)
        return sequential_evaluation(
            self,
            [tuple(map(sum, zip(*traffic[step]))) for step in layout.steps],
            layout.step_cycles,
            allocated_bytes,
            input_extra_bytes,
            output_extra_bytes,
            segment_index,
        )
