"""Dual-engine single-CE block: the Hybrid's two-sub-CE tail (Section II-C).

"If CNN has two types of convolutional layers, the second part could have
two sub-CEs [30]": for CNNs mixing depthwise and standard/pointwise
convolutions (MobileNetV2, Xception), the Hybrid's tail splits its PEs
into a depthwise engine and a standard engine. Consecutive
depthwise→pointwise pairs are *fused*: the pointwise engine starts
consuming rows as the depthwise engine produces them, so the pair's cost
is the slower engine plus a fill overhead rather than the sum — the core
benefit of the FiBHA/SECDA-style designs the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.core.cost.accesses import single_ce_accesses
from repro.core.cost.buffers import single_ce_mandatory_bytes
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, SegmentCost
from repro.core.engine import ComputeEngine
from repro.hw.datatypes import Precision
from repro.utils.errors import ResourceError
from repro.utils.mathutils import ceil_div, proportional_allocation


def split_by_kind(specs: Tuple[ConvSpec, ...]) -> Tuple[List[ConvSpec], List[ConvSpec]]:
    """Partition layers into (depthwise, standard/pointwise) groups."""
    depthwise = [s for s in specs if s.kind is LayerKind.DEPTHWISE_CONV]
    standard = [s for s in specs if s.kind is not LayerKind.DEPTHWISE_CONV]
    return depthwise, standard


def has_mixed_conv_types(specs: Tuple[ConvSpec, ...]) -> bool:
    """Whether a dual-engine tail is applicable (both groups non-empty)."""
    depthwise, standard = split_by_kind(specs)
    return bool(depthwise) and bool(standard)


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
    ) -> "DualEngineBlock":
        """Split ``pe_count`` between the sub-engines by workload and fit
        each engine's parallelism to its own layer group."""
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
        return cls(
            name=name,
            dw_engine=ComputeEngine.fitted(f"{name}.dwCE", dw_pes, depthwise),
            std_engine=ComputeEngine.fitted(f"{name}.stdCE", std_pes, standard),
            specs=specs,
            precision=precision,
            bytes_per_cycle=bytes_per_cycle,
        )

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
            single_ce_mandatory_bytes(self.specs, self.std_engine, self.precision),
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
        accesses = single_ce_accesses(
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
