"""The Compute Engine (CE): a grid of PEs with a parallelism strategy.

One CE is the unit from which multiple-CE accelerators are assembled
(Section II-B). Its performance on a layer follows Eq. 1: the cycle count is
the product of per-dimension loop-trip ceilings, and PE underutilization
emerges whenever a degree does not divide a layer dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.core.dataflow import DEFAULT_DATAFLOW, Dataflow, weights_tile_elements
from repro.core.parallelism import (
    ParallelismStrategy,
    SearchKey,
    choose_parallelism,
    layer_cycles,
    layer_utilization,
)
from repro.utils.errors import ResourceError


@dataclass(frozen=True)
class ComputeEngine:
    """A dedicated convolution engine.

    Attributes
    ----------
    name:
        Engine identifier, e.g. ``"CE3"``.
    pe_count:
        PEs (DSPs) assigned to this engine.
    strategy:
        Loop-unrolling degrees; ``strategy.total_parallelism <= pe_count``
        (the Eq. 1 constraint).
    dataflow:
        The engine's stationary operand (Section II-B).
    """

    name: str
    pe_count: int
    strategy: ParallelismStrategy
    dataflow: Dataflow = field(default=DEFAULT_DATAFLOW)

    def __post_init__(self) -> None:
        if self.pe_count <= 0:
            raise ResourceError(f"{self.name}: pe_count must be positive")
        parallelism = self.strategy.total_parallelism
        if parallelism > self.pe_count:
            raise ResourceError(
                f"{self.name}: parallelism {parallelism} exceeds PE count {self.pe_count}"
            )

    @classmethod
    def fitted(
        cls,
        name: str,
        pe_count: int,
        specs: Sequence[ConvSpec],
        dataflow: Dataflow = DEFAULT_DATAFLOW,
        keys: Optional[Tuple[SearchKey, ...]] = None,
    ) -> "ComputeEngine":
        """Build an engine with the best parallelism for the given layers
        (``keys``: their search keys, as :func:`choose_parallelism` takes)."""
        strategy = choose_parallelism(pe_count, specs, keys)
        return cls(name=name, pe_count=pe_count, strategy=strategy, dataflow=dataflow)

    def layer_cycles(self, spec: ConvSpec) -> int:
        """Cycles to process ``spec`` to completion on this engine (Eq. 1)."""
        return layer_cycles(spec, self.strategy)

    def layer_utilization(self, spec: ConvSpec) -> float:
        """Useful-MAC fraction of PE-cycles while processing ``spec``."""
        return layer_utilization(spec, self.strategy, self.pe_count)

    def total_cycles(self, specs: Sequence[ConvSpec]) -> int:
        """Sequential processing cycles over a set of layers (Eq. 1 sum)."""
        return sum(self.layer_cycles(spec) for spec in specs)

    def average_utilization(self, specs: Sequence[ConvSpec]) -> float:
        """MAC-weighted PE utilization across a set of layers."""
        total_cycles = self.total_cycles(specs)
        if total_cycles == 0:
            return 0.0
        total_macs = sum(spec.macs for spec in specs)
        return total_macs / (total_cycles * self.pe_count)

    def weights_tile_elements(self, spec: ConvSpec) -> int:
        """Minimum resident weights while processing ``spec`` (Eq. 4 tile)."""
        return weights_tile_elements(spec, self.strategy, self.dataflow)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.pe_count} PEs, {self.strategy.describe()} "
            f"({self.dataflow.value.upper()})"
        )
