"""Result containers produced by the MCCM cost model.

The methodology's outputs (Fig. 3) are throughput, latency, on-chip buffer
requirements, and off-chip accesses, plus fine-grained PE-utilization and
weights/FMs breakdowns. These dataclasses carry those outputs at three
granularities: per segment, per block, and per accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, List, Optional, Tuple

from repro.utils.units import bytes_to_mib


@dataclass(frozen=True)
class AccessBreakdown:
    """Off-chip traffic split into weights and feature maps (Fig. 7)."""

    weight_bytes: int = 0
    fm_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.fm_bytes

    @property
    def weight_fraction(self) -> float:
        total = self.total_bytes
        return self.weight_bytes / total if total else 0.0

    def __add__(self, other: "AccessBreakdown") -> "AccessBreakdown":
        return AccessBreakdown(
            weight_bytes=self.weight_bytes + other.weight_bytes,
            fm_bytes=self.fm_bytes + other.fm_bytes,
        )


@dataclass(frozen=True)
class SegmentCost:
    """Costs of one segment: a single-CE layer range or one pipelined round.

    ``compute_cycles`` and ``memory_cycles`` feed the Fig. 6 bottleneck
    plots; the segment's wall time is their max (compute overlaps memory,
    and the CE idles when memory dominates).
    """

    index: int
    label: str
    layer_indices: Tuple[int, ...]
    compute_cycles: int
    memory_cycles: float
    accesses: AccessBreakdown
    pe_count: int
    macs: int
    buffer_requirement_bytes: int

    @property
    def time_cycles(self) -> float:
        """Wall-clock cycles: compute overlapped with memory."""
        return max(float(self.compute_cycles), self.memory_cycles)

    @property
    def idle_cycles(self) -> float:
        """Cycles the segment's CEs sit waiting for data (Fig. 6 narrative)."""
        return max(0.0, self.memory_cycles - self.compute_cycles)

    @property
    def utilization(self) -> float:
        """Useful-MAC fraction of PE-cycles over the segment's wall time."""
        denominator = self.time_cycles * self.pe_count
        return self.macs / denominator if denominator else 0.0

    @property
    def underutilization(self) -> float:
        """1 - utilization; the Fig. 9b quantity before normalization."""
        return 1.0 - self.utilization


@dataclass(frozen=True)
class BlockEvaluation:
    """Evaluation of one building block (single-CE or pipelined-CEs)."""

    name: str
    kind: str
    segments: Tuple[SegmentCost, ...]
    latency_cycles: float
    throughput_interval_cycles: float
    accesses: AccessBreakdown
    buffer_requirement_bytes: int
    buffer_allocated_bytes: int
    pe_count: int

    @property
    def compute_cycles(self) -> int:
        return sum(segment.compute_cycles for segment in self.segments)

    @property
    def macs(self) -> int:
        return sum(segment.macs for segment in self.segments)


@dataclass(frozen=True)
class CostReport:
    """End-to-end MCCM outputs for one accelerator instance."""

    accelerator_name: str
    model_name: str
    board_name: str
    clock_hz: float
    latency_cycles: float
    throughput_interval_cycles: float
    buffer_requirement_bytes: int
    buffer_allocated_bytes: int
    accesses: AccessBreakdown
    blocks: Tuple[BlockEvaluation, ...]
    total_pes: int
    fits_onchip: bool
    notation: str = ""
    #: Constraint-rule outcomes (:class:`repro.rules.schema.Verdict`),
    #: attached only when a caller asked for rules — the cost model itself
    #: never populates this, so rules-off reports are unchanged.
    verdicts: Tuple[Any, ...] = ()

    # -- derived report metrics ------------------------------------------------
    @property
    def latency_seconds(self) -> float:
        return self.latency_cycles / self.clock_hz

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    @property
    def throughput_fps(self) -> float:
        if self.throughput_interval_cycles <= 0:
            return 0.0
        return self.clock_hz / self.throughput_interval_cycles

    @property
    def buffer_requirement_mib(self) -> float:
        return bytes_to_mib(self.buffer_requirement_bytes)

    @property
    def access_mib(self) -> float:
        return bytes_to_mib(self.accesses.total_bytes)

    @property
    def segments(self) -> List[SegmentCost]:
        """All segments across blocks, re-indexed in execution order."""
        flattened: List[SegmentCost] = []
        for block in self.blocks:
            flattened.extend(block.segments)
        return flattened

    @property
    def total_macs(self) -> int:
        return sum(block.macs for block in self.blocks)

    @property
    def pe_utilization(self) -> float:
        """End-to-end useful-MAC fraction over the whole inference."""
        denominator = self.latency_cycles * self.total_pes
        return self.total_macs / denominator if denominator else 0.0

    def metric(self, name: str) -> float:
        """Access the four headline metrics by name (for sweeps/tables).

        Latency, accesses, and buffers are costs (lower is better);
        throughput is reported as FPS (higher is better).
        """
        read = _METRICS.get(name)
        if read is None:
            raise KeyError(f"unknown metric {name!r}; expected one of {sorted(_METRICS)}")
        return read(self)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        return (
            f"{self.accelerator_name} on {self.board_name} running {self.model_name}: "
            f"latency {self.latency_ms:.2f} ms, throughput {self.throughput_fps:.1f} FPS, "
            f"buffers {self.buffer_requirement_mib:.2f} MiB "
            f"({'fits' if self.fits_onchip else 'exceeds BRAM'}), "
            f"off-chip {self.access_mib:.1f} MiB/inference "
            f"({100 * self.accesses.weight_fraction:.0f}% weights)"
        )


def _access_bytes(report: CostReport) -> float:
    return float(report.accesses.total_bytes)


def _buffer_bytes(report: CostReport) -> float:
    return float(report.buffer_requirement_bytes)


#: :meth:`CostReport.metric` names, each with the one value it reads.
_METRICS = {
    "latency": attrgetter("latency_seconds"),
    "throughput": attrgetter("throughput_fps"),
    "access": _access_bytes,
    "accesses": _access_bytes,
    "buffers": _buffer_bytes,
    "buffer": _buffer_bytes,
}

_BETTER_HIGHER = {"throughput"}


def metric_is_higher_better(name: str) -> bool:
    """Whether larger values of ``name`` are better (throughput only)."""
    return name in _BETTER_HIGHER
