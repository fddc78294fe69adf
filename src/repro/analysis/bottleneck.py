"""Fine-grained bottleneck analysis (Use case 2, Fig. 6).

Breaks an accelerator's execution into its segments and reports each
segment's compute and memory-access time as a fraction of the overall
execution, plus the aggregate CE idle share ("In 29% of the overall
execution time, CEs are idle, waiting for data").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.cost.results import CostReport, SegmentCost
from repro.utils.mathutils import ordered_sum


@dataclass(frozen=True)
class SegmentTiming:
    """One Fig. 6 bar pair: a segment's compute and memory time shares."""

    index: int
    label: str
    compute_fraction: float
    memory_fraction: float

    @property
    def memory_bound(self) -> bool:
        return self.memory_fraction > self.compute_fraction


@dataclass(frozen=True)
class BottleneckProfile:
    """Per-segment timing profile of one accelerator."""

    accelerator_name: str
    segments: Tuple[SegmentTiming, ...]
    idle_fraction: float

    def memory_bound_segments(self) -> List[SegmentTiming]:
        """Segments where memory access time dominates (the compression
        candidates of the Use case 2 discussion)."""
        return [segment for segment in self.segments if segment.memory_bound]

    def table(self) -> str:
        header = f"{'segment':>8}{'compute %':>12}{'memory %':>12}{'bound':>10}"
        lines = [header, "-" * len(header)]
        for segment in self.segments:
            lines.append(
                f"{segment.index + 1:>8}{100 * segment.compute_fraction:>11.1f}%"
                f"{100 * segment.memory_fraction:>11.1f}%"
                f"{'memory' if segment.memory_bound else 'compute':>10}"
            )
        lines.append(f"CEs idle waiting for data: {100 * self.idle_fraction:.0f}% of execution")
        return "\n".join(lines)


def profile_bottlenecks(report: CostReport) -> BottleneckProfile:
    """Compute the Fig. 6 profile from a cost report.

    Fractions are normalized to the overall execution time (the sum of
    per-segment wall times), exactly as the figure's y-axis ("% Overall").
    """
    segments = report.segments
    overall = ordered_sum(segment.time_cycles for segment in segments)
    if overall <= 0:
        overall = 1.0
    timings = tuple(
        SegmentTiming(
            index=segment.index,
            label=segment.label,
            compute_fraction=segment.compute_cycles / overall,
            memory_fraction=segment.memory_cycles / overall,
        )
        for segment in segments
    )
    idle = ordered_sum(segment.idle_cycles for segment in segments) / overall
    return BottleneckProfile(
        accelerator_name=report.accelerator_name,
        segments=timings,
        idle_fraction=idle,
    )


def idle_fraction(report: CostReport) -> float:
    """Fraction of execution time CEs spend waiting for data."""
    return profile_bottlenecks(report).idle_fraction
