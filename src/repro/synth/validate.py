"""Model-vs-reference validation (Table IV, Eq. 10).

Accuracy of an estimate against a reference value:

    Accuracy = 100 x (1 - |reference - estimated| / reference) %

The Table IV study summarizes accuracy per metric and architecture over the
150-experiment grid (3 architectures x 10 CE counts x 5 CNNs on VCU108).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.cost.results import CostReport
from repro.synth.simulator import SimulationResult
from repro.utils.errors import ValidationError
from repro.utils.mathutils import ordered_sum

#: The four Table IV metric rows.
VALIDATION_METRICS: Tuple[str, ...] = ("buffers", "latency", "throughput", "accesses")


def accuracy_percent(reference: float, estimated: float) -> float:
    """Eq. 10. Raises if the reference is non-positive (undefined ratio)."""
    if reference <= 0:
        raise ValidationError(f"reference must be positive, got {reference}")
    if estimated < 0:
        raise ValidationError(f"estimate must be non-negative, got {estimated}")
    return 100.0 * (1.0 - abs(reference - estimated) / reference)


@dataclass(frozen=True)
class ValidationRecord:
    """One experiment: a cost report vs its reference simulation."""

    architecture: str
    model: str
    ce_count: int
    accuracies: Dict[str, float]

    @classmethod
    def from_results(
        cls,
        architecture: str,
        model: str,
        ce_count: int,
        report: CostReport,
        reference: SimulationResult,
    ) -> "ValidationRecord":
        accuracies = {
            "buffers": accuracy_percent(
                reference.buffer_bytes, report.buffer_requirement_bytes
            ),
            "latency": accuracy_percent(reference.latency_cycles, report.latency_cycles),
            "throughput": accuracy_percent(
                reference.throughput_fps, report.throughput_fps
            ),
            "accesses": accuracy_percent(
                reference.access_bytes, report.accesses.total_bytes
            ),
        }
        return cls(
            architecture=architecture,
            model=model,
            ce_count=ce_count,
            accuracies=accuracies,
        )


@dataclass
class ValidationSummary:
    """Per-architecture max/min/average accuracy per metric (Table IV)."""

    records: List[ValidationRecord] = field(default_factory=list)

    def add(self, record: ValidationRecord) -> None:
        self.records.append(record)

    def architectures(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.architecture not in seen:
                seen.append(record.architecture)
        return seen

    def _values(self, metric: str, architecture: str) -> List[float]:
        return [
            record.accuracies[metric]
            for record in self.records
            if record.architecture == architecture
        ]

    def stat(self, metric: str, architecture: str, kind: str) -> float:
        values = self._values(metric, architecture)
        if not values:
            raise ValidationError(f"no records for {architecture!r}")
        if kind == "max":
            return max(values)
        if kind == "min":
            return min(values)
        if kind == "average":
            return ordered_sum(values) / len(values)
        raise ValidationError(f"unknown stat kind {kind!r}")

    def average(self, metric: str) -> float:
        values = [record.accuracies[metric] for record in self.records]
        if not values:
            raise ValidationError("summary has no records")
        return ordered_sum(values) / len(values)

    def table(self) -> str:
        """Render the Table IV layout as text."""
        architectures = self.architectures()
        header = f"{'metric':<14}" + "".join(
            f"{arch + ' ' + kind:>22}"
            for kind in ("max", "min", "average")
            for arch in architectures
        )
        lines = [header, "-" * len(header)]
        for metric in VALIDATION_METRICS:
            row = f"{metric:<14}"
            for kind in ("max", "min", "average"):
                for arch in architectures:
                    row += f"{self.stat(metric, arch, kind):>21.1f}%"
            lines.append(row)
        return "\n".join(lines)
