"""The cache-miss evaluator: every design a cache could not answer.

Fingerprint misses of a :class:`~repro.runtime.batch.BatchEvaluator` —
inline batches and each pool worker alike — are evaluated here, one
design at a time: :meth:`MultipleCEBuilder.build` lowers the spec to an
accelerator and :meth:`MCCM.evaluate` costs it. The module and class keep
their names because the benchmark's tracer (``perfbench/tracing.py``)
wraps ``PopulationKernel.evaluate`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.cost.model import default_model
from repro.core.cost.results import CostReport
from repro.utils.errors import ResourceError


@dataclass(frozen=True)
class PopulationOutcome:
    """One design's result from a population evaluation (request order)."""

    report: Optional[CostReport]
    reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.report is not None


class PopulationKernel:
    """Builds and costs designs for one evaluation context.

    Parameters
    ----------
    builder:
        The :class:`~repro.core.builder.MultipleCEBuilder` for the
        evaluation context (one CNN × board × precision).
    """

    def __init__(self, builder) -> None:
        self.builder = builder
        self.model = default_model()

    def evaluate(self, specs: Sequence) -> List[PopulationOutcome]:
        """Evaluate :class:`ArchitectureSpec` designs, in order.

        Only resource exhaustion marks a design infeasible; its outcome's
        ``reason`` reads ``"ResourceError: <message>"``. Other
        :class:`~repro.utils.errors.MCCMError` subclasses (shape, notation
        or validation problems) mean a bad request or a genuine bug and
        propagate — caching them as "infeasible" would persist a bogus
        verdict.
        """
        outcomes: List[PopulationOutcome] = []
        for spec in specs:
            try:
                report = self.model.evaluate(self.builder.build(spec))
            except ResourceError as error:
                outcomes.append(
                    PopulationOutcome(None, f"{type(error).__name__}: {error}")
                )
            else:
                outcomes.append(PopulationOutcome(report))
        return outcomes
