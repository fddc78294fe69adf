"""The cache-miss evaluator: every design a cache could not answer.

Fingerprint misses of a :class:`~repro.runtime.batch.BatchEvaluator` —
inline batches and each pool worker alike — are evaluated here, one
design at a time: :meth:`MultipleCEBuilder.build` lowers the spec to an
accelerator and :meth:`MCCM.evaluate` costs it through one optional
:class:`~repro.runtime.segcache.SegmentCostCache`, so designs that repeat
a segment (every DSE neighbourhood, most sweeps) reuse its costing work.
The module and class keep their names because the benchmark's tracer
(``perfbench/tracing.py``) wraps ``PopulationKernel.evaluate`` by name.
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
    segment_cache:
        Duck-typed segment table (see
        :class:`~repro.runtime.segcache.SegmentCostCache`) for the cost
        stage; ``None`` evaluates every design cold. It is bound to the
        builder's context here — segment keys carry layer indices, not
        shapes, so one cache must never serve two (model, board,
        precision) worlds, and a cache already bound elsewhere raises
        :class:`~repro.utils.errors.MCCMError`.
    """

    def __init__(self, builder, segment_cache=None) -> None:
        if segment_cache is not None:
            segment_cache.bind(builder.context)
        self.builder = builder
        self.model = default_model()
        self.segment_cache = segment_cache

    def evaluate(self, specs: Sequence) -> List[PopulationOutcome]:
        """Evaluate :class:`ArchitectureSpec` designs, in order.

        Only resource exhaustion marks a design infeasible; its outcome's
        ``reason`` reads ``"ResourceError: <message>"``. Other
        :class:`~repro.utils.errors.MCCMError` subclasses (shape, notation
        or validation problems) mean a bad request or a genuine bug and
        propagate — caching them as "infeasible" would persist a bogus
        verdict.
        """
        cache = self.segment_cache
        outcomes: List[PopulationOutcome] = []
        for spec in specs:
            try:
                accelerator = self.builder.build(spec)
                report = self.model.evaluate(accelerator, segment_cache=cache)
            except ResourceError as error:
                outcomes.append(
                    PopulationOutcome(None, f"{type(error).__name__}: {error}")
                )
            else:
                outcomes.append(PopulationOutcome(report))
        return outcomes
