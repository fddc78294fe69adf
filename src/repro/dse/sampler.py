"""Design-space sampling (the Fig. 10 experiment driver).

Draws a seeded sample of a :class:`~repro.dse.space.CustomDesignSpace` and
costs it through the :class:`~repro.runtime.BatchEvaluator` every search
shares: evaluations are fingerprint-memoized (so local search revisiting a
neighbourhood pays nothing), optionally persisted to disk, and — when the
runtime decides to fork — fanned out over a worker pool without changing
which designs get sampled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.cost.results import CostReport
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.runtime import BatchEvaluator


@dataclass
class SampleStats:
    """Aggregate statistics of one sampling run (the §V-E timing claims)."""

    evaluated: int
    failed: int
    elapsed_seconds: float
    #: Designs answered from the runtime cache rather than re-evaluated.
    cache_hits: int = 0
    #: Worker processes used (1 = the serial path).
    jobs: int = 1

    @property
    def ms_per_design(self) -> float:
        if self.evaluated == 0:
            return 0.0
        return 1000.0 * self.elapsed_seconds / self.evaluated

    def to_dict(self) -> dict:
        """JSON-ready counters (the CLI's ``--json`` and the HTTP service)."""
        return {
            "evaluated": self.evaluated,
            "failed": self.failed,
            "elapsed_seconds": self.elapsed_seconds,
            "ms_per_design": self.ms_per_design,
            "cache_hits": self.cache_hits,
            "jobs": self.jobs,
        }


def sample_space(
    evaluator: BatchEvaluator,
    space: CustomDesignSpace,
    count: int,
    seed: int = 0,
) -> Tuple[List[Tuple[CustomDesign, CostReport]], SampleStats]:
    """Evaluate a random sample of the space; returns results and stats.

    The sample itself is drawn up front from the seeded space generator, so
    the set of designs — and therefore the results — is independent of the
    evaluator's parallelism.
    """
    designs = list(space.sample(count, seed=seed))
    start = time.perf_counter()
    reports = evaluator.evaluate_designs(designs)
    elapsed = time.perf_counter() - start
    results: List[Tuple[CustomDesign, CostReport]] = [
        (design, report)
        for design, report in zip(designs, reports)
        if report is not None
    ]
    run = evaluator.last_run
    return results, SampleStats(
        evaluated=len(results),
        failed=len(designs) - len(results),
        elapsed_seconds=elapsed,
        cache_hits=run.cache_hits,
        jobs=run.jobs,
    )
