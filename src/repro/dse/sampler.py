"""Design-space sampling and evaluation (the Fig. 10 experiment driver).

Couples a :class:`~repro.dse.space.CustomDesignSpace` with the
:class:`~repro.runtime.BatchEvaluator` runtime: evaluations are
fingerprint-memoized (so local search revisiting a neighbourhood pays
nothing), optionally persisted to disk, and — when the runtime decides
to fork — fanned out over a worker pool without changing which designs
get sampled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.cnn.graph import CNNGraph
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.results import CostReport
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, Precision
from repro.runtime import BatchEvaluator, ProgressCallback


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


class DesignEvaluator:
    """Builds and costs custom designs through the cached runtime.

    A thin DSE-facing veneer over :class:`~repro.runtime.BatchEvaluator`:
    it lowers :class:`CustomDesign` points to architecture specs and keeps
    the historical one-design-at-a-time interface alongside the batched
    one the searchers now use.
    """

    def __init__(
        self,
        graph: CNNGraph,
        board: FPGABoard,
        precision: Precision = DEFAULT_PRECISION,
        *,
        jobs: Union[int, str] = "auto",
        cache_dir: Optional[Union[str, Path]] = None,
        runtime: Optional[BatchEvaluator] = None,
    ) -> None:
        self._runtime = runtime or BatchEvaluator(
            graph, board, precision, jobs=jobs, cache_dir=cache_dir
        )

    @property
    def builder(self) -> MultipleCEBuilder:
        return self._runtime.builder

    @property
    def runtime(self) -> BatchEvaluator:
        return self._runtime

    def evaluate(self, design: CustomDesign) -> Optional[CostReport]:
        """Cost one design; ``None`` when the design is infeasible."""
        return self._runtime.evaluate_spec(design.to_spec())

    def evaluate_batch(
        self,
        designs: List[CustomDesign],
        progress: Optional[ProgressCallback] = None,
    ) -> List[Optional[CostReport]]:
        """Cost many designs at once.

        Every searcher generation lands here in one call, so the runtime
        can answer repeats from its caches and fan the misses out over
        the worker pool; reports are identical either way.
        """
        return self._runtime.evaluate_designs(designs, progress=progress)

    def close(self) -> None:
        self._runtime.close()

    def __enter__(self) -> "DesignEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def sample_space(
    evaluator: DesignEvaluator,
    space: CustomDesignSpace,
    count: int,
    seed: int = 0,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[List[Tuple[CustomDesign, CostReport]], SampleStats]:
    """Evaluate a random sample of the space; returns results and stats.

    The sample itself is drawn up front from the seeded space generator, so
    the set of designs — and therefore the results — is independent of the
    evaluator's parallelism.
    """
    designs = list(space.sample(count, seed=seed))
    start = time.perf_counter()
    reports = evaluator.evaluate_batch(designs, progress=progress)
    elapsed = time.perf_counter() - start
    results: List[Tuple[CustomDesign, CostReport]] = [
        (design, report)
        for design, report in zip(designs, reports)
        if report is not None
    ]
    run = evaluator.runtime.last_run
    return results, SampleStats(
        evaluated=len(results),
        failed=len(designs) - len(results),
        elapsed_seconds=elapsed,
        cache_hits=run.cache_hits,
        jobs=run.jobs,
    )
