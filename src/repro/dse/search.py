"""Design-space search strategies on top of sampling.

The paper's Use case 3 evaluates a random sample and reads improvements off
the Pareto front; this module adds a local-search refinement (hill climbing
from the sampled front) since MCCM evaluations are cheap enough to spend on
neighbourhoods of promising designs, and runs the NSGA-II evolution of
:mod:`repro.dse.evolve` start to finish. :func:`run_search` picks one of the
three by its :data:`~repro.dse.STRATEGY_NAMES` name.

Every search evaluates through one shared
:class:`~repro.runtime.BatchEvaluator`, so the runtime's caches carry
across phases: designs ``guided_search``'s local refinements revisit
answer from the fingerprint cache outright.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.cost.results import CostReport
from repro.dse import STRATEGY_NAMES
from repro.dse.evolve import EvolutionConfig, EvolutionEngine, distinct_front
from repro.dse.objectives import Objective
from repro.dse.sampler import SampleStats, sample_space
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.runtime import BatchEvaluator


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one DSE run: ``front`` is the Pareto front of
    ``evaluated``, each design once."""

    evaluated: Sequence[Tuple[CustomDesign, CostReport]]
    front: Sequence[Tuple[CustomDesign, CostReport]]
    stats: SampleStats
    cost_metric: str = "buffers"

    def best_by(self, objective: Objective) -> Tuple[CustomDesign, CostReport]:
        if not self.evaluated:
            raise ValueError("search produced no feasible designs")
        return max(self.evaluated, key=lambda pair: objective.score(pair[1]))

    def to_dict(self, include_evaluated: bool = False) -> dict:
        """JSON-ready dump: the Pareto front (and optionally every design).

        Front entries pair the design's coordinates with the lossless
        :func:`~repro.core.cost.export.report_to_dict` report form, so each
        report round-trips back to a :class:`CostReport`.
        """
        from repro.core.cost.export import report_to_dict

        def pair_to_dict(pair: Tuple[CustomDesign, CostReport]) -> dict:
            design, report = pair
            return {
                "design": {
                    "pipelined_layers": design.pipelined_layers,
                    "cuts": list(design.cuts),
                    "ce_count": design.ce_count,
                },
                "report": report_to_dict(report),
            }

        payload = {
            "cost_metric": self.cost_metric,
            "stats": self.stats.to_dict(),
            "front": [pair_to_dict(pair) for pair in self.front],
        }
        if include_evaluated:
            payload["evaluated"] = [pair_to_dict(pair) for pair in self.evaluated]
        return payload


def random_search(
    evaluator: BatchEvaluator,
    space: CustomDesignSpace,
    samples: int,
    seed: int = 0,
    cost_metric: str = "buffers",
) -> SearchResult:
    """The Fig. 10 experiment: evaluate a random sample, keep the front."""
    evaluated, stats = sample_space(evaluator, space, samples, seed=seed)
    return SearchResult(
        evaluated=evaluated,
        front=distinct_front(evaluated, cost_metric),
        stats=stats,
        cost_metric=cost_metric,
    )


#: ``local_search`` defaults, named so budget estimates (campaign specs,
#: the service cap) stay in sync with the walk they bound.
LOCAL_SEARCH_ITERATIONS = 50
LOCAL_SEARCH_NEIGHBOURS = 8


def local_search(
    evaluator: BatchEvaluator,
    space: CustomDesignSpace,
    start: CustomDesign,
    objective: Objective,
    iterations: int = LOCAL_SEARCH_ITERATIONS,
    neighbours: int = LOCAL_SEARCH_NEIGHBOURS,
    seed: int = 0,
) -> Tuple[CustomDesign, Optional[CostReport]]:
    """Hill climbing from ``start`` under a scalarized objective.

    Each iteration evaluates a handful of mutated neighbours and moves to
    the best strict improvement; stops at a local optimum.
    """
    rng = random.Random(seed)
    current = start
    current_report = evaluator.evaluate_designs([current])[0]
    current_score = objective.score(current_report) if current_report else float("-inf")
    for _ in range(iterations):
        # Draw the whole neighbourhood first: mutation only consumes the
        # seeded rng, so the candidate set is identical whether the batch
        # below is evaluated serially or on a worker pool — and the
        # first-best tie-break over the ordered batch keeps the walk
        # deterministic for any jobs count.
        candidates = [space.mutate(current, rng) for _ in range(neighbours)]
        reports = evaluator.evaluate_designs(candidates)
        best_candidate = None
        best_report = None
        best_score = current_score
        for candidate, report in zip(candidates, reports):
            if report is None:
                continue
            score = objective.score(report)
            if score > best_score:
                best_candidate, best_report, best_score = candidate, report, score
        if best_candidate is None:
            break
        current, current_report, current_score = best_candidate, best_report, best_score
    return current, current_report


def guided_search(
    evaluator: BatchEvaluator,
    space: CustomDesignSpace,
    samples: int,
    objective: Objective,
    refine_top: int = 5,
    seed: int = 0,
) -> SearchResult:
    """Random sample followed by local refinement of the sampled front;
    the stats count both phases' designs, cache hits and time."""
    submitted_before = evaluator.totals.submitted
    hits_before = evaluator.totals.cache_hits
    start = time.perf_counter()
    base = random_search(evaluator, space, samples, seed=seed, cost_metric=objective.cost_metric)
    refined: List[Tuple[CustomDesign, CostReport]] = list(base.evaluated)
    climbs = _FeasibleTally(evaluator)
    for index, (design, _report) in enumerate(list(base.front)[:refine_top]):
        improved, report = local_search(
            climbs, space, design, objective, seed=seed + index + 1
        )
        if report is not None:
            refined.append((improved, report))
    evaluated = base.stats.evaluated + climbs.feasible
    stats = SampleStats(
        evaluated=evaluated,
        failed=evaluator.totals.submitted - submitted_before - evaluated,
        elapsed_seconds=time.perf_counter() - start,
        cache_hits=evaluator.totals.cache_hits - hits_before,
        jobs=base.stats.jobs,
    )
    return SearchResult(
        evaluated=refined,
        front=distinct_front(refined, objective.cost_metric),
        stats=stats,
        cost_metric=objective.cost_metric,
    )


class _FeasibleTally:
    """An evaluator's ``evaluate_designs`` that counts the feasible reports."""

    def __init__(self, evaluator: BatchEvaluator) -> None:
        self.evaluator = evaluator
        self.feasible = 0

    def evaluate_designs(self, designs: Sequence[CustomDesign]) -> List[Optional[CostReport]]:
        reports = self.evaluator.evaluate_designs(designs)
        self.feasible += sum(report is not None for report in reports)
        return reports


def evolve_search(
    evaluator: BatchEvaluator,
    space: CustomDesignSpace,
    config: EvolutionConfig,
    seed: int = 0,
) -> SearchResult:
    """NSGA-II evolution (:mod:`repro.dse.evolve`) run start to finish.

    The campaign engine steps the same :class:`EvolutionEngine` itself so
    it can checkpoint between generations; this is the uninterrupted
    one-call form the CLI and one-off searches use.
    """
    engine = EvolutionEngine(space, config, evaluator.evaluate_designs, random.Random(seed))
    hits_before = evaluator.totals.cache_hits
    start = time.perf_counter()
    evaluated: List[Tuple[CustomDesign, CostReport]] = list(engine.initialize(seed))
    submitted = engine.last_submitted
    for _ in range(config.generations):
        evaluated.extend(engine.step())
        submitted += engine.last_submitted
    elapsed = time.perf_counter() - start
    stats = SampleStats(
        evaluated=len(evaluated),
        failed=submitted - len(evaluated),
        elapsed_seconds=elapsed,
        cache_hits=evaluator.totals.cache_hits - hits_before,
        jobs=evaluator.last_run.jobs,
    )
    return SearchResult(
        evaluated=evaluated,
        front=distinct_front(evaluated, config.cost_metric),
        stats=stats,
        cost_metric=config.cost_metric,
    )


def run_search(
    name: str,
    runtime: BatchEvaluator,
    space: CustomDesignSpace,
    *,
    seed: int = 0,
    samples: int = 500,
    cost_metric: str = "buffers",
    refine_top: int = 5,
    evolution: Optional[EvolutionConfig] = None,
) -> SearchResult:
    """Run the strategy ``name`` (one of :data:`~repro.dse.STRATEGY_NAMES`).

    ``samples`` sizes the random and guided searches and ``refine_top`` the
    guided refinement; ``evolve`` runs ``evolution`` (by default an
    :class:`EvolutionConfig` for ``cost_metric``).
    """
    if name == "random":
        return random_search(runtime, space, samples, seed=seed, cost_metric=cost_metric)
    if name == "guided":
        objective = Objective(cost_metric=cost_metric)
        return guided_search(
            runtime, space, samples, objective, refine_top=refine_top, seed=seed
        )
    if name == "evolve":
        config = evolution or EvolutionConfig(cost_metric=cost_metric)
        return evolve_search(runtime, space, config, seed=seed)
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
