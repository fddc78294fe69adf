"""Design-space search strategies on top of sampling.

The paper's Use case 3 evaluates a random sample and reads improvements off
the Pareto front; this module adds a local-search refinement (hill climbing
from the sampled front) since MCCM evaluations are cheap enough to spend on
neighbourhoods of promising designs.

All strategies evaluate through one shared :class:`DesignEvaluator`, so
the runtime's caches carry across phases: designs ``guided_search``'s
local refinements revisit answer from the fingerprint cache outright.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Protocol, Sequence, Tuple

from repro.core.cost.results import CostReport
from repro.dse import STRATEGY_NAMES
from repro.dse.evolve import EvolutionConfig, EvolutionEngine, distinct_front
from repro.dse.objectives import Objective
from repro.dse.sampler import DesignEvaluator, SampleStats, sample_space
from repro.dse.space import CustomDesign, CustomDesignSpace


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
    evaluator: DesignEvaluator,
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
    evaluator: DesignEvaluator,
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
    current_report = evaluator.evaluate(current)
    current_score = objective.score(current_report) if current_report else float("-inf")
    for _ in range(iterations):
        # Draw the whole neighbourhood first: mutation only consumes the
        # seeded rng, so the candidate set is identical whether the batch
        # below is evaluated serially or on a worker pool — and the
        # first-best tie-break over the ordered batch keeps the walk
        # deterministic for any jobs count.
        candidates = [space.mutate(current, rng) for _ in range(neighbours)]
        reports = evaluator.evaluate_batch(candidates)
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
    evaluator: DesignEvaluator,
    space: CustomDesignSpace,
    samples: int,
    objective: Objective,
    refine_top: int = 5,
    seed: int = 0,
) -> SearchResult:
    """Random sample followed by local refinement of the sampled front."""
    base = random_search(evaluator, space, samples, seed=seed, cost_metric=objective.cost_metric)
    refined: List[Tuple[CustomDesign, CostReport]] = list(base.evaluated)
    for index, (design, _report) in enumerate(list(base.front)[:refine_top]):
        improved, report = local_search(
            evaluator, space, design, objective, seed=seed + index + 1
        )
        if report is not None:
            refined.append((improved, report))
    return SearchResult(
        evaluated=refined,
        front=distinct_front(refined, objective.cost_metric),
        stats=base.stats,
        cost_metric=objective.cost_metric,
    )


# --- the strategy protocol ---------------------------------------------------
# The campaign engine (and the CLI's ``dse --strategy``) treat every search
# as one interchangeable object; ``guided_search`` & friends above remain the
# plain-function surface, and these adapters make each one a Strategy.


class Strategy(Protocol):
    """What a pluggable search strategy provides.

    A strategy owns its tuning (sample counts, rates) but not the
    evaluation context: ``search`` receives the shared evaluator and
    space, and must be deterministic for a given ``seed`` regardless of
    the evaluator's parallelism.
    """

    name: ClassVar[str]

    @property
    def cost_metric(self) -> str: ...

    def search(
        self, evaluator: DesignEvaluator, space: CustomDesignSpace, *, seed: int = 0
    ) -> SearchResult: ...


@dataclass(frozen=True)
class RandomStrategy:
    """The Fig. 10 baseline: evaluate a flat random sample."""

    name: ClassVar[str] = "random"
    samples: int = 500
    cost_metric: str = "buffers"

    def search(
        self, evaluator: DesignEvaluator, space: CustomDesignSpace, *, seed: int = 0
    ) -> SearchResult:
        return random_search(
            evaluator, space, self.samples, seed=seed, cost_metric=self.cost_metric
        )


@dataclass(frozen=True)
class GuidedStrategy:
    """Random sample plus hill-climbing refinement of the sampled front."""

    name: ClassVar[str] = "guided"
    samples: int = 500
    cost_metric: str = "buffers"
    refine_top: int = 5

    def search(
        self, evaluator: DesignEvaluator, space: CustomDesignSpace, *, seed: int = 0
    ) -> SearchResult:
        return guided_search(
            evaluator,
            space,
            self.samples,
            Objective(cost_metric=self.cost_metric),
            refine_top=self.refine_top,
            seed=seed,
        )


@dataclass(frozen=True)
class EvolutionStrategy:
    """NSGA-II evolution (:mod:`repro.dse.evolve`) run start to finish.

    The campaign engine steps the same :class:`EvolutionEngine` itself so
    it can checkpoint between generations; this adapter is the
    uninterrupted one-call form the CLI and one-off searches use.
    """

    name: ClassVar[str] = "evolve"
    config: EvolutionConfig = field(default_factory=EvolutionConfig)

    @property
    def cost_metric(self) -> str:
        return self.config.cost_metric

    def search(
        self, evaluator: DesignEvaluator, space: CustomDesignSpace, *, seed: int = 0
    ) -> SearchResult:
        engine = EvolutionEngine(
            space, self.config, evaluator.evaluate_batch, random.Random(seed)
        )
        hits_before = evaluator.runtime.totals.cache_hits
        start = time.perf_counter()
        evaluated: List[Tuple[CustomDesign, CostReport]] = list(engine.initialize(seed))
        submitted = engine.last_submitted
        for _ in range(self.config.generations):
            evaluated.extend(engine.step())
            submitted += engine.last_submitted
        elapsed = time.perf_counter() - start
        stats = SampleStats(
            evaluated=len(evaluated),
            failed=submitted - len(evaluated),
            elapsed_seconds=elapsed,
            cache_hits=evaluator.runtime.totals.cache_hits - hits_before,
            jobs=evaluator.runtime.last_run.jobs,
        )
        return SearchResult(
            evaluated=evaluated,
            front=distinct_front(evaluated, self.cost_metric),
            stats=stats,
            cost_metric=self.cost_metric,
        )


def make_strategy(
    name: str,
    *,
    samples: int = 500,
    cost_metric: str = "buffers",
    refine_top: int = 5,
    evolution: Optional[EvolutionConfig] = None,
) -> Strategy:
    """Build a :class:`Strategy` by name with the relevant knobs applied."""
    key = name.strip().lower()
    if key == "random":
        return RandomStrategy(samples=samples, cost_metric=cost_metric)
    if key == "guided":
        return GuidedStrategy(
            samples=samples, cost_metric=cost_metric, refine_top=refine_top
        )
    if key == "evolve":
        config = evolution or EvolutionConfig(cost_metric=cost_metric)
        return EvolutionStrategy(config=config)
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
