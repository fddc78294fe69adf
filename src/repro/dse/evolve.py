"""NSGA-II-style multi-objective evolution over the custom design space.

The paper's Use case 3 reads improvements off a Pareto front built from a
random sample; with evaluations around a millisecond, a *search* that
concentrates those evaluations near the front dominates a flat sample.
This module provides the evolutionary machinery the campaign engine
(:mod:`repro.dse.campaign`) steps generation by generation:

* ranking by the shared O(n log n) non-dominated sort and crowding
  distance of :mod:`repro.analysis.pareto` over the bi-objective
  (maximize throughput, minimize a cost metric) the paper optimizes, and
  :func:`distinct_front`, the one front every search result and campaign
  archive reports (each design once);
* **segment-preserving** variation operators: one-point crossover splices
  the parents' cut lists at a layer boundary and mutation nudges a single
  cut (:meth:`~repro.dse.space.CustomDesignSpace.mutate`), so children
  share almost every segment with their parents and search near them;
* an :class:`EvolutionEngine` whose entire state is three checkpointable
  values (generation number, scored population, ``random.Random`` state),
  which is what makes kill/resume bit-identical.

Everything here is deterministic for a seeded ``random.Random``: ties in
ranking break by list position, and the engine consumes randomness in a
fixed order that does not depend on evaluation timing or parallelism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.pareto import (
    ObjectiveVector,
    crowding_distance_vectors,
    non_dominated_sort,
    pareto_front,
)
from repro.core.cost.results import CostReport
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.utils.errors import ResourceError

#: A scored individual: the design point and its feasible cost report.
ScoredDesign = Tuple[CustomDesign, CostReport]


def design_key(design: CustomDesign) -> Tuple[int, Tuple[int, ...]]:
    """Identity of a design point (used for archive/population dedup)."""
    return (design.pipelined_layers, design.cuts)


def distinct_front(
    pairs: Iterable[ScoredDesign], cost_metric: str
) -> List[ScoredDesign]:
    """Throughput-vs-cost Pareto front of ``pairs``, each design once.

    A design's report is a function of the design, so only its first
    occurrence is kept; the front comes back by ascending cost, input
    order on ties (:func:`~repro.analysis.pareto.pareto_front`).
    """
    unique: Dict[Tuple[int, Tuple[int, ...]], ScoredDesign] = {}
    for pair in pairs:
        unique.setdefault(design_key(pair[0]), pair)
    return pareto_front(
        list(unique.values()),
        benefit=lambda pair: pair[1].throughput_fps,
        cost=lambda pair: pair[1].metric(cost_metric),
    )


def objective_vector(report: CostReport, cost_metric: str) -> ObjectiveVector:
    """The paper's bi-objective in minimization form.

    Throughput is negated so both components minimize; ``cost_metric`` is
    ``"buffers"`` or ``"access"`` as everywhere else in the DSE layer.
    """
    return (-report.throughput_fps, report.metric(cost_metric))


def crowding_distances(
    vectors: Sequence[ObjectiveVector], front: Sequence[int]
) -> Dict[int, float]:
    """NSGA-II crowding distance of each index in one front.

    A keyed view over the shared
    :func:`~repro.analysis.pareto.crowding_distance_vectors`; ``front``
    indices arrive in ascending order (how :func:`non_dominated_sort`
    emits them), so positional and global tie-breaks agree.
    """
    subset = [vectors[i] for i in front]
    return dict(zip(front, crowding_distance_vectors(subset)))


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of one evolutionary run (all serialized into campaign specs)."""

    population: int = 32
    generations: int = 10
    crossover_rate: float = 0.9
    mutation_rate: float = 0.9
    cost_metric: str = "buffers"

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


def crossover(
    space: CustomDesignSpace,
    first: CustomDesign,
    second: CustomDesign,
    rng: random.Random,
) -> CustomDesign:
    """Segment-preserving one-point crossover.

    The child keeps one parent's pipelined head and every cut of that
    parent below a random layer boundary, plus the other parent's cuts at
    or above it. Each contiguous run of inherited cuts reproduces the
    donor parent's segments exactly. Falls back to the first parent when
    no valid child emerges.
    """
    for _ in range(32):
        a, b = (first, second) if rng.random() < 0.5 else (second, first)
        point = rng.randrange(1, space.num_layers)
        head = a.pipelined_layers
        cuts = sorted(
            {cut for cut in a.cuts if cut < point}
            | {cut for cut in b.cuts if cut >= point}
        )
        cuts = tuple(cut for cut in cuts if cut > head)
        try:
            child = CustomDesign(
                pipelined_layers=head, cuts=cuts, num_layers=a.num_layers
            )
        except ResourceError:
            continue
        if not (space.ce_counts[0] <= child.ce_count <= space.ce_counts[-1]):
            # Merging two cut sets can land outside the space's CE-count
            # bounds; such a child could never have been sampled, so retry.
            continue
        return child
    return first


class EvolutionEngine:
    """One cell's NSGA-II loop, stepped a generation at a time.

    The engine never owns the evaluator: ``evaluate`` is any batch
    function mapping designs to ``Optional[CostReport]`` in request order
    (the campaign passes its cell's
    :meth:`~repro.runtime.BatchEvaluator.evaluate_designs`, so the
    fingerprint cache persists across generations). Each generation is
    submitted as **one** batched call, so the runtime answers repeated
    designs from its fingerprint cache and costs the rest together.
    Checkpointable state is exactly
    ``(generation, population, rng state)`` — restore those three and the
    remaining generations replay bit-identically.
    """

    def __init__(
        self,
        space: CustomDesignSpace,
        config: EvolutionConfig,
        evaluate: Callable[[List[CustomDesign]], List[Optional[CostReport]]],
        rng: random.Random,
    ) -> None:
        self.space = space
        self.config = config
        self._evaluate = evaluate
        self.rng = rng
        self.generation = 0
        self.population: List[ScoredDesign] = []
        #: Designs submitted to the evaluator by the latest round (feasible
        #: or not) — what campaign accounting charges the round with.
        self.last_submitted = 0

    # --- state -----------------------------------------------------------
    def restore(self, population: Sequence[ScoredDesign], generation: int) -> None:
        """Adopt checkpointed state (the rng is restored by the caller)."""
        self.population = list(population)
        self.generation = generation

    # --- lifecycle -------------------------------------------------------
    def initialize(self, seed: int) -> List[ScoredDesign]:
        """Evaluate the seeded initial sample; returns the feasible pairs.

        Sampling uses its own ``random.Random(seed)`` (inside
        :meth:`~repro.dse.space.CustomDesignSpace.sample`), so the initial
        population is the same whether or not the engine's evolution rng
        has been consumed — and matches ``random_search`` on the same seed.
        """
        designs = list(self.space.sample(self.config.population, seed=seed))
        scored = self._score(designs)
        self.population = self._truncate(scored, self.config.population)
        self.generation = 0
        return scored

    def step(self) -> List[ScoredDesign]:
        """Breed, evaluate, and select one generation.

        Returns the feasible offspring of this generation (for archive
        updates); ``population`` holds the survivors afterwards.
        """
        offspring_designs = self._breed()
        offspring = self._score(offspring_designs)
        pool = self.population + offspring
        self.population = self._truncate(pool, self.config.population)
        self.generation += 1
        return offspring

    # --- internals -------------------------------------------------------
    def _score(self, designs: List[CustomDesign]) -> List[ScoredDesign]:
        self.last_submitted = len(designs)
        reports = self._evaluate(designs)
        return [
            (design, report)
            for design, report in zip(designs, reports)
            if report is not None
        ]

    def _vectors(self, scored: Sequence[ScoredDesign]) -> List[ObjectiveVector]:
        return [
            objective_vector(report, self.config.cost_metric)
            for _design, report in scored
        ]

    def _breed(self) -> List[CustomDesign]:
        """The next generation's candidate designs (randomness in fixed order)."""
        if not self.population:
            # Everything so far was infeasible: fall back to fresh random
            # draws from the evolution rng (still deterministic).
            return [
                self.space.random_design(self.rng)
                for _ in range(self.config.population)
            ]
        vectors = self._vectors(self.population)
        fronts = non_dominated_sort(vectors)
        rank = {index: depth for depth, front in enumerate(fronts) for index in front}
        crowding: Dict[int, float] = {}
        for front in fronts:
            crowding.update(crowding_distances(vectors, front))

        def tournament() -> CustomDesign:
            i = self.rng.randrange(len(self.population))
            j = self.rng.randrange(len(self.population))
            # Lower rank wins; ties go to the less crowded, then the
            # earlier index — fully deterministic.
            winner = min(i, j, key=lambda k: (rank[k], -crowding[k], k))
            return self.population[winner][0]

        # Variation must respect the declared space: a cell restricted to
        # ce_counts [2, 3] must never evaluate (let alone archive) a 4-CE
        # design, and mutate can otherwise drift one step outside the set.
        allowed_ce = set(self.space.ce_counts)
        children: List[CustomDesign] = []
        for _ in range(self.config.population):
            parent = child = tournament()
            for _attempt in range(16):
                candidate = child if _attempt == 0 else tournament()
                if self.rng.random() < self.config.crossover_rate:
                    candidate = crossover(
                        self.space, candidate, tournament(), self.rng
                    )
                if self.rng.random() < self.config.mutation_rate:
                    candidate = self.space.mutate(candidate, self.rng)
                if candidate.ce_count in allowed_ce:
                    child = candidate
                    break
            else:
                child = parent  # in-space by induction from the seeded sample
            children.append(child)
        return children

    def _truncate(self, pool: List[ScoredDesign], size: int) -> List[ScoredDesign]:
        """NSGA-II environmental selection: fill by front, cut by crowding."""
        if len(pool) <= size:
            return list(pool)
        vectors = self._vectors(pool)
        survivors: List[int] = []
        for front in non_dominated_sort(vectors):
            if len(survivors) + len(front) <= size:
                survivors.extend(front)
                continue
            crowding = crowding_distances(vectors, front)
            remaining = sorted(front, key=lambda i: (-crowding[i], i))
            survivors.extend(remaining[: size - len(survivors)])
            break
        return [pool[i] for i in survivors]
