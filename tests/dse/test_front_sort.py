"""The two-objective front sort against the pairwise code it replaced.

:func:`~repro.analysis.pareto.non_dominated_sort` sorts once and
binary-searches each vector's front; the reference below is the pairwise
sort verbatim. Both must emit the same fronts, each in ascending index
order, because NSGA-II's survivor selection and the campaign checkpoints
depend on it.

Every other front is built on that sort, so each caller is checked here
too: :func:`~repro.analysis.pareto.pareto_front` against the pairwise
sort's front 0, and :class:`~repro.dse.campaign.ParetoArchive` against a
verbatim copy of the per-add archive (with its pairwise ``dominates``)
that it replaced.
"""

import random
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.pareto import ObjectiveVector, non_dominated_sort, pareto_front
from repro.core.cost.export import report_to_dict
from repro.core.cost.results import CostReport
from repro.dse.campaign import ParetoArchive
from repro.dse.evolve import ScoredDesign, design_key
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.runtime import BatchEvaluator


def _dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Pareto dominance for minimization vectors (<= all, < at least one)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pairwise_sort(vectors: Sequence[ObjectiveVector]) -> List[List[int]]:
    """Fast non-dominated sort: indices grouped into fronts, best first.

    Front 0 is the Pareto set of ``vectors``; each later front is the
    Pareto set of what remains. Within a front, indices keep input order,
    which is what makes downstream selection deterministic.
    """
    n = len(vectors)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _dominates(vectors[i], vectors[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif _dominates(vectors[j], vectors[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: List[List[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        following: List[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    following.append(j)
        current = sorted(following)
    return fronts


#: A small pool makes ties in one objective and whole duplicates common;
#: -0.0 and 0.0 compare equal, as they do in ``_dominates``.
POOL = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.5]

VALUES = st.one_of(st.sampled_from(POOL), st.floats(allow_nan=False))


#: Ties in one objective, whole duplicates, signed zeros and infinities.
CASES = [
    [],
    [(1.0, 1.0)],
    [(1.0, 1.0), (1.0, 1.0)],
    [(-0.0, 1.0), (0.0, 1.0)],
    [(0.0, -0.0), (0.0, 0.0), (-1.0, 0.0)],
    [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 3.0)],
    [(2.0, 1.0), (1.0, 1.0), (3.0, 1.0), (1.0, 1.0)],
    [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
    [(float("-inf"), 5.0), (0.0, float("inf")), (0.0, float("inf"))],
]


def random_sets():
    """Seeded two-float sets of up to 128 entries, half drawn from POOL."""
    rng = random.Random(20250)
    for size in (2, 3, 5, 17, 64, 127, 128):
        for _ in range(20):
            draw = (
                (lambda: rng.choice(POOL)) if rng.random() < 0.5 else rng.random
            )
            yield [(draw(), draw()) for _ in range(size)]


@pytest.mark.parametrize("vectors", CASES)
def test_ties_and_duplicates(vectors):
    assert non_dominated_sort(vectors) == pairwise_sort(vectors)


def test_random_sets_up_to_128_vectors():
    for vectors in random_sets():
        assert non_dominated_sort(vectors) == pairwise_sort(vectors), vectors


@pytest.mark.fuzz
@given(st.lists(st.tuples(VALUES, VALUES), max_size=128))
def test_matches_pairwise_sort(vectors):
    assert non_dominated_sort(vectors) == pairwise_sort(vectors)


# --- pareto_front: the pairwise sort's front 0, by ascending cost -------------


def pairwise_front(points: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of the (benefit, cost) points on the pairwise sort's front 0,
    by ascending cost with input order on ties."""
    fronts = pairwise_sort([(-benefit, cost) for benefit, cost in points])
    return sorted(fronts[0], key=lambda i: points[i][1]) if fronts else []


def kernel_front(points: Sequence[Tuple[float, float]]) -> List[int]:
    """The same front through :func:`pareto_front`, as indices (so equal
    points, and -0.0 against 0.0, are told apart by position)."""
    return pareto_front(
        list(range(len(points))),
        benefit=lambda i: points[i][0],
        cost=lambda i: points[i][1],
    )


@pytest.mark.parametrize("points", CASES)
def test_pareto_front_ties_and_duplicates(points):
    assert kernel_front(points) == pairwise_front(points)


def test_pareto_front_random_sets():
    for points in random_sets():
        assert kernel_front(points) == pairwise_front(points), points


@pytest.mark.fuzz
@given(st.lists(st.tuples(VALUES, VALUES), max_size=128))
def test_pareto_front_matches_pairwise_front(points):
    assert kernel_front(points) == pairwise_front(points)


def test_equal_items_both_stay_on_the_front(pool):
    # Dominance is irreflexive: a report never dominates its equal.
    for _design, report in pool:
        front = pareto_front(
            [report, report],
            benefit=lambda r: r.throughput_fps,
            cost=lambda r: r.metric("buffers"),
        )
        assert front == [report, report]


def test_pareto_front_reads_each_objective_once():
    calls: Counter = Counter()

    def benefit(point):
        calls["benefit"] += 1
        return point[0]

    def cost(point):
        calls["cost"] += 1
        return point[1]

    points = [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (2.0, 1.0)]
    assert pareto_front(points, benefit, cost) == [(2.0, 1.0), (2.0, 1.0)]
    assert calls == {"benefit": 4, "cost": 4}


# --- ParetoArchive: one kernel update against the per-add archive -------------


def dominates(
    challenger: CostReport, incumbent: CostReport, cost_metric: str = "buffers"
) -> bool:
    """Whether ``challenger`` Pareto-dominates ``incumbent``."""
    better_benefit = challenger.throughput_fps >= incumbent.throughput_fps
    better_cost = challenger.metric(cost_metric) <= incumbent.metric(cost_metric)
    strictly = (
        challenger.throughput_fps > incumbent.throughput_fps
        or challenger.metric(cost_metric) < incumbent.metric(cost_metric)
    )
    return better_benefit and better_cost and strictly


class ReferenceArchive:
    """The per-add archive the kernel update replaced, verbatim.

    Updates are order-deterministic: a candidate enters unless an archived
    entry dominates it (or it is the same design), and evicts the entries
    it dominates. The exported front is canonically sorted.
    """

    def __init__(
        self, cost_metric: str = "buffers", entries: Sequence[ScoredDesign] = ()
    ) -> None:
        self.cost_metric = cost_metric
        self._entries: List[ScoredDesign] = []
        self._keys: set = set()
        for design, report in entries:
            self.add(design, report)

    def add(self, design: CustomDesign, report: CostReport) -> bool:
        """Offer one pair; returns whether it entered the archive."""
        key = design_key(design)
        if key in self._keys:
            return False
        survivors: List[ScoredDesign] = []
        evicted: List = []
        for other_design, other_report in self._entries:
            if dominates(other_report, report, self.cost_metric):
                return False  # dominated by an archived entry
            if dominates(report, other_report, self.cost_metric):
                evicted.append(design_key(other_design))
                continue  # the candidate evicts this entry
            survivors.append((other_design, other_report))
        survivors.append((design, report))
        self._entries = survivors
        self._keys.difference_update(evicted)
        self._keys.add(key)
        return True

    def update(self, pairs: Sequence[ScoredDesign]) -> int:
        """Offer many pairs in order; returns how many entered."""
        return sum(1 for design, report in pairs if self.add(design, report))

    def front(self) -> List[ScoredDesign]:
        """The archive in canonical order: ascending cost, then throughput,
        then notation (full determinism even under objective ties)."""
        return sorted(
            self._entries,
            key=lambda pair: (
                pair[1].metric(self.cost_metric),
                -pair[1].throughput_fps,
                pair[1].notation,
                design_key(pair[0]),
            ),
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"design": design.to_dict(), "report": report_to_dict(report)}
            for design, report in self.front()
        ]


@pytest.fixture(scope="module")
def pool(roomy_board):
    """Distinct tiny-CNN designs with their reports (a design's report is a
    function of the design, so a draw never gives one key two reports)."""
    from tests.conftest import build_tiny_cnn

    with BatchEvaluator(build_tiny_cnn(), roomy_board) as evaluator:
        space = CustomDesignSpace(
            evaluator.builder.conv_specs, ce_counts=(2, 3, 4)
        )
        designs = list(space.sample(24, seed=11))
        reports = evaluator.evaluate_designs(designs)
    return [pair for pair in zip(designs, reports) if pair[1] is not None]


def assert_same_archive(batches, cost_metric: str) -> None:
    reference = ReferenceArchive(cost_metric)
    archive = ParetoArchive(cost_metric)
    for batch in batches:
        reference.update(batch)
        assert archive.update(batch) is None
    assert archive.to_dicts() == reference.to_dicts()


def split(pairs: List[ScoredDesign], cuts: Sequence[int]) -> List[List[ScoredDesign]]:
    bounds = [0, *sorted(cuts), len(pairs)]
    return [pairs[start:stop] for start, stop in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("cost_metric", ["buffers", "access"])
def test_archive_random_offer_orders_and_splits(pool, cost_metric):
    rng = random.Random(7)
    for _ in range(40):
        offers = [rng.choice(pool) for _ in range(rng.randrange(1, 3 * len(pool)))]
        cuts = [rng.randrange(len(offers) + 1) for _ in range(rng.randrange(4))]
        assert_same_archive(split(offers, cuts), cost_metric)


@pytest.mark.parametrize("cost_metric", ["buffers", "access"])
def test_archive_evicted_designs_offered_again(pool, cost_metric):
    # One at a time in ascending throughput, so later designs evict earlier
    # ones; then the whole pool again, evicted designs included.
    ordered = sorted(pool, key=lambda pair: pair[1].throughput_fps)
    assert_same_archive([[pair] for pair in ordered] + [ordered], cost_metric)
    assert_same_archive([ordered, ordered[::-1], ordered], cost_metric)


def test_archive_repeated_keys(pool):
    twice = [pair for pair in pool for _ in range(2)]
    assert_same_archive([twice], "buffers")
    assert_same_archive([[pair] for pair in twice], "buffers")
    assert_same_archive([pool[:5], pool[:5] + pool[5:10]], "buffers")


def test_archive_distinct_designs_with_equal_objectives(pool):
    # The second half's designs take the first half's reports: same
    # objectives, new keys (and still one report per key).
    half = len(pool) // 2
    own = pool[:half]
    borrowed = [(design, report) for (design, _), (_, report) in zip(pool[half:], own)]
    offers = own + borrowed
    assert_same_archive([offers], "buffers")
    assert_same_archive([borrowed, own[::-1]], "access")
    on_front = {
        design_key(design)
        for design, _report in ParetoArchive("buffers", entries=offers).front()
    }
    assert on_front
    for (design, _), (twin, _) in zip(own, borrowed):
        assert (design_key(design) in on_front) == (design_key(twin) in on_front)


def test_archive_from_entries_matches_reference(pool):
    for cost_metric in ("buffers", "access"):
        assert (
            ParetoArchive(cost_metric, entries=pool).to_dicts()
            == ReferenceArchive(cost_metric, entries=pool).to_dicts()
        )


@pytest.mark.fuzz
@given(data=st.data())
def test_archive_matches_reference(pool, data):
    indices = st.integers(0, len(pool) - 1)
    # A design takes some report of the pool: two designs that take the same
    # one are distinct designs with equal objectives.
    report_of = data.draw(st.lists(indices, min_size=len(pool), max_size=len(pool)))
    offers = [
        (pool[i][0], pool[report_of[i]][1])
        for i in data.draw(st.lists(indices, max_size=3 * len(pool)))
    ]
    cuts = data.draw(st.lists(st.integers(0, len(offers)), max_size=4))
    cost_metric = data.draw(st.sampled_from(["buffers", "access"]))
    assert_same_archive(split(offers, cuts), cost_metric)
