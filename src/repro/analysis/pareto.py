"""Pareto fronts for the trade-off plots (Figs. 5, 8, 10) and the searches.

The figures plot one benefit metric (throughput) against one cost metric
(off-chip accesses or buffers); the interesting designs sit on the
bottom-right frontier: more throughput, less cost.

:func:`non_dominated_sort` is the package's only dominance code: every
front (:func:`pareto_front` for the figures, search results and campaign
archives, :func:`hypervolume`, NSGA-II's selection in
:mod:`repro.dse.evolve`) goes through it. The module also carries the
front *quality* metrics the campaign engine reports: NSGA-II crowding
distance (how evenly a front covers the trade-off curve) and the 2-D
hypervolume indicator (how much benefit-cost area a front dominates —
the standard scalar for comparing multi-objective search runs), plus a
CSV export for downstream plotting.
"""

from __future__ import annotations

import bisect
import csv
import io
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.cost.results import CostReport

T = TypeVar("T")

#: Objective vector in minimization form.
ObjectiveVector = Tuple[float, ...]

#: Byte-denominated cost metrics, which the figures report in MiB.
_BYTE_METRICS = ("buffers", "buffer", "access", "accesses")


def non_dominated_sort(vectors: Sequence[ObjectiveVector]) -> List[List[int]]:
    """Non-dominated sort of two-objective vectors: index fronts, best first.

    Front 0 is the Pareto set of ``vectors``; each later front is the
    Pareto set of what remains. Within a front, indices keep input order,
    which is what makes downstream selection deterministic.

    One lexicographic sort, then a binary search per vector (Kung, Luccio
    & Preparata, J. ACM 1975; Jensen, IEEE TEVC 2003): O(n log n) against
    the pairwise sort's O(n^2), with the same fronts. In lexicographic
    order every vector that dominates ``v`` comes before it, and each
    front's last member has the front's smallest second objective, so
    ``v`` joins the first front whose last second objective exceeds
    ``v``'s; those values ascend front by front. An equal vector (which
    never dominates) joins its predecessor's front. Vectors are NaN-free.
    """
    fronts: List[List[int]] = []
    last_second: List[float] = []
    previous = None
    for index in sorted(range(len(vectors)), key=vectors.__getitem__):
        vector = vectors[index]
        if vector != previous:
            rank = bisect.bisect_right(last_second, vector[1])
            if rank == len(fronts):
                fronts.append([])
                last_second.append(vector[1])
            else:
                last_second[rank] = vector[1]
            previous = vector
        fronts[rank].append(index)
    return [sorted(front) for front in fronts]


def pareto_front(
    items: Sequence[T],
    benefit: Callable[[T], float],
    cost: Callable[[T], float],
) -> List[T]:
    """Items not dominated by any other (>= benefit and <= cost, one strict).

    Front 0 of :func:`non_dominated_sort` over ``(-benefit, cost)``, each
    computed once per item. Items with equal objectives all stay. Returned
    sorted by ascending cost, input order on ties.
    """
    if not items:
        return []
    costs = [cost(item) for item in items]
    vectors = [(-benefit(item), value) for item, value in zip(items, costs)]
    front = non_dominated_sort(vectors)[0]
    return [items[index] for index in sorted(front, key=costs.__getitem__)]


def report_front(
    reports: Sequence[CostReport], cost_metric: str = "buffers"
) -> List[CostReport]:
    """Throughput-vs-cost Pareto front over cost reports.

    ``cost_metric`` is ``"buffers"`` (Figs. 8, 10) or ``"access"`` (Fig. 5).
    """
    return pareto_front(
        reports,
        benefit=lambda report: report.throughput_fps,
        cost=lambda report: report.metric(cost_metric),
    )


def figure_cost(report: CostReport, cost_metric: str) -> float:
    """``report``'s ``cost_metric`` in the figures' unit (MiB for bytes)."""
    value = report.metric(cost_metric)
    if cost_metric in _BYTE_METRICS:
        value = value / 2**20
    return value


def scatter_points(
    reports: Sequence[CostReport], cost_metric: str = "buffers"
) -> List[Tuple[str, float, float]]:
    """(name, throughput FPS, cost) triples for plotting/tabulation."""
    return [
        (
            report.accelerator_name,
            report.throughput_fps,
            figure_cost(report, cost_metric),
        )
        for report in reports
    ]


def crowding_distance_vectors(vectors: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance over raw objective vectors (any axis count).

    Boundary points along any axis get infinity; interior points the sum
    of normalized neighbour gaps per axis. Larger means the point sits in
    a sparser region and is more worth keeping. Ties sort by index, so the
    result is deterministic. The evolutionary selection in
    :mod:`repro.dse.evolve` ranks by it.
    """
    n = len(vectors)
    if n <= 2:
        return [float("inf")] * n
    distances = [0.0] * n
    for axis in range(len(vectors[0])):
        values = [vector[axis] for vector in vectors]
        ordered = sorted(range(n), key=lambda i: (values[i], i))
        distances[ordered[0]] = float("inf")
        distances[ordered[-1]] = float("inf")
        span = values[ordered[-1]] - values[ordered[0]]
        if span <= 0.0:
            continue
        for position in range(1, n - 1):
            index = ordered[position]
            if distances[index] == float("inf"):
                continue
            gap = values[ordered[position + 1]] - values[ordered[position - 1]]
            distances[index] += gap / span
    return distances


def hypervolume(
    items: Sequence[T],
    benefit: Callable[[T], float],
    cost: Callable[[T], float],
    reference: Optional[Tuple[float, float]] = None,
) -> float:
    """2-D hypervolume: benefit-cost area dominated by the front of ``items``.

    ``reference`` is a ``(benefit, cost)`` point every counted item must
    dominate (at least its benefit, at most its cost); items that do not
    dominate it contribute nothing. Defaults to ``(0, max cost)``, under
    which the cheapest design anchors the area and the most expensive
    front point contributes only through its benefit. Deterministic for a
    fixed item set — the campaign engine uses it to compare search runs.
    """
    if not items:
        return 0.0
    front = pareto_front(items, benefit, cost)
    if reference is None:
        reference = (0.0, max(cost(item) for item in front))
    ref_benefit, ref_cost = reference
    area = 0.0
    previous_benefit = ref_benefit
    # pareto_front sorts by ascending cost, so benefits ascend too; each
    # point adds the rectangle between its benefit rise and the reference
    # cost line.
    for item in front:
        b, c = benefit(item), cost(item)
        if c > ref_cost or b <= previous_benefit:
            continue
        area += (ref_cost - c) * (b - previous_benefit)
        previous_benefit = b
    return area


#: Columns of :func:`front_to_csv`, in order.
FRONT_CSV_COLUMNS = [
    "label",
    "accelerator",
    "model",
    "board",
    "notation",
    "throughput_fps",
    "cost",
    "cost_metric",
]


def front_to_csv(
    entries: Sequence[Tuple[str, CostReport]], cost_metric: str = "buffers"
) -> str:
    """A labelled Pareto front as CSV (byte-for-byte stable for equal fronts).

    ``entries`` are ``(label, report)`` pairs — e.g. a campaign cell name
    plus each front design's report. Byte-denominated cost metrics are
    reported in MiB like the figures.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(FRONT_CSV_COLUMNS)
    for label, report in entries:
        writer.writerow(
            [
                label,
                report.accelerator_name,
                report.model_name,
                report.board_name,
                report.notation,
                repr(report.throughput_fps),
                repr(figure_cost(report, cost_metric)),
                cost_metric,
            ]
        )
    return buffer.getvalue()
