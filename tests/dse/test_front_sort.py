"""The two-objective front sort against the pairwise sort it replaced.

:func:`~repro.dse.evolve.non_dominated_sort` sorts once and binary-searches
each vector's front; the reference below is the pairwise sort verbatim.
Both must emit the same fronts, each in ascending index order, because
NSGA-II's survivor selection and the campaign checkpoints depend on it.
"""

import random
from typing import List, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dse.evolve import ObjectiveVector, non_dominated_sort


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


@pytest.mark.parametrize(
    "vectors",
    [
        [],
        [(1.0, 1.0)],
        [(1.0, 1.0), (1.0, 1.0)],
        [(-0.0, 1.0), (0.0, 1.0)],
        [(0.0, -0.0), (0.0, 0.0), (-1.0, 0.0)],
        [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0), (1.0, 3.0)],
        [(2.0, 1.0), (1.0, 1.0), (3.0, 1.0), (1.0, 1.0)],
        [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
        [(float("-inf"), 5.0), (0.0, float("inf")), (0.0, float("inf"))],
    ],
)
def test_ties_and_duplicates(vectors):
    assert non_dominated_sort(vectors) == pairwise_sort(vectors)


def test_random_sets_up_to_128_vectors():
    rng = random.Random(20250)
    for size in (2, 3, 5, 17, 64, 127, 128):
        for _ in range(20):
            draw = (
                (lambda: rng.choice(POOL)) if rng.random() < 0.5 else rng.random
            )
            vectors = [(draw(), draw()) for _ in range(size)]
            assert non_dominated_sort(vectors) == pairwise_sort(vectors), vectors


@pytest.mark.fuzz
@given(st.lists(st.tuples(VALUES, VALUES), max_size=128))
def test_matches_pairwise_sort(vectors):
    assert non_dominated_sort(vectors) == pairwise_sort(vectors)
