"""Integer math helpers used across the cost model.

The analytical equations in the paper are dominated by integer ceilings
(Eq. 1), factorizations (parallelism strategies must divide or nearly divide
layer dimensions), and proportional resource splits (PEs assigned to each CE
proportional to its workload, Section V-A3). This module collects those
primitives so that every cost component uses identical, well-tested
arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, ``ceil(numerator / denominator)``.

    Raises :class:`ValueError` on non-positive denominators because every
    use in the model divides by a count (PEs, parallelism degree, tile size)
    that must be at least 1.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


def prod(values: Iterable[int]) -> int:
    """Product of an iterable of integers; empty product is 1."""
    result = 1
    for value in values:
        result *= value
    return result


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, rounding after every addition.

    This is what ``sum()`` does up to Python 3.11. From 3.12 ``sum()`` adds
    floats with compensated summation, so its result can differ in the last
    bit from one interpreter to the next; every float total a report holds
    is added here instead, so reports read the same on each of them.
    """
    total = 0
    for value in values:
        total += value
    return total


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty range: low={low} > high={high}")
    return max(low, min(high, value))


@lru_cache(maxsize=16384)
def _factors_cached(n: int) -> Tuple[int, ...]:
    """Memoized divisor enumeration behind :func:`factors`.

    Layer dimensions recur constantly across parallelism searches (every
    CNN reuses a handful of channel/spatial extents), so the O(sqrt(n))
    trial division is paid once per distinct extent per process.
    """
    small: List[int] = []
    large: List[int] = []
    limit = int(math.isqrt(n))
    for candidate in range(1, limit + 1):
        if n % candidate == 0:
            small.append(candidate)
            other = n // candidate
            if other != candidate:
                large.append(other)
    return tuple(small + large[::-1])


def factors(n: int) -> List[int]:
    """All positive divisors of ``n`` in ascending order."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return list(_factors_cached(n))


def factor_pairs(n: int) -> List[Tuple[int, int]]:
    """All ordered pairs ``(a, b)`` with ``a * b == n``."""
    return [(f, n // f) for f in factors(n)]


def closest_factor(n: int, target: int) -> int:
    """The divisor of ``n`` closest to ``target`` (ties go to the smaller).

    Used when fitting a parallelism degree to a layer dimension: a degree
    that divides the dimension exactly avoids ragged-edge PE idling.
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    best = 1
    best_distance = abs(target - 1)
    for f in factors(n):
        distance = abs(f - target)
        if distance < best_distance:
            best = f
            best_distance = distance
    return best


def proportional_allocation(total: int, weights: Sequence[float], minimum: int = 1) -> List[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Every share receives at least ``minimum`` units; the remainder after
    flooring is handed out by largest fractional part (Hamilton's method),
    which keeps the allocation as close to proportional as integers allow.
    This mirrors the paper's PE distribution rule: "The number of PEs in a CE
    ... is proportional to the CE workload" (Section V-A3).
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not weights:
        return []
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    count = len(weights)
    if total < minimum * count:
        raise ValueError(
            f"cannot allocate {total} units to {count} shares with minimum {minimum}"
        )
    weight_sum = float(sum(weights))
    if weight_sum == 0.0:
        # Degenerate case: split as evenly as possible.
        weights = [1.0] * count
        weight_sum = float(count)
    distributable = total - minimum * count
    raw = [distributable * (w / weight_sum) for w in weights]
    allocation = [minimum + int(r) for r in raw]
    remainders = sorted(
        range(count), key=lambda i: (raw[i] - int(raw[i]), weights[i]), reverse=True
    )
    leftover = total - sum(allocation)
    for i in range(leftover):
        allocation[remainders[i % count]] += 1
    return allocation


def balanced_partition(loads: Sequence[int], parts: int) -> List[Tuple[int, int]]:
    """Partition a sequence of non-negative integer loads into contiguous chunks.

    Returns ``parts`` half-open index ranges ``(start, end)`` covering
    ``range(len(loads))`` whose maximum chunk load is minimized. This is the
    classic linear-partition problem, solved exactly via binary search over
    the integer bottleneck value with a greedy feasibility check. It is the
    core of the Segmented architecture's segmentation heuristic: segments
    should have near-equal compute so the coarse-grained pipeline is
    balanced.

    The greedy runs on prefix sums: from each chunk's start, one ``bisect``
    finds the furthest end whose load stays within the limit, so a check
    costs one search per chunk instead of one step per load. Each check
    also narrows the search past its midpoint: a feasible limit can drop
    to the largest chunk the greedy made, and an infeasible one rises to
    the smallest load at which one of its chunks would grow (no limit
    below that changes a cut).
    """
    n = len(loads)
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if n < parts:
        raise ValueError(f"cannot split {n} items into {parts} non-empty parts")
    if any(load < 0 for load in loads):
        raise ValueError("loads must be non-negative")
    prefix = [0, *accumulate(loads)]
    if not isinstance(prefix[-1], int):
        raise ValueError("loads must be integers")

    def greedy_ends(limit: int) -> List[int]:
        """Chunk ends of the greedy under ``limit``, stopping past ``parts``."""
        ends: List[int] = []
        end = 0
        while end < n and len(ends) <= parts:
            end = bisect_right(prefix, prefix[end] + limit) - 1
            ends.append(end)
        return ends

    # The smallest limit the greedy meets with at most `parts` chunks.
    low = max(loads)
    high = prefix[-1]
    while low < high:
        ends = greedy_ends((low + high) // 2)
        chunks = zip([0, *ends], ends)
        if len(ends) <= parts:
            high = max(prefix[end] - prefix[start] for start, end in chunks)
        else:
            low = min(prefix[end + 1] - prefix[start] for start, end in chunks if end < n)
    ends = greedy_ends(low)
    boundaries = list(zip([0, *ends], ends))

    # The greedy may use fewer chunks than allowed; split the chunks with the
    # most items until we have exactly `parts` non-empty ranges.
    while len(boundaries) < parts:
        widest = max(range(len(boundaries)), key=lambda i: boundaries[i][1] - boundaries[i][0])
        begin, end = boundaries[widest]
        if end - begin < 2:
            raise ValueError(f"cannot split {n} items into {parts} non-empty parts")
        middle = begin + (end - begin) // 2
        boundaries[widest : widest + 1] = [(begin, middle), (middle, end)]
    return boundaries
