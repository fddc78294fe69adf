"""Unit and property tests for the integer math helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.mathutils import (
    balanced_partition,
    ceil_div,
    clamp,
    closest_factor,
    factor_pairs,
    factors,
    ordered_sum,
    prod,
    proportional_allocation,
)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_one_denominator(self):
        assert ceil_div(7, 1) == 7

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    def test_rejects_negative_numerator(self):
        with pytest.raises(ValueError):
            ceil_div(-1, 2)

    @given(st.integers(0, 10**9), st.integers(1, 10**6))
    def test_matches_math_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b) or ceil_div(a, b) == -(-a // b)

    @given(st.integers(0, 10**6), st.integers(1, 10**4))
    def test_bounds(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a or a == 0
        assert q * b >= a


class TestProd:
    def test_empty_is_one(self):
        assert prod([]) == 1

    def test_product(self):
        assert prod([2, 3, 4]) == 24

    @given(st.lists(st.integers(1, 100), max_size=8))
    def test_matches_math_prod(self, values):
        assert prod(values) == math.prod(values)


class TestClamp:
    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestFactors:
    def test_of_one(self):
        assert factors(1) == [1]

    def test_of_twelve(self):
        assert factors(12) == [1, 2, 3, 4, 6, 12]

    def test_of_prime(self):
        assert factors(13) == [1, 13]

    def test_square(self):
        assert factors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factors(0)

    @given(st.integers(1, 5000))
    def test_all_divide(self, n):
        fs = factors(n)
        assert all(n % f == 0 for f in fs)
        assert fs == sorted(fs)
        assert fs[0] == 1 and fs[-1] == n

    def test_factor_pairs_multiply_back(self):
        for a, b in factor_pairs(24):
            assert a * b == 24


class TestClosestFactor:
    def test_exact_hit(self):
        assert closest_factor(24, 6) == 6

    def test_between(self):
        assert closest_factor(24, 5) == 4  # ties go to the smaller

    def test_above_range(self):
        assert closest_factor(10, 100) == 10

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            closest_factor(10, 0)

    @given(st.integers(1, 2000), st.integers(1, 2000))
    def test_result_divides(self, n, target):
        f = closest_factor(n, target)
        assert n % f == 0


class TestProportionalAllocation:
    def test_even_split(self):
        assert proportional_allocation(9, [1, 1, 1]) == [3, 3, 3]

    def test_respects_minimum(self):
        allocation = proportional_allocation(10, [0.0, 100.0], minimum=2)
        assert allocation[0] >= 2
        assert sum(allocation) == 10

    def test_proportionality(self):
        allocation = proportional_allocation(100, [1.0, 3.0])
        assert allocation == [25, 75]

    def test_empty(self):
        assert proportional_allocation(10, []) == []

    def test_zero_weights_split_evenly(self):
        allocation = proportional_allocation(6, [0.0, 0.0, 0.0])
        assert sorted(allocation) == [2, 2, 2]

    def test_rejects_insufficient_total(self):
        with pytest.raises(ValueError):
            proportional_allocation(1, [1.0, 1.0], minimum=1)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            proportional_allocation(10, [1.0, -1.0])

    @given(
        st.integers(0, 10000),
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=10),
    )
    def test_sums_to_total(self, extra, weights):
        total = len(weights) + extra
        allocation = proportional_allocation(total, weights, minimum=1)
        assert sum(allocation) == total
        assert all(share >= 1 for share in allocation)


class TestOrderedSum:
    def test_rounds_after_every_addition(self):
        # A compensated sum keeps the 1.0 that 1e16 + 1.0 rounds away.
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_is_integer_zero(self):
        assert ordered_sum([]) == 0
        assert ordered_sum(iter(())) == 0

    @given(st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=40))
    def test_matches_a_left_to_right_loop(self, values):
        total = 0
        for value in values:
            total = total + value
        assert ordered_sum(values) == total
        assert ordered_sum(iter(values)) == total


def float_balanced_partition(loads, parts):
    """The float bisection :func:`balanced_partition` replaced: 64 halvings
    of the bottleneck, each checked by a greedy scan over every load. Kept
    as the oracle of the integer search."""
    n = len(loads)
    low = max(loads)
    high = float(sum(loads))

    def chunks_needed(limit):
        needed = 1
        current = 0.0
        for load in loads:
            if current + load > limit:
                needed += 1
                current = load
            else:
                current += load
        return needed

    for _ in range(64):
        mid = (low + high) / 2.0
        if chunks_needed(mid) <= parts:
            high = mid
        else:
            low = mid
    limit = high

    boundaries = []
    start = 0
    current = 0.0
    for index, load in enumerate(loads):
        if current + load > limit and index > start:
            boundaries.append((start, index))
            start = index
            current = load
        else:
            current += load
    boundaries.append((start, n))
    while len(boundaries) > parts:
        pair_loads = [
            sum(loads[boundaries[i][0] : boundaries[i + 1][1]])
            for i in range(len(boundaries) - 1)
        ]
        cheapest = min(range(len(pair_loads)), key=lambda i: pair_loads[i])
        begin = boundaries[cheapest][0]
        end = boundaries[cheapest + 1][1]
        boundaries[cheapest : cheapest + 2] = [(begin, end)]
    while len(boundaries) < parts:
        widest = max(range(len(boundaries)), key=lambda i: boundaries[i][1] - boundaries[i][0])
        begin, end = boundaries[widest]
        middle = begin + (end - begin) // 2
        boundaries[widest : widest + 1] = [(begin, middle), (middle, end)]
    return boundaries


class TestBalancedPartition:
    def test_single_part(self):
        assert balanced_partition([1, 2, 3], 1) == [(0, 3)]

    def test_each_item_its_own_part(self):
        assert balanced_partition([5, 1, 4], 3) == [(0, 1), (1, 2), (2, 3)]

    def test_balances_two_parts(self):
        ranges = balanced_partition([1, 1, 1, 3], 2)
        loads = [sum([1, 1, 1, 3][a:b]) for a, b in ranges]
        assert max(loads) == 3

    def test_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            balanced_partition([1], 2)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            balanced_partition([1, -1], 1)

    def test_rejects_fractional_loads(self):
        with pytest.raises(ValueError, match="integers"):
            balanced_partition([1.5, 2], 1)

    def test_all_zero_loads(self):
        assert balanced_partition([0, 0, 0, 0], 3) == [(0, 1), (1, 2), (2, 4)]

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=200)
    def test_partition_invariants(self, loads, data):
        parts = data.draw(st.integers(1, len(loads)))
        ranges = balanced_partition(loads, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(loads)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c
        assert all(b > a for a, b in ranges)

    @pytest.mark.fuzz
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**10)),
            min_size=1,
            max_size=160,
        ),
        st.data(),
    )
    def test_matches_the_float_bisection(self, loads, data):
        parts = data.draw(st.integers(1, min(len(loads), 12)))
        assert balanced_partition(loads, parts) == float_balanced_partition(loads, parts)

    def test_bottleneck_is_optimal(self):
        # Every cut of 12 loads into 3 chunks: none beats the returned one.
        loads = [7, 3, 9, 1, 1, 8, 2, 6, 4, 4, 5, 2]
        ranges = balanced_partition(loads, 3)
        best = min(
            max(sum(loads[:a]), sum(loads[a:b]), sum(loads[b:]))
            for a in range(1, len(loads) - 1)
            for b in range(a + 1, len(loads))
        )
        assert max(sum(loads[a:b]) for a, b in ranges) == best

    def test_bottleneck_not_catastrophic(self):
        # Max chunk load should be within 2x of the fractional lower bound.
        loads = [i % 7 + 1 for i in range(40)]
        for parts in (2, 4, 8):
            ranges = balanced_partition(loads, parts)
            chunk_loads = [sum(loads[a:b]) for a, b in ranges]
            lower_bound = max(max(loads), sum(loads) / parts)
            assert max(chunk_loads) <= 2.0 * lower_bound
