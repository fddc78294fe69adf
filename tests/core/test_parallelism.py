"""Tests for parallelism strategies and the Eq. 1 latency primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.graph import ConvSpec
from repro.cnn.layers import LayerKind
from repro.cnn.zoo import available_models, load_model
from repro.core.parallelism import (
    Dimension,
    ParallelismStrategy,
    _divisor_candidates,
    _search_cached,
    choose_parallelism,
    dimension_extent,
    layer_cycles,
    layer_utilization,
)
from repro.utils.errors import ResourceError
from repro.utils.mathutils import factors


def make_spec(k=16, c=8, h=8, w=8, r=3, s=3, index=0):
    return ConvSpec(
        index=index,
        name=f"L{index}",
        kind=LayerKind.STANDARD_CONV,
        filters=k,
        channels=c,
        out_height=h,
        out_width=w,
        kernel_height=r,
        kernel_width=s,
        ifm_elements=h * w * c,
        ofm_elements=h * w * k,
        weight_count=k * c * r * s,
        macs=k * c * h * w * r * s,
    )


conv_spec_strategy = st.builds(
    make_spec,
    k=st.integers(1, 64),
    c=st.integers(1, 32),
    h=st.integers(1, 32),
    w=st.integers(1, 32),
    r=st.sampled_from([1, 3, 5]),
    s=st.sampled_from([1, 3, 5]),
)


class TestStrategy:
    def test_default_degrees_are_one(self):
        strategy = ParallelismStrategy()
        for dimension in Dimension:
            assert strategy.degree(dimension) == 1
        assert strategy.total_parallelism == 1

    def test_from_dict(self):
        strategy = ParallelismStrategy.from_dict(
            {Dimension.FILTERS: 4, Dimension.OUT_WIDTH: 2}
        )
        assert strategy.degree(Dimension.FILTERS) == 4
        assert strategy.total_parallelism == 8
        assert strategy.dimensionality == 2

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ResourceError):
            ParallelismStrategy(degrees=((Dimension.FILTERS, 0),))

    def test_rejects_duplicate_dimension(self):
        with pytest.raises(ResourceError):
            ParallelismStrategy(
                degrees=((Dimension.FILTERS, 2), (Dimension.FILTERS, 4))
            )

    def test_describe(self):
        strategy = ParallelismStrategy.from_dict({Dimension.FILTERS: 4})
        assert "K=4" in strategy.describe()
        assert ParallelismStrategy().describe() == "scalar"


class TestLayerCycles:
    def test_scalar_strategy_counts_all_macs(self):
        spec = make_spec()
        assert layer_cycles(spec, ParallelismStrategy()) == spec.macs

    def test_perfect_parallelism_divides(self):
        spec = make_spec(k=16, h=8, w=8)
        strategy = ParallelismStrategy.from_dict(
            {Dimension.FILTERS: 4, Dimension.OUT_HEIGHT: 2, Dimension.OUT_WIDTH: 2}
        )
        assert layer_cycles(spec, strategy) == spec.macs // 16

    def test_ragged_edge_costs_extra(self):
        # 6 filters on a 4-wide filter unroll: ceil(6/4)=2 passes -> same
        # cycles as 8 filters would take (the Fig. 4c example).
        spec6 = make_spec(k=6)
        spec8 = make_spec(k=8)
        strategy = ParallelismStrategy.from_dict({Dimension.FILTERS: 4})
        assert layer_cycles(spec6, strategy) == layer_cycles(spec8, strategy)

    def test_dimension_extent(self):
        spec = make_spec(k=10, c=20, h=30, w=40, r=3, s=5)
        assert dimension_extent(spec, Dimension.FILTERS) == 10
        assert dimension_extent(spec, Dimension.CHANNELS) == 20
        assert dimension_extent(spec, Dimension.OUT_HEIGHT) == 30
        assert dimension_extent(spec, Dimension.OUT_WIDTH) == 40
        assert dimension_extent(spec, Dimension.KERNEL_HEIGHT) == 3
        assert dimension_extent(spec, Dimension.KERNEL_WIDTH) == 5

    @given(conv_spec_strategy, st.integers(1, 256))
    @settings(max_examples=150)
    def test_cycles_lower_bounded_by_perfect_speedup(self, spec, budget):
        strategy = choose_parallelism(budget, [spec])
        cycles = layer_cycles(spec, strategy)
        # Work conservation: parallelism P can at best divide MACs by P.
        assert cycles * strategy.total_parallelism >= spec.macs
        assert cycles <= spec.macs  # never slower than scalar


class TestUtilization:
    def test_perfect_utilization(self):
        spec = make_spec(k=16, h=8, w=8)
        strategy = ParallelismStrategy.from_dict({Dimension.FILTERS: 16})
        assert layer_utilization(spec, strategy, 16) == pytest.approx(1.0)

    def test_half_utilization_on_ragged(self):
        spec = make_spec(k=2)
        strategy = ParallelismStrategy.from_dict({Dimension.FILTERS: 4})
        assert layer_utilization(spec, strategy, 4) == pytest.approx(0.5)

    def test_rejects_bad_pe_count(self):
        with pytest.raises(ResourceError):
            layer_utilization(make_spec(), ParallelismStrategy(), 0)

    @given(conv_spec_strategy, st.integers(1, 512))
    @settings(max_examples=150)
    def test_utilization_in_unit_interval(self, spec, budget):
        strategy = choose_parallelism(budget, [spec])
        utilization = layer_utilization(spec, strategy, budget)
        assert 0.0 < utilization <= 1.0


class TestChooseParallelism:
    def test_respects_budget(self):
        spec = make_spec(k=64, h=32, w=32)
        for budget in (1, 7, 16, 100, 500):
            strategy = choose_parallelism(budget, [spec])
            assert strategy.total_parallelism <= budget

    def test_single_pe_is_scalar(self):
        strategy = choose_parallelism(1, [make_spec()])
        assert strategy.total_parallelism == 1

    def test_prefers_exact_divisors(self):
        # With budget 16 and K=16, the obvious optimum uses all 16 PEs.
        spec = make_spec(k=16, h=7, w=7)
        strategy = choose_parallelism(16, [spec])
        cycles = layer_cycles(spec, strategy)
        assert cycles * 16 == spec.macs  # perfectly utilized

    def test_optimizes_average_over_layers(self):
        # A strategy fitted to two layers should be at least as good in
        # total cycles as one fitted to either layer alone.
        layer_a = make_spec(k=24, h=8, w=8, index=0)
        layer_b = make_spec(k=16, h=12, w=12, index=1)
        joint = choose_parallelism(32, [layer_a, layer_b])
        total_joint = layer_cycles(layer_a, joint) + layer_cycles(layer_b, joint)
        for solo_spec in (layer_a, layer_b):
            solo = choose_parallelism(32, [solo_spec])
            total_solo = layer_cycles(layer_a, solo) + layer_cycles(layer_b, solo)
            assert total_joint <= total_solo

    def test_rejects_empty_layer_set(self):
        with pytest.raises(ResourceError):
            choose_parallelism(16, [])

    def test_rejects_bad_budget(self):
        with pytest.raises(ResourceError):
            choose_parallelism(0, [make_spec()])

    def test_deterministic(self):
        specs = [make_spec(k=48, h=14, w=14)]
        assert choose_parallelism(96, specs) == choose_parallelism(96, specs)


# --- exactness oracle for the best-first search ----------------------------------


def reference_divisor_candidates(extents, budget, cap=24):
    """The per-divisor ``_divisor_candidates`` loop, kept as its oracle."""
    candidates = {1}
    for extent in extents:
        for divisor in factors(extent):
            if divisor <= budget:
                candidates.add(divisor)
    ordered = sorted(candidates)
    if len(ordered) > cap:
        step = len(ordered) / cap
        ordered = sorted({ordered[int(i * step)] for i in range(cap)} | {ordered[-1], 1})
    return ordered


def reference_search(budget, layer_key):
    """The brute-force K x H x W triple-loop search, kept as the oracle."""
    filters = [k for (k, _, _, _, _, _, _) in layer_key]
    heights = [h for (_, _, h, _, _, _, _) in layer_key]
    widths = [w for (_, _, _, w, _, _, _) in layer_key]

    k_candidates = reference_divisor_candidates(filters, budget)
    h_candidates = reference_divisor_candidates(heights, budget)
    w_candidates = reference_divisor_candidates(widths, budget)

    # The triple loop below evaluates |K| x |H| x |W| candidate strategies
    # over every layer. Hoist everything that does not depend on the full
    # (pk, ph, pw) triple: the C*R*S multiplier per layer, and the per-layer
    # ceiling tables for each candidate degree, so the innermost loop is a
    # single multiply-accumulate per layer instead of three ceil_div calls.
    crs = [c * r * s for (_k, c, _h, _w, r, s, _m) in layer_key]
    k_ceils = [[-(-k // pk) for k in filters] for pk in k_candidates]
    h_ceils = [[-(-h // ph) for h in heights] for ph in h_candidates]
    w_ceils = [[-(-w // pw) for w in widths] for pw in w_candidates]

    best_cost = None
    best = (1, 1, 1)
    best_par = 1
    for i, pk in enumerate(k_candidates):
        if pk > budget:
            continue
        partial_k = [m * ceil for m, ceil in zip(crs, k_ceils[i])]
        for j, ph in enumerate(h_candidates):
            if pk * ph > budget:
                continue
            partial_kh = [m * ceil for m, ceil in zip(partial_k, h_ceils[j])]
            for m_index, pw in enumerate(w_candidates):
                par = pk * ph * pw
                if par > budget:
                    continue
                cost = 0
                for partial, ceil in zip(partial_kh, w_ceils[m_index]):
                    cost += partial * ceil
                if best_cost is None or cost < best_cost or (
                    cost == best_cost and par > best_par
                ):
                    best_cost = cost
                    best = (pk, ph, pw)
                    best_par = par
    pk, ph, pw = best
    return (("K", pk), ("H", ph), ("W", pw))


def search(budget, key):
    """The uncached search's answer, in :func:`reference_search`'s form."""
    strategy = _search_cached.__wrapped__(budget, key)
    return tuple(
        (dimension.value, strategy.degree(dimension))
        for dimension in (Dimension.FILTERS, Dimension.OUT_HEIGHT, Dimension.OUT_WIDTH)
    )


def layer_key(specs):
    """The search key :func:`choose_parallelism` builds from ``specs``."""
    return tuple(
        (s.filters, s.channels, s.out_height, s.out_width, s.kernel_height,
         s.kernel_width, s.macs)
        for s in specs
    )


#: Highly composite extents whose divisor sets exceed the 24-candidate
#: cap, so the evenly spaced spread is searched.
COMPOSITE = (720, 1680, 5040)

#: Layer extents: tiny ones (many cost ties), ragged ones (primes and
#: other awkward sizes), and highly composite ones.
extents = st.one_of(
    st.integers(1, 8),
    st.integers(1, 600),
    st.sampled_from(COMPOSITE),
)


@st.composite
def layer_keys(draw):
    """Layer sets over 2-4 output planes (H, W) carrying 2-6 (K, H, W)
    shapes, every shape in at least one layer, so each key spans two or
    more planes, planes hold several filter counts, and shapes repeat with
    different C x R x S weights; plus verbatim duplicate layers."""
    planes = draw(
        st.lists(st.tuples(extents, extents), min_size=2, max_size=4, unique=True)
    )
    extra = draw(st.lists(st.sampled_from(planes), max_size=6 - len(planes)))
    shapes = [(draw(extents), h, w) for h, w in planes + extra]
    crs = st.tuples(st.integers(1, 64), st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]))
    layers = [(shape, draw(crs)) for shape in shapes]
    layers += draw(st.lists(st.tuples(st.sampled_from(shapes), crs), max_size=8))
    key = [(k, c, h, w, r, s, k * c * h * w * r * s) for (k, h, w), (c, r, s) in layers]
    duplicates = draw(st.integers(0, len(key)))
    return tuple(key + key[:duplicates])


@st.composite
def composite_budgets(draw):
    """A budget below, equal to, between or above the composite divisors."""
    divisors = sorted({d for n in COMPOSITE for d in factors(n)})
    anchor = draw(st.sampled_from(divisors))
    return max(1, anchor + draw(st.integers(-1, 1)))


@pytest.mark.fuzz
class TestFrontierSearchExactness:
    """The best-first search over the Eq. 1 frontier returns the triple
    loop's answer."""

    @given(budget=st.integers(1, 5000), key=layer_keys())
    def test_matches_triple_loop(self, budget, key):
        assert search(budget, key) == reference_search(budget, key)

    @pytest.mark.parametrize("budget", [1, 7, 190, 2513])
    def test_matches_triple_loop_on_resnet152(self, budget):
        key = layer_key(load_model("resnet152").conv_specs())
        assert search(budget, key) == reference_search(budget, key)

    @pytest.mark.parametrize("budget", [1, 7, 768, 900, 1800, 2520])
    @pytest.mark.parametrize("model", available_models())
    def test_matches_triple_loop_on_zoo_model(self, model, budget):
        key = layer_key(load_model(model).conv_specs())
        assert search(budget, key) == reference_search(budget, key)

    def test_cost_ties_go_to_more_parallel_then_first_scanned(self):
        # (1, 2, 1) and (2, 1, 1) both cost 2 at parallelism 2: the first
        # scanned wins. (1, 2, 1) and (3, 1, 1) both cost 4: the more
        # parallel one wins. (1, 3, 7) and (7, 3, 1) both cost 38 at
        # parallelism 21; row pk=7 has floor 36 and row pk=1 floor 38, so
        # the search visits pk=7 first, yet the first scanned still wins.
        first = ((2, 1, 2, 1, 1, 1, 4),)
        parallel = ((1, 1, 2, 1, 1, 1, 2), (3, 1, 2, 1, 1, 1, 6))
        out_of_order = ((7, 2, 6, 7, 1, 1, 588), (5, 2, 2, 5, 1, 1, 100))
        for budget, key, (pk, ph, pw) in (
            (2, first, (1, 2, 1)),
            (3, parallel, (3, 1, 1)),
            (21, out_of_order, (1, 3, 7)),
        ):
            expected = (("K", pk), ("H", ph), ("W", pw))
            assert reference_search(budget, key) == expected
            assert search(budget, key) == expected


@pytest.mark.fuzz
class TestDivisorCandidates:
    """The set-union candidate lists equal the per-divisor loop's."""

    @given(
        extents=st.lists(extents, max_size=6),
        budget=st.one_of(composite_budgets(), st.integers(1, 6000)),
    )
    def test_matches_per_divisor_loop(self, extents, budget):
        assert _divisor_candidates(extents, budget) == reference_divisor_candidates(
            extents, budget
        )

    @pytest.mark.parametrize("extent", COMPOSITE)
    def test_composite_extents_exceed_the_cap(self, extent):
        divisors = factors(extent)
        assert len(divisors) > 24
        for budget in (divisors[12] - 1, divisors[12], divisors[12] + 1, extent + 1):
            candidates = _divisor_candidates([extent], budget)
            assert candidates == reference_divisor_candidates([extent], budget)
            assert candidates[0] == 1 and candidates[-1] <= budget
