"""Segment-cache correctness: bit-identity, eviction, context isolation.

The segment cache's contract is absolute: any design evaluated through it
must produce a :class:`CostReport` bit-identical (via the lossless
``report_to_dict`` form *and* deep dataclass equality) to the cold path's,
for every block kind — single-CE, pipelined-CEs, dual-engine, and
shared-CE (``ce_id``) groups — at any cache size, under any eviction
pressure, and never across evaluation contexts.
"""

import pytest

from repro.api import resolve_board, resolve_model
from repro.core import blocks, dual
from repro.core.architectures import TEMPLATES, build_template
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.terms import LayerColumns
from repro.core.cost.export import report_to_dict
from repro.core.cost.model import MCCM
from repro.core.cost.vector import PopulationKernel
from repro.core.notation import parse_notation
from repro.dse.space import CustomDesignSpace
from repro.runtime import BatchEvaluator, SegmentCostCache
from repro.runtime.bench import clear_process_caches
from repro.runtime.segcache import segment_key
from repro.utils.errors import MCCMError, ResourceError


@pytest.fixture(scope="module")
def context(roomy_board):
    from tests.conftest import build_tiny_cnn

    return build_tiny_cnn(), roomy_board


def _reports(builder, specs, cache=None):
    kernel = PopulationKernel(builder, segment_cache=cache)
    return [outcome.report for outcome in kernel.evaluate(specs)]


def _assert_identical(cold, cached):
    assert len(cold) == len(cached)
    for cold_report, cached_report in zip(cold, cached):
        assert (cold_report is None) == (cached_report is None)
        if cold_report is not None:
            assert report_to_dict(cold_report) == report_to_dict(cached_report)
            assert cold_report == cached_report  # deep dataclass equality


class TestBitIdentity:
    @pytest.mark.parametrize("model_name,board_name", [
        ("squeezenet", "zc706"),
        ("xception", "vcu110"),
    ])
    def test_all_table5_architectures(self, model_name, board_name):
        """Every template x CE count of the paper's sweep, cold vs cached."""
        graph = resolve_model(model_name)
        board = resolve_board(board_name)
        builder = MultipleCEBuilder(graph, board)
        conv_specs = builder.conv_specs
        specs = []
        for template in sorted(TEMPLATES):
            for ce_count in (2, 4, 7, 11):
                try:
                    specs.append(build_template(template, conv_specs, ce_count))
                except ResourceError:
                    continue
        cold = _reports(builder, specs)
        cache = SegmentCostCache()
        cached = _reports(builder, specs, cache=cache)
        _assert_identical(cold, cached)
        # A second pass answers mostly from the cache — still identical.
        again = _reports(builder, specs, cache=cache)
        _assert_identical(cold, again)
        assert cache.hits > 0

    def test_seeded_random_design_sample(self):
        """Property-style: a seeded slice of the Fig. 10 custom space."""
        graph = resolve_model("xception")
        board = resolve_board("vcu110")
        builder = MultipleCEBuilder(graph, board)
        space = CustomDesignSpace(graph.conv_specs())
        specs = [d.to_spec() for d in space.sample(48, seed=2025)]
        cold = _reports(builder, specs)
        cache = SegmentCostCache()
        cached = _reports(builder, specs, cache=cache)
        _assert_identical(cold, cached)
        _assert_identical(cold, _reports(builder, specs, cache=cache))

    def test_shared_ce_groups(self, context):
        """Blocks sharing one engine via ce_id (Eq. 8) stay identical."""
        cnn, board = context
        builder = MultipleCEBuilder(cnn, board)
        spec = parse_notation(
            "{L1-L3: CE1, L4-L5: CE2, L6-L8: CE1}", name="shared"
        )
        cache = SegmentCostCache()
        cold = _reports(builder, [spec])
        cached = _reports(builder, [spec, spec], cache=cache)
        _assert_identical(cold * 2, cached)

    def test_rebased_positions_relabel(self, context):
        """The same segment reused at a different position gets this
        design's block name and running segment indices, not the cached
        ones."""
        cnn, board = context
        builder = MultipleCEBuilder(cnn, board)
        # L4-L8 is block B2 in the first design and B3 in the second.
        first = parse_notation("{L1-L3: CE1, L4-L8: CE2}", name="a")
        second = parse_notation("{L1-L2: CE1, L3: CE2, L4-L8: CE3}", name="b")
        cache = SegmentCostCache()
        cold = _reports(builder, [first, second])
        cached = _reports(builder, [first, second], cache=cache)
        _assert_identical(cold, cached)
        names = [block.name for block in cached[1].blocks]
        assert names == ["B1", "B2", "B3"]
        assert [segment.index for segment in cached[1].segments] == [0, 1, 2]


class TestLazyLayouts:
    """Blocks lay themselves out (byte terms, Eq. 1-3 cycles, Eq. 4/5
    footprints) on first use only, so a segment-cache hit costs none of it."""

    @pytest.fixture
    def layout_builds(self, monkeypatch):
        builds = []
        for module, name in (
            (blocks, "single_ce_layout"),
            (blocks, "pipelined_layout"),
            (dual, "dual_layout"),
        ):
            build = getattr(module, name)

            def counting(block, build=build):
                builds.append(block.name)
                return build(block)

            monkeypatch.setattr(module, name, counting)
        return builds

    def test_warm_replay_builds_no_layout(self, layout_builds):
        graph = resolve_model("xception")
        builder = MultipleCEBuilder(graph, resolve_board("vcu110"))
        specs = [d.to_spec() for d in CustomDesignSpace(graph.conv_specs()).sample(24, seed=5)]
        for template in sorted(TEMPLATES):
            for ce_count in (2, 5, 11):
                try:
                    specs.append(build_template(template, builder.conv_specs, ce_count))
                except ResourceError:
                    continue
        cache = SegmentCostCache()
        warm = _reports(builder, specs, cache=cache)
        assert layout_builds, "a cold pass must lay its blocks out"
        layout_builds.clear()
        replay = _reports(builder, specs, cache=cache)
        assert layout_builds == []
        _assert_identical(warm, replay)

    def test_cold_evaluation_lays_each_block_out_once(self, layout_builds):
        builder = MultipleCEBuilder(resolve_model("squeezenet"), resolve_board("zc706"))
        spec = parse_notation("{L1-L6: CE1-CE3, L7-L12: CE4, L13-Last: CE5-CE6}", name="m")
        accelerator = builder.build(spec)
        MCCM().evaluate(accelerator)
        assert sorted(layout_builds) == ["B1", "B2", "B3"]

    def test_dual_tail_lays_out_once_from_the_builders_table(self, monkeypatch):
        """A dual-engine tail reads the builder's layer table, like the
        other blocks, and scans its layers for fused pairs once per
        evaluation, not once per footprint, component or layer."""
        builder = MultipleCEBuilder(resolve_model("xception"), resolve_board("vcu110"))
        design = build_template("hybriddual", builder.conv_specs, 6)
        first, second = builder.build(design), builder.build(design)
        assert first.blocks[-1].kind == "dual"
        tables = []
        init = LayerColumns.__init__
        monkeypatch.setattr(
            LayerColumns, "__init__", lambda table, *args: tables.append(init(table, *args))
        )
        MCCM().evaluate(first)
        assert len(tables) == 0
        scans = []
        find = dual.fused_pairs
        monkeypatch.setattr(dual, "fused_pairs", lambda specs: scans.append(specs) or find(specs))
        MCCM().evaluate(second)
        assert scans == [second.blocks[-1].specs]


class TestEviction:
    def test_capacity_is_bounded_and_results_exact(self):
        graph = resolve_model("squeezenet")
        board = resolve_board("zc706")
        builder = MultipleCEBuilder(graph, board)
        space = CustomDesignSpace(graph.conv_specs())
        specs = [d.to_spec() for d in space.sample(30, seed=7)]
        cold = _reports(builder, specs)
        tiny = SegmentCostCache(max_entries=16)
        cached = _reports(builder, specs, cache=tiny)
        _assert_identical(cold, cached)
        assert len(tiny) <= 16

    def test_lru_evicts_oldest(self):
        cache = SegmentCostCache(max_entries=2)
        cache._put(("a",), 1)
        cache._put(("b",), 2)
        assert cache._get(("a",)) == 1  # refresh "a"
        cache._put(("c",), 3)  # evicts "b"
        assert cache._get(("b",)) is None
        assert cache._get(("a",)) == 1
        assert cache._get(("c",)) == 3
        assert len(cache) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SegmentCostCache(max_entries=0)


class TestContextIsolation:
    def test_bind_is_idempotent(self):
        cache = SegmentCostCache()
        assert cache.bind("ctx") is cache
        assert cache.bind("ctx") is cache
        assert cache.context == "ctx"

    def test_bind_refuses_other_context(self):
        cache = SegmentCostCache().bind("ctx-a")
        with pytest.raises(MCCMError):
            cache.bind("ctx-b")

    def test_kernel_binds_and_rejects_foreign_cache(self, context):
        """The kernel, the one place that pairs a builder with a cache,
        binds it at construction, before any design is built; direct
        kernel use is guarded too, not just BatchEvaluator."""
        cnn, board = context
        builder = MultipleCEBuilder(cnn, board)
        cache = SegmentCostCache()
        PopulationKernel(builder, segment_cache=cache)
        assert cache.context == builder.context
        other = MultipleCEBuilder(resolve_model("squeezenet"), resolve_board("zc706"))
        with pytest.raises(MCCMError):
            PopulationKernel(other, segment_cache=cache)

    def test_evaluator_rejects_foreign_cache(self, context):
        cnn, board = context
        first = BatchEvaluator(cnn, board)
        foreign = first.segment_cache
        other = resolve_model("squeezenet")
        with pytest.raises(MCCMError):
            BatchEvaluator(other, resolve_board("zc706"), segment_cache=foreign)

    def test_evaluator_accepts_same_context_cache(self, context):
        cnn, board = context
        first = BatchEvaluator(cnn, board)
        shared = BatchEvaluator(cnn, board, segment_cache=first.segment_cache)
        assert shared.segment_cache is first.segment_cache

    def test_segment_keys_do_not_collide_across_kinds(self, context):
        cnn, board = context
        builder = MultipleCEBuilder(cnn, board)
        pipelined = builder.build(
            parse_notation("{L1-L4: CE1-CE2, L5-L8: CE3}", name="p")
        )
        single = builder.build(parse_notation("{L1-L4: CE1, L5-L8: CE2}", name="s"))
        assert segment_key(pipelined.blocks[0]) != segment_key(single.blocks[0])


@pytest.fixture
def fig10_cold():
    """The Fig. 10 setting (Xception, VCU110): 32 sampled designs, their
    cold reports (at least one feasible) and a segment cache warmed on
    them, each built after a reset of the process-global memos."""
    graph = resolve_model("xception")
    board = resolve_board("vcu110")
    space = CustomDesignSpace(graph.conv_specs())
    specs = [design.to_spec() for design in space.sample(32, seed=2025)]

    clear_process_caches()
    cold = BatchEvaluator(graph, board, jobs=1, segment_cache_entries=0)
    cold_reports = cold.evaluate_specs(specs)
    assert any(report is not None for report in cold_reports)

    clear_process_caches()
    warm = BatchEvaluator(graph, board, jobs=1)
    warm.evaluate_specs(specs)
    return graph, board, specs, cold_reports, warm.segment_cache


class TestEvaluatorIntegration:
    def test_segment_cache_on_by_default(self, context):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board)
        assert evaluator.segment_cache is not None
        assert evaluator.cache_info()["segment_cache"]["entries"] == 0

    def test_segment_cache_disabled(self, context):
        cnn, board = context
        evaluator = BatchEvaluator(cnn, board, segment_cache_entries=0)
        assert evaluator.segment_cache is None
        assert "segment_cache" not in evaluator.cache_info()

    def test_rejects_negative_segment_capacity(self, context):
        cnn, board = context
        with pytest.raises(ValueError):
            BatchEvaluator(cnn, board, segment_cache_entries=-1)

    def test_disabled_and_enabled_agree(self, context):
        cnn, board = context
        conv_specs = cnn.conv_specs()
        specs = [build_template("segmented", conv_specs, n) for n in (2, 3, 4)]
        plain = BatchEvaluator(cnn, board, segment_cache_entries=0)
        cached = BatchEvaluator(cnn, board)
        assert plain.evaluate_specs(specs) == cached.evaluate_specs(specs)

    def test_fresh_evaluator_on_warm_cache_matches_cold(self, fig10_cold):
        """A fresh evaluator sharing a warm segment cache (all fingerprint
        misses) reproduces the cold reports field for field."""
        graph, board, specs, cold_reports, segment_cache = fig10_cold
        fresh = BatchEvaluator(graph, board, jobs=1, segment_cache=segment_cache)
        _assert_identical(cold_reports, fresh.evaluate_specs(specs))
        assert fresh.segment_cache.hits > 0

    def test_fingerprint_replay_matches_cold(self, fig10_cold):
        """The top rung: a replay answered from the fingerprint cache."""
        graph, board, specs, cold_reports, segment_cache = fig10_cold
        fresh = BatchEvaluator(graph, board, jobs=1, segment_cache=segment_cache)
        fresh.evaluate_specs(specs)
        _assert_identical(cold_reports, fresh.evaluate_specs(specs))
        assert fresh.last_run.cache_hits == len(specs)
