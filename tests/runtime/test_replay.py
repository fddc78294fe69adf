"""Evaluation keeps no per-design state: bit-identity and lazy layouts.

Every fingerprint miss is built and costed from scratch by the evaluator's
:class:`~repro.core.cost.vector.PopulationKernel`. What designs share —
the builder's layer table and the process-wide Eq. 1 search memo — must
never change a report: a design costed in a batch, alone on a fresh
builder, by a fresh evaluator on warm memos, or replayed from the
fingerprint cache gives a :class:`CostReport` bit-identical (via the
lossless ``report_to_dict`` form *and* deep dataclass equality) to the
others, for every block kind, shared-CE (``ce_id``) groups included.
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
from repro.runtime import BatchEvaluator
from repro.runtime.bench import clear_process_caches
from repro.utils.errors import ResourceError


@pytest.fixture(scope="module")
def context(roomy_board):
    from tests.conftest import build_tiny_cnn

    return build_tiny_cnn(), roomy_board


def _reports(builder, specs):
    return [outcome.report for outcome in PopulationKernel(builder).evaluate(specs)]


def _one_at_a_time(graph, board, specs):
    """Each design costed alone, on a fresh builder after a reset of the
    process-global memos."""
    reports = []
    for spec in specs:
        clear_process_caches()
        reports.extend(_reports(MultipleCEBuilder(graph, board), [spec]))
    return reports


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
        """Every template x CE count of the paper's sweep, in one batch vs
        each design alone."""
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
        batch = _reports(builder, specs)
        _assert_identical(_one_at_a_time(graph, board, specs), batch)
        # A second pass over the same builder is still identical.
        _assert_identical(batch, _reports(builder, specs))

    def test_seeded_random_design_sample(self):
        """Property-style: a seeded slice of the Fig. 10 custom space."""
        graph = resolve_model("xception")
        board = resolve_board("vcu110")
        builder = MultipleCEBuilder(graph, board)
        space = CustomDesignSpace(graph.conv_specs())
        specs = [d.to_spec() for d in space.sample(48, seed=2025)]
        batch = _reports(builder, specs)
        _assert_identical(_one_at_a_time(graph, board, specs), batch)
        _assert_identical(batch, _reports(builder, specs))

    def test_shared_ce_groups(self, context):
        """Blocks sharing one engine via ce_id (Eq. 8) stay identical."""
        cnn, board = context
        builder = MultipleCEBuilder(cnn, board)
        spec = parse_notation(
            "{L1-L3: CE1, L4-L5: CE2, L6-L8: CE1}", name="shared"
        )
        alone = _one_at_a_time(cnn, board, [spec])
        _assert_identical(alone * 2, _reports(builder, [spec, spec]))


class TestLazyLayouts:
    """Blocks lay themselves out (byte terms, Eq. 1-3 cycles, Eq. 4/5
    footprints) on first use only, not when the builder makes them."""

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

    def test_build_lays_out_nothing(self, layout_builds):
        """Building a design lays out none of its blocks; its first
        evaluation lays out each block."""
        graph = resolve_model("xception")
        board = resolve_board("vcu110")
        builder = MultipleCEBuilder(graph, board)
        specs = [d.to_spec() for d in CustomDesignSpace(graph.conv_specs()).sample(24, seed=5)]
        for template in sorted(TEMPLATES):
            for ce_count in (2, 5, 11):
                try:
                    specs.append(build_template(template, builder.conv_specs, ce_count))
                except ResourceError:
                    continue
        accelerators = []
        for spec in specs:
            try:
                accelerators.append(builder.build(spec))
            except ResourceError:
                continue
        assert any(accelerator.blocks[-1].kind == "dual" for accelerator in accelerators)
        assert layout_builds == []
        for accelerator in accelerators:
            MCCM().evaluate(accelerator)
            assert sorted(layout_builds) == sorted(block.name for block in accelerator.blocks)
            layout_builds.clear()

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


@pytest.fixture
def fig10_cold():
    """The Fig. 10 setting (Xception, VCU110): 32 sampled designs and
    their reports from a fresh evaluator after a reset of the
    process-global memos (at least one feasible)."""
    graph = resolve_model("xception")
    board = resolve_board("vcu110")
    space = CustomDesignSpace(graph.conv_specs())
    specs = [design.to_spec() for design in space.sample(32, seed=2025)]

    clear_process_caches()
    cold_reports = BatchEvaluator(graph, board, jobs=1).evaluate_specs(specs)
    assert any(report is not None for report in cold_reports)
    return graph, board, specs, cold_reports


class TestEvaluatorIntegration:
    def test_fresh_evaluator_on_warm_cache_matches_cold(self, fig10_cold):
        """A fresh evaluator on the warm process-wide Eq. 1 memo (all
        fingerprint misses) reproduces the cold reports field for field."""
        graph, board, specs, cold_reports = fig10_cold
        fresh = BatchEvaluator(graph, board, jobs=1)
        _assert_identical(cold_reports, fresh.evaluate_specs(specs))
        assert fresh.last_run.evaluations == len(set(map(fresh.key_for, specs)))

    def test_fingerprint_replay_matches_cold(self, fig10_cold):
        """The top rung: a replay answered from the fingerprint cache."""
        graph, board, specs, cold_reports = fig10_cold
        fresh = BatchEvaluator(graph, board, jobs=1)
        fresh.evaluate_specs(specs)
        _assert_identical(cold_reports, fresh.evaluate_specs(specs))
        assert fresh.last_run.cache_hits == len(specs)
