"""Tests for the high-level evaluate/sweep API."""

import pytest

from repro.api import build_accelerator, evaluate, resolve_board, resolve_model, sweep
from repro.core.builder import Accelerator
from repro.core.cost.export import report_to_dict
from repro.core.cost.results import CostReport
from repro.core.notation import parse_notation
from repro.hw.boards import FPGABoard, get_board
from repro.runtime import BatchEvaluator
from repro.utils.errors import MCCMError


class TestResolvers:
    def test_resolve_model_by_name(self):
        assert resolve_model("resnet50").name == "ResNet50"

    def test_resolve_model_passthrough(self, tiny_cnn):
        assert resolve_model(tiny_cnn) is tiny_cnn

    def test_resolve_board_by_name(self):
        assert resolve_board("zc706") is get_board("zc706")

    def test_resolve_board_passthrough(self, small_board):
        assert resolve_board(small_board) is small_board


class TestEvaluate:
    def test_template_evaluation(self, tiny_cnn, small_board):
        report = evaluate(tiny_cnn, small_board, "segmentedrr", ce_count=2)
        assert isinstance(report, CostReport)
        assert report.model_name == "TinyNet"
        assert report.board_name == "testboard"

    def test_notation_evaluation(self, tiny_cnn, small_board):
        report = evaluate(tiny_cnn, small_board, "{L1-L4: CE1, L5-Last: CE2}")
        assert len(report.blocks) == 2

    def test_spec_evaluation(self, tiny_cnn, small_board):
        spec = parse_notation("{L1-Last: CE1-CE2}", coarse_pipelined=False)
        report = evaluate(tiny_cnn, small_board, spec)
        assert report.accelerator_name == spec.name

    def test_template_requires_ce_count(self, tiny_cnn, small_board):
        with pytest.raises(MCCMError):
            evaluate(tiny_cnn, small_board, "segmented")

    def test_build_accelerator_returns_unevaluated(self, tiny_cnn, small_board):
        accelerator = build_accelerator(tiny_cnn, small_board, "hybrid", ce_count=3)
        assert isinstance(accelerator, Accelerator)
        assert accelerator.total_pes == small_board.pe_count


class TestSweep:
    def test_default_sweep_shape(self, tiny_cnn, roomy_board):
        reports = sweep(tiny_cnn, roomy_board)
        # TinyNet has 8 conv layers: SegmentedRR/Segmented cap at 8 CEs,
        # Hybrid caps at 8 (7 pipelined + 1); 10 CE counts otherwise.
        names = {report.accelerator_name for report in reports}
        assert "Segmented-2" in names
        assert "SegmentedRR-8" in names
        assert "SegmentedRR-9" not in names
        assert len(names) == len(reports)  # no duplicates

    def test_restricted_sweep(self, tiny_cnn, roomy_board):
        reports = sweep(
            tiny_cnn, roomy_board, architectures=["hybrid"], ce_counts=[2, 3]
        )
        assert sorted(report.accelerator_name for report in reports) == [
            "Hybrid-2",
            "Hybrid-3",
        ]

    def test_sweep_reports_evaluated(self, tiny_cnn, roomy_board):
        for report in sweep(tiny_cnn, roomy_board, ce_counts=[2]):
            assert report.latency_cycles > 0
            assert report.throughput_fps > 0
            assert report.accesses.total_bytes > 0


class TestSweepStarvedBoard:
    """A starved board's sweep has both reports and skips, on every path."""

    def _starved_board(self):
        # Tight enough that high CE counts fail allocation while low
        # counts still fit: the sweep then has both reports and skips.
        return FPGABoard(
            name="starved",
            dsp_count=64,
            bram_bytes=48 * 1024,
            bandwidth_gbps=1.0,
        )

    def test_skipped_identical_to_cold_path(self, tiny_cnn):
        board = self._starved_board()
        cold = BatchEvaluator(tiny_cnn, board, jobs=1)
        scalar = sweep(tiny_cnn, board, runtime=cold)
        batched = sweep(tiny_cnn, board)
        assert len(batched.skipped) == len(scalar.skipped)
        assert [
            (skip.architecture, skip.ce_count, skip.reason)
            for skip in batched.skipped
        ] == [
            (skip.architecture, skip.ce_count, skip.reason)
            for skip in scalar.skipped
        ]
        assert [report_to_dict(r) for r in batched] == [
            report_to_dict(r) for r in scalar
        ]

    def test_starved_sweep_actually_skips(self, tiny_cnn):
        result = sweep(tiny_cnn, self._starved_board())
        assert result.skipped, "board not starved enough to exercise skips"
        assert result, "board too starved: no feasible configs left"
