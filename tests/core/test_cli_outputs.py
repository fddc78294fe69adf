"""CLI output-path coverage: JSON round-trips and exit codes.

Every ``--json`` emitter must produce documents whose reports rebuild into
bit-identical :class:`CostReport` objects via the lossless import path, and
bad inputs must exit with status 2 and an ``error:`` line — not a traceback.
"""

import json

import pytest

from repro.api import evaluate as api_evaluate
from repro.api import sweep as api_sweep
from repro.cli import build_parser, main
from repro.core.cost.export import report_from_dict

MODEL = "squeezenet"
BOARD = "zc706"


class TestEvaluateJsonRoundTrip:
    def test_report_round_trips(self, capsys):
        code = main(
            [
                "evaluate",
                "--model", MODEL,
                "--board", BOARD,
                "--arch", "segmentedrr",
                "--ces", "2",
                "--json",
            ]
        )
        assert code == 0
        rebuilt = report_from_dict(json.loads(capsys.readouterr().out))
        assert rebuilt == api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)


class TestSweepJson:
    def test_reports_round_trip(self, capsys):
        code = main(
            [
                "sweep",
                "--model", MODEL,
                "--board", BOARD,
                "--min-ces", "2",
                "--max-ces", "3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        direct = api_sweep(MODEL, BOARD, ce_counts=range(2, 4))
        assert [report_from_dict(item) for item in data["reports"]] == list(direct)
        assert data["stats"]["submitted"] == len(direct)

    def test_skipped_configs_included_with_reasons(self, capsys):
        # AlexNet has 5 conv layers, so CE counts 6..8 are infeasible and
        # must appear in the JSON dump instead of being silently dropped.
        code = main(
            [
                "sweep",
                "--model", "alexnet",
                "--board", BOARD,
                "--arch", "segmentedrr",
                "--min-ces", "2",
                "--max-ces", "8",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [skip["ce_count"] for skip in data["skipped"]] == [6, 7, 8]
        assert all(skip["reason"] for skip in data["skipped"])
        assert all(skip["architecture"] == "segmentedrr" for skip in data["skipped"])

    def test_skipped_configs_printed_in_table_mode(self, capsys):
        code = main(
            [
                "sweep",
                "--model", "alexnet",
                "--board", BOARD,
                "--arch", "segmentedrr",
                "--min-ces", "2",
                "--max-ces", "6",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "skipped 1 infeasible configuration" in err
        assert "segmentedrr x 6 CEs" in err


class TestDseJson:
    def test_front_round_trips(self, capsys):
        code = main(
            [
                "dse",
                "--model", MODEL,
                "--board", BOARD,
                "--samples", "15",
                "--seed", "3",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["space_size"] > 0
        assert data["stats"]["evaluated"] <= 15
        assert data["front"], "expected a non-empty Pareto front"
        for entry in data["front"]:
            report = report_from_dict(entry["report"])
            assert report.throughput_fps > 0
            assert entry["design"]["ce_count"] >= 2

    def test_deterministic_across_runs(self, capsys):
        argv = [
            "dse",
            "--model", MODEL,
            "--board", BOARD,
            "--samples", "10",
            "--seed", "5",
            "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["front"] == second["front"]


class TestExitCodes:
    def test_unknown_model(self, capsys):
        code = main(
            ["evaluate", "--model", "nope", "--board", BOARD,
             "--arch", "segmentedrr", "--ces", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown model" in err

    def test_unknown_board(self, capsys):
        code = main(
            ["sweep", "--model", MODEL, "--board", "nope",
             "--min-ces", "2", "--max-ces", "3"]
        )
        assert code == 2
        assert "unknown board" in capsys.readouterr().err

    def test_template_without_ce_count(self, capsys):
        code = main(
            ["evaluate", "--model", MODEL, "--board", BOARD, "--arch", "segmented"]
        )
        assert code == 2
        assert "ce_count" in capsys.readouterr().err

    def test_malformed_notation(self, capsys):
        code = main(
            ["evaluate", "--model", MODEL, "--board", BOARD, "--arch", "{L1-"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_dse_unknown_model(self, capsys):
        code = main(["dse", "--model", "nope", "--board", BOARD, "--samples", "5"])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bench_command_removed(self, capsys):
        """perfbench is the timing harness; ``repro bench`` is gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def _campaign_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "cli-front", "seed": 3, "strategy": "evolve",
            "population": 4, "generations": 1, "cost_metric": "buffers",
            "cells": [{"model": MODEL, "board": BOARD, "ce_counts": [2, 3]}],
        }))
        return spec

    def test_campaign_front_csv_written(self, tmp_path, capsys):
        from repro.dse.campaign import campaign_status

        checkpoint = tmp_path / "checkpoint.json"
        front = tmp_path / "out" / "front.csv"
        front.parent.mkdir()
        code = main(
            ["campaign", "run", "--spec", str(self._campaign_spec(tmp_path)),
             "--checkpoint", str(checkpoint), "--front-csv", str(front),
             "--jobs", "1"]
        )
        assert code == 0
        expected = campaign_status(checkpoint).front_csv().encode("utf-8")
        assert front.read_bytes() == expected
        assert [path.name for path in front.parent.iterdir()] == ["front.csv"]

    def test_campaign_unwritable_front_csv(self, tmp_path, capsys):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        code = main(
            ["campaign", "run", "--spec", str(self._campaign_spec(tmp_path)),
             "--front-csv", str(blocker / "front.csv"), "--jobs", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write front CSV")


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8100
        assert args.jobs == 1
        assert args.cache is None

    def test_flags(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000",
             "--jobs", "4", "--cache", "/tmp/c"]
        )
        assert (args.host, args.port, args.jobs, args.cache) == (
            "0.0.0.0", 9000, 4, "/tmp/c"
        )


class TestWorkloadCli:
    """--model-file/--board-file, models/boards register|list, did-you-mean."""

    @staticmethod
    def _write_tiny(tmp_path, name="clinet"):
        from repro.cnn.serialize import graph_to_dict
        from tests.conftest import build_tiny_cnn

        definition = graph_to_dict(build_tiny_cnn())
        definition["name"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(definition))
        return path, definition

    @staticmethod
    def _cleanup():
        from repro import workloads

        for name in list(workloads.REGISTRY.models.customs()):
            workloads.unregister_model(name)
        for name in list(workloads.REGISTRY.boards.customs()):
            workloads.unregister_board(name)

    def test_model_file_bit_identical_to_registered_name(self, tmp_path, capsys):
        from repro.cnn.serialize import graph_from_dict

        path, definition = self._write_tiny(tmp_path)
        try:
            code = main(
                ["evaluate", "--model-file", str(path), "--board", BOARD,
                 "--arch", "segmentedrr", "--ces", "2", "--json"]
            )
            assert code == 0
            rebuilt = report_from_dict(json.loads(capsys.readouterr().out))
            direct = api_evaluate(
                graph_from_dict(definition), BOARD, "segmentedrr", ce_count=2
            )
            assert rebuilt == direct
        finally:
            self._cleanup()

    def test_model_and_model_file_conflict(self, tmp_path, capsys):
        path, _ = self._write_tiny(tmp_path)
        try:
            code = main(
                ["evaluate", "--model", MODEL, "--model-file", str(path),
                 "--board", BOARD, "--arch", "segmentedrr", "--ces", "2"]
            )
            assert code == 2
            assert "not both" in capsys.readouterr().err
        finally:
            self._cleanup()

    def test_missing_model_selector(self, capsys):
        code = main(["evaluate", "--board", BOARD, "--arch", "segmentedrr", "--ces", "2"])
        assert code == 2
        assert "--model" in capsys.readouterr().err

    def test_register_persists_into_workload_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MCCM_WORKLOAD_DIR", str(tmp_path / "wl"))
        path, _ = self._write_tiny(tmp_path)
        try:
            code = main(["models", "register", str(path)])
            assert code == 0
            out = capsys.readouterr().out
            assert "registered model 'clinet'" in out
            saved = tmp_path / "wl" / "models" / "clinet.json"
            assert saved.is_file()

            # Simulate a fresh process: drop the in-memory registration and
            # let main()'s workload-directory load restore it.
            self._cleanup()
            code = main(
                ["evaluate", "--model", "clinet", "--board", BOARD,
                 "--arch", "segmentedrr", "--ces", "2", "--json"]
            )
            assert code == 0
            json.loads(capsys.readouterr().out)
        finally:
            self._cleanup()

    def test_board_register_and_board_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MCCM_WORKLOAD_DIR", str(tmp_path / "wl"))
        board_path = tmp_path / "edge.json"
        board_path.write_text(json.dumps(
            {"name": "cliboard", "dsp_count": 900, "bram_mib": 2.4,
             "bandwidth_gbps": 3.2}
        ))
        try:
            assert main(["boards", "register", str(board_path)]) == 0
            assert (tmp_path / "wl" / "boards" / "cliboard.json").is_file()
            capsys.readouterr()
            # Same budget as zc706: the report must be bit-identical.
            code = main(
                ["evaluate", "--model", MODEL, "--board-file", str(board_path),
                 "--arch", "segmentedrr", "--ces", "2", "--json"]
            )
            assert code == 0
            rebuilt = report_from_dict(json.loads(capsys.readouterr().out))
            from repro import workloads

            direct = api_evaluate(
                MODEL, workloads.get_board("cliboard"), "segmentedrr", ce_count=2
            )
            assert rebuilt == direct
            # Same resource budget as zc706: identical metrics (the report
            # differs only in the embedded board name).
            reference = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
            assert rebuilt.throughput_fps == reference.throughput_fps
            assert rebuilt.latency_cycles == reference.latency_cycles
        finally:
            self._cleanup()

    def test_models_list_shows_custom_entries(self, tmp_path, capsys):
        path, _ = self._write_tiny(tmp_path)
        try:
            assert main(["models", "register", str(path), "--no-save"]) == 0
            capsys.readouterr()
            assert main(["models", "list", "--json"]) == 0
            catalog = json.loads(capsys.readouterr().out)["models"]
            entry = next(item for item in catalog if item["name"] == "clinet")
            assert entry["custom"] is True
        finally:
            self._cleanup()

    def test_unknown_model_suggestion_in_cli_error(self, capsys):
        code = main(
            ["evaluate", "--model", "squeezene", "--board", BOARD,
             "--arch", "segmentedrr", "--ces", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean 'squeezenet'" in err
