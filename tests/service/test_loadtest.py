"""Unit tests for the open-loop loadtest harness (``repro loadtest``).

The multi-process end of the harness (``spawn_server``/``stop_server``) is
exercised by the supervisor tests; here the load generator itself runs
against an in-process :class:`EvaluationService`, which keeps these fast
and deterministic enough for tier-1.
"""

import json
import socket

import pytest

from repro.cli import main
from repro.service import EvaluationService, format_loadtest, run_loadtest
from repro.service.loadtest import StageResult, _percentile
from repro.utils.errors import MCCMError

MODEL = "squeezenet"
BOARD = "zc706"


class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert _percentile([7.0], 0.5) == 7.0
        assert _percentile([7.0], 0.99) == 7.0

    def test_quantiles_of_known_sample(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.95) == 95.0
        assert _percentile(values, 0.99) == 99.0
        assert _percentile(values, 1.0) == 100.0


class TestStageResult:
    def test_error_count_and_to_dict(self):
        stage = StageResult(
            target_rps=100.0,
            duration_seconds=2.0,
            arrivals=200,
            completed=190,
            achieved_rps=95.0,
            p50_ms=1.5,
            p95_ms=4.0,
            p99_ms=9.0,
            max_ms=12.0,
            errors={"backpressure": 7, "connection_error": 3},
        )
        assert stage.error_count == 10
        payload = stage.to_dict()
        assert payload["error_count"] == 10
        assert payload["errors"] == {"backpressure": 7, "connection_error": 3}
        assert payload["achieved_rps"] == 95.0


class TestRunLoadtest:
    def test_curve_against_live_service(self):
        with EvaluationService(port=0) as service:
            result = run_loadtest(
                service.url,
                rates=(40.0,),
                duration=0.5,
                seed=3,
                client_threads=8,
            )
        assert result["url"] == service.url
        assert len(result["stages"]) == 1
        stage = result["stages"][0]
        assert stage["arrivals"] > 0
        assert stage["completed"] > 0
        assert stage["p50_ms"] >= 0.0
        assert result["peak_rps"] > 0.0
        # A warm single-rate run against an idle in-process server should
        # finish clean, making the peak also the saturation point.
        assert result["saturation_rps"] == result["peak_rps"]

    def test_deterministic_arrivals_for_fixed_seed(self):
        with EvaluationService(port=0) as service:
            first = run_loadtest(
                service.url, rates=(50.0,), duration=0.4, seed=11, client_threads=4
            )
            second = run_loadtest(
                service.url, rates=(50.0,), duration=0.4, seed=11, client_threads=4
            )
        # Same seed, same duration: the Poisson schedule is identical.
        assert first["stages"][0]["arrivals"] == second["stages"][0]["arrivals"]

    def test_unreachable_server_is_all_errors(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        result = run_loadtest(
            f"http://127.0.0.1:{port}",
            rates=(30.0,),
            duration=0.3,
            client_threads=4,
            warmup=False,
        )
        assert result["stages"][0]["completed"] == 0
        assert result["saturation_rps"] == 0.0
        assert "connection_error" in result["errors"]

    def test_rejects_empty_ramp(self):
        with pytest.raises(MCCMError):
            run_loadtest("http://127.0.0.1:1", rates=())


class TestFormatLoadtest:
    def test_renders_stages_and_summary(self):
        with EvaluationService(port=0) as service:
            result = run_loadtest(
                service.url, rates=(40.0,), duration=0.3, client_threads=4
            )
        text = format_loadtest(result)
        assert "target r/s" in text
        assert "saturation (<=1% errors)" in text
        assert service.url in text

    def test_renders_scaling_section_for_comparison(self):
        run = {
            "model": MODEL, "board": BOARD, "seed": 0,
            "duration_per_stage": 1.0, "errors": {},
            "stages": [], "peak_rps": 100.0, "saturation_rps": 100.0,
        }
        comparison = {
            "cpu_count": 4,
            "runs": [
                dict(run, workers=1),
                dict(run, workers=4, peak_rps=300.0, saturation_rps=300.0),
            ],
            "compare": [
                {"workers": 1, "peak_rps": 100.0, "saturation_rps": 100.0, "errors": 0},
                {"workers": 4, "peak_rps": 300.0, "saturation_rps": 300.0, "errors": 0},
            ],
        }
        text = format_loadtest(comparison)
        assert "scaling vs workers=1 (cpu_count=4):" in text
        assert "workers=4: saturation 300.0 r/s (3.00x)" in text


class TestCli:
    def test_loadtest_url_json(self, capsys, tmp_path):
        output = tmp_path / "loadtest.json"
        with EvaluationService(port=0) as service:
            code = main([
                "loadtest", "--url", service.url, "--rates", "40",
                "--duration", "0.3", "--client-threads", "4",
                "--output", str(output), "--json",
            ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(output.read_text())
        assert printed["stages"] == saved["stages"]
        assert printed["peak_rps"] > 0.0

    def test_loadtest_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        with EvaluationService(port=0) as service:
            code = main([
                "loadtest", "--url", service.url, "--rates", "40",
                "--duration", "0.3", "--client-threads", "4",
                "--output", str(blocker / "loadtest.json"),
            ])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write loadtest result"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["loadtest", "--rates", "abc"],
            ["loadtest", "--rates", "-5"],
            ["loadtest", "--workers", "0"],
            ["loadtest", "--workers", "1,x"],
        ],
    )
    def test_bad_inputs_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
