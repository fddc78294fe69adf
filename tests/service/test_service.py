"""End-to-end tests of the HTTP service against a live in-process server.

The acceptance criteria for the service PR are pinned here: a
``POST /evaluate`` response deserializes to a :class:`CostReport` that is
bit-identical to ``api.evaluate`` for the same inputs, and 50 concurrent
mixed requests return correct, request-matched results with 100% cache
hits on replay.
"""

import http.client
import json
import logging
import socket
import statistics
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import evaluate as api_evaluate
from repro.api import resolve_board, resolve_model
from repro.api import sweep as api_sweep
from repro.cnn.zoo import available_models
from repro.dse import CustomDesignSpace, DesignEvaluator, random_search
from repro.hw.boards import available_boards
from repro.hw.datatypes import DEFAULT_PRECISION, INT8, Precision
from repro.service import EvaluationService, ServiceClient, ServiceError, handlers, schema
from repro.service import server as service_server
from repro.service.handlers import ServiceState
from repro.utils.errors import UnknownWorkloadError

MODEL = "squeezenet"
BOARD = "zc706"


def assert_warm_keepalive_under_10ms(url, requests=50):
    """``GET /healthz``, then a repeated ``POST /evaluate``: after one
    untimed request, ``requests`` more on one keep-alive connection must
    have a median round trip under 10 ms. A reply split over two writes
    with Nagle on waits ~40 ms for the client's delayed ACK."""
    host, port = url.replace("http://", "").split(":")
    evaluate = {"model": MODEL, "board": BOARD, "architecture": "segmentedrr", "ce_count": 2}
    for method, path, body in (("GET", "/healthz", None), ("POST", "/evaluate", evaluate)):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        seconds = []
        try:
            for _ in range(requests + 1):
                start = time.perf_counter()
                connection.request(method, path, body=data, headers=headers)
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        median_ms = 1000.0 * statistics.median(seconds[1:])
        assert median_ms < 10.0, f"{method} {path}: median {median_ms:.1f} ms"


@pytest.fixture(scope="module")
def service():
    with EvaluationService(port=0) as running:
        yield running


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestGetEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["uptime_seconds"] >= 0

    def test_healthz_cpu_seconds_never_decrease(self, client):
        first = client.healthz()["cpu_seconds"]
        client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        second = client.healthz()["cpu_seconds"]
        assert isinstance(first, float) and 0 < first <= second

    def test_models_match_zoo(self, client):
        models = client.models()
        assert [entry["name"] for entry in models] == sorted(available_models())
        squeezenet = next(entry for entry in models if entry["name"] == MODEL)
        assert squeezenet["conv_layers"] == resolve_model(MODEL).num_conv_layers

    def test_boards_match_registry(self, client):
        boards = client.boards()
        assert [entry["name"] for entry in boards] == available_boards()
        zc706 = next(entry for entry in boards if entry["name"] == BOARD)
        board = resolve_board(BOARD)
        assert zc706["dsp_count"] == board.dsp_count
        assert zc706["bram_bytes"] == board.bram_bytes


class TestEvaluate:
    def test_bit_identical_to_api(self, client):
        result = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        direct = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        assert result.feasible
        assert result.report == direct
        assert result.raw["fingerprint"]

    def test_replay_hits_cache(self, client):
        first = client.evaluate(MODEL, BOARD, "hybrid", ce_count=3)
        replay = client.evaluate(MODEL, BOARD, "hybrid", ce_count=3)
        assert replay.cached
        assert replay.report == first.report

    def test_notation_architecture(self, client):
        notation = "{L1-L10: CE1, L11-Last: CE2}"
        result = client.evaluate(MODEL, BOARD, notation)
        assert result.report == api_evaluate(MODEL, BOARD, notation)

    def test_precision_override(self, client):
        precision = Precision(weights=INT8, activations=INT8)
        result = client.evaluate(
            MODEL, BOARD, "segmentedrr", ce_count=2, precision=precision
        )
        direct = api_evaluate(
            MODEL, BOARD, "segmentedrr", ce_count=2, precision=precision
        )
        assert result.report == direct
        assert result.report != api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)

    def test_infeasible_is_an_answer_not_an_error(self, client):
        result = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=500)
        assert not result.feasible
        assert result.report is None
        assert "ResourceError" in result.reason


class TestWireLatency:
    def test_warm_keepalive_round_trip_under_10ms(self, service):
        assert_warm_keepalive_under_10ms(service.url)


class TestContextMemo:
    """``evaluator_for`` fingerprints each resolved context once."""

    @pytest.fixture
    def fingerprint_calls(self, monkeypatch):
        calls = []
        original = handlers.context_fingerprint

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(handlers, "context_fingerprint", counting)
        return calls

    def test_fingerprint_once_per_context(self, fingerprint_calls):
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            for _ in range(3):
                client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
                client.sweep(MODEL, BOARD, architectures=["segmented"], ce_counts=[2, 3])
                client.dse(MODEL, BOARD, samples=5, seed=1)
            assert len(fingerprint_calls) == 1
            client.evaluate(
                MODEL, BOARD, "segmentedrr", ce_count=2,
                precision=Precision(weights=INT8, activations=INT8),
            )
            assert len(fingerprint_calls) == 2

    def test_name_spellings_share_one_context(self, fingerprint_calls):
        state = ServiceState()
        try:
            evaluators = [
                state.evaluator_for(name, BOARD, DEFAULT_PRECISION).evaluator
                for name in ("SqueezeNet", " squeezenet ", "sqz")
            ]
            assert len(fingerprint_calls) == 1
            assert all(evaluator is evaluators[0] for evaluator in evaluators)
            assert state.evaluator_count == 1
        finally:
            state.close()

    def test_concurrent_lookups_fingerprint_each_context_once(self, fingerprint_calls):
        state = ServiceState()
        precisions = (DEFAULT_PRECISION, Precision(weights=INT8, activations=INT8))
        seen = []

        def lookups():
            for index in range(40):
                precision = precisions[index % 2]
                seen.append((precision, state.evaluator_for(MODEL, BOARD, precision).evaluator))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lookups) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            state.close()
        assert len(seen) == 8 * 40
        assert len({(precision, id(evaluator)) for precision, evaluator in seen}) == 2
        assert len(fingerprint_calls) == 2


class TestErrorPayloads:
    @pytest.mark.parametrize(
        "kwargs, status, kind",
        [
            (dict(model="nope", board=BOARD, architecture="segmented", ce_count=2),
             404, "unknown_model"),
            (dict(model=MODEL, board="nope", architecture="segmented", ce_count=2),
             404, "unknown_board"),
            (dict(model=MODEL, board=BOARD, architecture="warp", ce_count=2),
             404, "unknown_architecture"),
            (dict(model=MODEL, board=BOARD, architecture="{L1: CE1, L1: CE2}"),
             400, "notation_error"),
            (dict(model=MODEL, board=BOARD, architecture="segmented"),
             400, "bad_request"),
        ],
    )
    def test_evaluate_errors(self, client, kwargs, status, kind):
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(**kwargs)
        assert excinfo.value.status == status
        assert excinfo.value.kind == kind

    def test_unknown_model_payload_carries_suggestion(self, service):
        # The typed 404 payload includes the did-you-mean match.
        request = urllib.request.Request(
            f"{service.url}/evaluate",
            method="POST",
            data=json.dumps(
                {"model": "squeezene", "board": BOARD,
                 "architecture": "segmentedrr", "ce_count": 2}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read().decode("utf-8"))["error"]
        assert payload["kind"] == "unknown_model"
        assert payload["suggestion"] == "squeezenet"
        assert "squeezenet" in payload["available"]

    def test_unknown_endpoint(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/teapot")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_endpoint"

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_unknown_paths_share_one_request_count(self):
        # One key for all unknown paths, while a 405 keeps its known path.
        with EvaluationService(port=0) as fresh:
            for path in [f"/no-such-{index}" for index in range(200)] + ["/evaluate"]:
                connection = http.client.HTTPConnection(fresh.host, fresh.port, timeout=10)
                try:
                    connection.request("GET", path)
                    assert connection.getresponse().status in (404, 405)
                finally:
                    connection.close()
            client = ServiceClient(fresh.url)
            requests = client.healthz()["requests"]
            client.close()
        assert requests == {service_server.UNKNOWN_PATH: 200, "/evaluate": 1}

    def test_invalid_json_body(self, service, client):
        request = urllib.request.Request(
            f"{service.url}/evaluate",
            method="POST",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["kind"] == "invalid_json"

    def test_negative_content_length_rejected(self, service):
        # A negative length must not reach rfile.read() (it would block
        # until the peer closes); expect a prompt structured 400.
        import http.client

        connection = http.client.HTTPConnection(service.host, service.port, timeout=5)
        try:
            connection.putrequest("POST", "/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            connection.close()

    def test_error_counter_in_healthz(self, client):
        before = client.healthz()["errors"]
        with pytest.raises(ServiceError):
            client.evaluate("nope", BOARD, "segmented", ce_count=2)
        assert client.healthz()["errors"] == before + 1


class TestSweep:
    def test_matches_api_sweep(self, client):
        over_http = client.sweep(MODEL, BOARD, ce_counts={"min": 2, "max": 4})
        direct = api_sweep(MODEL, BOARD, ce_counts=range(2, 5))
        assert over_http.reports == list(direct)
        assert [
            (skip.architecture, skip.ce_count) for skip in over_http.skipped
        ] == [(skip.architecture, skip.ce_count) for skip in direct.skipped]

    def test_skipped_carries_reasons(self, client):
        result = client.sweep(
            "alexnet", BOARD, architectures=["segmentedrr"],
            ce_counts={"min": 2, "max": 8},
        )
        # AlexNet has 5 conv layers: CE counts 6..8 are infeasible.
        assert [skip.ce_count for skip in result.skipped] == [6, 7, 8]
        assert all(skip.reason for skip in result.skipped)

    def test_warm_sweep_is_all_hits(self, client):
        client.sweep(MODEL, BOARD, ce_counts=[2, 3])
        replay = client.sweep(MODEL, BOARD, ce_counts=[2, 3])
        assert replay.stats["hit_rate"] == 1.0


class TestDse:
    def test_matches_direct_search(self, client):
        over_http = client.dse(MODEL, BOARD, samples=15, seed=7)
        graph, board = resolve_model(MODEL), resolve_board(BOARD)
        space = CustomDesignSpace(graph.conv_specs())
        evaluator = DesignEvaluator(graph, board)
        direct = random_search(evaluator, space, samples=15, seed=7)
        assert over_http.space_size == space.size()
        assert [report for _design, report in over_http.front] == [
            report for _design, report in direct.front
        ]
        assert [design["ce_count"] for design, _report in over_http.front] == [
            design.ce_count for design, _report in direct.front
        ]


class TestConcurrency:
    """The PR's acceptance run: 50 concurrent mixed requests, then a replay."""

    REQUESTS = 50

    def _request_plan(self):
        """50 mixed requests: 44 evaluates (with duplicates), 3 sweeps, 3 DSEs."""
        plan = []
        for index in range(44):
            architecture = ("segmented", "segmentedrr", "hybrid")[index % 3]
            ce_count = 2 + (index % 7)
            plan.append(("evaluate", dict(architecture=architecture, ce_count=ce_count)))
        for low in (2, 3, 4):
            plan.append(("sweep", dict(ce_counts=[low, low + 1])))
        for seed in (1, 2, 3):
            plan.append(("dse", dict(samples=10, seed=seed)))
        assert len(plan) == self.REQUESTS
        return plan

    def _run_concurrently(self, client, plan):
        results = [None] * len(plan)
        errors = []

        def work(index, endpoint, kwargs):
            try:
                if endpoint == "evaluate":
                    results[index] = client.evaluate(MODEL, BOARD, **kwargs)
                elif endpoint == "sweep":
                    results[index] = client.sweep(MODEL, BOARD, **kwargs)
                else:
                    results[index] = client.dse(MODEL, BOARD, **kwargs)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append((index, error))

        threads = [
            threading.Thread(target=work, args=(index, endpoint, kwargs))
            for index, (endpoint, kwargs) in enumerate(plan)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        return results

    def test_fifty_concurrent_mixed_requests_and_warm_replay(self):
        plan = self._request_plan()
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            cold = self._run_concurrently(client, plan)
            warm = self._run_concurrently(client, plan)

        # Every response matches the direct, in-process computation for
        # *its own* request — no cross-request mixups under concurrency.
        for (endpoint, kwargs), cold_result, warm_result in zip(plan, cold, warm):
            if endpoint == "evaluate":
                expected = api_evaluate(MODEL, BOARD, kwargs["architecture"],
                                        ce_count=kwargs["ce_count"])
                assert cold_result.report == expected
                assert warm_result.report == expected
                # 100% cache hits on replay.
                assert warm_result.cached
            elif endpoint == "sweep":
                expected = api_sweep(MODEL, BOARD, ce_counts=kwargs["ce_counts"])
                assert cold_result.reports == list(expected)
                assert warm_result.reports == list(expected)
                assert warm_result.stats["hit_rate"] == 1.0
            else:
                assert cold_result.front == warm_result.front
                assert warm_result.stats["cache_hits"] == kwargs["samples"]


class TestCampaign:
    SPEC = {
        "name": "service-campaign",
        "seed": 5,
        "strategy": "evolve",
        "population": 6,
        "generations": 2,
        "cells": [{"model": MODEL, "board": BOARD}],
    }

    def test_background_campaign_round_trips(self, client):
        campaign_id = client.start_campaign(self.SPEC)
        snapshot = client.wait_campaign(campaign_id, timeout=120)
        assert snapshot["state"] == "done"
        assert snapshot["error"] is None
        campaign = snapshot["campaign"]
        assert campaign["done"] is True
        cell = campaign["cells"][0]
        assert cell["status"] == "done"
        assert cell["front"], "campaign finished with an empty front"
        # Front reports rebuild bit-identically over the wire.
        from repro.core.cost.export import report_from_dict, report_to_dict

        for entry in cell["front"]:
            assert report_to_dict(report_from_dict(entry["report"])) == entry["report"]
        # And the job is listed.
        assert campaign_id in [job["id"] for job in client.campaigns()]

    def test_matches_in_process_campaign(self, client):
        from repro.dse.campaign import run_campaign

        campaign_id = client.start_campaign(self.SPEC)
        snapshot = client.wait_campaign(campaign_id, timeout=120)
        local = run_campaign(dict(self.SPEC))
        local_fronts = [cell.to_dict()["front"] for cell in local.cells]
        service_fronts = [
            cell["front"] for cell in snapshot["campaign"]["cells"]
        ]
        assert service_fronts == local_fronts

    def test_unknown_campaign_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.campaign("never-started")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_campaign"

    def test_bad_spec_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.start_campaign(
                {"strategy": "annealing", "cells": [{"model": MODEL, "board": BOARD}]}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "campaign_error"

    def test_unknown_cell_model_is_404_with_suggestion(self, client):
        # Unknown workloads in campaign cells use the registry's typed error.
        with pytest.raises(ServiceError) as excinfo:
            client.start_campaign({"cells": [{"model": "resnet5", "board": BOARD}]})
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_workload"
        assert "did you mean 'resnet50'" in str(excinfo.value)

    def test_settled_jobs_are_evicted_beyond_cap(self):
        from repro.dse.campaign import Campaign, CampaignSpec
        from repro.service.handlers import MAX_RETAINED_CAMPAIGNS, ServiceState

        state = ServiceState()
        spec = CampaignSpec.from_dict(
            {
                "name": "evict",
                "population": 4,
                "generations": 0,
                "cells": [{"model": MODEL, "board": BOARD}],
            }
        )
        # Start sequentially (joining each) so the running-campaign cap
        # never rejects a start; only settled-job retention is under test.
        jobs = []
        for _ in range(MAX_RETAINED_CAMPAIGNS + 5):
            job = state.start_campaign(Campaign(spec))
            job.thread.join()
            jobs.append(job)
        newest = state.start_campaign(Campaign(spec))
        newest.thread.join()
        retained = state.campaign_jobs()
        assert len(retained) <= MAX_RETAINED_CAMPAIGNS + 1
        # The newest job always survives; the evicted ones are the oldest.
        assert newest.id in [job.id for job in retained]
        assert jobs[0].id not in [job.id for job in retained]

    def test_running_campaign_cap(self):
        import threading

        from repro.dse.campaign import Campaign, CampaignSpec
        from repro.service.handlers import MAX_RUNNING_CAMPAIGNS, ServiceState
        from repro.service.schema import RequestError

        state = ServiceState()
        spec = CampaignSpec.from_dict(
            {
                "name": "cap",
                "population": 4,
                "generations": 0,
                "cells": [{"model": MODEL, "board": BOARD}],
            }
        )
        # Campaigns that block until released, so they all count as running.
        gate = threading.Event()

        class _Blocked(Campaign):
            def run(self, max_rounds=None):
                gate.wait(timeout=30)
                return super().run(max_rounds=max_rounds)

        jobs = [
            state.start_campaign(_Blocked(spec))
            for _ in range(MAX_RUNNING_CAMPAIGNS)
        ]
        try:
            with pytest.raises(RequestError) as excinfo:
                state.start_campaign(_Blocked(spec))
            assert excinfo.value.status == 429
        finally:
            gate.set()
            for job in jobs:
                job.thread.join()

    def test_budget_cap_enforced(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.start_campaign(
                {
                    "population": 1000,
                    "generations": 1000,
                    "cells": [{"model": MODEL, "board": BOARD}],
                }
            )
        assert excinfo.value.status == 400


class TestLifecycle:
    def test_stop_is_graceful_and_idempotent(self):
        service = EvaluationService(port=0).start()
        client = ServiceClient(service.url)
        assert client.healthz()["status"] == "ok"
        service.stop()
        service.stop()
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(service.url, timeout=0.5).healthz()
        assert excinfo.value.kind == "connection_error"

    def test_double_start_rejected(self):
        service = EvaluationService(port=0).start()
        try:
            with pytest.raises(Exception):
                service.start()
        finally:
            service.stop()


class TestWorkloadRegistration:
    """POST /models and /boards: live registration through the registry."""

    @pytest.fixture
    def clean_workloads(self):
        """Remove every custom registration after the test (global registry)."""
        from repro import workloads

        yield workloads
        for name in list(workloads.REGISTRY.models.customs()):
            workloads.unregister_model(name)
        for name in list(workloads.REGISTRY.boards.customs()):
            workloads.unregister_board(name)

    @staticmethod
    def _definition(name="svcnet"):
        from repro.cnn.serialize import graph_to_dict
        from tests.conftest import build_tiny_cnn

        definition = graph_to_dict(build_tiny_cnn())
        definition["name"] = name
        return definition

    def test_register_model_evaluate_bit_identical(self, client, clean_workloads):
        from repro.cnn.serialize import graph_from_dict
        from repro.core.cost.export import report_to_dict

        definition = self._definition()
        entry = client.register_model(definition)
        assert entry["name"] == "svcnet"
        assert entry["custom"] is True
        assert entry["conv_layers"] == 8
        result = client.evaluate("svcnet", BOARD, "segmentedrr", ce_count=2)
        direct = api_evaluate(
            graph_from_dict(definition), BOARD, "segmentedrr", ce_count=2
        )
        assert result.feasible
        assert report_to_dict(result.report) == report_to_dict(direct)

    def test_catalog_invalidates_on_registration(self, client, clean_workloads):
        before = [entry["name"] for entry in client.models()]  # warm the cache
        assert "svcnet" not in before
        client.register_model(self._definition())
        after = {entry["name"]: entry for entry in client.models()}
        assert after["svcnet"]["custom"] is True
        assert [name for name in after] == sorted(after)  # still sorted

    def test_reregistration_is_idempotent_conflict_is_409(self, client, clean_workloads):
        client.register_model(self._definition())
        client.register_model(self._definition())  # identical: no error
        edited = self._definition()
        edited["layers"][1]["kernel_size"] = [5, 5]
        with pytest.raises(ServiceError) as excinfo:
            client.register_model(edited)
        assert excinfo.value.status == 409
        assert excinfo.value.kind == "workload_conflict"
        client.register_model(edited, replace=True)  # explicit replace works

    def test_builtin_names_reserved(self, client, clean_workloads):
        with pytest.raises(ServiceError) as excinfo:
            client.register_model(self._definition(name=MODEL))
        assert excinfo.value.status == 409

    def test_malformed_model_is_shape_error(self, client, clean_workloads):
        with pytest.raises(ServiceError) as excinfo:
            client.register_model({"name": "broken", "layers": []})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "shape_error"

    def test_register_board_and_evaluate(self, client, clean_workloads):
        entry = client.register_board(
            {"name": "svcboard", "dsp_count": 900, "bram_mib": 2.4,
             "bandwidth_gbps": 3.2}
        )
        assert entry["name"] == "svcboard" and entry["custom"] is True
        listed = {board["name"]: board for board in client.boards()}
        assert listed["svcboard"]["custom"] is True
        assert listed[BOARD]["custom"] is False
        result = client.evaluate(MODEL, "svcboard", "segmentedrr", ce_count=2)
        # Same resource budget as zc706: the content-keyed evaluator registry
        # must give bit-identical answers.
        direct = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        assert result.report == direct

    def test_board_precision_restriction_rejected(self, client, clean_workloads):
        client.register_board(
            {"name": "int8board", "dsp_count": 512, "bram_mib": 4.0,
             "bandwidth_gbps": 8.0, "supported_precisions": ["int8"]}
        )
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(MODEL, "int8board", "segmentedrr", ce_count=2)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "workload_error"
        result = client.evaluate(
            MODEL, "int8board", "segmentedrr", ce_count=2,
            precision={"weights": "int8", "activations": "int8"},
        )
        assert result.feasible
        # A warm context on the board must not let the unsupported
        # precision past the check.
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(MODEL, "int8board", "segmentedrr", ce_count=2)
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "workload_error"

    def test_replaced_model_gets_a_new_context(self, client, clean_workloads):
        from repro.cnn.serialize import graph_from_dict

        client.register_model(self._definition())
        first = client.evaluate("svcnet", BOARD, "segmentedrr", ce_count=2)
        edited = self._definition()
        edited["layers"][1]["kernel_size"] = [5, 5]
        client.register_model(edited, replace=True)
        second = client.evaluate("svcnet", BOARD, "segmentedrr", ce_count=2)
        assert second.report == api_evaluate(
            graph_from_dict(edited), BOARD, "segmentedrr", ce_count=2
        )
        assert second.report != first.report
        assert second.raw["fingerprint"] != first.raw["fingerprint"]

    def test_graph_edited_in_place_and_replaced_gets_a_new_context(self, clean_workloads):
        from repro.cnn.zoo.common import NetBuilder

        net = NetBuilder("growing", (32, 32, 3))
        net.conv(16, kernel=3, stride=2, name="c1")
        graph = net.build()
        clean_workloads.register_model(graph)
        state = ServiceState()
        try:
            first = state.evaluator_for("growing", BOARD, DEFAULT_PRECISION).evaluator
            net.conv(32, kernel=3, name="c2")  # same object, new content
            clean_workloads.register_model(graph, replace=True)
            second = state.evaluator_for("growing", BOARD, DEFAULT_PRECISION).evaluator
            assert second is not first
            assert state.evaluator_count == 2
        finally:
            state.close()

    def test_unknown_names_still_404_after_warm_hits(self, clean_workloads):
        clean_workloads.register_model(self._definition())
        state = ServiceState()
        try:
            state.evaluator_for("svcnet", BOARD, DEFAULT_PRECISION)
            clean_workloads.unregister_model("svcnet")
            for name in ("svcnet", "squeezene"):
                with pytest.raises(UnknownWorkloadError) as excinfo:
                    state.evaluator_for(name, BOARD, DEFAULT_PRECISION)
                assert schema.classify_error(excinfo.value) == (404, "unknown_workload")
            payload = schema.error_payload(excinfo.value)["error"]
            assert payload["suggestion"] == MODEL
        finally:
            state.close()

    def test_evaluator_contexts_are_bounded(self, clean_workloads):
        # Content-keyed contexts would otherwise accumulate across model or
        # board re-registrations; the service must evict LRU beyond the cap.
        from repro.service.handlers import MAX_EVALUATOR_CONTEXTS, ServiceState
        from repro.hw.datatypes import DEFAULT_PRECISION

        clean_workloads.register_model(self._definition())
        state = ServiceState()
        try:
            for index in range(MAX_EVALUATOR_CONTEXTS + 4):
                clean_workloads.register_board(
                    {"name": "evictboard", "dsp_count": 256 + index,
                     "bram_mib": 2.0, "bandwidth_gbps": 8.0},
                    replace=True,
                )
                state.evaluator_for("svcnet", "evictboard", DEFAULT_PRECISION)
            assert state.evaluator_count == MAX_EVALUATOR_CONTEXTS
            # The most recent context is still resolvable and warm.
            evaluator = state.evaluator_for(
                "svcnet", "evictboard", DEFAULT_PRECISION
            ).evaluator
            assert evaluator.board.dsp_count == 256 + MAX_EVALUATOR_CONTEXTS + 3
        finally:
            state.close()

    def test_campaign_accepts_registered_model(self, client, clean_workloads):
        client.register_model(self._definition())
        spec = {
            "name": "custom-http",
            "population": 4,
            "generations": 1,
            "cells": [{"model": "svcnet", "board": BOARD}],
        }
        snapshot = client.wait_campaign(client.start_campaign(spec), timeout=120)
        assert snapshot["state"] == "done"
        assert snapshot["campaign"]["cells"][0]["front"]


class TestBackpressure:
    """The bounded in-flight budget answers typed 429s instead of piling up."""

    def test_429_when_budget_exhausted(self):
        with EvaluationService(port=0, max_inflight=2) as service:
            client = ServiceClient(service.url)
            state = service.state
            assert state.try_begin_request() and state.try_begin_request()
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.evaluate(MODEL, BOARD, "segmented", 3)
                assert excinfo.value.status == 429
                assert excinfo.value.kind == "backpressure"
                assert excinfo.value.retry_after == 1
            finally:
                state.end_request()
                state.end_request()
            # Budget released: the same request now succeeds.
            assert client.evaluate(MODEL, BOARD, "segmented", 3).feasible

    def test_retry_after_header_on_the_wire(self):
        with EvaluationService(port=0, max_inflight=1) as service:
            state = service.state
            assert state.try_begin_request()
            try:
                request = urllib.request.Request(
                    f"{service.url}/evaluate",
                    method="POST",
                    data=json.dumps(
                        {"model": MODEL, "board": BOARD,
                         "architecture": "segmented", "ce_count": 3}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 429
                assert excinfo.value.headers["Retry-After"] == "1"
                payload = json.loads(excinfo.value.read().decode())
                assert payload["error"]["kind"] == "backpressure"
                assert payload["error"]["retry_after"] == 1
            finally:
                state.end_request()

    def test_partial_body_holds_no_slot(self):
        # The server reads a POST's whole body before claiming a slot, so a
        # client that stalls mid-body cannot pin the budget.
        with EvaluationService(port=0, max_inflight=1) as service:
            client = ServiceClient(service.url)
            with socket.create_connection((service.host, service.port), timeout=30) as stalled:
                stalled.sendall(
                    b"POST /evaluate HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                    b'{"model": "squeezenet",'
                )
                time.sleep(0.2)  # let the server read the head and start on the body
                assert client.healthz()["inflight"] == 0
                assert client.evaluate(MODEL, BOARD, "segmented", 3).feasible

    def test_gets_stay_answerable_under_saturation(self):
        # Health checks and campaign polls must not be starved by model work.
        with EvaluationService(port=0, max_inflight=1) as service:
            client = ServiceClient(service.url)
            state = service.state
            assert state.try_begin_request()
            try:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["inflight"] == 1
                assert health["max_inflight"] == 1
                assert client.models()
            finally:
                state.end_request()


class TestDraining:
    def test_503_with_retry_after_once_draining(self):
        service = EvaluationService(port=0)
        service.start()
        try:
            client = ServiceClient(service.url)
            assert client.healthz()["draining"] is False
            service.state.begin_draining()
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate(MODEL, BOARD, "segmented", 3)
            assert excinfo.value.status == 503
            assert excinfo.value.kind == "draining"
            assert excinfo.value.retry_after == 1
            # GETs drain the same way: the worker is going away.
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
        finally:
            service.stop()


class TestHangups:
    def test_client_hanging_up_before_its_reply_is_quiet(self, monkeypatch, capfd, caplog):
        entered, release = threading.Event(), threading.Event()

        def slow(state):
            entered.set()
            release.wait(30)
            return 200, {"slow": True}

        monkeypatch.setitem(service_server.ROUTES["GET"], "/slow", (None, slow))
        with EvaluationService(port=0) as service:
            sock = socket.create_connection((service.host, service.port), timeout=30)
            sock.sendall(b"GET /slow HTTP/1.1\r\nHost: localhost\r\n\r\n")
            assert entered.wait(30)
            # Hang up with a reset, so the reply's write fails at once.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            time.sleep(0.1)
            release.set()
            deadline = time.monotonic() + 30
            while service.state.active_requests and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # a traceback would be printed by now
            client = ServiceClient(service.url)
            assert client.evaluate(MODEL, BOARD, "segmented", 3).feasible
            assert client.healthz()["requests"]["/slow"] == 1
        captured = capfd.readouterr()
        assert captured.err == ""
        assert not [record for record in caplog.records if record.levelno >= logging.WARNING]


class TestClientTransport:
    """Keep-alive reuse plus the single idempotent-GET retry."""

    def test_connection_is_reused_across_requests(self):
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            client.healthz()
            first = client._local.connection
            assert first is not None
            client.models()
            assert client._local.connection is first  # same socket, kept alive

    def test_error_responses_close_and_recover(self):
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError):
                client.evaluate("no-such-model", BOARD, "segmented", 3)
            # The server closed the connection on the 4xx; the client must
            # transparently reconnect for the next (non-retried) POST.
            assert client.evaluate(MODEL, BOARD, "segmented", 3).feasible

    def test_get_retries_once_across_server_restart(self):
        first = EvaluationService(port=0)
        first.start()
        port = first.port
        client = ServiceClient(first.url)
        assert client.healthz()["status"] == "ok"
        first.stop()
        # Same port, new process-worth of state: the warm keep-alive socket
        # is now dead, so the first GET attempt fails and the retry lands.
        second = EvaluationService(port=port)
        second.start()
        try:
            assert client.healthz()["status"] == "ok"
        finally:
            second.stop()

    def test_post_is_not_retried(self, monkeypatch):
        # Grab a port with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}")
        backoffs = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: backoffs.append(s)
        )
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.kind == "connection_error"
        assert len(backoffs) == 1  # GET: one retry, one backoff sleep
        backoffs.clear()
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(MODEL, BOARD, "segmented", 3)
        assert excinfo.value.kind == "connection_error"
        assert backoffs == []  # POST: fails immediately, never retried
