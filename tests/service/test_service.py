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
from repro.dse import CustomDesignSpace, random_search
from repro.hw.boards import available_boards
from repro.hw.datatypes import DEFAULT_PRECISION, INT8, Precision
from repro.runtime import BatchEvaluator
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

    def test_healthz_reports_the_memory_budget(self):
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            for ce_count in (2, 3):
                client.evaluate(MODEL, BOARD, "segmented", ce_count)
            client.sweep(MODEL, BOARD, architectures=["hybrid"], ce_counts=[2, 3, 4])
            memory = client.healthz()["memory"]
            client.close()
        assert memory["entries"] == 5 and memory["replays"] == 2
        assert memory["budget"] == handlers.MEMORY_BUDGET
        if sys.platform.startswith("linux"):
            assert memory["rss_mib"] > 0

    def test_rss_is_null_without_proc(self, monkeypatch):
        def no_file(*_args, **_kwargs):
            raise FileNotFoundError("/proc/self/status")

        monkeypatch.setattr(handlers, "open", no_file, raising=False)
        state = ServiceState()
        try:
            assert handlers.handle_healthz(state)[1]["memory"]["rss_mib"] is None
        finally:
            state.close()

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

    def test_a_warm_sweep_hashes_nothing(self, fingerprint_calls, monkeypatch):
        """The service's context is keyed by what the request resolved to,
        so a sweep through it runs no check of its own."""
        from repro import api

        checks = []
        check = api.context_fingerprint
        monkeypatch.setattr(
            api, "context_fingerprint", lambda *args: checks.append(args) or check(*args)
        )
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            for _ in range(3):
                client.sweep(MODEL, BOARD, architectures=["segmented"], ce_counts=[2, 3])
            client.close()
        assert len(fingerprint_calls) == 1 and checks == []

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
        evaluator = BatchEvaluator(graph, board)
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

    @pytest.mark.parametrize(
        "spec",
        [
            {"crossover_rate": True, "cells": [{"model": MODEL, "board": BOARD}]},
            {"cells": [{"model": MODEL, "board": BOARD, "max_pipelined": True}]},
        ],
        ids=["rate", "max_pipelined"],
    )
    def test_a_boolean_number_is_rejected(self, client, spec):
        with pytest.raises(ServiceError) as excinfo:
            client.start_campaign(spec)
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

    def test_sibling_worker_knows_a_started_campaign(self, tmp_path, monkeypatch):
        """A fleet hands out a campaign id only once every worker can answer
        for it: the owner's first snapshot is in the shared run dir before
        ``start_campaign`` returns, however late the job thread starts."""
        from repro.dse.campaign import Campaign, CampaignSpec
        from repro.service.handlers import CampaignJob, handle_campaign_events

        gate = threading.Event()
        run = CampaignJob._run

        def held_run(job):
            gate.wait(timeout=30)
            run(job)

        monkeypatch.setattr(CampaignJob, "_run", held_run)
        owner = ServiceState(shared_dir=tmp_path)
        sibling = ServiceState(shared_dir=tmp_path)
        spec = CampaignSpec.from_dict(
            {
                "name": "race",
                "population": 4,
                "generations": 0,
                "cells": [{"model": MODEL, "board": BOARD}],
            }
        )
        job = owner.start_campaign(Campaign(spec))
        try:
            assert sibling.campaign_job(job.id) is None
            snapshot = sibling.campaign_snapshot(job.id)
            assert snapshot is not None
            assert (snapshot["id"], snapshot["state"]) == (job.id, "running")
            # The sibling streams the events instead of answering 404.
            handle_campaign_events(sibling, job.id, {})
            gate.set()
            job.thread.join()
            assert sibling.campaign_snapshot(job.id)["state"] == "done"
        finally:
            gate.set()
            job.thread.join()
            owner.close()
            sibling.close()

    def test_a_fleet_campaign_has_one_writer(self, tmp_path, monkeypatch):
        """A fleet campaign runs one thread, which writes its snapshot after
        every event and once when it settles; only the registration write
        comes from the thread that starts it."""
        from repro.dse.campaign import Campaign, CampaignSpec

        gate = threading.Event()

        class _Held(Campaign):
            def run(self, max_rounds=None):
                gate.wait(timeout=30)
                return super().run(max_rounds=max_rounds)

        writers = []
        write_atomic = handlers.write_atomic

        def spy(path, data, **kwargs):
            if path.parent.name == "campaigns":
                writers.append(threading.current_thread().name)
            write_atomic(path, data, **kwargs)

        monkeypatch.setattr(handlers, "write_atomic", spy)
        state = ServiceState(shared_dir=tmp_path)
        spec = CampaignSpec.from_dict(
            {"name": "writer", "population": 4, "generations": 1,
             "cells": [{"model": MODEL, "board": BOARD}]}
        )
        job = state.start_campaign(_Held(spec))
        try:
            threads = [t.name for t in threading.enumerate() if job.id in t.name]
            assert threads == [f"repro-campaign-{job.id}"]
        finally:
            gate.set()
            job.thread.join()
            state.close()
        events = len(job.events_after(0))
        assert events >= 5
        assert writers == [threading.current_thread().name] + [job.thread.name] * (events + 1)
        snapshot = json.loads((tmp_path / "campaigns" / f"{job.id}.json").read_text())
        assert snapshot == job.to_dict()

    def test_an_evicted_job_leaves_no_snapshot(self, tmp_path, monkeypatch):
        """A settled job whose thread has not yet written its last snapshot
        is not evicted: its snapshot file exists exactly while the worker
        lists the job."""
        from repro.dse.campaign import Campaign, CampaignSpec

        monkeypatch.setattr(handlers, "MAX_RETAINED_CAMPAIGNS", 0)
        state = ServiceState(shared_dir=tmp_path)
        held, release = threading.Event(), threading.Event()
        write_atomic = handlers.write_atomic

        def held_last_write(path, data, **kwargs):
            job = state.campaign_job(path.stem)
            if job is not None and job.finished is not None and not held.is_set():
                held.set()
                release.wait(30)
            write_atomic(path, data, **kwargs)

        monkeypatch.setattr(handlers, "write_atomic", held_last_write)
        spec = CampaignSpec.from_dict(
            {"name": "evict", "population": 4, "generations": 0,
             "cells": [{"model": MODEL, "board": BOARD}]}
        )

        def listed_exactly_while_written(job):
            listed = state.campaign_job(job.id) is not None
            return (tmp_path / "campaigns" / f"{job.id}.json").exists() == listed

        first = state.start_campaign(Campaign(spec))
        try:
            assert held.wait(30)  # first has settled; its last write waits
            second = state.start_campaign(Campaign(spec))
            second.thread.join()
        finally:
            release.set()
            first.thread.join()
        try:
            assert listed_exactly_while_written(first)
            # Once its thread has ended, the next start evicts it, files too.
            third = state.start_campaign(Campaign(spec))
            third.thread.join()
            assert state.campaign_job(first.id) is None
            assert listed_exactly_while_written(first)
            assert listed_exactly_while_written(second)
        finally:
            state.close()

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

    def test_stop_after_a_request_returns_promptly(self):
        # stop() waits for the serving loop's next shutdown check, which
        # comes at most POLL_SECONDS after the request was answered.
        service = EvaluationService(port=0).start()
        assert ServiceClient(service.url).healthz()["status"] == "ok"
        start = time.perf_counter()
        service.stop()
        assert time.perf_counter() - start < 0.25

    def test_double_start_rejected(self):
        service = EvaluationService(port=0).start()
        try:
            with pytest.raises(Exception):
                service.start()
        finally:
            service.stop()

    def test_stop_waits_for_an_in_flight_request(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()

        def slow(state):
            entered.set()
            release.wait(30)
            return 200, {"slow": True}

        monkeypatch.setitem(service_server.ROUTES["GET"], "/slow", (None, slow))
        service = EvaluationService(port=0).start()
        sock = socket.create_connection((service.host, service.port), timeout=30)
        try:
            sock.sendall(b"GET /slow HTTP/1.1\r\nHost: localhost\r\n\r\n")
            assert entered.wait(30)
            stopper = threading.Thread(target=service.stop)
            stopper.start()
            stopper.join(0.5)
            assert stopper.is_alive(), "stop() returned with a request in flight"
            assert service.state.active_requests == 1
            release.set()
            stopper.join(30)
            assert not stopper.is_alive()
            assert service.state.active_requests == 0
            reply = b""
            while True:  # the drained service closes the connection
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert json.loads(body) == {"slow": True}
        finally:
            release.set()
            sock.close()
            service.stop()


class TestLoopNeverWaits:
    """One serving loop answers every connection, so nothing one request
    waits for (a held context lock, the disk, a client that does not
    read) may hold up another connection's answer."""

    def test_held_context_delays_no_other_request(self, monkeypatch):
        import repro.dse

        entered, release = threading.Event(), threading.Event()
        search = repro.dse.random_search

        def held_search(*args, **kwargs):
            entered.set()
            release.wait(30)
            return search(*args, **kwargs)

        monkeypatch.setattr(repro.dse, "random_search", held_search)
        results = {}

        def call(name, request):
            try:
                results[name] = request()
            except Exception as error:  # pragma: no cover - failure reporting
                results[name] = error

        with EvaluationService(port=0) as service:
            # Seen before: the loop starts it and finds the context held.
            assert ServiceClient(service.url).evaluate(MODEL, BOARD, "segmented", 4).feasible
            held = threading.Thread(target=call, args=(
                "dse", lambda: ServiceClient(service.url, timeout=60).dse(MODEL, BOARD, samples=5, seed=1),
            ))
            queued = threading.Thread(target=call, args=(
                "queued", lambda: ServiceClient(service.url, timeout=60).evaluate(
                    MODEL, BOARD, "segmented", 4
                ),
            ))
            held.start()
            try:
                assert entered.wait(30)
                queued.start()
                deadline = time.monotonic() + 30
                while service.state.active_requests < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert service.state.active_requests == 2  # the /evaluate waits for the lock
                client = ServiceClient(service.url, timeout=10)
                start = time.perf_counter()
                assert client.healthz()["status"] == "ok"
                assert time.perf_counter() - start < 1.0
                start = time.perf_counter()
                assert client.evaluate(MODEL, "zcu102", "segmented", 3).feasible
                assert time.perf_counter() - start < 1.0
                assert not results, "a request on the held context answered early"
            finally:
                release.set()
                held.join(60)
                queued.join(60)
        assert results["dse"].front
        assert results["queued"].feasible
        assert results["queued"].report == api_evaluate(MODEL, BOARD, "segmented", 4)

    def test_an_evicted_design_is_evaluated_off_the_loop(self, monkeypatch, tmp_path):
        """A body the loop has seen, whose entry the in-memory cache has
        since dropped, misses on the loop and goes on on a thread."""
        from repro.runtime import cache

        monkeypatch.setattr(handlers, "MEMORY_BUDGET", 1)

        entered, release = threading.Event(), threading.Event()
        put = cache.DiskCache.put

        def held_put(*args, **kwargs):
            entered.set()
            release.wait(30)
            return put(*args, **kwargs)

        results = {}

        def replay():
            client = ServiceClient(service.url, timeout=60)
            results["replay"] = client.evaluate(MODEL, BOARD, "segmented", 4)

        with EvaluationService(port=0, cache_dir=str(tmp_path / "a")) as service:
            client = ServiceClient(service.url, timeout=10)
            for ce_count in (4, 3):  # the second evicts the first
                assert client.evaluate(MODEL, BOARD, "segmented", ce_count).feasible
            # A fresh disk tier, so the replay evaluates and writes.
            context = service.state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
            monkeypatch.setattr(context.evaluator, "_disk", cache.DiskCache(tmp_path / "b"))
            monkeypatch.setattr(cache.DiskCache, "put", held_put)
            thread = threading.Thread(target=replay)
            thread.start()
            try:
                assert entered.wait(30)
                start = time.perf_counter()
                assert client.healthz()["status"] == "ok"
                assert time.perf_counter() - start < 1.0
                assert not results
            finally:
                release.set()
                thread.join(60)
        assert results["replay"].report == api_evaluate(MODEL, BOARD, "segmented", 4)

    def test_a_client_that_never_reads_delays_no_one(self):
        body = json.dumps(
            {"model": MODEL, "board": BOARD, "architecture": "segmentedrr", "ce_count": 2}
        ).encode("ascii")
        request = (
            b"POST /evaluate HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body)
        ) + body
        with EvaluationService(port=0) as service:
            hog = socket.create_connection((service.host, service.port), timeout=60)

            def pipeline():
                try:
                    hog.sendall(request * 5000)
                except OSError:
                    pass  # closed below, with the server no longer reading

            sender = threading.Thread(target=pipeline, daemon=True)
            sender.start()
            try:
                time.sleep(0.5)  # the loop answers until the replies back up
                client = ServiceClient(service.url, timeout=10)
                for _ in range(5):
                    start = time.perf_counter()
                    assert client.healthz()["status"] == "ok"
                    assert time.perf_counter() - start < 1.0
            finally:
                hog.close()
                sender.join(30)

    @pytest.mark.parametrize("held", ["DiskCache.put", "DiskCache.__init__"])
    def test_disk_work_delays_no_other_request(self, monkeypatch, tmp_path, held):
        """A cold ``/evaluate`` writes the disk tier, and the first one of a
        context opens it; while either waits, other connections answer."""
        from repro.runtime import cache

        entered, release = threading.Event(), threading.Event()
        name = held.split(".")[1]
        original = getattr(cache.DiskCache, name)

        def held_call(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return original(*args, **kwargs)

        results = {}

        def cold():
            client = ServiceClient(service.url, timeout=60)
            results["cold"] = client.evaluate(MODEL, BOARD, "segmented", 4)

        with EvaluationService(port=0, cache_dir=str(tmp_path)) as service:
            client = ServiceClient(service.url, timeout=10)
            assert client.evaluate(MODEL, "zcu102", "segmented", 3).feasible
            monkeypatch.setattr(cache.DiskCache, name, held_call)
            thread = threading.Thread(target=cold)
            thread.start()
            try:
                assert entered.wait(30)
                for request in (
                    client.healthz,
                    lambda: client.evaluate(MODEL, "zcu102", "segmented", 3),
                ):
                    start = time.perf_counter()
                    request()
                    assert time.perf_counter() - start < 1.0
                assert not results
            finally:
                release.set()
                thread.join(60)
        assert results["cold"].report == api_evaluate(MODEL, BOARD, "segmented", 4)

    def test_a_held_cache_count_delays_no_other_request(self, monkeypatch, tmp_path):
        """``/healthz`` counts the disk tier's entry files; while the count
        waits, other connections answer."""
        from repro.runtime import cache

        entered, release = threading.Event(), threading.Event()
        count = cache.DiskCache.__len__

        def held_count(self):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return count(self)

        results = {}

        def health():
            results["health"] = ServiceClient(service.url, timeout=60).healthz()

        with EvaluationService(port=0, cache_dir=str(tmp_path)) as service:
            client = ServiceClient(service.url, timeout=10)
            assert client.evaluate(MODEL, BOARD, "segmented", 4).feasible
            monkeypatch.setattr(cache.DiskCache, "__len__", held_count)
            thread = threading.Thread(target=health)
            thread.start()
            try:
                assert entered.wait(30)
                start = time.perf_counter()
                assert client.models()
                assert time.perf_counter() - start < 1.0
                assert not results
            finally:
                release.set()
                thread.join(60)
        assert results["health"]["shared_cache"] == {"dir": str(tmp_path), "entries": 1}

    @pytest.mark.parametrize(
        "path", ["/healthz", "/campaign", "/campaign/c1-1", "/campaign/c1-1/events"]
    )
    def test_fleet_file_reads_delay_no_other_request(self, monkeypatch, tmp_path, path):
        """In a fleet, ``/healthz`` reads the workers' status files and the
        ``/campaign`` routes a sibling's snapshot; while a read waits, other
        connections answer."""
        entered, release = threading.Event(), threading.Event()
        read_json = handlers._read_json

        def held_read(*args):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return read_json(*args)

        state = ServiceState(shared_dir=tmp_path)
        snapshot = {"id": "c1-1", "state": "done", "started": 1.0, "campaign": {"name": "x"}}
        (tmp_path / "campaigns" / "c1-1.json").write_text(json.dumps(snapshot))
        monkeypatch.setattr(handlers, "_read_json", held_read)
        loop = service_server.ServingLoop(service_server.bound_socket("127.0.0.1", 0), state)
        host, port = loop.listener.getsockname()[:2]
        serving = threading.Thread(target=loop.run, daemon=True)
        serving.start()
        statuses = {}

        def get(name, target, timeout):
            connection = http.client.HTTPConnection(host, port, timeout=timeout)
            try:
                connection.request("GET", target)
                response = connection.getresponse()
                response.read()
                statuses[name] = response.status
            finally:
                connection.close()

        held = threading.Thread(target=get, args=("held", path, 60))
        held.start()
        try:
            assert entered.wait(30)
            start = time.perf_counter()
            get("models", "/models", 10)
            assert time.perf_counter() - start < 1.0
            assert statuses == {"models": 200}
        finally:
            release.set()
            held.join(60)
            loop.request_stop()
            serving.join(10)
            state.close()
        assert statuses == {"models": 200, "held": 200}

    def test_the_loop_builds_no_context(self):
        """Nor looks one up by name: replays find theirs through the memo."""
        state = ServiceState()
        try:
            handlers.never_wait()  # as on a serving loop
            with pytest.raises(handlers.NeedsThread):
                state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
            assert state.evaluator_count == 0
            handlers.never_wait(False)
            state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
            handlers.never_wait()
            with pytest.raises(handlers.NeedsThread):
                state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
            assert state.evaluator_count == 1
        finally:
            handlers.never_wait(False)
            state.close()

    def test_hashing_a_new_context_delays_no_warm_replay(self, monkeypatch):
        """A cold request hashes its new context off the loop, and no lock
        the loop takes is held meanwhile."""
        entered, release = threading.Event(), threading.Event()
        fingerprint = handlers.context_fingerprint

        def held_fingerprint(*args):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return fingerprint(*args)

        results = {}

        def cold():
            client = ServiceClient(service.url, timeout=60)
            results["cold"] = client.evaluate(MODEL, "zcu102", "segmented", 3)
            client.close()

        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url, timeout=10)
            for _ in range(2):  # the second one is a warm replay on the loop
                assert client.evaluate(MODEL, BOARD, "segmented", 4).feasible
            monkeypatch.setattr(handlers, "context_fingerprint", held_fingerprint)
            thread = threading.Thread(target=cold)
            thread.start()
            try:
                assert entered.wait(30)
                start = time.perf_counter()
                assert client.evaluate(MODEL, BOARD, "segmented", 4).cached
                assert time.perf_counter() - start < 1.0
                assert not results
            finally:
                release.set()
                thread.join(60)
                client.close()
        assert results["cold"].report == api_evaluate(MODEL, "zcu102", "segmented", 3)

    @pytest.mark.parametrize("held", ["register", "model_summary"])
    def test_registry_work_delays_no_other_request(self, monkeypatch, held):
        """``POST /models`` checks and registers a definition, and
        ``GET /models`` builds a stale catalog (``model_summary`` collects
        each graph's stats); while either waits, other connections answer."""
        from repro import workloads
        from repro.cnn.serialize import graph_to_dict
        from repro.workloads import registry as workload_registry

        entered, release = threading.Event(), threading.Event()
        owner, attr = (
            (workloads.REGISTRY.models, "register")
            if held == "register"
            else (workload_registry, "collect_stats")
        )
        original = getattr(owner, attr)

        def held_call(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                entered.set()
                release.wait(30)
            return original(*args, **kwargs)

        definition = graph_to_dict(resolve_model(MODEL))
        definition["name"] = "heldnet"
        results = {}

        def held_request():
            client = ServiceClient(service.url, timeout=60)
            if held == "register":
                results["held"] = client.register_model(definition)
            else:
                results["held"] = client.models()
            client.close()

        monkeypatch.setattr(owner, attr, held_call)
        try:
            with EvaluationService(port=0) as service:
                thread = threading.Thread(target=held_request)
                thread.start()
                client = ServiceClient(service.url, timeout=10)
                try:
                    assert entered.wait(30)
                    start = time.perf_counter()
                    assert client.healthz()["status"] == "ok"
                    assert time.perf_counter() - start < 1.0
                    assert not results
                finally:
                    release.set()
                    thread.join(60)
                    client.close()
        finally:
            if "heldnet" in workloads.REGISTRY.models.customs():
                workloads.unregister_model("heldnet")
        assert results["held"]

    def test_idle_keepalive_connections_add_no_threads(self):
        with EvaluationService(port=0) as service:
            assert ServiceClient(service.url).healthz()["status"] == "ok"
            before = threading.active_count()
            connections = []
            try:
                for _ in range(32):
                    connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
                    connections.append(connection)
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                assert threading.active_count() <= before
            finally:
                for connection in connections:
                    connection.close()


class TestWorkerStatusFile:
    def test_written_off_the_loop_and_reports_a_whole_burst(self, monkeypatch, tmp_path):
        """A fleet worker's status file is rewritten by its own thread: the
        serving loop never writes it, and a burst's last request shows up
        without waiting for another request to come along."""
        writers = []
        write_atomic = handlers.write_atomic

        def spy(path, data, **kwargs):
            writers.append(threading.current_thread().name)
            write_atomic(path, data, **kwargs)

        monkeypatch.setattr(handlers, "write_atomic", spy)
        state = ServiceState(shared_dir=tmp_path)
        loop = service_server.ServingLoop(service_server.bound_socket("127.0.0.1", 0), state)
        host, port = loop.listener.getsockname()[:2]
        serving = threading.Thread(target=loop.run, name="serving-loop", daemon=True)
        serving.start()
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            for _ in range(20):
                connection.request("GET", "/models")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            connection.close()
            status_path = tmp_path / "workers" / f"{state.pid}.json"
            deadline = time.monotonic() + 1.0
            while True:
                status = json.loads(status_path.read_text()) if status_path.exists() else {}
                if status.get("requests") == {"/models": 20} or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert status["requests"] == {"/models": 20}
            assert writers and "serving-loop" not in writers
        finally:
            loop.request_stop()
            serving.join(10)
            state.close()


class TestWorkerStatusRecord:
    """``/healthz`` has one shape: a lone worker lists its own status record
    under ``workers``, as a fleet lists its workers' status files."""

    #: Every top-level field of ``/healthz`` without a disk cache.
    FIELDS = {
        "status", "version", "uptime_seconds", "evaluators", "jobs", "cache_dir",
        "inflight", "max_inflight", "draining", "requests", "errors", "cpu_seconds",
        "runtime", "memory", "worker_count", "workers",
    }

    def test_a_lone_worker_lists_its_own_record(self):
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            client.evaluate(MODEL, BOARD, "segmented", 2)
            health = client.healthz()
            client.close()
        assert set(health) == self.FIELDS
        assert health["worker_count"] == 1
        [worker] = health["workers"]
        assert worker["pid"] == service.state.pid
        for field in handlers.SUMMED_FIELDS:
            assert health[field] == worker[field], field
        for field in ("uptime_seconds", "max_inflight", "draining"):
            assert health[field] == worker[field], field
        assert health["requests"] == {"/evaluate": 1}
        assert health["runtime"]["submitted"] == 1

    def test_runtime_counters_survive_context_eviction(self, monkeypatch):
        """The lifetime counters never decrease: an evicted context's
        counts stay in them, and its reports stay in the worker's LRU."""
        monkeypatch.setattr(handlers, "MAX_EVALUATOR_CONTEXTS", 1)
        readings = []
        with EvaluationService(port=0) as service:
            client = ServiceClient(service.url)
            for board in ("zc706", "vcu110", "zc706"):
                assert client.evaluate(MODEL, board, "segmentedrr", 2).feasible
                health = client.healthz()
                runtime = health["runtime"]
                readings.append(
                    (health["evaluators"], runtime["submitted"], runtime["evaluations"],
                     runtime["memory_hits"])
                )
            client.close()
        assert readings == [(1, 1, 1, 0), (1, 2, 2, 0), (1, 3, 2, 1)]

    @staticmethod
    def three_context_requests():
        """Two designs on each of three boards: three contexts."""
        return [
            schema.parse_evaluate(
                {"model": MODEL, "board": board, "architecture": "segmentedrr", "ce_count": ces}
            )
            for board in ("zc706", "vcu110", "zcu102")
            for ces in (2, 3)
        ]

    def test_lifetime_counters_never_decrease_under_churn(self, monkeypatch):
        """Four threads cycle three contexts through a one-context cap while
        another thread samples the totals: no sample is below the last."""
        monkeypatch.setattr(handlers, "MAX_EVALUATOR_CONTEXTS", 1)
        requests = self.three_context_requests()
        state = ServiceState()
        samples, stop = [], threading.Event()

        def sample():
            while not stop.is_set():
                totals = state.runtime_totals()
                samples.append((totals.submitted, totals.evaluations, totals.memory_hits))

        def churn(offset):
            for index in range(100):
                handlers.handle_evaluate(state, requests[(offset + index) % len(requests)])

        threads = [threading.Thread(target=churn, args=(offset,)) for offset in range(4)]
        sampler = threading.Thread(target=sample)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sampler.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            stop.set()
            sampler.join(10)
            sys.setswitchinterval(interval)
            state.close()
        assert not any(thread.is_alive() for thread in [sampler, *threads])
        assert len(samples) > 100
        for before, after in zip(samples, samples[1:]):
            assert all(a <= b for a, b in zip(before, after)), (before, after)
        assert samples[-1][0] <= 400

    def test_a_late_request_on_an_evicted_context_keeps_its_counts(self, monkeypatch):
        """A request that looked its context up before another request
        evicted it, and takes its lock after, still counts: six threads x
        150 requests over three contexts through a one-context cap."""
        monkeypatch.setattr(handlers, "MAX_EVALUATOR_CONTEXTS", 1)
        requests = self.three_context_requests()
        state = ServiceState()

        def churn(offset):
            for index in range(150):
                handlers.handle_evaluate(state, requests[(offset + index) % len(requests)])

        threads = [threading.Thread(target=churn, args=(offset,)) for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            submitted = state.runtime_totals().submitted
        finally:
            sys.setswitchinterval(interval)
            state.close()
        assert not any(thread.is_alive() for thread in threads)
        assert submitted == 900


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
