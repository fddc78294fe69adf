"""Multi-worker serving tests: supervisor lifecycle over real processes.

These spawn ``repro serve --workers N`` as a subprocess (the same path the
CLI takes) and exercise the PR's acceptance criteria: fleet-aggregated
``/healthz``, responses bit-identical to the single-process server,
kill -9 crash restarts with the shared disk cache staying warm, graceful
SIGTERM draining, and campaign jobs visible from any worker.
"""

import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.api import evaluate as api_evaluate
from repro.api import sweep as api_sweep
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import MEMORY_BUDGET
from repro.service.loadtest import spawn_server, stop_server
from tests.service.test_service import assert_warm_keepalive_under_10ms

MODEL = "squeezenet"
BOARD = "zc706"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the multi-worker supervisor needs os.fork"
)


@pytest.fixture
def fleet():
    """A two-worker service subprocess, torn down (SIGTERM) after the test."""
    process, url = spawn_server(2, startup_timeout=60.0)
    try:
        yield process, url
    finally:
        stop_server(process)


def _connect_refused(url: str) -> bool:
    host, port = url.replace("http://", "").split(":")
    try:
        connection = socket.create_connection((host, int(port)), timeout=2.0)
    except OSError:
        return True
    connection.close()
    return False


def _wait_for_worker_change(client, dead_pids, tries=100):
    """Poll /healthz until 2 workers run and none of ``dead_pids`` remain."""
    for _ in range(tries):
        try:
            workers = client.healthz()["workers"]
        except ServiceError:
            # The poll itself may land on the just-killed worker's socket
            # before the kernel rebalances; that is part of the scenario.
            time.sleep(0.1)
            continue
        pids = {worker["pid"] for worker in workers}
        if len(pids) == 2 and not (pids & set(dead_pids)):
            return workers
        time.sleep(0.1)
    raise AssertionError(f"supervisor never replaced workers {dead_pids}")


class TestFleetHealth:
    def test_healthz_aggregates_workers(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["worker_count"] == 2
        pids = [worker["pid"] for worker in health["workers"]]
        assert len(set(pids)) == 2
        for worker in health["workers"]:
            assert worker["draining"] is False
            assert "requests" in worker and "runtime" in worker
        # Fleet totals are sums over the per-worker snapshots.
        assert health["errors"] == sum(w["errors"] for w in health["workers"])
        assert health["cpu_seconds"] == pytest.approx(
            sum(w["cpu_seconds"] for w in health["workers"])
        )
        assert health["shared_cache"]["entries"] == 0

    def test_requests_counted_across_fleet(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        for _ in range(4):
            client.evaluate(MODEL, BOARD, "segmented", 3)
        health = client.healthz()
        assert health["requests"].get("/evaluate", 0) >= 4
        assert health["shared_cache"]["entries"] >= 1


    def test_memory_summed_across_fleet(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        for ce_count in (2, 3):
            client.evaluate(MODEL, BOARD, "segmented", ce_count)
        health = client.healthz()
        client.close()
        memory, workers = health["memory"], health["workers"]
        for key in ("entries", "replays"):
            assert memory[key] == sum(w["memory"][key] for w in workers) >= 1
        assert memory["budget"] == MEMORY_BUDGET
        assert all(w["memory"]["budget"] == MEMORY_BUDGET for w in workers)
        rss = [w["memory"]["rss_mib"] for w in workers]
        if sys.platform.startswith("linux"):
            assert all(value > 0 for value in rss)
            assert memory["rss_mib"] == pytest.approx(sum(rss), abs=0.01)


class TestBitIdentical:
    def test_evaluate_matches_api(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        expected = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        result = client.evaluate(MODEL, BOARD, "segmentedrr", 2)
        assert result.feasible
        assert result.report == expected

    def test_sweep_matches_api(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=60.0)
        expected = api_sweep(
            MODEL, BOARD, architectures=["segmented", "hybrid"], ce_counts=[2, 3]
        )
        result = client.sweep(
            MODEL, BOARD, architectures=["segmented", "hybrid"], ce_counts=[2, 3]
        )
        assert result.reports == list(expected)

    def test_dse_deterministic_across_workers(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=60.0)
        # Whichever worker answers each call, the seeded search must agree.
        first = client.dse(MODEL, BOARD, samples=40, seed=7)
        second = client.dse(MODEL, BOARD, samples=40, seed=7)
        assert [report for _d, report in first.front] == [
            report for _d, report in second.front
        ]


class TestCrashRecovery:
    def test_kill9_restarts_worker_and_cache_stays_warm(self, fleet):
        process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        warm = client.evaluate(MODEL, BOARD, "segmented", 3)
        assert client.evaluate(MODEL, BOARD, "segmented", 3).cached

        original = [w["pid"] for w in client.healthz()["workers"]]
        os.kill(original[0], signal.SIGKILL)
        workers = _wait_for_worker_change(client, {original[0]})
        assert process.poll() is None  # the supervisor itself survived

        # Kill the second original worker too: every answer below now comes
        # from a replacement process that never evaluated this design.
        survivors = [w["pid"] for w in workers if w["pid"] in original]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        _wait_for_worker_change(client, set(original))

        replayed = client.evaluate(MODEL, BOARD, "segmented", 3)
        assert replayed.cached, "shared disk cache should be warm in replacements"
        assert replayed.report == warm.report


class TestCampaignsAcrossWorkers:
    def test_campaign_visible_from_any_worker(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        spec = {
            "name": "fleet-smoke",
            "strategy": "random",
            "samples": 6,
            "cells": [{"model": MODEL, "board": BOARD, "ce_counts": [2, 3]}],
        }
        campaign_id = client.start_campaign(spec)
        snapshot = client.wait_campaign(campaign_id, timeout=120.0)
        assert snapshot["state"] == "done"
        # Repeated polls land on arbitrary workers; all must know the job.
        for _ in range(6):
            assert client.campaign(campaign_id)["state"] == "done"
        listing = client.campaigns()
        assert campaign_id in [entry["id"] for entry in listing]

    def test_unknown_campaign_is_404_everywhere(self, fleet):
        _process, url = fleet
        client = ServiceClient(url, timeout=30.0)
        for _ in range(4):
            with pytest.raises(ServiceError) as excinfo:
                client.campaign("cnope-1")
            assert excinfo.value.status == 404
            assert excinfo.value.kind == "unknown_campaign"

    def test_event_stream_served_by_any_worker(self, fleet):
        """Acceptance criterion: ``GET /campaign/<id>/events`` streams from
        a worker that does NOT own the campaign (the owner's pid is baked
        into the id as ``c<pid>-<n>``), with gap-free offset resume across
        reconnects."""
        import http.client
        import json

        _process, url = fleet
        host, port = url.replace("http://", "").split(":")
        client = ServiceClient(url, timeout=30.0)
        spec = {
            "name": "fleet-stream",
            "seed": 3,
            "strategy": "evolve",
            "population": 6,
            "generations": 2,
            "cells": [{"model": MODEL, "board": BOARD}],
        }
        campaign_id = client.start_campaign(spec)
        owner_pid = int(campaign_id.lstrip("c").split("-")[0])

        # Raw reconnecting consumer: a fresh connection per attempt lands
        # on whichever worker the kernel picks; record who served each.
        events, serving_pids, cursor = [], set(), 0
        deadline = time.time() + 120.0
        while time.time() < deadline:
            connection = http.client.HTTPConnection(host, int(port), timeout=60.0)
            try:
                connection.request(
                    "GET", f"/campaign/{campaign_id}/events?after={cursor}"
                )
                response = connection.getresponse()
                assert response.status == 200
                serving_pids.add(int(response.getheader("X-Repro-Worker")))
                while True:
                    line = response.readline()
                    if not line:
                        break
                    event = json.loads(line)
                    assert event["seq"] == cursor + 1  # contiguous, no gaps
                    cursor = event["seq"]
                    events.append(event)
                    if event["type"] in ("campaign_done", "error"):
                        break
            finally:
                connection.close()
            if events and events[-1]["type"] in ("campaign_done", "error"):
                break
        types = [event["type"] for event in events]
        assert types[0] == "campaign_start"
        assert types[-1] == "campaign_done"
        assert types.count("generation_done") == spec["generations"] + 1
        # Both workers know the stream; at least one response must have come
        # from a non-owner (two workers, several reconnects — if only the
        # owner ever answered, the shared-run-dir mirror is broken). Force
        # the point with extra probes until a non-owner serves one.
        probe_deadline = time.time() + 30.0
        while serving_pids == {owner_pid} and time.time() < probe_deadline:
            connection = http.client.HTTPConnection(host, int(port), timeout=30.0)
            try:
                connection.request(
                    "GET", f"/campaign/{campaign_id}/events?after={cursor - 1}"
                )
                response = connection.getresponse()
                serving_pids.add(int(response.getheader("X-Repro-Worker")))
                response.read()
            finally:
                connection.close()
        assert serving_pids - {owner_pid}, (
            f"stream only ever served by the owning worker {owner_pid}"
        )


#: ``repro serve`` on a host where ``SO_REUSEPORT`` cannot be set: the
#: supervisor binds one listening socket and its workers accept from it.
INHERITED_LISTENER_SERVE = """
import sys
from repro.service import supervisor
supervisor._reuse_port_works = lambda host: False
from repro.cli import main
sys.exit(main(["serve", "--port", "0", "--workers", "2"]))
"""


def _listening_sockets(port):
    """LISTEN entries for ``port`` in the kernel's IPv4 socket table."""
    with open("/proc/net/tcp", encoding="ascii") as table:
        rows = [line.split() for line in table.readlines()[1:]]
    return sum(1 for row in rows if int(row[1].split(":")[1], 16) == port and row[3] == "0A")


def test_inherited_listener_fleet():
    """Workers accepting from the supervisor's one listener answer as
    reuse-port workers do: a SIGKILLed worker is replaced, and SIGTERM
    drains the fleet to exit 0."""
    import re
    import subprocess

    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=source_root + os.pathsep + os.environ.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-c", INHERITED_LISTENER_SERVE],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        url = re.search(r"on (http://\S+) with 2 worker", banner).group(1)
        client = ServiceClient(url, timeout=30.0)
        workers = _wait_for_worker_change(client, set(), tries=600)
        if os.path.exists("/proc/net/tcp"):
            assert _listening_sockets(int(url.rsplit(":", 1)[1])) == 1
        expected = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        assert client.evaluate(MODEL, BOARD, "segmentedrr", 2).report == expected

        killed = workers[0]["pid"]
        os.kill(killed, signal.SIGKILL)
        _wait_for_worker_change(client, {killed})
        assert process.poll() is None
        replayed = client.evaluate(MODEL, BOARD, "segmentedrr", 2)
        assert replayed.report == expected
        client.close()

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30.0) == 0
    finally:
        stop_server(process)


def test_fleet_worker_keepalive_round_trip_under_10ms():
    """Fleet workers serve with the same handler class, so the
    delayed-ACK stall fix must hold behind ``--workers`` too."""
    process, url = spawn_server(1, startup_timeout=60.0)
    try:
        assert_warm_keepalive_under_10ms(url)
    finally:
        stop_server(process)


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_drains_gracefully(workers):
    """SIGTERM mid-request: the in-flight response finishes, the listener
    closes, follow-up connects are refused, and every process exits 0."""
    process, url = spawn_server(workers, startup_timeout=60.0)
    try:
        result = {}

        def slow_request():
            client = ServiceClient(url, timeout=60.0)
            try:
                result["dse"] = client.dse(MODEL, BOARD, samples=300, seed=1)
            except ServiceError as error:  # pragma: no cover - the failure case
                result["error"] = error

        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.4)  # let the dse get in flight
        process.send_signal(signal.SIGTERM)
        thread.join(timeout=60.0)

        assert "error" not in result, f"in-flight request failed: {result.get('error')}"
        assert len(result["dse"].front) > 0
        assert process.wait(timeout=30.0) == 0
        assert _connect_refused(url)
    finally:
        stop_server(process)


def test_sigterm_drain_answers_an_idle_keepalive_connection():
    """SIGTERM with a search in flight: the worker keeps serving the
    connections it has, so the next request on an idle keep-alive one
    gets a 503 ``draining`` that closes it, the search completes, and the
    worker exits 0."""
    import http.client
    import json

    process, url = spawn_server(1, startup_timeout=60.0)
    host, port = url.replace("http://", "").split(":")
    idle = http.client.HTTPConnection(host, int(port), timeout=30.0)
    try:
        idle.request("GET", "/healthz")
        response = idle.getresponse()
        response.read()
        assert response.status == 200
        result = {}

        def search():
            client = ServiceClient(url, timeout=120.0)
            try:
                result["dse"] = client.dse("xception", "vcu110", samples=4000, seed=1)
            except ServiceError as error:  # pragma: no cover - the failure case
                result["error"] = error

        thread = threading.Thread(target=search)
        thread.start()
        client = ServiceClient(url, timeout=30.0)
        deadline = time.monotonic() + 60.0
        while client.healthz()["inflight"] < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        time.sleep(0.3)  # the worker is draining now; the search is not done
        idle.request(
            "POST",
            "/evaluate",
            body=json.dumps(
                {"model": MODEL, "board": BOARD, "architecture": "segmented", "ce_count": 3}
            ),
            headers={"Content-Type": "application/json"},
        )
        response = idle.getresponse()
        payload = json.loads(response.read())
        assert response.status == 503
        assert payload["error"]["kind"] == "draining"
        assert response.getheader("Retry-After") == "1"
        assert response.getheader("Connection") == "close"
        assert thread.is_alive(), "the search finished before the idle request was answered"
        thread.join(timeout=120.0)
        assert "error" not in result, f"in-flight request failed: {result.get('error')}"
        assert len(result["dse"].front) > 0
        assert process.wait(timeout=30.0) == 0
    finally:
        idle.close()
        stop_server(process)
