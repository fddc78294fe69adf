"""Service throughput: concurrent HTTP load against the shared warm cache.

The acceptance experiment for the evaluation service: an in-process load
generator fires mixed ``/evaluate`` requests (SqueezeNet on ZC706, the
fastest model/board pair) from many client threads at one
:class:`EvaluationService`, twice:

* **cold** — every distinct design is evaluated once, concurrent
  duplicates coalescing on the shared evaluator;
* **warm replay** — the identical request mix again; every response must
  be served from the cache (``cached: true``, 100% hit rate).

A second experiment compares pre-forked fleets: ``repro serve --workers 1``
vs ``--workers 4`` under the open-loop Poisson ramp of ``repro loadtest``,
producing the saturation curves in ``results/loadtest.json`` /
``loadtest.txt`` plus a scaling section in ``service_throughput.txt``.

Wall-clock latency assertions only hold on uncontended hardware (this
container has 1 CPU and CI vCPUs are shared), so the hard latency gate is
opt-in via ``MCCM_REQUIRE_SPEEDUP=1`` and the fleet-scaling assertion is
gated on ``os.cpu_count() > 1`` and on the two fleets saturating at
different ramp stages; the measured numbers are always recorded.
"""

import json
import os
import threading
import time

import pytest

from repro.api import evaluate as api_evaluate
from repro.service import EvaluationService, ServiceClient, format_loadtest
from repro.service.loadtest import run_worker_comparison
from benchmarks.conftest import emit

MODEL = "squeezenet"
BOARD = "zc706"
CLIENT_THREADS = 8
REQUESTS_PER_THREAD = 8
ARCHITECTURES = ("segmented", "segmentedrr", "hybrid")
CE_COUNTS = (2, 3, 4, 5)

#: Worker counts compared by the multi-worker loadtest.
WORKER_COUNTS = (1, 4)
LOADTEST_RATES = (100.0, 300.0)
LOADTEST_DURATION = 1.5
LOADTEST_CLIENT_THREADS = 16

#: ``service_throughput.txt`` sections, written by whichever of the two
#: tests have run; a full benchmark run produces both, in this order.
_SECTIONS = {}


def _saturation_stage(run):
    """Offered rate of the ramp stage a run's ``saturation_rps`` comes from
    (the best stage with <=1% errors), or None when no stage was clean."""
    clean = [
        stage for stage in run["stages"]
        if stage["error_count"] <= 0.01 * max(1, stage["arrivals"])
    ]
    if not clean:
        return None
    return max(clean, key=lambda stage: stage["achieved_rps"])["target_rps"]


def _emit_throughput(results_dir):
    text = "\n".join(
        _SECTIONS[name] for name in ("single", "fleet") if name in _SECTIONS
    )
    emit(results_dir, "service_throughput.txt", text)


def _request_mix():
    """64 requests over a 12-design grid — ~5x duplication on purpose."""
    mix = []
    for index in range(CLIENT_THREADS * REQUESTS_PER_THREAD):
        mix.append(
            (
                ARCHITECTURES[index % len(ARCHITECTURES)],
                CE_COUNTS[index % len(CE_COUNTS)],
            )
        )
    return mix


def _fire(url, mix):
    """Run the mix over CLIENT_THREADS threads; returns (results, seconds)."""
    results = [None] * len(mix)
    shards = [mix[index::CLIENT_THREADS] for index in range(CLIENT_THREADS)]
    indices = [list(range(len(mix)))[index::CLIENT_THREADS] for index in range(CLIENT_THREADS)]

    def work(shard, shard_indices):
        client = ServiceClient(url)
        for index, (architecture, ce_count) in zip(shard_indices, shard):
            results[index] = client.evaluate(
                MODEL, BOARD, architecture, ce_count=ce_count
            )

    threads = [
        threading.Thread(target=work, args=(shard, shard_indices))
        for shard, shard_indices in zip(shards, indices)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def test_service_throughput(results_dir):
    mix = _request_mix()
    expected = {
        (architecture, ce_count): api_evaluate(
            MODEL, BOARD, architecture, ce_count=ce_count
        )
        for architecture, ce_count in set(mix)
    }

    with EvaluationService(port=0) as service:
        cold, cold_time = _fire(service.url, mix)
        warm, warm_time = _fire(service.url, mix)
        health = ServiceClient(service.url).healthz()

    total = len(mix)
    cold_rps = total / cold_time if cold_time else float("inf")
    warm_rps = total / warm_time if warm_time else float("inf")
    warm_hits = sum(1 for result in warm if result.cached)
    runtime = health["runtime"]

    text = (
        f"HTTP evaluation service: {MODEL} on {BOARD}, "
        f"{CLIENT_THREADS} client threads x {REQUESTS_PER_THREAD} requests\n"
        f"distinct designs:     {len(expected)} of {total} requests\n"
        f"\n"
        f"cold pass:            {cold_time:8.2f} s   {cold_rps:8.1f} req/s\n"
        f"warm replay:          {warm_time:8.2f} s   {warm_rps:8.1f} req/s\n"
        f"warm cache hits:      {warm_hits}/{total} ({100 * warm_hits / total:.0f}%)\n"
        f"server-side:          {runtime['evaluations']} evaluations, "
        f"{runtime['cache_hits']} cache hits over {runtime['submitted']} submissions\n"
    )
    _SECTIONS["single"] = text
    _emit_throughput(results_dir)

    # Correctness: every response matches its own request's direct result.
    for (architecture, ce_count), result in zip(mix, cold):
        assert result.report == expected[(architecture, ce_count)]
    for (architecture, ce_count), result in zip(mix, warm):
        assert result.report == expected[(architecture, ce_count)]

    # Warm-cache replay answers every request from the cache.
    assert warm_hits == total

    # The server evaluated each distinct design exactly once: concurrent
    # duplicates within the cold pass coalesced on the shared evaluator.
    assert runtime["evaluations"] == len(expected)
    assert runtime["submitted"] == 2 * total

    # Hard latency gates need uncontended cores; opt-in like the runtime
    # scaling benchmark.
    if os.environ.get("MCCM_REQUIRE_SPEEDUP"):
        assert warm_rps >= 200, f"warm replay too slow: {warm_rps:.1f} req/s"
        assert warm_time <= cold_time, "warm replay slower than the cold pass"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="pre-forked fleet needs os.fork")
def test_multiworker_loadtest(results_dir):
    """Saturation curves at workers=1 vs workers=4 (``repro loadtest``).

    Spawns real ``repro serve --workers N`` subprocesses and rams open-loop
    Poisson load at each; the curves land in ``results/loadtest.json`` /
    ``loadtest.txt`` and the comparison is appended to
    ``service_throughput.txt``. The >=2x scaling assertion only makes sense
    with cores to scale onto, so it is gated on ``os.cpu_count() > 1`` —
    on a 1-CPU container the numbers are still recorded, honestly flat.
    """
    comparison = run_worker_comparison(
        WORKER_COUNTS,
        rates=LOADTEST_RATES,
        duration=LOADTEST_DURATION,
        seed=0,
        model=MODEL,
        board=BOARD,
        client_threads=LOADTEST_CLIENT_THREADS,
    )
    text = format_loadtest(comparison)
    emit(results_dir, "loadtest.txt", text)
    (results_dir / "loadtest.json").write_text(
        json.dumps(comparison, indent=2) + "\n"
    )
    _SECTIONS["fleet"] = (
        f"multi-worker loadtest (open-loop Poisson, cpu_count="
        f"{comparison['cpu_count']}):\n{text}"
    )
    _emit_throughput(results_dir)

    by_workers = {run["workers"]: run for run in comparison["runs"]}
    for workers in WORKER_COUNTS:
        run = by_workers[workers]
        # Every ramp stage completed work; the error taxonomy only ever
        # contains the kinds the harness defines.
        assert all(stage["completed"] > 0 for stage in run["stages"])
        allowed = {"backpressure", "draining", "connection_error", "client_saturated"}
        assert set(run["errors"]) <= allowed, run["errors"]
        assert run["peak_rps"] > 0.0

    cpu_count = os.cpu_count() or 1
    if cpu_count > 1:
        single = by_workers[1]["saturation_rps"] or by_workers[1]["peak_rps"]
        fleet = by_workers[4]["saturation_rps"] or by_workers[4]["peak_rps"]
        stage = _saturation_stage(by_workers[1])
        if stage is not None and stage == _saturation_stage(by_workers[4]):
            # Both fleets saturate on the same stage — both reach the ramp's
            # top rate, or both fall short of the same next stage — so
            # their ratio is the ramp's resolution, not a measurement.
            pytest.skip(
                f"both fleets saturate at the {stage:.0f} r/s stage of the "
                f"{LOADTEST_RATES} r/s ramp: workers=1 {single:.1f} r/s, "
                f"workers=4 {fleet:.1f} r/s"
            )
        assert fleet >= 2.0 * single, (
            f"workers=4 should scale >=2x over workers=1 on {cpu_count} CPUs: "
            f"{fleet:.1f} vs {single:.1f} r/s"
        )


def test_benchmark_warm_evaluate(benchmark):
    """pytest-benchmark unit: one warm ``/evaluate`` HTTP round-trip."""
    with EvaluationService(port=0) as service:
        client = ServiceClient(service.url)
        first = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)

        result = benchmark(
            lambda: client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        )
    assert result.cached
    assert result.report == first.report
