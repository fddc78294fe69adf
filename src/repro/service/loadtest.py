"""Open-loop load testing for the evaluation service (``repro loadtest``).

Arrivals are open-loop Poisson: request times come from an exponential
inter-arrival draw at the target rate, independent of how fast the server
answers, so the measured latency includes the queueing a saturated server
actually inflicts (a closed loop would politely slow its offered load to
match the server and hide the saturation knee). Each stage of the ramp
holds one target rate for a fixed duration; the stage results together
form the saturation curve (``repro loadtest --output FILE`` writes it).

Latency is measured from the *scheduled* arrival, so client-side queueing
counts against the service, and errors are kept as a taxonomy (HTTP error
kinds like ``backpressure``/``draining``, ``connection_error``, plus
``client_saturated`` when the bounded client pool itself cannot keep up —
those requests are never sent, but pretending they don't exist would
overstate the server).
"""

from __future__ import annotations

import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.service.client import ServiceClient, ServiceError
from repro.utils.errors import MCCMError

#: Default target-rate ramp (requests/second per stage).
DEFAULT_RATES: Tuple[float, ...] = (50.0, 100.0, 200.0, 400.0)

#: Default per-stage duration (seconds).
DEFAULT_DURATION = 2.0

#: Architecture/CE mix cycled across requests; small enough to be fully
#: warm after one pass, so the stages measure serving, not cold evaluation.
DEFAULT_ARCHITECTURES: Tuple[str, ...] = ("segmented", "segmentedrr", "hybrid")
DEFAULT_CE_COUNTS: Tuple[int, ...] = (2, 3, 4)

#: Client worker threads firing requests.
DEFAULT_CLIENT_THREADS = 64

#: Submitted-but-unfinished requests the client will hold before counting
#: further arrivals as ``client_saturated`` instead of queueing them
#: without bound.
MAX_PENDING_FACTOR = 4

_BANNER_RE = re.compile(r"on (http://\S+)")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1) of an ascending-sorted sample, or 0.0 if empty."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


@dataclass
class StageResult:
    """One rung of the ramp: offered rate vs. what actually came back."""

    target_rps: float
    duration_seconds: float
    arrivals: int
    completed: int
    achieved_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "target_rps": self.target_rps,
            "duration_seconds": self.duration_seconds,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "achieved_rps": round(self.achieved_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "errors": dict(sorted(self.errors.items())),
            "error_count": self.error_count,
        }


def _run_stage(
    client: ServiceClient,
    *,
    model: str,
    board: str,
    designs: Sequence[Tuple[str, int]],
    rate: float,
    duration: float,
    rng: random.Random,
    executor: ThreadPoolExecutor,
    max_pending: int,
) -> StageResult:
    lock = threading.Lock()
    latencies: List[float] = []
    errors: Dict[str, int] = {}
    pending = 0
    arrivals = 0
    futures = []

    def fire(scheduled: float, design: Tuple[str, int]) -> None:
        nonlocal pending
        architecture, ce_count = design
        kind: Optional[str] = None
        try:
            client.evaluate(model, board, architecture, ce_count)
        except ServiceError as error:
            kind = error.kind or f"http_{error.status}"
        finished = time.perf_counter()
        with lock:
            pending -= 1
            if kind is None:
                latencies.append(finished - scheduled)
            else:
                errors[kind] = errors.get(kind, 0) + 1

    start = time.perf_counter()
    next_at = start
    end = start + duration
    while next_at < end:
        now = time.perf_counter()
        if next_at > now:
            time.sleep(next_at - now)
        design = designs[arrivals % len(designs)]
        arrivals += 1
        with lock:
            saturated = pending >= max_pending
            if not saturated:
                pending += 1
        if saturated:
            with lock:
                errors["client_saturated"] = errors.get("client_saturated", 0) + 1
        else:
            futures.append(executor.submit(fire, next_at, design))
        next_at += rng.expovariate(rate)
    wait(futures, timeout=max(30.0, duration * 10))
    elapsed = max(duration, time.perf_counter() - start)
    latencies.sort()
    return StageResult(
        target_rps=rate,
        duration_seconds=duration,
        arrivals=arrivals,
        completed=len(latencies),
        achieved_rps=len(latencies) / elapsed,
        p50_ms=1000.0 * _percentile(latencies, 0.50),
        p95_ms=1000.0 * _percentile(latencies, 0.95),
        p99_ms=1000.0 * _percentile(latencies, 0.99),
        max_ms=1000.0 * (latencies[-1] if latencies else 0.0),
        errors=errors,
    )


def run_loadtest(
    url: str,
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    model: str = "squeezenet",
    board: str = "zc706",
    architectures: Sequence[str] = DEFAULT_ARCHITECTURES,
    ce_counts: Sequence[int] = DEFAULT_CE_COUNTS,
    client_threads: int = DEFAULT_CLIENT_THREADS,
    warmup: bool = True,
) -> Dict[str, Any]:
    """Ramp open-loop Poisson load against ``url``; returns the curve."""
    if not rates:
        raise MCCMError("loadtest needs at least one target rate")
    client = ServiceClient(url, timeout=30.0)
    designs = [(a, c) for a in architectures for c in ce_counts]
    if warmup:
        # One sequential pass over the mix so the fingerprint cache is warm
        # and the stages measure the serving stack, not first evaluations.
        for architecture, ce_count in designs:
            try:
                client.evaluate(model, board, architecture, ce_count)
            except ServiceError:
                pass
    rng = random.Random(seed)
    stages: List[StageResult] = []
    executor = ThreadPoolExecutor(
        max_workers=client_threads, thread_name_prefix="repro-loadtest"
    )
    try:
        for rate in rates:
            stages.append(
                _run_stage(
                    client,
                    model=model,
                    board=board,
                    designs=designs,
                    rate=float(rate),
                    duration=duration,
                    rng=rng,
                    executor=executor,
                    max_pending=client_threads * MAX_PENDING_FACTOR,
                )
            )
    finally:
        executor.shutdown(wait=True)
    total_errors: Dict[str, int] = {}
    for stage in stages:
        for kind, count in stage.errors.items():
            total_errors[kind] = total_errors.get(kind, 0) + count
    clean = [s.achieved_rps for s in stages if s.error_count <= 0.01 * max(1, s.arrivals)]
    return {
        "url": url,
        "model": model,
        "board": board,
        "seed": seed,
        "duration_per_stage": duration,
        "design_mix": len(designs),
        "client_threads": client_threads,
        "warmup": warmup,
        "stages": [stage.to_dict() for stage in stages],
        "peak_rps": round(max(s.achieved_rps for s in stages), 1),
        #: Highest throughput sustained with <=1% errors — the honest
        #: "how fast can it go before it starts refusing" number.
        "saturation_rps": round(max(clean), 1) if clean else 0.0,
        "errors": dict(sorted(total_errors.items())),
    }


# --- spawning servers to measure --------------------------------------------


def spawn_server(
    workers: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: Union[int, str] = 1,
    cache_dir: Optional[str] = None,
    max_inflight: Optional[int] = None,
    startup_timeout: float = 60.0,
) -> Tuple[subprocess.Popen, str]:
    """Start ``repro serve --workers N`` as a subprocess; returns (proc, url).

    Blocks until every worker reports in through ``/healthz`` so the
    measurement never races worker startup.
    """
    import repro

    env = os.environ.copy()
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", str(port), "--workers", str(workers),
    ]
    if cache_dir is not None:
        command += ["--cache", cache_dir]
    if max_inflight is not None:
        command += ["--max-inflight", str(max_inflight)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        url = _await_ready(process, workers, startup_timeout)
    except BaseException:
        stop_server(process)
        raise
    return process, url


def _await_ready(process: subprocess.Popen, workers: int, timeout: float) -> str:
    assert process.stdout is not None
    line = process.stdout.readline()
    match = _BANNER_RE.search(line or "")
    if match is None:
        raise MCCMError(
            f"server did not announce itself (exit {process.poll()}): {line!r}"
        )
    url = match.group(1)
    client = ServiceClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout
    while True:
        if process.poll() is not None:
            raise MCCMError(f"server exited with {process.returncode} during startup")
        try:
            health = client.healthz()
            if health.get("worker_count", 1) >= workers:
                return url
        except ServiceError:
            pass
        if time.monotonic() >= deadline:
            raise MCCMError(f"server at {url} not ready after {timeout}s")
        time.sleep(0.1)


def stop_server(process: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM the supervisor and wait for the graceful drain to finish."""
    if process.poll() is None:
        try:
            process.send_signal(signal.SIGTERM)
        except OSError:
            pass
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode


def run_worker_comparison(
    worker_counts: Sequence[int],
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    duration: float = DEFAULT_DURATION,
    seed: int = 0,
    model: str = "squeezenet",
    board: str = "zc706",
    client_threads: int = DEFAULT_CLIENT_THREADS,
    jobs: Union[int, str] = 1,
) -> Dict[str, Any]:
    """The saturation curve at each worker count, one server at a time."""
    runs: List[Dict[str, Any]] = []
    for workers in worker_counts:
        process, url = spawn_server(workers, jobs=jobs)
        try:
            result = run_loadtest(
                url,
                rates=rates,
                duration=duration,
                seed=seed,
                model=model,
                board=board,
                client_threads=client_threads,
            )
        finally:
            stop_server(process)
        result["workers"] = workers
        runs.append(result)
    return {
        "cpu_count": os.cpu_count(),
        "rates": [float(rate) for rate in rates],
        "duration_per_stage": duration,
        "seed": seed,
        "model": model,
        "board": board,
        "runs": runs,
        "compare": [
            {
                "workers": run["workers"],
                "peak_rps": run["peak_rps"],
                "saturation_rps": run["saturation_rps"],
                "errors": sum(run["errors"].values()),
            }
            for run in runs
        ],
    }


# --- reporting ----------------------------------------------------------------


def format_loadtest(result: Dict[str, Any]) -> str:
    """A human-readable table for one run or a worker comparison."""
    lines: List[str] = []
    runs = result.get("runs", [result])
    for run in runs:
        workers = run.get("workers")
        title = (
            f"workers={workers}" if workers is not None else run.get("url", "loadtest")
        )
        lines.append(
            f"{title}  (model={run['model']}, board={run['board']}, "
            f"open-loop Poisson, {run['duration_per_stage']}s/stage, "
            f"seed={run['seed']})"
        )
        lines.append(
            f"  {'target r/s':>10} {'achieved':>9} {'p50 ms':>8} "
            f"{'p95 ms':>8} {'p99 ms':>8} {'errors':>7}"
        )
        for stage in run["stages"]:
            lines.append(
                f"  {stage['target_rps']:>10.0f} {stage['achieved_rps']:>9.1f} "
                f"{stage['p50_ms']:>8.2f} {stage['p95_ms']:>8.2f} "
                f"{stage['p99_ms']:>8.2f} {stage['error_count']:>7d}"
            )
        error_note = (
            "  errors: "
            + ", ".join(f"{kind}={count}" for kind, count in run["errors"].items())
            if run["errors"]
            else "  errors: none"
        )
        lines.append(error_note)
        lines.append(
            f"  peak {run['peak_rps']} r/s, saturation (<=1% errors) "
            f"{run['saturation_rps']} r/s"
        )
        lines.append("")
    compare = result.get("compare")
    if compare and len(compare) > 1:
        base = compare[0]["saturation_rps"] or compare[0]["peak_rps"]
        lines.append(f"scaling vs workers={compare[0]['workers']} (cpu_count={result.get('cpu_count')}):")
        for entry in compare:
            best = entry["saturation_rps"] or entry["peak_rps"]
            speedup = best / base if base else 0.0
            lines.append(
                f"  workers={entry['workers']}: saturation {best} r/s "
                f"({speedup:.2f}x)"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
