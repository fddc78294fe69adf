"""Warm keep-alive ``POST /evaluate`` against a ``repro serve`` subprocess.

Closed loop: two client threads, each holding one connection, send the
next pre-encoded request only after the previous reply arrived — the way
DSE scripts and ``ServiceClient`` call the service. Every design is
requested once before timing, so each timed request is a fingerprint-cache
read and the time goes into the service, fingerprint, graph and rules
layers rather than the cost model.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.cost.export import report_to_dict
from repro.dse.space import CustomDesignSpace
from repro.utils.errors import ResourceError

from perfbench import common, inproc, stats
from perfbench.common import Outcome

CONTEXTS = (("squeezenet", "zc706"), ("resnet50", "vcu110"), ("xception", "vcu110"))
TEMPLATE_DESIGNS = 4  # per context; as many sampled CustomDesigns again
CLIENT_THREADS = 2
SETUP_REPEATS = 3
#: A client using more than this share of one core may be what limits the
#: measured rate; the run is flagged.
CLIENT_CPU_FLAG = 0.5
HEADERS = {"Content-Type": "application/json"}
BANNER = re.compile(rb"http://([0-9.]+):([0-9]+)")
TRACE_REQUESTS_PER_THREAD = 120
#: Enough requests for a p95 with ten samples beyond it.
MIN_PER_THREAD = -(-stats.min_samples_for(95) // CLIENT_THREADS)
#: Replies per throughput sample; designs_per_s is the median sample.
RATE_BLOCK = 40


def design_mix(seed: int) -> List[Tuple[dict, dict]]:
    """Seeded (request body, reference report dict) pairs.

    Half of each context's designs are a template plus CE count, half are
    sampled custom designs sent as notation strings; infeasible draws are
    redrawn. References come from in-process ``repro.api.evaluate``.
    """
    rng = random.Random(seed)
    mix: List[Tuple[dict, dict]] = []
    for model, board in CONTEXTS:
        space = CustomDesignSpace(api.resolve_model(model).conv_specs())
        seen = set()
        for kind in ["template"] * TEMPLATE_DESIGNS + ["custom"] * TEMPLATE_DESIGNS:
            while True:
                if kind == "template":
                    body = {
                        "model": model,
                        "board": board,
                        "architecture": rng.choice(["segmented", "segmentedrr", "hybrid"]),
                        "ce_count": rng.randint(2, 11),
                    }
                else:
                    notation = space.random_design(rng).to_spec().to_notation()
                    body = {"model": model, "board": board, "architecture": notation}
                key = common.canonical(body)
                if key in seen:
                    continue
                try:
                    report = api.evaluate(
                        model, board, body["architecture"], body.get("ce_count")
                    )
                except ResourceError:
                    continue
                seen.add(key)
                mix.append((body, json.loads(common.canonical(report_to_dict(report)))))
                break
    return mix


def _stop_with_parent() -> None:
    """In the server child: get SIGTERM (a graceful drain) when the
    benchmark process dies, so a killed run leaves no server behind."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro serve --workers 1`` subprocess (supervisor + worker)."""

    def __init__(self, workdir: Path, spans_path: Optional[Path] = None) -> None:
        args = ["--host", "127.0.0.1", "--port", "0", "--workers", "1", "--jobs", "1"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = str(common.BENCH_DIR / "serve_traced.py")
            command = [sys.executable, launcher, str(spans_path), *args]
        self.process = subprocess.Popen(
            command,
            cwd=str(common.ROOT),
            env=common.program_env(workdir),
            stdout=subprocess.PIPE,
            preexec_fn=_stop_with_parent,
        )
        self.port = self._await_banner()
        self._await_health()

    def _await_banner(self) -> int:
        line = self.process.stdout.readline()
        match = BANNER.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        return int(match.group(2))

    def _await_health(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.healthz()
                return
            except OSError:
                if time.monotonic() > deadline or self.process.poll() is not None:
                    self.stop()
                    raise RuntimeError("server never became healthy") from None
                time.sleep(0.01)

    def healthz(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                raise OSError(f"/healthz answered {response.status}")
            return payload
        finally:
            conn.close()

    def worker_pid(self) -> int:
        return self.healthz()["workers"][0]["pid"]

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Checker:
    """Verdicts per (design, response bytes): identical warm replies are
    judged once, so checking costs the client a dict lookup."""

    def __init__(self, references: Sequence[dict]) -> None:
        self.references = references
        self._verdicts: Dict[Tuple[int, bytes], bool] = {}

    def ok(self, index: int, status: Optional[int], data: bytes) -> bool:
        if status != 200:
            return False
        key = (index, data)
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                body = json.loads(data)
                verdict = body.get("feasible") is True and body.get("report") == self.references[index]
            except ValueError:
                verdict = False
            self._verdicts[key] = verdict
        return verdict


def _client(port, bodies, order, offset, count, deadline, checker, out) -> None:
    """Closed loop on one keep-alive connection until ``count`` requests
    were sent, or ``deadline`` passed and at least :data:`MIN_PER_THREAD`
    were; appends (design index, seconds, ok, completion time)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        sent = 0
        while (count is None or sent < count) and (
            deadline is None or time.perf_counter() < deadline or sent < MIN_PER_THREAD
        ):
            index = order[(offset + sent) % len(order)]
            sent += 1
            start = time.perf_counter()
            try:
                conn.request("POST", "/evaluate", body=bodies[index], headers=HEADERS)
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                status, data = None, b""
            end = time.perf_counter()
            out.append((index, end - start, checker.ok(index, status, data), end))
    finally:
        conn.close()


def drive(port: int, bodies, checker: Checker, seed: int, *, seconds=None, per_thread=None):
    """Run the client threads over the seeded design order, each starting
    at its own offset, for ``seconds`` or ``per_thread`` requests each;
    with neither, one pass over the mix split between the threads.
    Returns (records, wall seconds, client CPU seconds)."""
    order = list(range(len(bodies)))
    random.Random(seed).shuffle(order)
    if seconds is None and per_thread is None:
        parts = [order[i::CLIENT_THREADS] for i in range(CLIENT_THREADS)]
        jobs = [(part, 0, len(part)) for part in parts]
    else:
        jobs = [
            (order, i * len(order) // CLIENT_THREADS, per_thread)
            for i in range(CLIENT_THREADS)
        ]
    outs: List[List] = [[] for _ in range(CLIENT_THREADS)]
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    deadline = wall_start + seconds if seconds is not None else None
    threads = [
        threading.Thread(
            target=_client,
            args=(port, bodies, part, offset, count, deadline, checker, outs[i]),
        )
        for i, (part, offset, count) in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return [record for out in outs for record in out], wall, time.process_time() - cpu_start


def block_rates(records, block: int = RATE_BLOCK) -> List[float]:
    """Correct replies per second over consecutive blocks of ``block``
    completions (the first block starts at the first request's send)."""
    start = min(end - seconds for _index, seconds, _ok, end in records)
    ends = [start] + sorted(end for _index, _seconds, ok, end in records if ok)
    return [block / (ends[i + block] - ends[i]) for i in range(0, len(ends) - block, block)]


def start_warm_server(workdir: Path, bodies, checker: Checker, spans_path=None):
    """Spawn a server, wait until ready, warm every design once.
    Returns (server, seconds it took, warm-up records)."""
    start = time.perf_counter()
    server = Server(workdir, spans_path)
    try:
        records, _wall, _cpu = drive(server.port, bodies, checker, 0)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, records


def _layers_from_server(spans: List[dict], warm_ops: int, records, before: dict, after: dict):
    measured = [span for span in spans if span["op"] > warm_ops]
    ops = len(records)
    layers = inproc.span_layers(measured, ops)
    handler_s = sum(
        span["end"] - span["start"]
        for span in measured
        if span["name"] == "service.handlers.handle_evaluate"
    )
    client_s = sum(record[1] for record in records)
    layers["service.transport.ms_per_op"] = 1000.0 * (client_s - handler_s) / ops

    def delta(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    layers.update(
        inproc.count_layers(
            {
                "submitted": delta("runtime", "submitted"),
                "cache_hits": delta("runtime", "cache_hits"),
                "seg_hits": delta("segment_cache", "hits"),
                "seg_misses": delta("segment_cache", "misses"),
                "seg_evaluations": delta("segment_cache", "evaluations"),
                "kernel_designs": delta("population_kernel", "designs"),
                "kernel_vector": delta("population_kernel", "vector_composed"),
            }
        )
    )
    return layers


def http_evaluate(
    seed: int, seconds: float, trace: bool, workdir: Path, negative_control: bool
) -> Outcome:
    mix = design_mix(seed)
    bodies = [common.canonical(body) for body, _reference in mix]
    references = [reference for _body, reference in mix]
    if negative_control:
        references[0] = dict(references[0], perturbed=True)
    checker = Checker(references)
    outcome = Outcome()
    failed = 0
    setup_samples = []
    repeats = 1 if trace else SETUP_REPEATS
    server = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            server, took, warm = start_warm_server(workdir, bodies, checker)
            setup_samples.append(took)
            failed += sum(1 for record in warm if not record[2])
        # A traced run sends a fixed request count to an untraced and then
        # a traced server, so its counts repeat exactly.
        volume = {"per_thread": TRACE_REQUESTS_PER_THREAD} if trace else {"seconds": seconds}
        records, wall, cpu = drive(server.port, bodies, checker, seed, **volume)
        outcome.rss_peak_mib = common.pid_rss_peak_mib(server.worker_pid())
    finally:
        if server is not None:
            server.stop()

    if trace:
        spans_path = workdir / "server-spans.json"
        traced_server, _took, warm = start_warm_server(workdir, bodies, checker, spans_path)
        try:
            before = traced_server.healthz()
            traced, _wall, _cpu = drive(traced_server.port, bodies, checker, seed, **volume)
            after = traced_server.healthz()
        finally:
            traced_server.stop()
        with open(spans_path, "r", encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        outcome.layers = _layers_from_server(spans, len(warm), traced, before, after)
        outcome.layers.update(
            inproc.overhead_layers(
                [record[1] for record in records], [record[1] for record in traced]
            )
        )
        failed += sum(1 for record in warm + traced if not record[2])
        outcome.attempted += len(warm) + len(traced)

    ok_ms = [1000.0 * record[1] for record in records if record[2]]
    failed += sum(1 for record in records if not record[2])
    outcome.attempted += len(records) + len(bodies) * repeats
    outcome.failed = failed
    outcome.setup_seconds = setup_samples
    outcome.op_ms = ok_ms
    outcome.throughputs = block_rates(records)
    client_cores = cpu / wall
    outcome.layers.setdefault("loadgen.cpu_cores", client_cores)
    outcome.record["loadgen"] = {
        "threads": CLIENT_THREADS,
        "connections": CLIENT_THREADS,
        "loop": "closed",
        "cpu_seconds": cpu,
        "wall_seconds": wall,
        "cpu_cores": client_cores,
        "saturated": client_cores > CLIENT_CPU_FLAG,
    }
    if client_cores > CLIENT_CPU_FLAG:
        print(
            f"warning: the load generator used {client_cores:.2f} cores "
            f"(> {CLIENT_CPU_FLAG}); rps may measure the client, not the server",
            file=sys.stderr,
        )
    if not trace:
        outcome.named = {
            "rps": (stats.median(outcome.throughputs), "1/s"),
            "latency_ms_p50": (stats.median(ok_ms), "ms"),
            "latency_ms_p95": (stats.percentile(ok_ms, 95), "ms"),
        }
    return outcome
