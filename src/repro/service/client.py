"""A thin stdlib HTTP client for the evaluation service.

Wire payloads deserialize back into the library's own types: ``evaluate``
responses carry a :class:`~repro.core.cost.results.CostReport` rebuilt
through the lossless JSON round-trip, so a report fetched over HTTP
compares equal (``==``) to one computed in-process by ``api.evaluate``.

Connections are kept alive (one ``http.client`` connection per thread)
and idempotent GETs are retried once after a short backoff when the
connection drops — a worker being restarted by the multi-worker
supervisor then looks like one slow poll, not a client crash.

>>> client = ServiceClient("http://127.0.0.1:8100")      # doctest: +SKIP
>>> result = client.evaluate("resnet50", "zc706", "segmentedrr", ce_count=2)
>>> result.report.throughput_fps                          # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.api import SkippedConfig
from repro.core.cost.export import report_from_dict
from repro.core.cost.results import CostReport
from repro.hw.datatypes import Precision
from repro.rules.schema import Verdict
from repro.service.schema import precision_to_dict
from repro.utils.errors import MCCMError

PrecisionLike = Union[None, Precision, Dict[str, str]]

#: Event types after which a campaign stream has nothing more to say
#: (mirrors :data:`repro.dse.events.TERMINAL_EVENT_TYPES` without pulling
#: the dse package into the client's import graph).
_TERMINAL_EVENT_TYPES = ("campaign_done", "error")


class ServiceError(MCCMError):
    """A non-2xx service response, carrying the typed error payload.

    ``retry_after`` (seconds, or None) mirrors the server's Retry-After
    hint on transient refusals (429 ``backpressure``, 503 ``draining``).
    """

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after = retry_after

    def __str__(self) -> str:
        return f"[{self.status} {self.kind}] {super().__str__()}"


@dataclass(frozen=True)
class EvaluateResult:
    """One ``POST /evaluate`` answer; ``report is None`` means infeasible.

    ``verdicts`` carries the response's top-level constraint verdicts
    (:class:`~repro.rules.schema.Verdict`) — the requested ruleset's, or
    ``builtin:resources`` by default. They ride *beside* the report, so
    ``report`` stays byte-identical to the in-process rules-off one.
    """

    feasible: bool
    cached: bool
    report: Optional[CostReport]
    reason: Optional[str]
    verdicts: List[Any] = field(default_factory=list)
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """One ``POST /sweep`` answer, mirroring :class:`repro.api.SweepResult`.

    ``verdicts`` is aligned with ``reports``: ``verdicts[i]`` judges
    ``reports[i]``.
    """

    reports: List[CostReport]
    skipped: List[SkippedConfig]
    stats: Dict[str, Any]
    verdicts: List[List[Any]] = field(default_factory=list)
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class DseResult:
    """One ``POST /dse`` answer: the Pareto front plus run accounting."""

    front: List[Tuple[Dict[str, Any], CostReport]]
    space_size: int
    stats: Dict[str, Any]
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)


def _parse_retry_after(header: Optional[str]) -> Optional[int]:
    if header is None:
        return None
    try:
        return int(header)
    except ValueError:
        return None


def _service_error(status: int, raw: bytes, retry_after: Optional[int]) -> ServiceError:
    """A non-2xx reply as a :class:`ServiceError`: the kind, message and
    retry hint of its ``{"error": ...}`` payload (``retry_after`` is the
    ``Retry-After`` header's, used when the payload has none)."""
    try:
        detail = json.loads(raw.decode("utf-8"))["error"]
    except Exception:
        detail = {"kind": "http_error", "message": f"HTTP {status}"}
    return ServiceError(
        status,
        detail.get("kind", "http_error"),
        detail.get("message", f"HTTP {status}"),
        retry_after=detail.get("retry_after", retry_after),
    )


def _precision_payload(precision: PrecisionLike) -> Optional[Dict[str, str]]:
    if precision is None:
        return None
    if isinstance(precision, Precision):
        return precision_to_dict(precision)
    return dict(precision)


#: Backoff before the single idempotent-GET retry, long enough for a
#: restarting worker to come back up under a loaded supervisor.
RETRY_BACKOFF_SECONDS = 0.1


class ServiceClient:
    """Talk to an :class:`~repro.service.server.EvaluationService`.

    Thread-safe: connections are per-thread (``threading.local``), so one
    client instance can be shared across a thread pool and each thread
    keeps its own persistent connection.
    """

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https") or parsed.hostname is None:
            raise MCCMError(
                f"service URL must look like http://host:port, got {base_url!r}"
            )
        self._scheme = parsed.scheme
        self._host = parsed.hostname
        self._port = parsed.port or (443 if parsed.scheme == "https" else 80)
        self._prefix = parsed.path.rstrip("/")
        self._local = threading.local()

    # --- transport -----------------------------------------------------------
    def _open(self) -> http.client.HTTPConnection:
        """A new connection to the service (not yet connected)."""
        factory = (
            http.client.HTTPSConnection if self._scheme == "https" else http.client.HTTPConnection
        )
        return factory(self._host, self._port, timeout=self.timeout)

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._open()
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            try:
                connection.close()
            except Exception:  # noqa: BLE001 - teardown must not mask errors
                pass

    def close(self) -> None:
        """Close this thread's persistent connection (optional; reopens
        transparently on the next request)."""
        self._drop_connection()

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        # Only GETs are idempotent here (every POST does model work or
        # registration), so only they earn the one automatic retry.
        attempts = 2 if method == "GET" else 1
        for attempt in range(attempts):
            connection = self._connection()
            try:
                connection.request(
                    method,
                    f"{self._prefix}{path}",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                raw = response.read()
                status = response.status
                retry_after = _parse_retry_after(response.getheader("Retry-After"))
                if response.will_close:
                    # The server announced the close (it does on every
                    # error); reusing the socket would hit a dead peer.
                    self._drop_connection()
            except (OSError, http.client.HTTPException) as error:
                # Covers ConnectionResetError/RemoteDisconnected (a worker
                # restarting mid-exchange), refused connects, timeouts, and
                # torn status lines.
                self._drop_connection()
                if attempt + 1 < attempts:
                    time.sleep(RETRY_BACKOFF_SECONDS)
                    continue
                raise ServiceError(
                    0,
                    "connection_error",
                    f"connection to {self.base_url} failed: {error}",
                ) from None
            if status >= 400:
                raise _service_error(status, raw, retry_after)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                self._drop_connection()
                raise ServiceError(
                    0,
                    "protocol_error",
                    f"service sent a non-JSON response: {error}",
                ) from None
        raise AssertionError("unreachable")  # pragma: no cover

    # --- GET endpoints -------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def models(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/models")["models"]

    def boards(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/boards")["boards"]

    def rulesets(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/rules")["rulesets"]

    # --- workload registration -----------------------------------------------
    def register_model(self, model, replace: bool = False) -> Dict[str, Any]:
        """``POST /models``: register a custom CNN; returns its catalog entry.

        ``model`` is a :class:`~repro.cnn.graph.CNNGraph` or the JSON dict
        schema of :mod:`repro.cnn.serialize`. Registration lives for the
        service process; re-registering identical content is idempotent.
        """
        from repro.cnn.graph import CNNGraph
        from repro.cnn.serialize import graph_to_dict

        definition = graph_to_dict(model) if isinstance(model, CNNGraph) else dict(model)
        return self._request(
            "POST", "/models", {"model": definition, "replace": replace}
        )

    def register_board(self, board, replace: bool = False) -> Dict[str, Any]:
        """``POST /boards``: register a custom board; returns its definition.

        ``board`` is an :class:`~repro.hw.boards.FPGABoard` or the board
        JSON schema (see ``docs/api.md``).
        """
        from repro.hw.boards import FPGABoard
        from repro.workloads import board_to_dict

        definition = board_to_dict(board) if isinstance(board, FPGABoard) else dict(board)
        return self._request(
            "POST", "/boards", {"board": definition, "replace": replace}
        )

    # --- ruleset registration ------------------------------------------------
    def register_ruleset(self, ruleset, replace: bool = False) -> Dict[str, Any]:
        """``POST /rules``: register a constraint ruleset (see docs/rules.md).

        ``ruleset`` is a :class:`~repro.rules.schema.RuleSet` or its JSON
        dict schema. Registration lives for the service process;
        re-registering identical content is idempotent.
        """
        from repro.rules.schema import RuleSet

        definition = (
            ruleset.to_dict() if isinstance(ruleset, RuleSet) else dict(ruleset)
        )
        return self._request(
            "POST", "/rules", {"ruleset": definition, "replace": replace}
        )

    # --- POST endpoints ------------------------------------------------------
    def evaluate(
        self,
        model: str,
        board: str,
        architecture: str,
        ce_count: Optional[int] = None,
        precision: PrecisionLike = None,
        rules: Optional[str] = None,
    ) -> EvaluateResult:
        payload: Dict[str, Any] = {
            "model": model,
            "board": board,
            "architecture": architecture,
        }
        if ce_count is not None:
            payload["ce_count"] = ce_count
        if precision is not None:
            payload["precision"] = _precision_payload(precision)
        if rules is not None:
            payload["rules"] = rules
        data = self._request("POST", "/evaluate", payload)
        report = data.get("report")
        return EvaluateResult(
            feasible=data["feasible"],
            cached=data["cached"],
            report=None if report is None else report_from_dict(report),
            reason=data.get("reason"),
            verdicts=[Verdict.from_dict(v) for v in data.get("verdicts", [])],
            raw=data,
        )

    def sweep(
        self,
        model: str,
        board: str,
        architectures: Optional[Iterable[str]] = None,
        ce_counts: Union[None, Iterable[int], Dict[str, int]] = None,
        precision: PrecisionLike = None,
        rules: Optional[str] = None,
    ) -> SweepResult:
        payload: Dict[str, Any] = {"model": model, "board": board}
        if architectures is not None:
            payload["architectures"] = list(architectures)
        if ce_counts is not None:
            # A {"min": lo, "max": hi} range passes through as-is; any other
            # iterable becomes the explicit count list.
            payload["ce_counts"] = (
                dict(ce_counts) if isinstance(ce_counts, dict) else list(ce_counts)
            )
        if precision is not None:
            payload["precision"] = _precision_payload(precision)
        if rules is not None:
            payload["rules"] = rules
        data = self._request("POST", "/sweep", payload)
        return SweepResult(
            reports=[report_from_dict(item) for item in data["reports"]],
            skipped=[
                SkippedConfig(skip["architecture"], skip["ce_count"], skip["reason"])
                for skip in data["skipped"]
            ],
            stats=data["stats"],
            verdicts=[
                [Verdict.from_dict(v) for v in entry]
                for entry in data.get("verdicts", [])
            ],
            raw=data,
        )

    def dse(
        self,
        model: str,
        board: str,
        samples: int = 100,
        seed: int = 0,
        cost_metric: str = "buffers",
        precision: PrecisionLike = None,
    ) -> DseResult:
        payload: Dict[str, Any] = {
            "model": model,
            "board": board,
            "samples": samples,
            "seed": seed,
            "cost_metric": cost_metric,
        }
        if precision is not None:
            payload["precision"] = _precision_payload(precision)
        data = self._request("POST", "/dse", payload)
        return DseResult(
            front=[
                (item["design"], report_from_dict(item["report"]))
                for item in data["front"]
            ],
            space_size=data["space_size"],
            stats=data["stats"],
            raw=data,
        )

    # --- campaigns (background jobs) -----------------------------------------
    def start_campaign(self, spec: Dict[str, Any]) -> str:
        """``POST /campaign``: launch a background campaign, returns its id.

        ``spec`` is a campaign spec dict (the ``campaign.json`` format of
        ``docs/dse.md``); poll :meth:`campaign` or block on
        :meth:`wait_campaign` for progress and the final fronts.
        """
        return self._request("POST", "/campaign", {"spec": spec})["id"]

    def campaign(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /campaign/<id>``: one job's live snapshot (raw payload)."""
        return self._request("GET", f"/campaign/{campaign_id}")

    def campaigns(self) -> List[Dict[str, Any]]:
        """``GET /campaign``: every job the service has started."""
        return self._request("GET", "/campaign")["campaigns"]

    def stream_campaign(
        self,
        campaign_id: str,
        after: int = 0,
        *,
        reconnect: bool = True,
        max_silent_reconnects: int = 5,
    ):
        """``GET /campaign/<id>/events``: yield live events as dicts.

        A generator over the chunked-NDJSON stream. ``after`` resumes past
        an already-seen event ``seq`` (use the last yielded event's
        ``seq`` after an interruption). With ``reconnect`` (default) a
        dropped connection — a worker restarting, a flaky network — is
        re-dialed transparently with ``?after=<last seen seq>``, so the
        caller observes every event exactly once, in order, with no gaps.
        The generator ends after a terminal ``campaign_done``/``error``
        event, or once ``max_silent_reconnects`` consecutive reconnects
        yield nothing new (the campaign was evicted server-side).

        Streams use a dedicated connection per attempt, never the
        keep-alive one ``_request`` shares, so polling ``campaign()``
        concurrently from the same thread stays safe.
        """
        cursor = after
        silent = 0
        while True:
            connection = self._open()
            progressed = False
            try:
                connection.request(
                    "GET",
                    f"{self._prefix}/campaign/{campaign_id}/events?after={cursor}",
                    headers={"Last-Event-Id": str(cursor)},
                )
                response = connection.getresponse()
                if response.status >= 400:
                    raise _service_error(
                        response.status,
                        response.read(),
                        _parse_retry_after(response.getheader("Retry-After")),
                    )
                while True:
                    # http.client undoes the chunked framing; each readline
                    # is one NDJSON event the moment the server flushes it.
                    line = response.readline()
                    if not line:
                        break
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line.decode("utf-8"))
                    except (UnicodeDecodeError, ValueError):
                        break  # torn line mid-drop; reconnect at the cursor
                    if not isinstance(event, dict):
                        continue
                    seq = event.get("seq")
                    if isinstance(seq, int):
                        if seq <= cursor:
                            continue  # replayed duplicate after a reconnect
                        cursor = seq
                    progressed = True
                    yield event
                    if event.get("type") in _TERMINAL_EVENT_TYPES:
                        return
            except (OSError, http.client.HTTPException) as error:
                if not reconnect:
                    raise ServiceError(
                        0,
                        "connection_error",
                        f"event stream from {self.base_url} failed: {error}",
                    ) from None
            finally:
                try:
                    connection.close()
                except Exception:  # noqa: BLE001 - teardown must not mask
                    pass
            # Stream ended without a terminal event (server drain, dropped
            # connection): resume at the cursor unless it keeps yielding
            # nothing — then the campaign is gone and so is the stream.
            if not reconnect:
                return
            silent = 0 if progressed else silent + 1
            if silent > max_silent_reconnects:
                return
            time.sleep(RETRY_BACKOFF_SECONDS)

    def wait_campaign(
        self, campaign_id: str, timeout: float = 300.0, poll_seconds: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until a campaign settles; raises on failure or timeout.

        Returns the final snapshot, whose ``campaign.cells[*].front``
        entries rebuild to bit-identical reports via
        :func:`~repro.core.cost.export.report_from_dict`.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.campaign(campaign_id)
            if snapshot["state"] == "failed":
                raise ServiceError(
                    500, "campaign_failed", snapshot.get("error") or "campaign failed"
                )
            if snapshot["state"] == "done":
                return snapshot
            if time.monotonic() >= deadline:
                raise ServiceError(
                    0,
                    "timeout",
                    f"campaign {campaign_id} still running after {timeout}s",
                )
            time.sleep(poll_seconds)
