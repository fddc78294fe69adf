"""The HTTP front door: a threading JSON server over the shared runtime.

Stdlib only (``http.server``): one daemon thread per connection, all of
them funneling model work through the process-wide
:class:`~repro.service.handlers.ServiceState` so every client shares the
same warm evaluation cache.

Two entry points:

* :class:`EvaluationService` — embeddable object with ``start()`` /
  ``stop()`` (graceful: stops accepting, drains, closes worker pools) and
  context-manager support; ``port=0`` binds an ephemeral port, which tests
  and the in-process benchmark use.
* :func:`serve` — the blocking CLI entry point (``repro serve``).
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qsl

import repro
from repro.service import handlers, schema
from repro.service.handlers import ServiceState
from repro.utils.errors import MCCMError

logger = logging.getLogger(__name__)

#: Largest accepted request body; anything bigger gets a structured 413.
MAX_BODY_BYTES = 1 << 20

#: How often a serving loop checks for shutdown. ``shutdown()`` waits up
#: to this long, so the stdlib's 0.5 s default would stall every stop.
POLL_SECONDS = 0.05

#: ``http.client``'s limits on a request head, answered with 431 as
#: ``http.server`` does: bytes per header line, and lines per header
#: block, the blank line that ends it included.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100

#: A line ``email.feedparser`` keeps in a header block: a field name of
#: printable characters other than the colon (possibly none) and a colon,
#: a continuation line, or a Unix ``From `` envelope line. Any other line
#: ends the block.
_HEADER_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")
#: Lines as ``email.feedparser`` splits them: a lone CR ends a line too.
_LINES = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def parse_header_block(text: str) -> Dict[str, str]:
    """The header fields of a request head, read as ``http.server`` reads them.

    ``text`` is the Latin-1 decoded block after the request line. The
    result maps each lower-case field name to its first value, built the
    way ``email.parser`` (policy ``compat32``) builds one: blanks after the
    colon stripped, continuation lines appended with their line breaks,
    trailing line breaks stripped. Malformed lines fare as they do there:
    the first line that is not a header line ends the block, so a field
    after it is not seen, and lines with an empty name or a ``From ``
    envelope are skipped.
    """
    fields: List[List[str]] = []  # each: the name line, then continuation lines
    field: Optional[List[str]] = None
    for line in _LINES.findall(text):
        if not _HEADER_LINE.match(line):
            break
        if line[0] in " \t":
            if field is not None:
                field.append(line)
        elif line.startswith("From ") or line.startswith(":"):
            field = None  # no field; continuation lines after it are dropped
        else:
            field = [line]
            fields.append(field)
    headers: Dict[str, str] = {}
    for first, *continuations in fields:
        name, value = first.split(":", 1)
        value = value.lstrip(" \t") + "".join(continuations)
        headers.setdefault(name.lower(), value.rstrip("\r\n"))
    return headers


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as integers; None where ``http.server``
    answers 400 (no ``HTTP/`` prefix, or not two dot-separated groups of
    at most ten digits)."""
    if not version.startswith("HTTP/"):
        return None
    try:
        major, minor = version[5:].split(".")
        if all(part.isdigit() and len(part) <= 10 for part in (major, minor)):
            return int(major), int(minor)
    except ValueError:
        pass
    return None


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default listen backlog (5) drops connections when many
    # clients connect at once; the service's whole point is concurrent
    # clients, so queue bursts instead.
    request_queue_size = 128
    #: (second, ``Date`` header text) last formatted by a handler thread;
    #: replaced whole, so a thread reads a consistent pair without a lock.
    date_text: Tuple[int, str] = (-1, "")


#: The ``request_counts`` key of every request to a path no route has.
UNKNOWN_PATH = "<unknown>"

#: method -> path -> (request parser or None, handler).
ROUTES: Dict[str, Dict[str, Tuple[Optional[Callable], Callable]]] = {
    "GET": {
        "/healthz": (None, handlers.handle_healthz),
        "/models": (None, handlers.handle_models),
        "/boards": (None, handlers.handle_boards),
        "/rules": (None, handlers.handle_rules_list),
        "/campaign": (None, handlers.handle_campaign_list),
    },
    "POST": {
        "/evaluate": (schema.parse_evaluate, handlers.handle_evaluate),
        "/sweep": (schema.parse_sweep, handlers.handle_sweep),
        "/dse": (schema.parse_dse, handlers.handle_dse),
        "/campaign": (schema.parse_campaign, handlers.handle_campaign_start),
        # Workload/ruleset registration: GET lists reflect these immediately.
        "/models": (schema.parse_model_register, handlers.handle_model_register),
        "/boards": (schema.parse_board_register, handlers.handle_board_register),
        "/rules": (schema.parse_ruleset_register, handlers.handle_ruleset_register),
    },
}

#: method -> ((path prefix, handler taking (state, suffix, query)), ...)
#: for routes with a path parameter, e.g. ``GET /campaign/<id>`` and
#: ``GET /campaign/<id>/events``. Handlers return either the usual
#: ``(status, payload)`` or a :class:`~repro.service.handlers.StreamingResponse`.
DYNAMIC_ROUTES: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "GET": (("/campaign/", handlers.handle_campaign_path),),
}


class _RequestHandler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{repro.__version__}"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a JSON reply goes out in one write, but a stream's head
    # and chunks, a 100 Continue and the stdlib's error pages are several.
    # With Nagle on, each write after the first waits for the ACK of the
    # one before, which a keep-alive client delays (~40 ms) while it waits
    # for the rest of the reply.
    disable_nagle_algorithm = True

    #: Set by :meth:`parse_request`: lower-case field name -> first value.
    headers: Dict[str, str]

    @property
    def state(self) -> ServiceState:
        return self.server.service_state  # type: ignore[attr-defined]

    # --- request heads -------------------------------------------------------
    def parse_request(self) -> bool:
        """``BaseHTTPRequestHandler.parse_request`` without ``email.parser``.

        The request line, the limits and every answer to a malformed head
        are the stdlib's (``tests/service/test_framing.py`` pins them);
        the header block goes through :func:`parse_header_block`, which
        reads fields the way the stdlib's ``email.parser`` did at a
        fraction of its cost.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        self.command, self.path = command, path
        if path.startswith("//"):
            # As the stdlib does: clients read a leading "//" as another host.
            self.path = "/" + path.lstrip("/")
        block = self._read_header_block()
        if block is None:
            return False
        self.headers = parse_header_block(block.decode("iso-8859-1"))
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_header_block(self) -> Optional[bytes]:
        """The raw header block up to its blank line, or None once a limit
        was hit and answered with the stdlib's 431."""
        lines = []
        while True:
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_HEADER_LINE} bytes when reading header line",
                )
                return None
            lines.append(line)
            if len(lines) > MAX_HEADER_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEADER_LINES} headers",
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                return b"".join(lines)

    # --- plumbing ------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after: Optional[int] = None,
    ) -> None:
        body = handlers.dump_payload(payload).encode("utf-8")
        if status >= 400:
            # An errored request may not have consumed its body; keeping the
            # connection alive would desync HTTP/1.1 pipelining.
            self.close_connection = True
        self.log_request(status)
        reply = body
        if self.request_version != "HTTP/0.9":  # HTTP/0.9 replies have no head
            # The lines send_response and send_header would buffer, in one
            # string (tests/service/test_framing.py compares the bytes).
            phrase = self.responses[status][0] if status in self.responses else ""
            head = (
                f"{self.protocol_version} {status:d} {phrase}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if self.state.worker_index is not None:
                head += f"X-Repro-Worker: {self.state.pid}\r\n"
            if retry_after is not None:
                head += f"Retry-After: {retry_after}\r\n"
            if self.close_connection:
                # Announce the close explicitly so keep-alive clients drop
                # the connection instead of stumbling over the silent
                # hangup on their next request.
                head += "Connection: close\r\n"
            reply = (head + "\r\n").encode("latin-1") + body
        try:
            self.wfile.write(reply)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before its reply: nothing is left to answer.
            self.close_connection = True

    def date_time_string(self, timestamp: Optional[float] = None) -> str:
        """The stdlib's ``Date`` text for now, formatted once per second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        second = int(time.time())
        cached = self.server.date_text
        if cached[0] != second:
            cached = (second, super().date_time_string(second))
            self.server.date_text = cached
        return cached[1]

    def _send_worker_header(self) -> None:
        """In a fleet, say which worker pid answered — clients (and the CI
        smoke) use it to prove streams are served fleet-wide, not only by
        the worker that accepted ``POST /campaign``."""
        if self.state.worker_index is not None:
            self.send_header("X-Repro-Worker", str(self.state.pid))

    def _send_stream(self, stream: "handlers.StreamingResponse") -> None:
        """Write a chunked-transfer NDJSON response, flushing every chunk.

        Manual chunked framing (``http.server`` offers none): each event
        line goes out as its own chunk, in one write (one TCP segment with
        Nagle off), the moment the handler yields it, so clients see
        generations live. The connection always closes at stream end —
        re-syncing keep-alive after a potentially abandoned stream is not
        worth it.
        """
        self.close_connection = True
        self.send_response(stream.status)
        self.send_header("Content-Type", stream.content_type)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self._send_worker_header()
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for chunk in stream.chunks:
                if not chunk:
                    continue
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up mid-stream; reconnecting with ?after=<seq>
            # resumes without gaps, so a dropped pipe is routine, not an error.
            pass
        except Exception:  # pragma: no cover - defensive
            logger.exception("event stream failed mid-flight")

    def _read_body(self) -> Any:
        length_header = self.headers.get("content-length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise schema.RequestError(
                "POST requires a Content-Length header", status=411, kind="length_required"
            ) from None
        if length < 0:
            # rfile.read(negative) would read until EOF and hang the thread.
            raise schema.RequestError(f"invalid Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise schema.RequestError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit",
                status=413,
                kind="body_too_large",
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise schema.RequestError(
                f"request body is not valid JSON: {error}", kind="invalid_json"
            ) from None

    def _query_params(self, raw_query: str) -> Dict[str, str]:
        """Query-string parameters (first value wins), plus the
        ``Last-Event-Id`` header mapped to ``after`` for stream resumes —
        SSE-style clients send the header, curl users the parameter."""
        params: Dict[str, str] = {}
        for key, value in parse_qsl(raw_query, keep_blank_values=True):
            params.setdefault(key, value)
        last_event_id = self.headers.get("last-event-id")
        if last_event_id is not None and "after" not in params:
            params["after"] = last_event_id.strip()
        return params

    def _dispatch(self, method: str) -> None:
        path, _, raw_query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        route = ROUTES.get(method, {}).get(path)
        if route is None:
            for prefix, dynamic_handler in DYNAMIC_ROUTES.get(method, ()):
                if path.startswith(prefix) and len(path) > len(prefix):
                    # Count under the route pattern, not the concrete id —
                    # per-id keys would grow request_counts without bound.
                    self._invoke(
                        f"{prefix}<id>",
                        lambda: dynamic_handler(
                            self.state,
                            path[len(prefix):],
                            self._query_params(raw_query),
                        ),
                    )
                    return
            known = sorted(ROUTES["GET"]) + sorted(ROUTES["POST"])
            if any(path in table for table in ROUTES.values()):
                status, payload = 405, schema.error_payload(
                    schema.RequestError(
                        f"{method} not allowed on {path}", status=405,
                        kind="method_not_allowed",
                    )
                )
            else:
                status, payload = 404, schema.error_payload(
                    schema.RequestError(
                        f"no such endpoint {path!r}; available: {known}",
                        status=404,
                        kind="unknown_endpoint",
                    )
                )
            # Every unknown path counts under one key, as campaign ids do
            # under "<id>": a key per path would grow request_counts
            # without bound. A 405 keeps its known path.
            self.state.count_request(path if status == 405 else UNKNOWN_PATH, ok=False)
            self._send_json(status, payload)
            return

        parser, handler = route
        request: Tuple[Any, ...] = ()
        if parser is not None:
            # Read and validate the whole body before claiming an in-flight
            # slot: a client that stalls mid-body must hold none, and a
            # draining worker must not wait for it.
            try:
                request = (parser(self._read_body()),)
            except Exception as error:
                self._answer(path, self._error_response(path, error))
                return
        # POSTs do model work; GETs are cheap introspection that must keep
        # answering (health checks, campaign polls) even under load.
        self._invoke(
            path, lambda: handler(self.state, *request), gated=method == "POST"
        )

    def _error_response(
        self, path: str, error: Exception
    ) -> Tuple[int, Dict[str, Any]]:
        """The shared error-to-JSON contract (call from an ``except`` block)."""
        if isinstance(error, MCCMError):
            status, _kind = schema.classify_error(error)
            return status, schema.error_payload(error)
        logger.exception("unhandled error serving %s", path)
        return 500, schema.error_payload(error)

    def _answer(self, path: str, result: Tuple[int, Dict[str, Any]]) -> None:
        status, payload = result
        self.state.count_request(path, ok=status < 400)
        self.state.write_worker_status()
        self._send_json(status, payload)

    def _refuse(self, path: str, error: schema.RequestError) -> None:
        """Answer a transient refusal (backpressure/draining) immediately."""
        self.state.count_request(path, ok=False)
        self._send_json(
            error.status, schema.error_payload(error), retry_after=error.retry_after
        )

    def _invoke(
        self,
        path: str,
        produce: Callable[[], Tuple[int, Dict[str, Any]]],
        *,
        gated: bool = False,
    ) -> None:
        """Run one resolved route with the shared error-to-JSON contract."""
        state = self.state
        if state.draining:
            self._refuse(path, schema.RequestError(
                "service is draining for shutdown; retry shortly",
                status=503,
                kind="draining",
                retry_after=1,
            ))
            return
        if gated and not state.try_begin_request():
            self._refuse(path, schema.RequestError(
                f"worker already has {state.max_inflight} requests in "
                "flight; retry shortly",
                status=429,
                kind="backpressure",
                retry_after=1,
            ))
            return
        # Tracked until the response is fully written: a draining worker
        # waits on this before exiting, so SIGTERM never truncates an
        # in-flight answer.
        state.track_request()
        try:
            try:
                result = produce()
            except Exception as error:
                result = self._error_response(path, error)
            if isinstance(result, handlers.StreamingResponse):
                # Streams hold this connection open for the campaign's
                # lifetime; they stay tracked (draining waits them out —
                # the generator itself exits early on drain) but are
                # counted once, up front.
                self.state.count_request(path, ok=True)
                state.write_worker_status()
                self._send_stream(result)
                return
            self._answer(path, result)
        finally:
            if gated:
                state.end_request()
            state.untrack_request()

    # --- http.server hooks ---------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def log_message(self, format: str, *args: Any) -> None:
        # Route the default access log through logging instead of stderr,
        # formatting each line only when someone reads it.
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s - %s", self.address_string(), format % args)


class EvaluationService:
    """An embeddable MCCM evaluation server.

    >>> with EvaluationService(port=0) as service:   # doctest: +SKIP
    ...     client = ServiceClient(service.url)
    ...     client.evaluate("squeezenet", "zc706", "segmentedrr", ce_count=2)
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8100,
        *,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[str] = None,
        cache_entries: int = 65536,
        max_inflight: int = handlers.DEFAULT_MAX_INFLIGHT,
    ) -> None:
        self.state = ServiceState(
            jobs=jobs,
            cache_dir=cache_dir,
            cache_entries=cache_entries,
            max_inflight=max_inflight,
        )
        self._httpd = _ThreadingServer((host, port), _RequestHandler)
        self._httpd.service_state = self.state  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "EvaluationService":
        """Serve on a background thread; returns immediately."""
        if self._thread is not None:
            raise MCCMError("service is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(POLL_SECONDS,),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving MCCM evaluations on %s", self.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, join, release worker pools."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self.state.close()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self._httpd.serve_forever(POLL_SECONDS)
        finally:
            self._httpd.server_close()
            self.state.close()

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8100,
    *,
    jobs: Union[int, str] = 1,
    cache_dir: Optional[str] = None,
    workers: int = 1,
    max_inflight: int = handlers.DEFAULT_MAX_INFLIGHT,
) -> int:
    """Run the service in the foreground until Ctrl-C (``repro serve``).

    With ``workers >= 1`` and ``os.fork`` available this runs the pre-forked
    supervisor (one process per worker, shared disk cache, graceful SIGTERM
    draining, crash restarts); platforms without ``fork`` fall back to the
    single-process threading server.
    """
    import os as _os

    if hasattr(_os, "fork"):
        from repro.service.supervisor import Supervisor

        supervisor = Supervisor(
            host,
            port,
            workers=workers,
            jobs=jobs,
            cache_dir=cache_dir,
            max_inflight=max_inflight,
        )
        return supervisor.run_forever()
    if workers > 1:
        raise MCCMError(
            f"--workers {workers} needs os.fork, which this platform lacks; "
            "run one process per port behind a load balancer instead"
        )
    service = EvaluationService(
        host, port, jobs=jobs, cache_dir=cache_dir, max_inflight=max_inflight
    )
    print(f"serving MCCM evaluations on {service.url} (Ctrl-C to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0
