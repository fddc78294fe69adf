"""The HTTP front door: one serving loop per process over the shared runtime.

Stdlib only (``selectors``): one thread owns the listening socket and
every keep-alive connection. It frames each request once from the
connection's receive buffer (:func:`frame_head` keeps ``http.server``'s
limits and answers), answers ``POST /evaluate`` and the GET routes
inline, writing each reply head itself (``http.server``'s bytes), and
sends each reply from the connection's output buffer without blocking.
Work the loop cannot bound — ``POST /sweep``, ``/dse``, ``/campaign``
and the registrations, event streams, a stale registry catalog, and
an ``/evaluate`` that the replay memo or the worker's in-memory cache
cannot answer or whose context another thread holds — runs on a thread
that owns the connection until its reply is out and then hands the
connection back. Every request goes through the process-wide
:class:`~repro.service.handlers.ServiceState`, so all clients share one
warm evaluation cache.

Two entry points:

* :class:`EvaluationService` — embeddable object with ``start()`` /
  ``stop()`` (graceful: stops accepting, drains in-flight requests, closes
  worker pools) and context-manager support; ``port=0`` binds an
  ephemeral port, which tests and the in-process benchmark use.
* :func:`serve` — the blocking CLI entry point (``repro serve``).

Each worker of ``repro serve --workers N`` runs one :class:`ServingLoop`
too (:func:`repro.service.supervisor.run_worker`).
"""

from __future__ import annotations

import json
import logging
import re
import selectors
import signal
import socket
import sys
import threading
import time
from collections import deque
from functools import partial
from http import HTTPStatus
from time import gmtime, monotonic
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple, Union
from urllib.parse import parse_qsl

import repro
from repro.core.cost.export import dump_json
from repro.service import handlers, schema
from repro.service.handlers import ServiceState
from repro.utils.errors import MCCMError

logger = logging.getLogger(__name__)

#: Largest accepted request body; anything bigger gets a structured 413.
MAX_BODY_BYTES = 1 << 20

#: How often a serving loop wakes with nothing to do, to check its stop
#: flag and drain deadline.
POLL_SECONDS = 0.05

#: Seconds a stopping loop keeps serving its in-flight requests before it
#: closes anyway.
DRAIN_DEADLINE_SECONDS = 10.0

#: ``http.client``'s limits on a request head, answered with 431 as
#: ``http.server`` does: bytes per header line, and lines per header
#: block, the blank line that ends it included.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100

#: Listen backlog: the stdlib default (5) drops connections when many
#: clients connect at once.
LISTEN_BACKLOG = 128

#: Reply bytes a connection may hold unsent before the loop stops
#: answering (and reading) its further requests until the client reads:
#: a client that pipelines and never reads holds no more than this.
OUTPUT_BUFFER_BYTES = 256 * 1024

#: How long a busy loop polls without blocking before it sleeps (see
#: :meth:`ServingLoop._poll`).
SPIN_SECONDS = 100e-6

#: Bytes taken from a connection per ``recv``.
RECV_BYTES = 65536

#: Routes whose work the loop cannot bound (model work; a campaign's spec,
#: which loads the DSE layer, and its first snapshot; a registration, which
#: checks a definition of up to a MiB): each such request runs on a thread
#: of its own.
THREAD_ROUTES = frozenset(
    ("POST", route) for route in ("/sweep", "/dse", "/campaign", *handlers.REGISTRIES)
)

#: ``POST /evaluate`` bodies a loop remembers, by hash (it forgets them all
#: when it holds this many). A body it has not seen is a cold request,
#: which goes to a thread before ``do_POST`` runs; a seen one is answered
#: on the loop unless the handler finds otherwise
#: (:class:`handlers.NeedsThread`), so a hash collision costs nothing.
SEEN_BODIES = 4096

#: A line ``email.feedparser`` keeps in a header block: a field name of
#: printable characters other than the colon (possibly none) and a colon,
#: a continuation line, or a Unix ``From `` envelope line. Any other line
#: ends the block.
_HEADER_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")
#: Lines as ``email.feedparser`` splits them: a lone CR ends a line too.
_LINES = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")

#: A request's version until its request line names one: HTTP/0.9, whose
#: replies have no head.
DEFAULT_REQUEST_VERSION = "HTTP/0.9"


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
    headers: Dict[str, str] = {}
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


def content_length(value: Optional[str]) -> int:
    """A POST's ``Content-Length`` as a byte count; the typed 411, 400 or
    413 when it is missing, not digits, or over :data:`MAX_BODY_BYTES`."""
    if value is None:
        raise schema.RequestError(
            "POST requires a Content-Length header", status=411, kind="length_required"
        )
    # RFC 9110 §8.6: 1*DIGIT. int() would also take "+85", "8_5" and "-1";
    # a proxy that reads such a value differently desyncs keep-alive.
    # The strip covers SP/HTAB and the CR/LF an obs-fold leaves.
    digits = value.strip(" \t\r\n")
    if not (digits.isascii() and digits.isdigit()):
        raise schema.RequestError(f"invalid Content-Length {value!r}")
    # Leading zeros are legal, and int() refuses over 4,300 digits: a
    # value with more digits than the limit is over it, unconverted.
    digits = digits.lstrip("0") or "0"
    length = int(digits) if len(digits) <= len(str(MAX_BODY_BYTES)) else None
    if length is None or length > MAX_BODY_BYTES:
        raise schema.RequestError(
            f"request body of {digits} bytes exceeds the {MAX_BODY_BYTES} limit",
            status=413,
            kind="body_too_large",
        )
    return length


class Head:
    """One request head, as :func:`frame_head` read it.

    The fields are those ``BaseHTTPRequestHandler.parse_request`` sets
    (``command`` stays None when the stdlib would close without an answer)
    plus ``end``, the offset just past the head; ``error``, the
    ``send_error`` arguments of a rejected head; ``route`` and ``query``,
    the path split as the routes see it; and ``body_length`` or
    ``length_error`` for a route that reads a body.
    """

    __slots__ = (
        "end", "requestline", "command", "path", "request_version", "close",
        "headers", "expect_continue", "error", "route", "query",
        "body_length", "length_error",
    )

    def __init__(self) -> None:
        self.end = 0
        self.requestline = ""
        self.command: Optional[str] = None
        self.path = ""
        self.request_version = DEFAULT_REQUEST_VERSION
        self.close = True
        self.headers: Dict[str, str] = {}
        self.expect_continue = False
        self.error: Optional[Tuple[int, Optional[str], Optional[str]]] = None
        self.route = ""
        self.query = ""
        self.body_length = 0
        self.length_error: Optional[schema.RequestError] = None


def _line_end(data, start: int, eof: bool) -> Optional[int]:
    """Where ``rfile.readline(MAX_HEADER_LINE + 1)`` at ``start`` stops
    reading, or None until more bytes tell."""
    newline = data.find(b"\n", start, start + MAX_HEADER_LINE + 1)
    if newline >= 0:
        return newline + 1
    if len(data) - start > MAX_HEADER_LINE:
        return start + MAX_HEADER_LINE + 1
    return len(data) if eof else None


def frame_head(data, eof: bool = False) -> Optional[Head]:
    """The request head at the start of ``data``, or None until more arrives.

    ``data`` (bytes or bytearray) is read the way ``http.server`` reads a
    connection: line by line, with the request line's and every header
    line's limits and answers kept (``tests/service/test_framing.py`` pins
    them). ``eof`` says no more bytes will come, so a line also ends where
    the data does. The request's body, when its route reads one, is the
    ``body_length`` bytes after ``end``.
    """
    head = Head()
    line_end = _line_end(data, 0, eof)
    if line_end is None:
        return None
    head.end = line_end
    if line_end > MAX_HEADER_LINE:
        head.request_version = head.command = ""
        head.error = (HTTPStatus.REQUEST_URI_TOO_LONG, None, None)
        return head
    requestline = str(data[:line_end], "iso-8859-1").rstrip("\r\n")
    head.requestline = requestline
    words = requestline.split()
    if not words:
        return head  # end of input or a blank line: closed unanswered
    if len(words) >= 3:
        version = words[-1]
        number = _version_number(version)
        if number is None:
            head.error = (HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})", None)
            return head
        if number >= (1, 1):
            head.close = False
        if number >= (2, 0):
            head.error = (
                HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                f"Invalid HTTP version ({version[5:]})",
                None,
            )
            return head
        head.request_version = version
    if not 2 <= len(words) <= 3:
        head.error = (HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})", None)
        return head
    command, path = words[:2]
    if len(words) == 2:
        head.close = True
        if command != "GET":
            head.error = (
                HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})", None
            )
            return head
    head.command = command
    # As the stdlib does: clients read a leading "//" as another host.
    head.path = "/" + path.lstrip("/") if path.startswith("//") else path
    start = line_end
    for lines in range(1, MAX_HEADER_LINES + 2):
        end = _line_end(data, start, eof)
        if end is None:
            return None
        head.end = end
        if end - start > MAX_HEADER_LINE:
            head.error = (
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Line too long",
                f"got more than {MAX_HEADER_LINE} bytes when reading header line",
            )
            return head
        if lines > MAX_HEADER_LINES:
            head.error = (
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                "Too many headers",
                f"got more than {MAX_HEADER_LINES} headers",
            )
            return head
        if end - start <= 2 and data[start:end] in (b"\r\n", b"\n", b""):
            break
        start = end
    headers = head.headers = parse_header_block(str(data[line_end:end], "iso-8859-1"))
    connection = headers.get("connection", "").lower()
    if connection == "close":
        head.close = True
    elif connection == "keep-alive":
        head.close = False
    head.expect_continue = (
        headers.get("expect", "").lower() == "100-continue"
        and head.request_version >= "HTTP/1.1"
    )
    route, _, head.query = head.path.partition("?")
    head.route = route.rstrip("/") or "/"
    handler_route = ROUTES.get(command, {}).get(head.route)
    if handler_route is not None and handler_route[0] is not None:
        try:
            head.body_length = content_length(headers.get("content-length"))
        except schema.RequestError as error:
            head.length_error = error  # answered without reading a body
    return head


#: The ``request_counts`` key of every request to a path no route has.
UNKNOWN_PATH = "<unknown>"

#: method -> path -> (request parser or None, handler). Each registry
#: route (:data:`handlers.REGISTRIES`) lists its registry on GET and
#: registers into it on POST; the GET list reflects a registration at once.
ROUTES: Dict[str, Dict[str, Tuple[Optional[Callable], Callable]]] = {
    "GET": {
        "/healthz": (None, handlers.handle_healthz),
        "/campaign": (None, handlers.handle_campaign_list),
        **{
            path: (None, partial(handlers.handle_catalog, route))
            for path, route in handlers.REGISTRIES.items()
        },
    },
    "POST": {
        "/evaluate": (schema.parse_evaluate, handlers.handle_evaluate),
        "/sweep": (schema.parse_sweep, handlers.handle_sweep),
        "/dse": (schema.parse_dse, handlers.handle_dse),
        "/campaign": (schema.parse_campaign, handlers.handle_campaign_start),
        **{
            path: (
                partial(schema.parse_register, route.registry),
                partial(handlers.handle_register, route),
            )
            for path, route in handlers.REGISTRIES.items()
        },
    },
}

#: method -> ((path prefix, handler taking (state, suffix, query)), ...)
#: for routes with a path parameter, e.g. ``GET /campaign/<id>`` and
#: ``GET /campaign/<id>/events``. Handlers return either the usual
#: ``(status, payload)`` or a :class:`~repro.service.handlers.StreamingResponse`.
DYNAMIC_ROUTES: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "GET": (("/campaign/", handlers.handle_campaign_path),),
}


#: Each status's reason phrase and error-page explanation, as
#: ``BaseHTTPRequestHandler.responses`` has them.
_RESPONSES = {status: (status.phrase, status.description) for status in HTTPStatus}

#: ``http.server``'s error page (``DEFAULT_ERROR_MESSAGE``), whose prolog
#: Python 3.11 changed.
ERROR_PAGE = (
    '<!DOCTYPE HTML>\n<html lang="en">\n    <head>\n        <meta charset="utf-8">\n'
    if sys.version_info >= (3, 11)
    else '<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01//EN"\n'
    '        "http://www.w3.org/TR/html4/strict.dtd">\n<html>\n    <head>\n'
    '        <meta http-equiv="Content-Type" content="text/html;charset=utf-8">\n'
) + """\
        <title>Error response</title>
    </head>
    <body>
        <h1>Error response</h1>
        <p>Error code: %(code)d</p>
        <p>Message: %(message)s.</p>
        <p>Error code explanation: %(code)s - %(explain)s.</p>
    </body>
</html>
"""

#: The interim reply to ``Expect: 100-continue``: a status line alone,
#: unlogged, as ``handle_expect_100`` writes it.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: English names: ``strftime``'s follow the locale.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def http_date(second: int) -> str:
    """``second`` (since the epoch) as an IMF-fixdate, the ``Date`` text
    ``email.utils.formatdate(second, usegmt=True)`` makes."""
    year, month, day, hour, minute, sec, weekday, _, _ = gmtime(second)
    return (
        f"{_DAYS[weekday]}, {day:02d} {_MONTHS[month - 1]} {year:04d} "
        f"{hour:02d}:{minute:02d}:{sec:02d} GMT"
    )


class _RequestHandler:
    """Answers the requests of one connection.

    The serving loop frames each request and calls :meth:`begin` and then
    ``do_GET``/``do_POST``; every reply goes through :meth:`_reply` into
    the connection's output buffer, in the bytes ``http.server``'s
    ``send_response``, ``send_header`` and ``end_headers`` wrote. Work
    that must leave the loop is left in :attr:`deferred` for a thread to
    run.
    """

    server_version = f"repro-serve/{repro.__version__}"
    #: The ``Server`` header's text.
    _server = f"{server_version} Python/{sys.version.split()[0]}"
    #: (second, ``Date`` header text) last formatted; replaced whole, so a
    #: thread reads a consistent pair without a lock.
    _date: Tuple[int, str] = (-1, "")

    def __init__(
        self, connection: "_Connection", state: ServiceState, client_address: Any
    ) -> None:
        self.wfile = connection
        self.state = state
        self.client_address = client_address
        self.close_connection = True
        self.body = b""
        #: What is left of the current request when it must go on off the
        #: loop (a stream, or work :class:`handlers.NeedsThread` names).
        self.deferred: Optional[Callable[[], None]] = None

    def begin(self, head: Head) -> None:
        """Take the fields of a newly framed request."""
        self.head = head
        self.requestline = head.requestline
        self.command = head.command
        self.request_version = head.request_version
        self.close_connection = head.close
        self.headers = head.headers

    # --- replies -------------------------------------------------------------
    def _reply(
        self, status: int, fields: str, body: bytes = b"", phrase: Optional[str] = None
    ) -> None:
        """Write one reply: its head (the status line, ``Server``,
        ``Date``, then ``fields``, header lines each ending in CRLF) and
        ``body``. An HTTP/0.9 reply is its body alone. The access log
        gets ``log_request``'s line."""
        self._log('"%s" %d -', self.requestline, status)
        if self.request_version != "HTTP/0.9":
            if phrase is None:
                phrase = _RESPONSES[status][0] if status in _RESPONSES else ""
            body = (
                f"HTTP/1.1 {status:d} {phrase}\r\n"
                f"Server: {self._server}\r\n"
                f"Date: {self._date_now()}\r\n"
                f"{fields}\r\n"
            ).encode("latin-1") + body
        self.wfile.write(body)

    def _date_now(self) -> str:
        """The ``Date`` text for now, formatted once per second."""
        second = int(time.time())
        cached = _RequestHandler._date
        if cached[0] != second:
            cached = _RequestHandler._date = (second, http_date(second))
        return cached[1]

    def _log(self, format: str, *args: Any) -> None:
        # The access log goes through logging, each line formatted only
        # when someone reads it.
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s - %s", self.client_address[0], format % args)

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Optional[str] = None
    ) -> None:
        """``BaseHTTPRequestHandler.send_error``: the error page, with
        ``message`` (default: the reason phrase) as the status line's
        phrase; a ``HEAD`` request gets the head alone."""
        default_message, default_explain = _RESPONSES[code]
        message = default_message if message is None else message
        explain = default_explain if explain is None else explain
        self._log("code %d, message %s", code, message)
        self.close_connection = True
        body = (ERROR_PAGE % {
            "code": code, "message": _escape(message), "explain": _escape(explain)
        }).encode("utf-8")
        fields = (
            "Connection: close\r\n"
            "Content-Type: text/html;charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        self._reply(code, fields, b"" if self.command == "HEAD" else body, message)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after: Optional[int] = None,
    ) -> None:
        body = dump_json(payload).encode("utf-8")
        if status >= 400:
            # An errored request may not have consumed its body; keeping the
            # connection alive would desync HTTP/1.1 pipelining.
            self.close_connection = True
        fields = f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        if self.state.worker_index is not None:
            fields += f"X-Repro-Worker: {self.state.pid}\r\n"
        if retry_after is not None:
            fields += f"Retry-After: {retry_after}\r\n"
        if self.close_connection:
            # Announce the close explicitly so keep-alive clients drop
            # the connection instead of stumbling over the silent
            # hangup on their next request.
            fields += "Connection: close\r\n"
        self._reply(status, fields, body)

    def _send_stream(self, stream: "handlers.StreamingResponse") -> None:
        """Write a chunked-transfer NDJSON response, flushing every chunk.

        Each event line goes out as its own chunk, in one write, the
        moment the handler yields it, so clients see generations live.
        Runs on a thread that owns the connection. The connection always
        closes at stream end — re-syncing keep-alive after a potentially
        abandoned stream is not worth it. In a fleet, ``X-Repro-Worker``
        names the worker that answered: clients (and the CI smoke) use it
        to prove streams are served fleet-wide, not only by the worker
        that accepted ``POST /campaign``.
        """
        self.close_connection = True
        fields = (
            f"Content-Type: {stream.content_type}\r\n"
            "Cache-Control: no-store\r\n"
            "Transfer-Encoding: chunked\r\n"
        )
        if self.state.worker_index is not None:
            fields += f"X-Repro-Worker: {self.state.pid}\r\n"
        try:
            self._reply(stream.status, fields + "Connection: close\r\n")
            self.wfile.flush()
            for chunk in stream.chunks:
                if not chunk:
                    continue
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except OSError:
            # The client hung up mid-stream; reconnecting with ?after=<seq>
            # resumes without gaps, so a dropped pipe is routine, not an error.
            pass
        except Exception:  # pragma: no cover - defensive
            logger.exception("event stream failed mid-flight")

    # --- requests ------------------------------------------------------------
    def _read_body(self) -> Any:
        if self.head.length_error is not None:
            raise self.head.length_error
        try:
            return json.loads(self.body.decode("utf-8"))
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
        path = self.head.route
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
                            self._query_params(self.head.query),
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
            # Validate the whole body before claiming an in-flight slot.
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
        # Tracked until the reply is written: a draining loop waits on
        # this, so a stop never truncates an in-flight answer.
        state.track_request()
        self._run(path, produce, gated)

    def _run(self, path: str, produce: Callable, gated: bool) -> None:
        """Produce and answer an admitted request, then release its claims —
        unless the rest must run off the loop (see :attr:`deferred`)."""
        try:
            result = produce()
        except handlers.NeedsThread:
            # Go on where waiting (a held context, the disk) is fine.
            self.deferred = partial(self._run, path, produce, gated)
            return
        except Exception as error:
            result = self._error_response(path, error)
        if isinstance(result, handlers.StreamingResponse):
            # Streams hold this connection open for the campaign's
            # lifetime on a thread of their own; they stay tracked
            # (draining waits them out — the generator itself exits early
            # on drain) but are counted once, up front.
            self.state.count_request(path, ok=True)
            self.deferred = partial(self._stream, result, gated)
            return
        try:
            self._answer(path, result)
        finally:
            self._release(gated)

    def _stream(self, stream: "handlers.StreamingResponse", gated: bool) -> None:
        try:
            self._send_stream(stream)
        finally:
            self._release(gated)

    def _release(self, gated: bool) -> None:
        if gated:
            self.state.end_request()
        self.state.untrack_request()

    # --- request methods -----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``, without loading ``html`` (and
    its entity tables)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Connection:
    """One accepted socket: the bytes received and not yet framed, the
    head of the request being received, and the reply bytes not yet sent.
    It is its handler's ``wfile``."""

    __slots__ = ("sock", "handler", "inbuf", "out", "head", "eof", "closing",
                 "closed", "lent", "events")

    def __init__(self, sock: socket.socket, address: Any, state: ServiceState) -> None:
        self.sock = sock
        self.handler = _RequestHandler(self, state, address)
        self.inbuf = bytearray()
        self.out = bytearray()
        self.head: Optional[Head] = None
        self.eof = False
        self.closing = False
        self.closed = False
        #: True while a thread owns the connection (its socket blocks then).
        self.lent = False
        #: The selector events the loop watches the socket for (0: none).
        self.events = 0

    def write(self, data: bytes) -> None:
        self.out += data

    def flush(self) -> None:
        """On a thread that owns the connection, send what is buffered; on
        the loop, replies go out once the requests at hand are answered."""
        if self.lent and self.out:
            self.sock.sendall(self.out)
            del self.out[:]


_WAKE = object()


class ServingLoop:
    """One thread serving a listening socket and every connection it accepts.

    :meth:`run` serves until :meth:`request_stop`, then drains: it stops
    accepting, answers further requests ``503 draining``, and serves on
    until no request is in flight and every reply is out, for at most the
    drain deadline; then it closes every socket.
    """

    def __init__(self, listener: socket.socket, state: ServiceState) -> None:
        self.listener = listener
        self.state = state
        listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        # A thread handing a connection back (or a stop request) writes a
        # byte here, so the loop wakes at once.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._connections: Set[_Connection] = set()
        self._returned: Deque[_Connection] = deque()
        self._lent = 0
        self._spin = False
        self._seen: Set[int] = set()  # see SEEN_BODIES
        self._stopping = False
        self._closed = False

    def request_stop(self) -> None:
        """Start the drain; safe from any thread and from a signal handler."""
        self.state.begin_draining()
        self._stopping = True
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # a wake-up is already pending, or the loop has closed

    def run(self, drain_seconds: float = DRAIN_DEADLINE_SECONDS) -> None:
        """Serve until :meth:`request_stop`, drain, and close."""
        handlers.never_wait()
        try:
            while not self._stopping:
                self._poll(POLL_SECONDS)
            self._drain(drain_seconds)
        finally:
            handlers.never_wait(False)
            self.close()

    def _drain(self, seconds: float) -> None:
        self._selector.unregister(self.listener)
        self.listener.close()
        deadline = monotonic() + seconds
        while (
            self._lent
            or self.state.active_requests
            or any(conn.out for conn in self._connections)
        ):
            remaining = deadline - monotonic()
            if remaining <= 0:
                break
            self._poll(min(POLL_SECONDS, remaining))

    def close(self) -> None:
        """Close the listener and every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        for sock in (self.listener, self._wake_r, self._wake_w):
            sock.close()

    # --- events ----------------------------------------------------------------
    def _poll(self, timeout: float) -> None:
        select = self._selector.select
        ready = []
        if self._spin:
            spin_until = monotonic() + SPIN_SECONDS
            while not ready and monotonic() < spin_until:
                ready = select(0)
        # Poll on while polling finds work, or after a round that found
        # several connections waiting: a blocked loop idles its CPU, and a
        # busy host wakes it late. Light traffic finds nothing and blocks.
        self._spin = bool(ready)
        if not ready:
            ready = select(timeout)
        serving = []
        for key, events in ready:
            conn = key.data
            if conn is None:
                self._accept()
            elif conn is _WAKE:
                self._take_back()
            else:
                if events & selectors.EVENT_READ:
                    self._receive(conn)
                serving.append(conn)
        # Answer every ready connection before sending any reply: a reply
        # wakes its client, which may take this CPU while the next request
        # waits for the loop.
        stalled = [self._answer_buffered(conn) for conn in serving]
        for conn, at_bound in zip(serving, stalled):
            self._send(conn, at_bound)
        if len(serving) > 1:
            self._spin = True

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self.listener.accept()
            except OSError:  # none left (or one that went away meanwhile)
                return
            sock.setblocking(False)
            # A reply goes out in one send, but a 100 Continue, a stream's
            # head and its chunks are several; with Nagle on, each after
            # the first waits for the client's delayed ACK (~40 ms).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, address, self.state)
            self._connections.add(conn)
            self._watch(conn, selectors.EVENT_READ)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.inbuf += data
        else:
            conn.eof = True

    def _serve(self, conn: _Connection) -> None:
        self._send(conn, self._answer_buffered(conn))

    def _answer_buffered(self, conn: _Connection) -> bool:
        """Answer the requests ``conn`` holds whole; True when answering
        stopped at the output bound with more perhaps to answer."""
        handler = conn.handler
        while not (conn.closing or conn.closed or conn.lent):
            if len(conn.out) >= OUTPUT_BUFFER_BYTES:
                return True
            head = conn.head
            if head is None:
                if not conn.inbuf and not conn.eof:
                    break
                head = frame_head(conn.inbuf, conn.eof)
                if head is None:
                    break
                conn.head = head
                handler.begin(head)
                if head.expect_continue:
                    conn.write(CONTINUE)
            end = head.end + head.body_length
            if len(conn.inbuf) < end and not conn.eof:
                break
            handler.body = bytes(conn.inbuf[head.end:end]) if head.body_length else b""
            del conn.inbuf[:end]
            conn.head = None
            self._answer(conn, head)
        return False

    def _send(self, conn: _Connection, at_bound: bool) -> None:
        """Send what ``conn`` holds (one ``send``), answer on while that
        makes room under the bound, and watch it for what comes next."""
        while not (conn.closed or conn.lent):
            if conn.out:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    sent = 0
                except OSError:
                    # The client hung up before its reply: nothing is left
                    # to answer.
                    self._close(conn)
                    return
                del conn.out[:sent]
            if not at_bound or len(conn.out) >= OUTPUT_BUFFER_BYTES:
                break
            at_bound = self._answer_buffered(conn)
        if conn.closed or conn.lent:
            return
        if conn.closing and not conn.out:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if conn.out else 0
        if not conn.closing and not conn.eof and len(conn.out) < OUTPUT_BUFFER_BYTES:
            events |= selectors.EVENT_READ
        self._watch(conn, events)

    def _answer(self, conn: _Connection, head: Head) -> None:
        """Answer one framed request, or lend the connection to a thread."""
        handler = conn.handler
        try:
            if head.error is not None:
                handler.send_error(*head.error)
            elif head.command is None:
                handler.close_connection = True
            elif not hasattr(handler, "do_" + head.command):
                handler.send_error(
                    HTTPStatus.NOT_IMPLEMENTED, f"Unsupported method ({head.command!r})"
                )
            elif (head.command, head.route) in THREAD_ROUTES or self._cold(head, handler.body):
                self._lend(conn, getattr(handler, "do_" + head.command))
                return
            else:
                getattr(handler, "do_" + head.command)()
                if handler.deferred is not None:
                    work, handler.deferred = handler.deferred, None
                    self._lend(conn, work)
                    return
        except Exception:
            logger.exception("error serving %r", head.requestline)
            handler.close_connection = True
        if handler.close_connection:
            conn.closing = True

    def _cold(self, head: Head, body: bytes) -> bool:
        """Whether ``head`` is a ``POST /evaluate`` whose body the loop has
        not seen; if so, it is remembered."""
        if head.route != "/evaluate" or head.command != "POST":
            return False
        seen = hash(body)
        if seen in self._seen:
            return False
        if len(self._seen) >= SEEN_BODIES:
            self._seen.clear()
        self._seen.add(seen)
        return True

    # --- connections lent to threads -------------------------------------------
    def _lend(self, conn: _Connection, work: Callable[[], None]) -> None:
        self._watch(conn, 0)
        conn.lent = True
        self._lent += 1
        threading.Thread(
            target=self._run_lent, args=(conn, work), name="repro-serve-request", daemon=True
        ).start()

    def _run_lent(self, conn: _Connection, work: Callable[[], None]) -> None:
        """On the lent thread: run ``work`` (and whatever it defers), send
        the reply with blocking writes, and hand the connection back."""
        handler = conn.handler
        try:
            conn.sock.setblocking(True)
            while work is not None:
                work()
                work, handler.deferred = handler.deferred, None
            conn.flush()
        except OSError:
            handler.close_connection = True  # the client went away mid-reply
        except Exception:
            logger.exception("error serving %r", handler.requestline)
            handler.close_connection = True
        finally:
            try:
                conn.sock.setblocking(False)
            except OSError:
                pass
            self._returned.append(conn)
            self._wake()

    def _take_back(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass
        while self._returned:
            conn = self._returned.popleft()
            self._lent -= 1
            conn.lent = False
            if conn.closed:
                continue
            if conn.handler.close_connection:
                conn.closing = True
            self._serve(conn)

    # --- sockets ----------------------------------------------------------------
    def _watch(self, conn: _Connection, events: int) -> None:
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        self._watch(conn, 0)
        self._connections.discard(conn)
        conn.closed = True
        sock = conn.sock
        try:
            sock.setblocking(False)  # a lent socket blocks
            sock.shutdown(socket.SHUT_WR)
            # Take what the client sent past its last answered request:
            # closing with unread bytes resets the connection, which can
            # destroy a reply still on its way.
            for _ in range(16):
                if not sock.recv(RECV_BYTES):
                    break
        except OSError:
            pass
        sock.close()


def bound_socket(
    host: str, port: int, *, reuse_port: bool = False, listen: Optional[int] = LISTEN_BACKLOG
) -> socket.socket:
    """One bound (and, unless ``listen`` is None, listening) TCP socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen is not None:
            sock.listen(listen)
    except BaseException:
        sock.close()
        raise
    return sock


def stop_on_signals(loop: ServingLoop) -> Dict[int, Any]:
    """Make SIGTERM and SIGINT start ``loop``'s drain (main thread only);
    returns the handlers they had."""

    def _stop(_signum: int, _frame: Any) -> None:
        loop.request_stop()

    return {
        signum: signal.signal(signum, _stop) for signum in (signal.SIGTERM, signal.SIGINT)
    }


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
        max_inflight: int = handlers.DEFAULT_MAX_INFLIGHT,
    ) -> None:
        self.state = ServiceState(jobs=jobs, cache_dir=cache_dir, max_inflight=max_inflight)
        listener = bound_socket(host, port)
        self._address: Tuple[str, int] = listener.getsockname()[:2]
        self._loop = ServingLoop(listener, self.state)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one when constructed with ``port=0``)."""
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "EvaluationService":
        """Serve on a background thread; returns immediately."""
        if self._thread is not None:
            raise MCCMError("service is already running")
        self._thread = threading.Thread(target=self._loop.run, name="repro-serve", daemon=True)
        self._thread.start()
        logger.info("serving MCCM evaluations on %s", self.url)
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests (for
        at most :data:`DRAIN_DEADLINE_SECONDS`), release worker pools."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._loop.request_stop()
            # The loop drains, bounded by the deadline once it regains
            # control from a request it answers inline.
            thread.join(DRAIN_DEADLINE_SECONDS + 1.0)
        if thread is None or not thread.is_alive():
            self._loop.close()
        self.state.close()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); on the main thread,
        SIGTERM and SIGINT drain the service and return."""
        previous = (
            stop_on_signals(self._loop)
            if threading.current_thread() is threading.main_thread()
            else {}
        )
        try:
            self._loop.run()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
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
    draining, crash restarts); platforms without ``fork`` fall back to one
    serving loop in this process.
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
    service.serve_forever()
    print("shutting down")
    return 0
