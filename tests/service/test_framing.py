"""How the service frames HTTP/1.1 requests and replies on the wire.

Every test writes raw bytes to a live server's socket, half-closes it and
reads everything the server sends back, so nothing between the test and
the request parser (no client library) hides what the bytes mean. The
expected answers are the ``http.server`` + ``email.parser`` behavior the
service has always had, quirks included: the request-head parser must
keep every limit, status code and header lookup pinned here.
"""

import email.utils
import http.server
import io
import json
import logging
import os
import re
import socket
from typing import Dict, List, NamedTuple

import pytest

from repro.service import EvaluationService
from repro.service import server as service_server

MODEL = "squeezenet"
BOARD = "zc706"


class Reply(NamedTuple):
    status: int
    headers: Dict[str, str]  # lower-case name -> first value
    body: bytes


@pytest.fixture(scope="module")
def service():
    with EvaluationService(port=0) as running:
        yield running


def evaluate_body(ce_count: int = 2) -> bytes:
    return json.dumps(
        {"model": MODEL, "board": BOARD, "architecture": "segmentedrr", "ce_count": ce_count}
    ).encode("ascii")


def post(body: bytes, *header_lines: str, version: str = "HTTP/1.1", eol: str = "\r\n") -> bytes:
    """A ``POST /evaluate`` with exactly the given header lines."""
    head = [f"POST /evaluate {version}", *header_lines, "", ""]
    return eol.join(head).encode("latin-1") + body


def plain_post(ce_count: int = 2) -> bytes:
    body = evaluate_body(ce_count)
    return post(
        body,
        "Host: localhost",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    )


def exchange(service, data: bytes) -> bytes:
    """Send ``data``, half-close, and return every byte the server sent."""
    with socket.create_connection((service.host, service.port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def parse_replies(data: bytes) -> List[Reply]:
    replies = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"unterminated reply head: {data[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 "), status_line
        headers: Dict[str, str] = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        length = int(headers.get("content-length", "0"))
        replies.append(Reply(int(status_line.split()[1]), headers, rest[:length]))
        data = rest[length:]
    return replies


def only_reply(service, data: bytes) -> Reply:
    replies = parse_replies(exchange(service, data))
    assert len(replies) == 1, replies
    return replies[0]


def assert_evaluated(reply: Reply, ce_count: int = 2) -> None:
    assert reply.status == 200, reply
    payload = json.loads(reply.body)
    assert payload["feasible"] is True
    assert payload["ce_count"] == ce_count


class TestAccepted:
    def test_plain_request(self, service):
        reply = only_reply(service, plain_post())
        assert_evaluated(reply)
        assert reply.headers["content-type"] == "application/json"
        assert "connection" not in reply.headers

    def test_lower_case_header_names(self, service):
        body = evaluate_body()
        reply = only_reply(
            service,
            post(body, "host: localhost", "content-type: application/json",
                 f"content-length: {len(body)}"),
        )
        assert_evaluated(reply)

    def test_bare_lf_line_endings(self, service):
        body = evaluate_body()
        reply = only_reply(
            service, post(body, "Host: localhost", f"Content-Length: {len(body)}", eol="\n")
        )
        assert_evaluated(reply)

    def test_obs_fold_continuation_line(self, service):
        body = evaluate_body()
        reply = only_reply(
            service,
            post(body, "Host: localhost", "X-Note: first part", "  second part",
                 "Content-Length:", f" {len(body)}"),
        )
        assert_evaluated(reply)

    def test_duplicate_headers_resolve_to_the_first_value(self, service):
        body = evaluate_body()
        reply = only_reply(
            service,
            post(body, "Host: localhost", f"Content-Length: {len(body)}",
                 "Content-Length: 1", "Connection: close", "Connection: keep-alive"),
        )
        assert_evaluated(reply)
        assert reply.headers["connection"] == "close"

    def test_pipelined_requests_get_replies_in_order(self, service):
        replies = parse_replies(exchange(service, plain_post(3) + plain_post(2)))
        assert len(replies) == 2
        assert_evaluated(replies[0], ce_count=3)
        assert_evaluated(replies[1], ce_count=2)

    def test_expect_100_continue(self, service):
        body = evaluate_body()
        data = exchange(
            service,
            post(body, "Host: localhost", "Expect: 100-continue",
                 f"Content-Length: {len(body)}"),
        )
        assert data.startswith(b"HTTP/1.1 100 Continue\r\n\r\n")
        replies = parse_replies(data)
        assert [reply.status for reply in replies] == [100, 200]
        assert_evaluated(replies[1])


class TestConnectionClose:
    def test_http_1_0_request(self, service):
        body = evaluate_body()
        reply = only_reply(
            service, post(body, f"Content-Length: {len(body)}", version="HTTP/1.0")
        )
        assert_evaluated(reply)
        assert reply.headers["connection"] == "close"

    def test_connection_close_request(self, service):
        body = evaluate_body()
        reply = only_reply(
            service,
            post(body, "Host: localhost", "Connection: close", f"Content-Length: {len(body)}"),
        )
        assert_evaluated(reply)
        assert reply.headers["connection"] == "close"


    def test_http_0_9_get_gets_a_bare_body(self, service):
        data = exchange(service, b"GET /healthz\r\n\r\n")
        assert json.loads(data)["status"] == "ok"


class TestRejected:
    def test_missing_content_length_is_411(self, service):
        reply = only_reply(service, post(evaluate_body(), "Host: localhost"))
        assert reply.status == 411
        assert json.loads(reply.body)["error"]["kind"] == "length_required"
        assert reply.headers["connection"] == "close"

    def test_four_word_request_line_is_400(self, service):
        reply = only_reply(service, b"POST /evaluate extra HTTP/1.1\r\nHost: localhost\r\n\r\n")
        assert reply.status == 400
        assert b"Bad request syntax" in reply.body

    @pytest.mark.parametrize(
        "request_line, code",
        [
            (b"POST /evaluate HTTP/x.1", 400),
            (b"POST /evaluate HTTP/2.0", 505),
            (b"POST /evaluate", 400),  # HTTP/0.9 allows GET only
        ],
    )
    def test_bad_versions_get_a_bare_body(self, service, request_line, code):
        data = exchange(service, request_line + b"\r\nHost: localhost\r\n\r\n")
        # The version is unknown, so the stdlib answers HTTP/0.9 style: an
        # HTML error page with no status line and no headers.
        assert not data.startswith(b"HTTP/")
        assert f"Error code: {code}".encode() in data

    def test_over_long_header_line_is_431(self, service):
        body = evaluate_body()
        reply = only_reply(
            service,
            post(body, "Host: localhost", "X-Big: " + "a" * 70_000,
                 f"Content-Length: {len(body)}"),
        )
        assert reply.status == 431
        assert b"Line too long" in reply.body


class TestQuirks:
    """Answers that follow from ``email.parser`` reading the header block."""

    def test_line_without_colon_ends_the_header_block(self, service):
        body = evaluate_body()
        reply = only_reply(
            service, post(body, "Host: localhost", "no colon here", f"Content-Length: {len(body)}")
        )
        assert reply.status == 411

    def test_space_before_colon_is_not_a_content_length(self, service):
        body = evaluate_body()
        reply = only_reply(service, post(body, "Host: localhost", f"Content-Length : {len(body)}"))
        assert reply.status == 411

    @pytest.mark.parametrize("lines, status", [(99, 200), (100, 431)])
    def test_header_line_limit(self, service, lines, status):
        body = evaluate_body()
        fixed = ["Host: localhost", f"Content-Length: {len(body)}"]
        filler = [f"X-Filler-{index}: {index}" for index in range(lines - len(fixed))]
        reply = only_reply(service, post(body, *fixed, *filler))
        assert reply.status == status



#: A patched clock for the reply-head cases (2026-10-17 09:12:04.25 UTC).
CLOCK = 1792228324.25

#: RFC 9110's preferred ``Date`` form.
IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d{2} "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} \d{2}:\d{2}:\d{2} GMT"
)


class Clock:
    def __init__(self, now: float) -> None:
        self.now = now

    def time(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    """The server's clock, set to :data:`CLOCK` until a test moves it."""
    fake = Clock(CLOCK)
    monkeypatch.setattr(service_server, "time", fake)
    return fake


class StdlibHead(http.server.BaseHTTPRequestHandler):
    """``send_response`` + ``send_header`` as the stdlib has them, at the
    patched clock's time, writing into a buffer instead of a socket."""

    server_version = service_server._RequestHandler.server_version
    protocol_version = "HTTP/1.1"

    def __init__(self) -> None:  # no socket: only the head methods run
        self.request_version = "HTTP/1.1"
        self.wfile = io.BytesIO()

    def log_request(self, code="-", size="-") -> None:
        pass

    def date_time_string(self, timestamp=None) -> str:
        return super().date_time_string(CLOCK)


def stdlib_head(status: int, headers) -> bytes:
    handler = StdlibHead()
    handler.send_response(status)
    for name, value in headers:
        handler.send_header(name, value)
    handler.end_headers()
    return handler.wfile.getvalue()


CLOSE = ("Connection", "close")
RETRY = ("Retry-After", "1")


def _refuse_slots(monkeypatch, state):
    monkeypatch.setattr(state, "try_begin_request", lambda: False)


def _drain(monkeypatch, state):
    monkeypatch.setattr(state, "_draining", True)


def _as_fleet_worker(monkeypatch, state):
    monkeypatch.setattr(state, "worker_index", 0)


#: name -> (request bytes, state change or None, status, headers after
#: Content-Type and Content-Length) — one case per way ``_send_json``
#: builds a head.
HEAD_CASES = {
    "200": (plain_post(), None, 200, []),
    "404": (b"GET /no-such-endpoint HTTP/1.1\r\nHost: localhost\r\n\r\n", None, 404, [CLOSE]),
    "405": (b"GET /evaluate HTTP/1.1\r\nHost: localhost\r\n\r\n", None, 405, [CLOSE]),
    "413": (
        post(b"", "Host: localhost", f"Content-Length: {service_server.MAX_BODY_BYTES + 1}"),
        None, 413, [CLOSE],
    ),
    "429": (plain_post(), _refuse_slots, 429, [RETRY, CLOSE]),
    "503": (plain_post(), _drain, 503, [RETRY, CLOSE]),
    "http-1.0": (
        post(evaluate_body(), f"Content-Length: {len(evaluate_body())}", version="HTTP/1.0"),
        None, 200, [CLOSE],
    ),
    "fleet-worker": (plain_post(), _as_fleet_worker, 200, [("X-Repro-Worker", str(os.getpid()))]),
}


class TestReplyHead:
    """Each JSON reply's head is formatted in one string; its bytes must be
    the ones the stdlib's ``send_response`` + ``send_header`` produce."""

    @pytest.mark.parametrize("case", list(HEAD_CASES))
    def test_head_bytes_match_the_stdlib(self, service, clock, monkeypatch, case):
        data, change_state, status, tail = HEAD_CASES[case]
        if change_state is not None:
            change_state(monkeypatch, service.state)
        reply = exchange(service, data)
        _head, separator, body = reply.partition(b"\r\n\r\n")
        assert separator and json.loads(body)
        headers = [("Content-Type", "application/json"), ("Content-Length", str(len(body)))]
        assert reply == stdlib_head(status, headers + tail) + body

    def test_date_is_imf_fixdate_and_follows_the_clock(self, service, clock):
        dates = []
        for now in (CLOCK, CLOCK + 0.7, CLOCK + 1.0, CLOCK + 61.5):
            clock.now = now
            dates.append(only_reply(service, plain_post()).headers["date"])
        assert all(IMF_FIXDATE.fullmatch(date) for date in dates), dates
        assert dates[0] == dates[1] != dates[2] != dates[3]
        assert dates == [
            email.utils.formatdate(now, usegmt=True)
            for now in (CLOCK, CLOCK + 0.7, CLOCK + 1.0, CLOCK + 61.5)
        ]

    def test_json_replies_are_access_logged(self, service, caplog):
        caplog.set_level(logging.INFO, logger=service_server.__name__)
        only_reply(service, plain_post())
        only_reply(service, b"GET /no-such-endpoint HTTP/1.1\r\nHost: localhost\r\n\r\n")
        lines = [record.getMessage() for record in caplog.records]
        assert any(line.endswith('"POST /evaluate HTTP/1.1" 200 -') for line in lines), lines
        assert any(line.endswith('"GET /no-such-endpoint HTTP/1.1" 404 -') for line in lines)
