"""How the service frames HTTP/1.1 requests and replies on the wire.

Every test writes raw bytes to a live server's socket, half-closes it and
reads everything the server sends back, so nothing between the test and
the request parser (no client library) hides what the bytes mean. The
expected answers are the ``http.server`` + ``email.parser`` behavior the
service has always had, quirks included: the request-head parser must
keep every limit, status code and header lookup pinned here. The server
writes its reply heads and error pages itself; ``http.server`` stays
here as their reference (:class:`TestReplyHead`, :class:`TestErrorPages`).

The serving loop frames requests from whatever bytes have arrived, so
:class:`TestSplitDelivery` also checks the framer on every prefix of
every request here (and of generated ones, under the ``fuzz`` marker),
and sends some requests in pieces.
"""

import email.utils
import http.server
import io
import json
import logging
import os
import re
import socket
import time
from typing import Dict, List, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import EvaluationService
from repro.service import server as service_server
from tests.service.test_header_block import _header_lines

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


#: ``Content-Length`` of :func:`evaluate_body`, as the header spells it.
LENGTH = str(len(evaluate_body()))


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

    @pytest.mark.parametrize("value", [LENGTH + " ", "\t" + LENGTH, "00" + LENGTH])
    def test_content_length_with_padding_or_leading_zeros(self, service, value):
        reply = only_reply(
            service, post(evaluate_body(), "Host: localhost", f"Content-Length: {value}")
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

    @pytest.mark.parametrize(
        "value",
        ["+" + LENGTH, LENGTH[0] + "_" + LENGTH[1:], "0x10", LENGTH[0] + " " + LENGTH[1:], ""],
    )
    def test_content_length_that_is_not_digits_is_400(self, service, value):
        # RFC 9110 allows 1*DIGIT only: a proxy that reads "+85" or "8_5"
        # differently would desync a keep-alive connection.
        reply = only_reply(
            service, post(evaluate_body(), "Host: localhost", f"Content-Length: {value}")
        )
        assert reply.status == 400
        assert json.loads(reply.body)["error"]["kind"] == "bad_request"
        assert reply.headers["connection"] == "close"

    def test_content_length_past_int_digit_limit_is_413(self, service):
        # int() refuses over 4,300 digits; the value is still just too large.
        reply = only_reply(
            service, post(evaluate_body(), "Host: localhost", "Content-Length: " + "9" * 5000)
        )
        assert reply.status == 413
        assert json.loads(reply.body)["error"]["kind"] == "body_too_large"

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
    patched clock's time, writing into a buffer instead of a socket and
    keeping each access-log line it would write."""

    server_version = service_server._RequestHandler.server_version
    protocol_version = "HTTP/1.1"

    def __init__(self) -> None:  # no socket: only the head methods run
        self.request_version = "HTTP/1.1"
        self.requestline = ""
        self.wfile = io.BytesIO()
        self.logged: List[str] = []

    def log_message(self, format, *args) -> None:
        self.logged.append(format % args)

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

    def test_date_text_matches_email_utils(self):
        # One second a day for 400 days from 2027-12-30 (two year ends and
        # a leap day), each at another time of day, plus two edges.
        start = 1_830_124_800
        seconds = [start + day * 86_400 + day * 3_671 % 86_400 for day in range(400)]
        seconds += [0, 2**31 + 1]
        assert {time.gmtime(second).tm_wday for second in seconds} == set(range(7))
        assert {time.gmtime(second).tm_mon for second in seconds} == set(range(1, 13))
        assert [service_server.http_date(second) for second in seconds] == [
            email.utils.formatdate(second, usegmt=True) for second in seconds
        ]

    def test_json_replies_are_access_logged(self, service, caplog):
        caplog.set_level(logging.INFO, logger=service_server.__name__)
        only_reply(service, plain_post())
        only_reply(service, b"GET /no-such-endpoint HTTP/1.1\r\nHost: localhost\r\n\r\n")
        lines = [record.getMessage() for record in caplog.records]
        assert any(line.endswith('"POST /evaluate HTTP/1.1" 200 -') for line in lines), lines
        assert any(line.endswith('"GET /no-such-endpoint HTTP/1.1" 404 -') for line in lines)


#: Every request this module sends, for the framing oracle below.
WIRE_REQUESTS = {
    "plain": plain_post(),
    "lower-case names": post(
        evaluate_body(), "host: localhost", "content-type: application/json",
        f"content-length: {LENGTH}",
    ),
    "bare LF": post(evaluate_body(), "Host: localhost", f"Content-Length: {LENGTH}", eol="\n"),
    "obs-fold": post(
        evaluate_body(), "Host: localhost", "X-Note: first part", "  second part",
        "Content-Length:", f" {LENGTH}",
    ),
    **{
        f"padded length {value!r}": post(
            evaluate_body(), "Host: localhost", f"Content-Length: {value}"
        )
        for value in (LENGTH + " ", "\t" + LENGTH, "00" + LENGTH)
    },
    "duplicate headers": post(
        evaluate_body(), "Host: localhost", f"Content-Length: {LENGTH}", "Content-Length: 1",
        "Connection: close", "Connection: keep-alive",
    ),
    "pipelined": plain_post(3) + plain_post(2),
    "100-continue": post(
        evaluate_body(), "Host: localhost", "Expect: 100-continue", f"Content-Length: {LENGTH}"
    ),
    "HTTP/1.0": post(evaluate_body(), f"Content-Length: {LENGTH}", version="HTTP/1.0"),
    "Connection: close": post(
        evaluate_body(), "Host: localhost", "Connection: close", f"Content-Length: {LENGTH}"
    ),
    "HTTP/0.9": b"GET /healthz\r\n\r\n",
    "no length": post(evaluate_body(), "Host: localhost"),
    **{
        f"length {value!r}": post(evaluate_body(), "Host: localhost", f"Content-Length: {value}")
        for value in ("+" + LENGTH, LENGTH[0] + "_" + LENGTH[1:], "0x10",
                      LENGTH[0] + " " + LENGTH[1:], "")
    },
    "5000-digit length": post(evaluate_body(), "Host: localhost", "Content-Length: " + "9" * 5000),
    "four words": b"POST /evaluate extra HTTP/1.1\r\nHost: localhost\r\n\r\n",
    **{
        f"request line {line!r}": line + b"\r\nHost: localhost\r\n\r\n"
        for line in (b"POST /evaluate HTTP/x.1", b"POST /evaluate HTTP/2.0", b"POST /evaluate")
    },
    "long header line": post(
        evaluate_body(), "Host: localhost", "X-Big: " + "a" * 70_000, f"Content-Length: {LENGTH}"
    ),
    "no colon": post(evaluate_body(), "Host: localhost", "no colon here", f"Content-Length: {LENGTH}"),
    "space before colon": post(evaluate_body(), "Host: localhost", f"Content-Length : {LENGTH}"),
    **{
        f"{lines} header lines": post(
            evaluate_body(), "Host: localhost", f"Content-Length: {LENGTH}",
            *[f"X-Filler-{index}: {index}" for index in range(lines - 2)],
        )
        for lines in (99, 100)
    },
    **{f"head case {name}": case[0] for name, case in HEAD_CASES.items()},
}


#: Requests ``http.server`` answers from the head alone: every head the
#: framer rejects, and a method with no ``do_`` method (501). Some request
#: lines carry ``<``, ``>`` and ``&``, which the error page escapes.
STDLIB_ANSWERED = {
    **{
        name: data
        for name, data in WIRE_REQUESTS.items()
        if service_server.frame_head(data, eof=True).error is not None
    },
    "escaped syntax": b"GET /<a>&<b> extra HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "escaped version": b"GET /evaluate HTTP/<1>&.1\r\nHost: localhost\r\n\r\n",
    "long request line": b"GET /" + b"a" * service_server.MAX_HEADER_LINE + b" HTTP/1.1\r\n\r\n",
    "HEAD with a long header line": (
        b"HEAD /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
    ),
    "PUT": b"PUT /evaluate HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "escaped method": b"<&> /evaluate HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "HEAD": b"HEAD /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "HTTP/1.0 PUT": b"PUT /evaluate HTTP/1.0\r\n\r\n",
}


def stdlib_answer(data: bytes) -> StdlibHead:
    """``http.server`` reading ``data`` as one request, at the patched
    clock's time; it answers ``data`` itself (see :data:`STDLIB_ANSWERED`)."""
    handler = StdlibHead()
    handler.rfile = io.BytesIO(data)
    handler.handle_one_request()
    return handler


class TestErrorPages:
    """The server writes ``send_error``'s answers itself: the same bytes,
    and the same access-log lines, as ``BaseHTTPRequestHandler``'s."""

    @pytest.mark.parametrize("name", list(STDLIB_ANSWERED))
    def test_answer_matches_the_stdlib(self, service, clock, caplog, name):
        data = STDLIB_ANSWERED[name]
        expected = stdlib_answer(data)
        assert expected.wfile.getvalue() and expected.close_connection
        caplog.set_level(logging.INFO, logger=service_server.__name__)
        assert exchange(service, data) == expected.wfile.getvalue()
        logged = [
            record.getMessage() for record in caplog.records
            if record.name == service_server.__name__
        ]
        assert logged == [f"127.0.0.1 - {line}" for line in expected.logged]

    def test_cases_cover_every_answer_and_escape(self):
        answers = [stdlib_answer(data).wfile.getvalue() for data in STDLIB_ANSWERED.values()]
        pages = b"".join(answers)
        codes = {int(code) for code in re.findall(rb"Error code: (\d+)<", pages)}
        assert codes == {400, 414, 431, 501, 505}
        assert any(not answer.startswith(b"HTTP/") for answer in answers)  # HTTP/0.9
        assert any(answer.endswith(b"\r\n\r\n") for answer in answers)  # HEAD
        for escaped in (b"&lt;", b"&gt;", b"&amp;"):
            assert escaped in pages


def framed(data: bytes, eof: bool = False):
    """What the serving loop takes from the start of ``data``: None while
    it waits for more bytes, else the head's fields and the extent of the
    request, its body included."""
    head = service_server.frame_head(data, eof)
    if head is None:
        return None
    end = head.end + head.body_length
    if len(data) < end and not eof:
        return None
    error = head.length_error
    fields = {name: getattr(head, name) for name in service_server.Head.__slots__}
    fields["length_error"] = None if error is None else (error.status, error.kind, str(error))
    return fields, min(end, len(data))


def assert_prefixes_wait_or_agree(data: bytes) -> None:
    """Each prefix of ``data`` waits for more or frames what ``data``
    frames; at the end of the input something is always framed."""
    whole = framed(data)
    assert framed(data, eof=True) is not None
    for cut in range(len(data)):
        part = framed(data[:cut])
        assert part is None or part == whole, (cut, part, whole)


class TestSplitDelivery:
    """A request may reach the server in any number of pieces."""

    @pytest.mark.parametrize("name", list(WIRE_REQUESTS))
    def test_every_prefix_waits_or_frames_the_whole_request(self, name):
        assert framed(WIRE_REQUESTS[name]) is not None
        assert_prefixes_wait_or_agree(WIRE_REQUESTS[name])

    @pytest.mark.parametrize(
        "name, cuts",
        [
            # In the request line, a header line and the body.
            ("plain", (5, 30, len(WIRE_REQUESTS["plain"]) - 10)),
            # After every line.
            ("bare LF", tuple(
                index + 1 for index, byte in enumerate(WIRE_REQUESTS["bare LF"]) if byte == 10
            )),
            # In the second request's head.
            ("pipelined", (len(plain_post(3)) + 20,)),
        ],
    )
    def test_pieces_on_the_wire_get_the_bytes_of_one_send(self, service, clock, name, cuts):
        data = WIRE_REQUESTS[name]
        expected = warm_reply(service, data)
        pieces = [data[start:end] for start, end in zip((0, *cuts), (*cuts, len(data)))]
        with socket.create_connection((service.host, service.port), timeout=30) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for piece in pieces:
                sock.sendall(piece)
                time.sleep(0.05)
            reply = read_to_end(sock)
        assert reply == expected

    def test_100_continue_arrives_before_the_body_is_sent(self, service, clock):
        data = WIRE_REQUESTS["100-continue"]
        expected = warm_reply(service, data)
        head, separator, body = data.partition(b"\r\n\r\n")
        with socket.create_connection((service.host, service.port), timeout=30) as sock:
            sock.sendall(head + separator)
            interim = b""
            while len(interim) < len(CONTINUE):
                interim += sock.recv(len(CONTINUE) - len(interim))
            assert interim == CONTINUE
            sock.sendall(body)
            reply = interim + read_to_end(sock)
        assert reply == expected


CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def warm_reply(service, data: bytes) -> bytes:
    """What one send of ``data`` gets once its designs are cached."""
    exchange(service, data)
    return exchange(service, data)


def read_to_end(sock: socket.socket) -> bytes:
    """Half-close ``sock`` and return every byte the server sends after."""
    sock.shutdown(socket.SHUT_WR)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


_REQUEST_LINES = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["GET", "POST", "PUT", "post"]),
        st.sampled_from(["/evaluate", "/healthz", "//evaluate/", "/dse?x=1", "/nope"]),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1", "HTTX/1.1"]),
    ),
    st.sampled_from(["GET /healthz", "POST /evaluate", "", " ", "a b c d"]),
)


@pytest.mark.fuzz
@given(
    request_line=_REQUEST_LINES,
    lines=st.lists(_header_lines, max_size=8),
    length=st.sampled_from([None, "0", "3", LENGTH, " 12", "x"]),
    body=st.binary(max_size=40),
    eol=st.sampled_from(["\r\n", "\n"]),
    pipelined=st.booleans(),
)
def test_generated_heads_wait_or_frame_the_whole_request(
    request_line, lines, length, body, eol, pipelined
):
    head = request_line + eol + "".join(lines)
    if length is not None:
        head += f"Content-Length: {length}" + eol
    data = (head + eol).encode("latin-1") + body
    if pipelined:
        data += plain_post()
    assert_prefixes_wait_or_agree(data)
