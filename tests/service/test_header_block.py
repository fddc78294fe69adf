"""``parse_header_block`` against ``http.client.parse_headers``.

The service parses request heads without ``email.parser``; the stdlib's
parser stays here as the reference. Over generated header blocks,
malformed lines included (no colon, a space before the colon, an empty
name, ``From `` envelopes, stray continuation lines, lone CRs), both
must find the same fields with the same first values. Raise the example
budget with ``pytest -m fuzz --hypothesis-profile=ci``.
"""

import http.client
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.server import parse_header_block

_NAMES = ["Content-Length", "content-length", "Connection", "Expect", "X-A", "From", "", "B c", "\xc4"]
_LINE_ENDS = ["\r\n", "\n", "\r"]
_header_lines = st.one_of(
    st.builds(
        "{}{}{}{}".format,
        st.sampled_from(_NAMES),
        st.sampled_from([":", " :", ": ", ":\t", "::"]),
        st.text(alphabet=" \tab1:\r\x0b\xe9", max_size=6),
        st.sampled_from(_LINE_ENDS),
    ),
    st.builds(
        "{}{}{}".format,
        st.sampled_from([" ", "\t", "From ", "no colon", ":"]),
        st.text(alphabet=" ab1:", max_size=4),
        st.sampled_from(_LINE_ENDS),
    ),
)


@pytest.mark.fuzz
@given(st.lists(_header_lines, max_size=12))
def test_header_block_reads_fields_as_the_stdlib(lines):
    # Every generated line has content, so the final CRLF is the block's
    # only blank line and the server would read exactly these bytes.
    block = "".join(lines) + "\r\n"
    reference = http.client.parse_headers(io.BytesIO(block.encode("iso-8859-1")))
    fields = parse_header_block(block)
    assert set(fields) == {name.lower() for name in reference.keys()}
    for name, value in fields.items():
        assert value == reference.get(name)
