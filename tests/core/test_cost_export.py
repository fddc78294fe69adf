"""Tests for report export and batch latency."""

import csv
import io
import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.api import evaluate, sweep
from repro.core.cost import export
from repro.core.cost.export import (
    CSV_COLUMNS,
    RawJSON,
    batch_latency_seconds,
    dump_json,
    report_json,
    report_to_dict,
    report_to_json,
    reports_to_csv,
)

#: JSON leaves: text (non-ASCII, control and escaped characters), every
#: float ``json.dumps`` writes, integers, booleans and null.
leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4)


#: Plain JSON values, empty containers included.
values = st.recursive(leaves, containers, max_leaves=12)

#: Values holding raw texts (each ``json.dumps`` of a plain value) at any depth.
spliced = st.recursive(
    leaves | values.map(lambda value: RawJSON(json.dumps(value))), containers, max_leaves=24
)


def decoded(value):
    """``value`` with each raw text replaced by what it encodes."""
    if isinstance(value, RawJSON):
        return json.loads(value.text)
    if isinstance(value, dict):
        return {key: decoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decoded(item) for item in value]
    return value


def holds_raw(value) -> bool:
    if isinstance(value, RawJSON):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(holds_raw, value))


@pytest.fixture(scope="module")
def report(roomy_board):
    from tests.conftest import build_tiny_cnn

    return evaluate(build_tiny_cnn(), roomy_board, "segmented", ce_count=3)


class TestJsonExport:
    def test_round_trips_through_json(self, report):
        data = json.loads(report_to_json(report))
        assert data["accelerator"] == report.accelerator_name
        assert data["access_bytes"]["total"] == report.accesses.total_bytes

    def test_segments_serialized(self, report):
        data = report_to_dict(report)
        assert len(data["segments"]) == len(report.segments)
        assert data["segments"][0]["layers"] == list(report.segments[0].layer_indices)

    def test_blocks_serialized(self, report):
        data = report_to_dict(report)
        assert len(data["blocks"]) == len(report.blocks)
        assert data["blocks"][0]["kind"] in ("single", "pipelined", "dual")

    def test_derived_values_consistent(self, report):
        data = report_to_dict(report)
        assert data["throughput_fps"] == pytest.approx(report.throughput_fps)
        assert data["latency_ms"] == pytest.approx(report.latency_ms)


class TestDumpJson:
    @pytest.mark.fuzz
    @given(spliced)
    def test_equals_json_dumps_of_the_decoded_value(self, value):
        assert dump_json(value) == json.dumps(decoded(value))

    @pytest.mark.fuzz
    @given(spliced, st.booleans())
    def test_a_string_like_the_marker_raises(self, value, as_key):
        assume(holds_raw(value))
        holder = {export._SPLICE_MARK: value} if as_key else [value, export._SPLICE_MARK]
        with pytest.raises(ValueError):
            dump_json(holder)

    def test_marker_strings_without_raw_texts_encode_as_json_dumps(self):
        value = {export._SPLICE_MARK: [export._SPLICE_MARK, 'x"' + export._SPLICE_MARK]}
        assert dump_json(value) == json.dumps(value)

    def test_a_string_holding_the_marker_is_not_spliced(self):
        value = [RawJSON("[1]"), "x" + export._SPLICE_MARK + "y", {"k": RawJSON("{}")}]
        assert dump_json(value) == json.dumps(decoded(value))
        with pytest.raises(ValueError):
            dump_json([RawJSON("[1]"), 'x"' + export._SPLICE_MARK])

    def test_other_objects_are_not_serializable(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_json({"report": RawJSON("1"), "x": object()})

    def test_report_json_is_the_compact_dump(self, report):
        assert report_json(report).text == json.dumps(report_to_dict(report))


class TestCsvExport:
    def test_header_and_rows(self, roomy_board):
        from tests.conftest import build_tiny_cnn

        reports = sweep(build_tiny_cnn(), roomy_board, ce_counts=[2, 3])
        text = reports_to_csv(reports)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == len(reports) + 1

    def test_values_parse_back(self, report):
        text = reports_to_csv([report])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["accelerator"] == report.accelerator_name
        assert float(rows[0]["throughput_fps"]) == pytest.approx(
            report.throughput_fps, rel=0.01
        )

    def test_empty_is_header_only(self):
        rows = list(csv.reader(io.StringIO(reports_to_csv([]))))
        assert rows == [CSV_COLUMNS]


class TestBatchLatency:
    def test_batch_one_is_latency(self, report):
        assert batch_latency_seconds(report, 1) == pytest.approx(report.latency_seconds)

    def test_large_batch_approaches_interval(self, report):
        per_image = batch_latency_seconds(report, 10_000)
        interval_seconds = report.throughput_interval_cycles / report.clock_hz
        assert per_image == pytest.approx(interval_seconds, rel=0.01)

    def test_monotone_decreasing(self, report):
        values = [batch_latency_seconds(report, n) for n in (1, 2, 4, 16, 64)]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_batch(self, report):
        with pytest.raises(ValueError):
            batch_latency_seconds(report, 0)
