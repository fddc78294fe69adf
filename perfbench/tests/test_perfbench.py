"""Tests of the benchmark's own machinery: percentiles, span self time,
wrapper installation and the output checks' negative controls."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from perfbench import common, inproc, stats, tracing  # noqa: E402
from perfbench.http_evaluate import Checker  # noqa: E402


class TestPercentile:
    def test_needs_ten_samples_beyond_the_percentile(self):
        assert stats.min_samples_for(90) == 100
        assert stats.min_samples_for(95) == 200
        assert stats.min_samples_for(50) == 20
        assert stats.percentile(list(range(99)), 90) is None
        assert stats.percentile(list(range(100)), 90) is not None
        assert stats.percentile(list(range(19)), 50) is None

    def test_interpolates_between_ranks(self):
        samples = list(range(101))  # 0..100
        assert stats.percentile(samples, 90) == pytest.approx(90.0)
        assert stats.percentile(samples, 50) == pytest.approx(50.0)
        assert stats.percentile([float(x) for x in range(200)], 95) == pytest.approx(189.05)

    def test_order_does_not_matter(self):
        samples = [((7 * i) % 101) / 3 for i in range(101)]
        assert stats.percentile(samples, 90) == stats.percentile(sorted(samples), 90)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile(list(range(500)), 100)


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": 1}


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "a", 1.0, 4.0, parent=1),
            _span(3, "b", 3.0, 6.0, parent=1),  # overlaps a on [3, 4]
            _span(4, "leaf", 2.0, 3.0, parent=2),
        ]
        selfs = tracing.self_times(spans)
        assert selfs == {1: pytest.approx(5.0), 2: pytest.approx(2.0),
                         3: pytest.approx(3.0), 4: pytest.approx(1.0)}

    def test_child_outside_its_parent_is_clipped(self):
        spans = [_span(1, "root", 0.0, 2.0), _span(2, "late", 1.5, 5.0, parent=1)]
        assert tracing.self_times(spans)[1] == pytest.approx(1.5)

    def test_layer_table_sums_per_name_and_divides_by_ops(self):
        spans = [
            _span(1, "root", 0.0, 0.010),
            _span(2, "a", 0.001, 0.004, parent=1),
            _span(3, "a", 0.005, 0.006, parent=1),
        ]
        table = tracing.layer_table(spans, ops=2, names=("root", "a", "unused"))
        assert table["a"]["calls"] == 2
        assert table["a"]["self_ms_per_op"] == pytest.approx(2.0)
        assert table["root"]["self_ms_per_op"] == pytest.approx(3.0)
        assert table["unused"] == {"calls": 0, "total_ms": 0.0, "self_ms": 0.0,
                                   "self_ms_per_op": 0.0}


class TestRecorder:
    def test_generator_span_parents_only_what_runs_inside_it(self):
        recorder = tracing.SpanRecorder()
        inner = recorder.wrap("inner", lambda: None)

        def produce():
            for value in range(2):
                inner()
                yield value

        stream = recorder.wrap("stream", produce)
        outer = recorder.wrap("outer", lambda: [inner() for _ in stream()])
        outer()
        spans = {span["id"]: span for span in recorder.spans}
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span["name"], []).append(span)
        (stream_span,) = by_name["stream"]
        (outer_span,) = by_name["outer"]
        assert stream_span["parent"] == outer_span["id"]
        parents = sorted(spans[s["parent"]]["name"] for s in by_name["inner"])
        assert parents == ["outer", "outer", "stream", "stream"]
        assert len({span["op"] for span in recorder.spans}) == 1

    def test_install_rebinds_by_name_imports_and_uninstall_restores(self):
        from repro import api
        from repro.core import architectures
        from repro.runtime.bench import clear_process_caches

        tracing.import_program()
        original = architectures.build_template
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder, ["core.architectures.build_template"])
        try:
            assert api.build_template is architectures.build_template is not original
            clear_process_caches()
            api.sweep("alexnet", "zc706", jobs=1)
        finally:
            uninstall()
        assert api.build_template is architectures.build_template is original
        assert [span["name"] for span in recorder.spans] == [
            "core.architectures.build_template"
        ] * 30


class TestNegativeControls:
    def test_sweep_digest_matches_and_a_perturbed_digest_fails(self):
        expected = common.load_expected(inproc.SWEEP_DIGESTS)
        run = inproc.check_sweep(inproc.timed_sweep("alexnet", "zc706"))
        assert inproc.sweep_failures([run], expected) == 0
        perturbed = dict(expected, **{run[1]: "0" * 64})
        assert inproc.sweep_failures([run], perturbed) == 1

    def test_campaign_front_recost_and_perturbation(self, tmp_path):
        from repro import api

        spec = {
            "seed": 5,
            "population": 8,
            "generations": 2,
            "cells": [{"model": "squeezenet", "board": "zc706"}],
        }
        result = api.run_campaign(spec, tmp_path / "ck.json", jobs=1)
        assert inproc.campaign_cell_failures(result, None) == 0
        assert inproc.campaign_cell_failures(result, None, perturb=True) == 3

    def test_http_checker_rejects_a_wrong_report_or_status(self):
        body = b'{"feasible": true, "report": {"x": 1}}'
        assert Checker([{"x": 1}]).ok(0, 200, body)
        assert not Checker([{"x": 1, "perturbed": True}]).ok(0, 200, body)
        assert not Checker([{"x": 1}]).ok(0, 500, body)
        assert not Checker([{"x": 1}]).ok(0, None, b"")
