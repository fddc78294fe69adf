"""``POST /evaluate``'s per-context memos and the bytes they put on the wire.

A replayed design is answered from three memos beside its context's
evaluator (resolved spec and fingerprint; report JSON text; verdict JSON
text) with the texts spliced into the encoded envelope, and finds that
context through a memo of the request's names. These tests pin that the
spliced body is exactly ``json.dumps`` of its payload, that the report is
the library's, and that the memos stay bounded, follow re-registered
models and rulesets, keep name and precision errors, and really skip the
template build, the hashing, the rules and the report encoding on a warm
replay.
"""

import http.client
import json
import random
import sys
import threading

import pytest

from repro import api
from repro.cnn.serialize import graph_from_dict, graph_to_dict
from repro.core.cost.export import report_to_dict
from repro.dse.space import CustomDesignSpace
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.rules import REGISTRY as RULES
from repro.rules.engine import evaluate_rules
from repro.runtime import batch
from repro.service import EvaluationService, ServiceClient, handlers
from repro.service.handlers import RawJSON, dump_payload
from repro.workloads import REGISTRY as WORKLOADS

MODEL = "squeezenet"
BOARD = "zc706"

#: A notation whose separators are whitespace the notation grammar allows
#: but JSON escapes (to \u001e, \u001f, \u2028, \u000b, \u0085, \u00a0
#: and \f). They are what a splice marker made of a control or separator
#: character encodes to, so a splice that searched the encoded envelope for
#: its marker would hit the echoed architecture (which comes before the
#: report) instead of the report's place.
MARKER_NOTATION = "{L1-L5:\x1eCE1,\u2028L6\x1f-\x0bLast\x85:\xa0CE2\x0c}"


def designs():
    rng = random.Random(5)
    space = CustomDesignSpace(api.resolve_model(MODEL).conv_specs())
    notations = [space.random_design(rng).to_spec().to_notation() for _ in range(2)]
    return [
        {"architecture": "segmented", "ce_count": 3},
        {"architecture": "segmentedrr", "ce_count": 2},
        {"architecture": "hybrid", "ce_count": 4},
        {"architecture": "Segmented", "ce_count": 5},
        *({"architecture": notation} for notation in notations),
        {"architecture": MARKER_NOTATION},
        {"architecture": "segmented", "ce_count": 3, "board": "vcu110"},
    ]


def post_evaluate(service, design, status=200):
    body = json.dumps({"model": MODEL, "board": BOARD, **design}).encode("utf-8")
    connection = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        connection.request(
            "POST", "/evaluate", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        data = response.read()
        assert response.status == status, data
        return data
    finally:
        connection.close()


class TestWireBytes:
    @pytest.mark.parametrize("design", designs(), ids=lambda design: repr(design)[:60])
    def test_cold_then_warm_answer(self, design):
        with EvaluationService(port=0) as service:
            cold_bytes = post_evaluate(service, design)
            warm_bytes = post_evaluate(service, design)
        cold, warm = json.loads(cold_bytes), json.loads(warm_bytes)
        for data, payload in ((cold_bytes, cold), (warm_bytes, warm)):
            assert data == json.dumps(payload).encode("utf-8")
        expected = api.evaluate(
            MODEL, design.get("board", BOARD), design["architecture"], design.get("ce_count")
        )
        assert cold["report"] == report_to_dict(expected)
        assert (cold.pop("cached"), warm.pop("cached")) == (False, True)
        assert cold == warm

    def test_infeasible_answers_carry_no_report(self):
        with EvaluationService(port=0) as service:
            answers = [
                json.loads(post_evaluate(service, {"architecture": "segmented", "ce_count": 99}))
                for _ in range(2)
            ]
        assert answers[0] == answers[1]
        assert answers[0]["feasible"] is False and answers[0]["report"] is None


class TestDumpPayload:
    REPORT = {"name": "x", "latency_ms": 1.25, "blocks": [{"ce": 1}, {"ce": 2}]}

    @pytest.mark.parametrize("raw_keys", [(), ("report",), ("a",), ("z",), ("a", "report", "z")])
    def test_equals_json_dumps(self, raw_keys):
        # Plain values before the report hold what splice markers look
        # like, encoded or not: only a positional splice gets them right.
        payload = {
            "a": '"report": null',
            "marker": "\x1e",
            "architecture": "\x1e\u2028",
            "report": self.REPORT,
            "n": 3,
            "z": [None, 1.5, {"k": "v"}],
        }
        spliced = {
            key: RawJSON(json.dumps(value)) if key in raw_keys else value
            for key, value in payload.items()
        }
        assert dump_payload(spliced) == json.dumps(payload)

    def test_only_raw_values_and_empty_payload(self):
        assert dump_payload({"report": RawJSON(json.dumps(self.REPORT))}) == json.dumps(
            {"report": self.REPORT}
        )
        assert dump_payload({}) == "{}"


class TestMemos:
    def test_memos_stay_within_cache_entries(self):
        cycle = [
            {"architecture": "segmented", "ce_count": 2},
            {"architecture": "segmented", "ce_count": 3},
            {"architecture": "segmentedrr", "ce_count": 2},
        ]
        spellings = ["squeezenet", "SqueezeNet", "sqz"]
        with EvaluationService(port=0, cache_entries=2) as service:
            first = [post_evaluate(service, design) for design in cycle]
            for _ in range(2):
                again = [
                    post_evaluate(service, {**design, "model": model})
                    for design, model in zip(cycle, spellings)
                ]
                context = service.state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
                assert len(context.specs) <= 2
                assert len(context.reports) <= 2
                assert len(context.verdicts) <= 2
                assert len(service.state._request_keys) <= 2
                # Evicted designs are costed again, to the same answer.
                assert [json.loads(data)["report"] for data in again] == [
                    json.loads(data)["report"] for data in first
                ]
                assert [json.loads(data)["verdicts"] for data in again] == [
                    json.loads(data)["verdicts"] for data in first
                ]

    def test_concurrent_replays_under_eviction(self):
        # More threads than cores, a tiny switch interval and memos smaller
        # than the working set: every answer must still be its design's.
        cycle = [
            {"architecture": "segmented", "ce_count": 2},
            {"architecture": "segmented", "ce_count": 3},
            {"architecture": "segmentedrr", "ce_count": 2},
        ]
        failures = []
        with EvaluationService(port=0, cache_entries=2) as service:
            expected = [json.loads(post_evaluate(service, design)) for design in cycle]
            for answer in expected:
                answer.pop("cached")

            def replay(offset):
                for index in range(30):
                    which = (offset + index) % len(cycle)
                    data = post_evaluate(service, cycle[which])
                    answer = json.loads(data)
                    answer.pop("cached")
                    if answer != expected[which] or data != json.dumps(json.loads(data)).encode():
                        failures.append((which, data[:120]))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=replay, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            context = service.state.evaluator_for(MODEL, BOARD, DEFAULT_PRECISION)
            assert len(context.specs) <= 2 and len(context.reports) <= 2
            assert len(context.verdicts) <= 2
        assert failures == []

    def test_reregistered_model_gets_its_new_report(self):
        from repro import workloads
        from tests.conftest import build_tiny_cnn

        definition = graph_to_dict(build_tiny_cnn())
        definition["name"] = "memonet"
        edited = json.loads(json.dumps(definition))
        edited["layers"][1]["kernel_size"] = [5, 5]
        try:
            with EvaluationService(port=0) as service:
                client = ServiceClient(service.url)
                client.register_model(definition)
                before = [
                    client.evaluate("memonet", BOARD, "segmentedrr", ce_count=2)
                    for _ in range(2)
                ]
                assert before[1].cached
                old = service.state.evaluator_for("memonet", BOARD, DEFAULT_PRECISION)
                client.register_model(edited, replace=True)
                after = [
                    client.evaluate("memonet", BOARD, "segmentedrr", ce_count=2)
                    for _ in range(2)
                ]
                new = service.state.evaluator_for("memonet", BOARD, DEFAULT_PRECISION)
                assert new is not old
        finally:
            workloads.unregister_model("memonet")
        assert (after[0].cached, after[1].cached) == (False, True)
        expected = api.evaluate(graph_from_dict(edited), BOARD, "segmentedrr", ce_count=2)
        assert after[0].report == after[1].report == expected
        assert after[0].report != before[0].report

    def test_warm_replays_build_and_encode_nothing(self, monkeypatch):
        modules = {
            "build_template": handlers,
            "report_to_dict": handlers,
            "evaluate_rules": handlers,
            "spec_fingerprint": batch,
            "model": WORKLOADS,  # name resolution
            "board": WORKLOADS,
        }
        calls = dict.fromkeys(modules, 0)

        def counting(name):
            original = getattr(modules[name], name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        mix = designs()
        for name, module in modules.items():
            monkeypatch.setattr(module, name, counting(name))
        with EvaluationService(port=0) as service:
            cold = [post_evaluate(service, design) for design in mix]
            assert all(calls.values()), calls
            calls.update(dict.fromkeys(calls, 0))
            for _ in range(3):
                warm = [post_evaluate(service, design) for design in mix]
            runtime = ServiceClient(service.url).healthz()["runtime"]
        assert calls == dict.fromkeys(modules, 0)
        assert [json.loads(data)["report"] for data in warm] == [
            json.loads(data)["report"] for data in cold
        ]
        # Replays still go through the evaluator: its counters see them.
        assert runtime["submitted"] == 4 * len(cold)
        assert runtime["cache_hits"] == 3 * len(cold)

    def test_replay_after_its_ruleset_is_replaced_gets_new_verdicts(self):
        lenient = {
            "name": "memo-slo",
            "rules": [{"name": "latency", "metric": "latency_ms", "op": "<=", "threshold": 1000}],
        }
        strict = json.loads(json.dumps(lenient))
        strict["rules"][0]["threshold"] = 0.001
        design = {"architecture": "segmentedrr", "ce_count": 2, "rules": "memo-slo"}
        try:
            with EvaluationService(port=0) as service:
                client = ServiceClient(service.url)
                client.register_ruleset(lenient)
                # The same design under the default ruleset first: each
                # ruleset's verdicts are memoized on their own.
                default = json.loads(post_evaluate(service, {**design, "rules": None}))
                before = [json.loads(post_evaluate(service, design)) for _ in range(2)]
                client.register_ruleset(strict, replace=True)
                after = json.loads(post_evaluate(service, design))
                client.close()
        finally:
            RULES.unregister("memo-slo")
        report = api.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        board = api.resolve_board(BOARD)
        for answer, ruleset in ((before[1], lenient), (after, strict)):
            assert answer["cached"] is True
            assert answer["verdicts"] == [
                verdict.to_dict()
                for verdict in evaluate_rules(
                    report, ruleset, board=board, precision=DEFAULT_PRECISION
                )
            ]
        assert [answer["verdicts"][0]["passed"] for answer in (*before, after)] == [
            True, True, False,
        ]
        assert {verdict["ruleset"] for verdict in default["verdicts"]} == {"builtin:resources"}

    def test_warm_hits_keep_name_and_precision_errors(self):
        from repro import workloads

        board = {
            "name": "int16board",
            "dsp_count": 900,
            "bram_mib": 2.4,
            "bandwidth_gbps": 4.2,
            "supported_precisions": ["int16"],
        }
        design = {"architecture": "segmentedrr", "ce_count": 2, "board": "int16board"}
        int8 = {"weights": "int8", "activations": "int8"}
        try:
            with EvaluationService(port=0) as service:
                client = ServiceClient(service.url)
                client.register_board(board)
                client.close()
                for _ in range(2):
                    post_evaluate(service, design)
                errors = [
                    json.loads(post_evaluate(service, request, status))["error"]["kind"]
                    for request, status in (
                        ({**design, "precision": int8}, 400),
                        ({**design, "model": "squeezene"}, 404),
                        ({**design, "board": "int16boar"}, 404),
                    )
                ]
                assert json.loads(post_evaluate(service, design))["cached"] is True
        finally:
            workloads.unregister_board("int16board")
        assert errors == ["workload_error", "unknown_model", "unknown_board"]
