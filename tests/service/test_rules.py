"""HTTP-service tests for constraint rulesets (``/rules`` + verdicts).

Pins the wire contract: verdicts ride at the *top level* of ``/evaluate``
and ``/sweep`` responses (never inside report dicts, which must stay
byte-identical to the library's rules-off form), the pre-registered
``builtin:resources`` ruleset judges every response by default, and the
error taxonomy extends cleanly — 404 ``unknown_ruleset`` with a
did-you-mean suggestion, 409 ``workload_conflict``, 400 ``rule_error``.
"""

import json

import pytest

import repro
from repro.api import evaluate as api_evaluate
from repro.core.cost.export import report_to_dict
from repro.rules import BUILTIN_RESOURCES, REGISTRY as RULES
from repro.service import EvaluationService, ServiceClient, ServiceError

MODEL = "squeezenet"
BOARD = "zc706"

EDGE_SLO = {
    "name": "edge-slo",
    "description": "service-test SLO",
    "rules": [
        {"name": "latency", "metric": "latency_ms", "op": "<=", "threshold": 5},
        {
            "name": "bram",
            "metric": "bram_used_frac",
            "op": "<=",
            "threshold": 80,
            "unit": "percent",
            "severity": "warn",
        },
    ],
}


@pytest.fixture(scope="module")
def service():
    with EvaluationService(port=0) as running:
        yield running
    # POST /rules registers into the process-wide registry; scrub it so
    # later test modules see a pristine one.
    for name in RULES.names():
        if not RULES.entry(name).builtin:
            RULES.unregister(name)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


@pytest.fixture(scope="module")
def registered(client):
    client.register_ruleset(EDGE_SLO, replace=True)
    return EDGE_SLO["name"]


class TestRulesEndpoint:
    def test_builtin_listed(self, client):
        names = [entry["name"] for entry in client.rulesets()]
        assert BUILTIN_RESOURCES in names

    def test_register_then_list(self, client, registered):
        entry = next(
            item for item in client.rulesets() if item["name"] == registered
        )
        assert entry["custom"] and entry["rule_count"] == 2
        assert entry["definition"]["rules"][0]["name"] == "latency"

    def test_register_is_idempotent(self, client, registered):
        answer = client.register_ruleset(EDGE_SLO)
        assert answer["name"] == registered

    def test_conflict_is_409(self, client, registered):
        changed = json.loads(json.dumps(EDGE_SLO))
        changed["rules"][0]["threshold"] = 99
        with pytest.raises(ServiceError) as excinfo:
            client.register_ruleset(changed)
        assert excinfo.value.status == 409
        assert excinfo.value.kind == "workload_conflict"

    def test_bad_schema_is_400_rule_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.register_ruleset(
                {"name": "broken", "rules": [{"name": "r", "metric": "nope"}]}
            )
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "rule_error"

    def test_builtin_namespace_reserved_over_http(self, client):
        definition = json.loads(json.dumps(EDGE_SLO))
        definition["name"] = "builtin:sneaky"
        with pytest.raises(ServiceError) as excinfo:
            client.register_ruleset(definition)
        assert excinfo.value.status == 409


class TestEvaluateVerdicts:
    def test_default_is_builtin_resources(self, client):
        result = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        assert result.raw["rules"] == BUILTIN_RESOURCES
        assert [v.rule for v in result.verdicts] == ["fits-onchip"]
        assert result.verdicts[0].passed == result.report.fits_onchip

    def test_requested_ruleset_judges_response(self, client, registered):
        result = client.evaluate(
            MODEL, BOARD, "segmentedrr", ce_count=4, rules=registered
        )
        assert result.raw["rules"] == registered
        by_rule = {v.rule: v for v in result.verdicts}
        assert set(by_rule) == {"latency", "bram"}
        assert not by_rule["latency"].passed
        assert by_rule["latency"].exceedance == pytest.approx(
            result.report.latency_ms - 5
        )

    def test_wire_report_stays_rules_off(self, client, registered):
        """Verdicts never leak into the report dict (byte contract)."""
        result = client.evaluate(
            MODEL, BOARD, "segmentedrr", ce_count=2, rules=registered
        )
        direct = api_evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        assert "verdicts" not in result.raw["report"]
        assert result.raw["report"] == report_to_dict(direct)
        assert result.report == direct

    def test_unknown_ruleset_is_404_with_suggestion(self, client, registered):
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(
                MODEL, BOARD, "segmentedrr", ce_count=2, rules="edge-slp"
            )
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_ruleset"
        assert registered in str(excinfo.value)

    def test_infeasible_answer_has_empty_verdicts(self, client):
        # More CEs than layers: an answer (feasible=false), not an error.
        result = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=1000)
        assert not result.feasible and result.report is None
        assert result.verdicts == []

    def test_legacy_payload_shape_unchanged(self, client):
        """Regression: pre-rules clients still see the same keys/values."""
        result = client.evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)
        for key in ("feasible", "cached", "report", "reason", "fingerprint"):
            assert key in result.raw
        assert result.raw["feasible"] is True
        assert result.raw["reason"] is None


class TestSweepVerdicts:
    def test_verdicts_align_with_reports(self, client, registered):
        result = client.sweep(
            MODEL,
            BOARD,
            architectures=["segmentedrr"],
            ce_counts=[2, 4],
            rules=registered,
        )
        assert len(result.verdicts) == len(result.reports) == 2
        for report, verdicts in zip(result.reports, result.verdicts):
            by_rule = {v.rule: v for v in verdicts}
            assert by_rule["latency"].observed == pytest.approx(report.latency_ms)
            assert "verdicts" not in report_to_dict(report)

    def test_default_sweep_uses_builtin(self, client):
        result = client.sweep(
            MODEL, BOARD, architectures=["segmentedrr"], ce_counts=[2]
        )
        assert result.raw["rules"] == BUILTIN_RESOURCES
        ((verdict,),) = result.verdicts
        assert verdict.rule == "fits-onchip"
        assert verdict.passed == result.reports[0].fits_onchip
