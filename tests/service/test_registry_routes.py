"""The one contract every registry route keeps: ``/models``, ``/boards``
and ``/rules`` register, list, conflict, reject malformed bodies, and
resolve names in ``/evaluate`` the same way, each under its own body
field, catalog key and error kind.

Requests go out as raw HTTP, so the test pins status codes and payloads,
not what :class:`~repro.service.client.ServiceClient` makes of them.
"""

import http.client
import json

import pytest

from repro.cnn.serialize import graph_to_dict
from repro.rules import REGISTRY as RULES
from repro.service import EvaluationService
from repro.workloads import REGISTRY
from tests.conftest import build_tiny_cnn


def _model(kernel=3):
    definition = graph_to_dict(build_tiny_cnn())
    definition["name"] = "contractnet"
    definition["layers"][1]["kernel_size"] = [kernel, kernel]
    return definition


def _board(dsp_count=900):
    return {"name": "contractboard", "dsp_count": dsp_count, "bram_mib": 2.4, "bandwidth_gbps": 3.2}


def _ruleset(threshold=5):
    return {
        "name": "contract-slo",
        "rules": [{"name": "latency", "metric": "latency_ms", "op": "<=", "threshold": threshold}],
    }


#: Per route: its registry, body field and catalog key, a definition and a
#: changed one, the hint of its missing-field message, and the /evaluate
#: field naming one of its entries, a misspelt name and the suggestion.
ROUTES = [
    pytest.param(
        "/models", REGISTRY.models, "model", "models", _model(), _model(kernel=5),
        "the model JSON object of the cnn/serialize schema",
        "model", "squeezenett", "unknown_model", "squeezenet",
        id="models",
    ),
    pytest.param(
        "/boards", REGISTRY.boards, "board", "boards", _board(), _board(dsp_count=800),
        "the board JSON object; see docs/api.md",
        "board", "zc7066", "unknown_board", "zc706",
        id="boards",
    ),
    pytest.param(
        "/rules", RULES, "ruleset", "rulesets", _ruleset(), _ruleset(threshold=6),
        "the ruleset JSON object; see docs/rules.md",
        "rules", "builtin:resourcess", "unknown_ruleset", "builtin:resources",
        id="rules",
    ),
]


@pytest.fixture(scope="module")
def service():
    with EvaluationService(port=0) as running:
        yield running


def _call(service, method, path, body=None):
    """``(status, payload)`` of one request on a fresh connection."""
    connection = http.client.HTTPConnection(service.host, service.port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


@pytest.mark.parametrize(
    "route, registry, field, list_key, definition, changed, hint,"
    " name_field, misspelt, unknown_kind, suggestion",
    ROUTES,
)
def test_registry_route_contract(
    service, route, registry, field, list_key, definition, changed, hint,
    name_field, misspelt, unknown_kind, suggestion,
):
    name = definition["name"]
    try:
        status, created = _call(service, "POST", route, {field: definition})
        assert status == 201, created
        assert created["name"] == name and created["custom"] is True
        status, listing = _call(service, "GET", route)
        assert status == 200
        assert [entry for entry in listing[list_key] if entry["name"] == name] == [created]

        assert _call(service, "POST", route, {field: definition}) == (201, created)

        status, payload = _call(service, "POST", route, {field: changed})
        assert status == 409 and payload["error"]["kind"] == "workload_conflict"

        status, payload = _call(service, "POST", route, {})
        assert status == 400
        assert payload["error"]["kind"] == "bad_request"
        assert payload["error"]["message"] == f"missing or bad field {field!r} ({hint})"

        for body in (
            {field: definition, "replace": "yes"},
            {field: definition, "replace": False, "extra": 1},
        ):
            status, payload = _call(service, "POST", route, body)
            assert status == 400 and payload["error"]["kind"] == "bad_request", payload
    finally:
        if name in registry:
            registry.unregister(name)

    request = {"model": "squeezenet", "board": "zc706", "architecture": "segmentedrr", "ce_count": 2}
    status, payload = _call(service, "POST", "/evaluate", {**request, name_field: misspelt})
    assert status == 404
    assert payload["error"]["kind"] == unknown_kind
    assert payload["error"]["suggestion"] == suggestion
