"""Property-based suite for the constraint-rule engine.

Three machine-checked properties, over the same random (CNN, board,
precision) contexts the differential cost oracle uses
(strategies in ``tests/conftest.py``):

* **Purity** — evaluating rules never perturbs a report: the canonical
  JSON bytes of every report are identical before and after rule
  evaluation, on the cold path and on a fingerprint-cache replay;
* **Monotonicity** — tightening a numeric threshold never flips a
  verdict from fail to pass, and never decreases the exceedance;
* **Round-trip** — random rules, rulesets, and produced verdicts
  serialize byte-stably: ``from_dict(to_dict())`` reproduces the same
  ``json.dumps`` bytes.

Example budget comes from the registered hypothesis profiles (``dev``:
25, ``ci``: 200 via ``--hypothesis-profile=ci``).
"""

import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.cost.export import report_to_dict
from repro.dse.space import CustomDesign
from repro.hw.datatypes import DATATYPES
from repro.rules import (
    METRICS,
    SEVERITIES,
    RuleSet,
    Verdict,
    attach_verdicts,
    evaluate_rules,
    strip_verdicts,
)
from repro.rules.schema import EQUALITY_OPS, NUMERIC_OPS, SET_OPS
from repro.runtime.batch import BatchEvaluator
from tests.conftest import (
    oracle_boards,
    oracle_cnns,
    oracle_populations,
    oracle_precisions,
)

pytestmark = pytest.mark.fuzz

#: A fixed mixed-kind SLO ruleset touching every observation code path:
#: plain numerics, the board-relative BRAM fraction, the feasibility
#: boolean, and the precision allowlist.
SLO = RuleSet.from_dict(
    {
        "name": "fuzz-slo",
        "rules": [
            {"name": "latency", "metric": "latency_ms", "op": "<=", "threshold": 5},
            {
                "name": "throughput",
                "metric": "throughput_fps",
                "op": ">=",
                "threshold": 100,
                "severity": "warn",
            },
            {
                "name": "bram",
                "metric": "bram_used_frac",
                "op": "<=",
                "threshold": 80,
                "unit": "percent",
            },
            {"name": "fits", "metric": "fits_onchip", "op": "==", "threshold": True},
            {
                "name": "quantized",
                "metric": "precision",
                "op": "in",
                "threshold": ["int8", "int16"],
                "severity": "info",
            },
        ],
    }
)

NUMERIC_METRICS = sorted(
    name for name, spec in METRICS.items() if spec.kind == "numeric"
)


def _canonical(item) -> str:
    if item.report is None:
        return json.dumps({"infeasible": item.reason}, sort_keys=True)
    return json.dumps(report_to_dict(item.report), sort_keys=True)


def _judge_all(items, board, precision):
    """Run the SLO ruleset over every feasible member (results discarded)."""
    for item in items:
        if item.report is None:
            continue
        verdicts = evaluate_rules(
            item.report, SLO, board=board, precision=precision
        )
        attached = attach_verdicts(item.report, verdicts)
        # Attach/strip must reproduce the exact original object.
        assert strip_verdicts(attached) == item.report


# --- purity -------------------------------------------------------------------


@given(oracle_cnns(), oracle_boards(), oracle_precisions(), st.data())
def test_rules_leave_reports_byte_identical(graph, board, precision, data):
    """Rule evaluation is a pure observer on every evaluation path."""
    population = data.draw(
        oracle_populations(len(graph.conv_specs()), max_size=4)
    )
    specs = [design.to_spec() for design in population]

    evaluator = BatchEvaluator(graph, board, precision, jobs=1)
    items = list(evaluator.stream(specs))
    before = [_canonical(item) for item in items]
    _judge_all(items, board, precision)
    assert [_canonical(item) for item in items] == before

    replayed = list(evaluator.stream(specs))  # fingerprint-cache hits
    assert all(item.cached for item in replayed)
    _judge_all(replayed, board, precision)
    assert [_canonical(item) for item in replayed] == before


# --- monotonicity -------------------------------------------------------------


def _single_report(graph, board, precision):
    """The degenerate single-segment design's report (assume feasible)."""
    spec = CustomDesign(
        pipelined_layers=0, cuts=(), num_layers=len(graph.conv_specs())
    ).to_spec()
    evaluator = BatchEvaluator(graph, board, precision, jobs=1)
    (item,) = list(evaluator.stream([spec]))
    assume(item.report is not None)
    return item.report


def _threshold_rule(metric, op, threshold):
    return RuleSet.from_dict(
        {
            "name": "mono",
            "rules": [
                {"name": "r", "metric": metric, "op": op, "threshold": threshold}
            ],
        }
    )


@given(
    oracle_cnns(),
    oracle_boards(),
    oracle_precisions(),
    st.sampled_from(NUMERIC_METRICS),
    st.sampled_from(NUMERIC_OPS),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_tightening_never_flips_fail_to_pass(
    graph, board, precision, metric, op, a, b
):
    report = _single_report(graph, board, precision)
    low, high = sorted((a, b))
    # For upper bounds the smaller threshold is the tighter one; for
    # lower bounds it's the larger.
    tight, loose = (low, high) if op in ("<=", "<") else (high, low)
    (strict,) = evaluate_rules(
        report, _threshold_rule(metric, op, tight), board=board, precision=precision
    )
    (relaxed,) = evaluate_rules(
        report, _threshold_rule(metric, op, loose), board=board, precision=precision
    )
    assert relaxed.passed or not strict.passed
    assert strict.exceedance >= relaxed.exceedance


# --- round-trips --------------------------------------------------------------


@st.composite
def rule_dicts(draw, index=0):
    """One random valid rule dict, spanning every metric kind."""
    metric = draw(st.sampled_from(sorted(METRICS)))
    spec = METRICS[metric]
    payload = {
        "name": f"r{index}",
        "metric": metric,
        "severity": draw(st.sampled_from(SEVERITIES)),
    }
    if spec.kind == "numeric":
        payload["op"] = draw(st.sampled_from(NUMERIC_OPS))
        payload["threshold"] = draw(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
        )
        payload["unit"] = draw(st.sampled_from(sorted(spec.units)))
    elif spec.kind == "bool":
        payload["op"] = draw(st.sampled_from(EQUALITY_OPS))
        payload["threshold"] = draw(st.booleans())
    else:
        payload["op"] = draw(st.sampled_from(SET_OPS))
        payload["threshold"] = draw(
            st.lists(
                st.sampled_from(sorted(DATATYPES)),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    if draw(st.booleans()):
        payload["message"] = "constraint violated"
    if draw(st.booleans()):
        match = {}
        if draw(st.booleans()):
            match["boards"] = draw(
                st.lists(
                    st.sampled_from(["vcu*", "zc706", "*board*"]),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        bounds = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=1 << 40),
                    min_size=2,
                    max_size=2,
                )
            )
        )
        if draw(st.booleans()) or not match:
            match["min_total_macs"], match["max_total_macs"] = bounds
        payload["match"] = match
    return payload


@given(st.data())
def test_ruleset_round_trip_is_byte_stable(data):
    count = data.draw(st.integers(min_value=1, max_value=5))
    rules = [data.draw(rule_dicts(index)) for index in range(count)]
    ruleset = RuleSet.from_dict({"name": "fuzz", "rules": rules})
    once = json.dumps(ruleset.to_dict(), sort_keys=True)
    again = json.dumps(
        RuleSet.from_dict(json.loads(once)).to_dict(), sort_keys=True
    )
    assert once == again


@given(oracle_cnns(), oracle_boards(), oracle_precisions())
def test_verdict_round_trip_is_byte_stable(graph, board, precision):
    report = _single_report(graph, board, precision)
    verdicts = evaluate_rules(report, SLO, board=board, precision=precision)
    assert verdicts  # no match guards: every rule produces a verdict
    for verdict in verdicts:
        wire = json.dumps(verdict.to_dict(), sort_keys=True)
        rebuilt = Verdict.from_dict(json.loads(wire))
        assert rebuilt == verdict
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire
