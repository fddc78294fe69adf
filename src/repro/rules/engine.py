"""Rule evaluation: pure verdict production over cost reports.

:func:`evaluate_rules` is deliberately *pure*: it reads report fields and
produces :class:`~repro.rules.schema.Verdict` objects without mutating the
report (``CostReport`` is frozen) — the property suite in
``tests/rules/test_rule_properties.py`` machine-checks that reports with
rules on vs off serialize byte-identically across the scalar, segment-
cached, and population-kernel evaluation paths.

Verdicts ride along on reports via :func:`attach_verdicts` /
:func:`strip_verdicts`, which build *new* report objects through
:func:`dataclasses.replace` — runtime caches and golden files holding the
original, verdict-free report are never perturbed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping, Optional, Sequence, Union

from repro.hw.boards import FPGABoard
from repro.hw.datatypes import Precision
from repro.rules import registry as _registry
from repro.rules.schema import METRICS, Rule, RuleSet, Verdict
from repro.utils.errors import RuleError

RulesLike = Union[RuleSet, Mapping[str, Any], str]


def resolve_ruleset(
    rules: RulesLike, *, registry: Optional[_registry.RuleRegistry] = None
) -> RuleSet:
    """Turn a ruleset name, schema dict, or :class:`RuleSet` into a RuleSet.

    Names resolve through the (global) rule registry and raise
    :class:`~repro.utils.errors.UnknownWorkloadError` with did-you-mean
    suggestions when absent; dicts are validated in place without being
    registered.
    """
    if isinstance(rules, RuleSet):
        return rules
    if isinstance(rules, Mapping):
        return RuleSet.from_dict(rules)
    if isinstance(rules, str):
        target = registry if registry is not None else _registry.REGISTRY
        return target.get(rules)
    raise RuleError(
        "rules must be a ruleset name, a ruleset-schema dict, or a RuleSet, "
        f"got {type(rules).__name__}"
    )


def _resolve_board(report: Any, board: Optional[FPGABoard]) -> FPGABoard:
    if board is not None:
        return board
    from repro.workloads import REGISTRY as WORKLOADS

    if report.board_name in WORKLOADS.boards:
        return WORKLOADS.board(report.board_name)
    raise RuleError(
        f"rule needs the FPGA board, but board {report.board_name!r} is not "
        "registered and none was passed; supply evaluate_rules(..., board=...)"
    )


def _observe(
    rule: Rule, report: Any, board: Optional[FPGABoard], precision: Optional[Precision]
) -> Union[float, bool, str]:
    metric = rule.spec
    if metric.name == "bram_used_frac":
        fpga = _resolve_board(report, board)
        return report.buffer_requirement_bytes / fpga.bram_bytes
    if metric.name == "precision":
        if precision is None:
            raise RuleError(
                f"rule {rule.name!r} constrains the request precision, but "
                "none was supplied; pass evaluate_rules(..., precision=...)"
            )
        return f"{precision.weights.name}/{precision.activations.name}"
    if metric.name == "buffer_mib":
        return float(report.buffer_requirement_mib)
    if metric.kind == "bool":
        return bool(getattr(report, metric.name))
    return float(getattr(report, metric.name))


def _decide(rule: Rule, observed: Union[float, bool, str], precision) -> bool:
    kind = rule.spec.kind
    if kind == "numeric":
        threshold = rule.threshold
        if rule.op == "<=":
            return observed <= threshold
        if rule.op == "<":
            return observed < threshold
        if rule.op == ">=":
            return observed >= threshold
        return observed > threshold
    if kind == "bool":
        return (observed == rule.threshold) if rule.op == "==" else (
            observed != rule.threshold
        )
    # precision set membership: the allowlist must cover (op "in") or
    # exclude (op "not-in") BOTH the weights and activations datatypes.
    names = {precision.weights.name, precision.activations.name}
    allowed = set(rule.threshold)  # type: ignore[arg-type]
    if rule.op == "in":
        return names <= allowed
    return not (names & allowed)


def _exceedance(
    rule: Rule, observed: Union[float, bool, str], passed: bool
) -> Optional[float]:
    if rule.spec.kind != "numeric":
        return None
    if passed:
        return 0.0
    threshold = float(rule.threshold)  # type: ignore[arg-type]
    if rule.op in ("<=", "<"):
        return max(0.0, float(observed) - threshold)
    return max(0.0, threshold - float(observed))


def _format_value(value: Union[float, bool, str, tuple]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, tuple):
        return "{" + ", ".join(value) + "}"
    return str(value)


def _message(rule: Rule, observed, passed: bool) -> str:
    # A custom message describes the violation, so it only surfaces on
    # failing verdicts; passing verdicts always report the observation.
    if rule.message is not None and not passed:
        return rule.message
    unit = f" {rule.spec.base_unit}" if rule.spec.kind == "numeric" else ""
    verb = "holds" if passed else "violated"
    return (
        f"{rule.metric} {rule.op} {_format_value(rule.threshold)}{unit} "
        f"{verb}: observed {_format_value(observed)}{unit}"
    )


def evaluate_rules(
    report: Any,
    rules: RulesLike,
    *,
    board: Optional[FPGABoard] = None,
    precision: Optional[Precision] = None,
    registry: Optional[_registry.RuleRegistry] = None,
) -> List[Verdict]:
    """Evaluate a ruleset against one report; returns verdicts in rule order.

    Rules whose match guards reject the report are skipped entirely (no
    verdict). ``board`` is needed only by board-relative metrics
    (``bram_used_frac``) when the report's board name is not registered;
    ``precision`` only by precision-allowlist rules. The report itself is
    never modified.
    """
    ruleset = resolve_ruleset(rules, registry=registry)
    verdicts: List[Verdict] = []
    for rule in ruleset.rules:
        if rule.match is not None and not rule.match.applies(report):
            continue
        observed = _observe(rule, report, board, precision)
        passed = _decide(rule, observed, precision)
        verdicts.append(
            Verdict(
                rule=rule.name,
                ruleset=ruleset.name,
                metric=rule.metric,
                op=rule.op,
                threshold=rule.threshold,
                observed=observed,
                passed=passed,
                severity=rule.severity,
                exceedance=_exceedance(rule, observed, passed),
                message=_message(rule, observed, passed),
            )
        )
    return verdicts


def attach_verdicts(report: Any, verdicts: Sequence[Verdict]) -> Any:
    """A *new* report carrying ``verdicts`` (the original is untouched)."""
    return replace(report, verdicts=tuple(verdicts))


def strip_verdicts(report: Any) -> Any:
    """A report with no verdicts — byte-identical to the rules-off report."""
    if not report.verdicts:
        return report
    return replace(report, verdicts=())


def has_failures(verdicts: Sequence[Verdict]) -> bool:
    """Whether any ``fail``-severity verdict did not pass."""
    return any(v.severity == "fail" and not v.passed for v in verdicts)


def resources_verdicts(report: Any) -> List[Verdict]:
    """The ``builtin:resources`` verdicts — the one feasibility code path.

    The legacy ``CostReport.fits_onchip`` boolean and the service's
    ``feasible`` flag are, by construction, exactly ``not has_failures``
    of this list; the regression suite pins that duality.
    """
    return evaluate_rules(report, _registry.BUILTIN_RESOURCES)
