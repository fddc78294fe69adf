"""Request validation and error payloads for the evaluation service.

Every request body is validated into a frozen request dataclass before any
model work happens; malformed input produces a structured 4xx error rather
than a traceback. Library errors crossing the HTTP boundary are rendered
as typed JSON payloads::

    {"error": {"kind": "notation_error", "type": "NotationError",
               "message": "..."}}

with one deliberate exception: :class:`~repro.utils.errors.ResourceError`
during an evaluation means "this design does not fit the board" — a valid
*answer*, not a failure — so ``/evaluate`` reports it as an infeasible
result (HTTP 200, ``feasible: false``) exactly like the batch runtime and
``api.sweep`` treat it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.dse.campaign import CampaignError, CampaignSpec
from repro.hw.datatypes import (
    DEFAULT_PRECISION,
    Precision,
    precision_from_names,
    precision_to_dict,  # noqa: F401  (re-exported: the wire form of Precision)
)
from repro.rules import REGISTRY as RULES
from repro.utils.errors import (
    MCCMError,
    NotationError,
    ResourceError,
    RuleError,
    ShapeError,
    UnknownWorkloadError,
    ValidationError,
    WorkloadConflictError,
    WorkloadError,
    reject_unknown_fields,
)
from repro.workloads import REGISTRY

#: Cost metrics accepted by ``POST /dse`` (mirrors the CLI's ``--cost``).
DSE_COST_METRICS = ("buffers", "access")

#: Per-request sample cap for ``POST /dse`` (bounds evaluator-lock hold time).
MAX_DSE_SAMPLES = 10_000

#: Worst-case evaluation budget accepted by ``POST /campaign``. Campaigns
#: run on a background thread rather than holding an evaluator lock, so the
#: cap is about protecting the host, not request latency.
MAX_CAMPAIGN_BUDGET = 100_000


class RequestError(MCCMError):
    """A request failed validation; carries the HTTP status and error kind.

    ``extra`` (optional) merges additional structured fields — e.g. a
    did-you-mean ``suggestion`` — into the typed error payload.

    ``retry_after`` (seconds) marks the failure as transient — backpressure
    (429) or graceful draining (503) — and is surfaced both as a payload
    field and as an HTTP ``Retry-After`` header so generic clients back off.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 400,
        kind: str = "bad_request",
        extra: Optional[Dict[str, Any]] = None,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.extra = extra
        self.retry_after = retry_after


#: MCCMError subclass -> (HTTP status, machine-readable kind). Order matters:
#: the first match wins, so subclasses precede MCCMError itself.
_ERROR_MAP: Tuple[Tuple[type, Tuple[int, str]], ...] = (
    (RequestError, (400, "bad_request")),  # status/kind read off the instance
    (CampaignError, (400, "campaign_error")),
    (NotationError, (400, "notation_error")),
    (ShapeError, (400, "shape_error")),
    (ValidationError, (400, "validation_error")),
    (ResourceError, (422, "resource_error")),
    # Malformed rule/ruleset schemas are client errors, like workload ones.
    (RuleError, (400, "rule_error")),
    # Workload-registry errors: unknown names are 404s (with suggestions in
    # the payload), registration collisions are 409s, schema problems 400s.
    # Rulesets share this taxonomy (kind "ruleset").
    (UnknownWorkloadError, (404, "unknown_workload")),
    (WorkloadConflictError, (409, "workload_conflict")),
    (WorkloadError, (400, "workload_error")),
    (MCCMError, (400, "mccm_error")),
)


def classify_error(error: BaseException) -> Tuple[int, str]:
    """Map an exception to its (HTTP status, error kind)."""
    if isinstance(error, RequestError):
        return error.status, error.kind
    for exc_type, (status, kind) in _ERROR_MAP:
        if isinstance(error, exc_type):
            return status, kind
    return 500, "internal_error"


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The JSON body sent alongside a non-2xx status."""
    _status, kind = classify_error(error)
    entry: Dict[str, Any] = {
        "kind": kind,
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, UnknownWorkloadError):
        entry["workload"] = error.workload_kind
        entry["suggestion"] = error.suggestion
        entry["available"] = error.available
    extra = getattr(error, "extra", None)
    if extra:
        entry.update(extra)
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        entry["retry_after"] = retry_after
    return {"error": entry}


# --- field-level validation helpers ------------------------------------------


def _require_mapping(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise RequestError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: Mapping[str, Any], allowed: Iterable[str]) -> None:
    reject_unknown_fields(payload, allowed, "the request", RequestError)


def _string_field(payload: Mapping[str, Any], name: str) -> str:
    if name not in payload:
        raise RequestError(f"missing required field {name!r}")
    value = payload[name]
    if not isinstance(value, str) or not value.strip():
        raise RequestError(f"field {name!r} must be a non-empty string")
    return value.strip()


def _int_field(
    payload: Mapping[str, Any],
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    if name not in payload or payload[name] is None:
        return default
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"field {name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise RequestError(f"field {name!r} must be >= {minimum}, got {value}")
    return value


def _model_field(payload: Mapping[str, Any]) -> str:
    name = _string_field(payload, "model").lower()
    try:
        # Live registry state: a model registered a request ago resolves here.
        return REGISTRY.models.canonical(name)
    except UnknownWorkloadError as error:
        raise RequestError(
            str(error),
            status=404,
            kind="unknown_model",
            extra={"suggestion": error.suggestion, "available": error.available},
        ) from None


def _board_field(payload: Mapping[str, Any]) -> str:
    name = _string_field(payload, "board").lower()
    try:
        return REGISTRY.boards.canonical(name)
    except UnknownWorkloadError as error:
        raise RequestError(
            str(error),
            status=404,
            kind="unknown_board",
            extra={"suggestion": error.suggestion, "available": error.available},
        ) from None


def _ruleset_field(payload: Mapping[str, Any]) -> Optional[str]:
    """Optional ``rules`` field: a registered ruleset name, or ``None``."""
    if "rules" not in payload or payload["rules"] is None:
        return None
    name = _string_field(payload, "rules").lower()
    try:
        return RULES.canonical(name)
    except UnknownWorkloadError as error:
        raise RequestError(
            str(error),
            status=404,
            kind="unknown_ruleset",
            extra={"suggestion": error.suggestion, "available": error.available},
        ) from None


def parse_precision(value: Any) -> Precision:
    """``{"weights": "int16", "activations": "int8"}`` -> :class:`Precision`."""
    if value is None:
        return DEFAULT_PRECISION
    if not isinstance(value, Mapping):
        raise RequestError("field 'precision' must be an object")
    _reject_unknown(value, ("weights", "activations"))
    for key in ("weights", "activations"):
        if key in value and not isinstance(value[key], str):
            raise RequestError(f"precision.{key} must be a datatype name string")
    try:
        return precision_from_names(value)
    except ValueError as error:
        raise RequestError(str(error)) from None


# --- request dataclasses ------------------------------------------------------


@dataclass(frozen=True)
class EvaluateRequest:
    """Validated body of ``POST /evaluate``."""

    model: str
    board: str
    architecture: str
    ce_count: Optional[int] = None
    precision: Precision = DEFAULT_PRECISION
    rules: Optional[str] = None


@dataclass(frozen=True)
class SweepRequest:
    """Validated body of ``POST /sweep`` (``None`` = the paper's defaults)."""

    model: str
    board: str
    architectures: Optional[Tuple[str, ...]] = None
    ce_counts: Optional[Tuple[int, ...]] = None
    precision: Precision = DEFAULT_PRECISION
    rules: Optional[str] = None


@dataclass(frozen=True)
class DseRequest:
    """Validated body of ``POST /dse``."""

    model: str
    board: str
    samples: int = 100
    seed: int = 0
    cost_metric: str = "buffers"
    precision: Precision = field(default=DEFAULT_PRECISION)


def parse_evaluate(payload: Any) -> EvaluateRequest:
    body = _require_mapping(payload)
    _reject_unknown(
        body, ("model", "board", "architecture", "ce_count", "precision", "rules")
    )
    return EvaluateRequest(
        model=_model_field(body),
        board=_board_field(body),
        architecture=_string_field(body, "architecture"),
        ce_count=_int_field(body, "ce_count", minimum=1),
        precision=parse_precision(body.get("precision")),
        rules=_ruleset_field(body),
    )


def _ce_counts_field(body: Mapping[str, Any]) -> Optional[Tuple[int, ...]]:
    value = body.get("ce_counts")
    if value is None:
        return None
    if isinstance(value, Mapping):
        _reject_unknown(value, ("min", "max"))
        low = _int_field(value, "min", minimum=1)
        high = _int_field(value, "max", minimum=1)
        if low is None or high is None:
            raise RequestError("ce_counts range needs both 'min' and 'max'")
        if high < low:
            raise RequestError(f"ce_counts range is empty: min {low} > max {high}")
        return tuple(range(low, high + 1))
    if isinstance(value, (list, tuple)):
        counts = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int) or item < 1:
                raise RequestError("ce_counts entries must be integers >= 1")
            counts.append(item)
        if not counts:
            raise RequestError("ce_counts must not be empty")
        return tuple(counts)
    raise RequestError("ce_counts must be a list of integers or a {min, max} object")


def parse_sweep(payload: Any) -> SweepRequest:
    body = _require_mapping(payload)
    _reject_unknown(
        body, ("model", "board", "architectures", "ce_counts", "precision", "rules")
    )
    architectures = body.get("architectures")
    if architectures is not None:
        if not isinstance(architectures, (list, tuple)) or not architectures:
            raise RequestError("architectures must be a non-empty list of names")
        if not all(isinstance(name, str) and name.strip() for name in architectures):
            raise RequestError("architectures entries must be non-empty strings")
        architectures = tuple(name.strip() for name in architectures)
    return SweepRequest(
        model=_model_field(body),
        board=_board_field(body),
        architectures=architectures,
        ce_counts=_ce_counts_field(body),
        precision=parse_precision(body.get("precision")),
        rules=_ruleset_field(body),
    )


@dataclass(frozen=True)
class ModelRegisterRequest:
    """Validated body of ``POST /models``."""

    definition: Dict[str, Any]
    replace: bool = False


@dataclass(frozen=True)
class BoardRegisterRequest:
    """Validated body of ``POST /boards``."""

    definition: Dict[str, Any]
    replace: bool = False


def _bool_field(payload: Mapping[str, Any], name: str, default: bool = False) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise RequestError(f"field {name!r} must be a boolean")
    return value


def parse_model_register(payload: Any) -> ModelRegisterRequest:
    """``{"model": {...graph schema...}, "replace": false}``.

    The graph schema itself (:mod:`repro.cnn.serialize`) is validated by
    the registry at registration time; malformed graphs surface as
    structured 400 ``shape_error`` payloads via the error map.
    """
    body = _require_mapping(payload)
    _reject_unknown(body, ("model", "replace"))
    definition = body.get("model")
    if not isinstance(definition, Mapping):
        raise RequestError(
            "missing or bad field 'model' (the model JSON object of "
            "the cnn/serialize schema)"
        )
    return ModelRegisterRequest(
        definition=dict(definition), replace=_bool_field(body, "replace")
    )


def parse_board_register(payload: Any) -> BoardRegisterRequest:
    """``{"board": {...board schema...}, "replace": false}``."""
    body = _require_mapping(payload)
    _reject_unknown(body, ("board", "replace"))
    definition = body.get("board")
    if not isinstance(definition, Mapping):
        raise RequestError(
            "missing or bad field 'board' (the board JSON object; see docs/api.md)"
        )
    return BoardRegisterRequest(
        definition=dict(definition), replace=_bool_field(body, "replace")
    )


@dataclass(frozen=True)
class RulesetRegisterRequest:
    """Validated body of ``POST /rules``."""

    definition: Dict[str, Any]
    replace: bool = False


def parse_ruleset_register(payload: Any) -> RulesetRegisterRequest:
    """``{"ruleset": {...ruleset schema...}, "replace": false}``.

    The ruleset schema itself (:mod:`repro.rules.schema`) is validated by
    the rule registry at registration time; malformed rules surface as
    structured 400 ``rule_error`` payloads via the error map.
    """
    body = _require_mapping(payload)
    _reject_unknown(body, ("ruleset", "replace"))
    definition = body.get("ruleset")
    if not isinstance(definition, Mapping):
        raise RequestError(
            "missing or bad field 'ruleset' (the ruleset JSON object; "
            "see docs/rules.md)"
        )
    return RulesetRegisterRequest(
        definition=dict(definition), replace=_bool_field(body, "replace")
    )


@dataclass(frozen=True)
class CampaignRequest:
    """Validated body of ``POST /campaign``."""

    spec: CampaignSpec


def parse_campaign(payload: Any) -> CampaignRequest:
    """``{"spec": {...campaign spec...}}`` -> a budget-capped request.

    Spec validation (models, boards, strategies, rates) is
    :meth:`~repro.dse.campaign.CampaignSpec.from_dict`'s job; a
    :class:`~repro.dse.campaign.CampaignError` surfaces as a structured
    400 via the error map.
    """
    body = _require_mapping(payload)
    _reject_unknown(body, ("spec",))
    if "spec" not in body:
        raise RequestError("missing required field 'spec' (the campaign spec object)")
    spec = CampaignSpec.from_dict(body["spec"])
    budget = spec.budget()
    if budget > MAX_CAMPAIGN_BUDGET:
        raise RequestError(
            f"campaign budget of ~{budget} evaluations exceeds the per-request "
            f"cap of {MAX_CAMPAIGN_BUDGET} (shrink cells/population/generations, "
            f"or run it with the CLI: repro campaign run)"
        )
    return CampaignRequest(spec=spec)


def parse_dse(payload: Any) -> DseRequest:
    body = _require_mapping(payload)
    _reject_unknown(body, ("model", "board", "samples", "seed", "cost_metric", "precision"))
    cost_metric = body.get("cost_metric", "buffers")
    if cost_metric not in DSE_COST_METRICS:
        raise RequestError(
            f"cost_metric must be one of {list(DSE_COST_METRICS)}, got {cost_metric!r}"
        )
    samples = _int_field(body, "samples", default=100, minimum=1)
    # One /dse request holds its context's evaluator lock for the whole
    # search (~1-6 ms/design), so the per-request cap keeps any single
    # request from starving concurrent /evaluate and /sweep traffic for
    # minutes; larger explorations belong on the CLI/library surface.
    if samples > MAX_DSE_SAMPLES:
        raise RequestError(
            f"samples capped at {MAX_DSE_SAMPLES} per request, got {samples} "
            f"(use the CLI or library for larger searches)"
        )
    return DseRequest(
        model=_model_field(body),
        board=_board_field(body),
        samples=samples,
        seed=_int_field(body, "seed", default=0, minimum=0),
        cost_metric=cost_metric,
        precision=parse_precision(body.get("precision")),
    )
