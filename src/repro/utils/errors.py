"""Exception hierarchy for the MCCM reproduction.

All library-specific exceptions derive from :class:`MCCMError` so callers can
catch a single base class at API boundaries.
"""


class MCCMError(Exception):
    """Base class for every error raised by this library."""


class ShapeError(MCCMError):
    """A tensor or layer shape is inconsistent or cannot be inferred.

    Raised, for example, when a convolution receives an input whose channel
    count does not match the layer's declared input channels, or when two
    branches of a residual connection disagree on their output shape.
    """


class NotationError(MCCMError):
    """The multiple-CE mapping notation string is malformed.

    The accepted grammar is described in :mod:`repro.core.notation` and
    follows Section III-B of the paper, e.g. ``{L1-L4: CE1, L5-Last: CE2-CE5}``.
    """


class ResourceError(MCCMError):
    """An accelerator configuration exceeds the FPGA resource budget.

    Examples: requesting more CEs than available PEs, or a buffer plan that
    cannot fit the mandatory double-buffers in on-chip memory.
    """


class ValidationError(MCCMError):
    """A model-vs-reference validation input is inconsistent.

    Raised by :mod:`repro.synth.validate` when estimated and reference series
    have mismatched lengths or a reference value is non-positive, which would
    make the paper's accuracy formula (Eq. 10) undefined.
    """


class WorkloadError(MCCMError):
    """A model or board definition is malformed or cannot be registered.

    Covers JSON schema problems in user-supplied board descriptions (bad
    field types, unknown precisions) and workload-directory files that fail
    to load. Graph-structure problems keep raising :class:`ShapeError`.
    """


class RuleError(MCCMError):
    """A constraint rule or ruleset definition is malformed or unusable.

    Covers schema problems in rule/ruleset JSON (unknown metrics, bad
    comparators, bad units) and evaluation-context gaps (a rule needs the
    request precision but none was supplied). Name collisions on
    registration keep raising :class:`WorkloadConflictError` and unknown
    ruleset lookups :class:`UnknownWorkloadError`, so the service's 409/404
    taxonomy is shared with the workload registry.
    """


class CampaignError(MCCMError):
    """A campaign spec or checkpoint problem (bad file, spec drift, ...).

    Raised by :mod:`repro.dse.campaign`, which re-exports it; it lives here
    so the service's error map can name it without loading the DSE layer.
    """


class WorkloadConflictError(WorkloadError):
    """A registration collides with an existing model or board.

    Raised when a name is reserved by a built-in entry, or when a custom
    name is re-registered with *different* content without ``replace=True``
    (re-registering identical content is an idempotent no-op). The service
    maps this to HTTP 409.
    """


def closest_name(name, candidates):
    """The best did-you-mean candidate for a misspelled name, or ``None``."""
    import difflib

    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


class UnknownWorkloadError(WorkloadError, KeyError):
    """A model or board name is not registered.

    Subclasses :class:`KeyError` so historical ``except KeyError`` callers
    keep working, while API/CLI layers can catch the library hierarchy.
    Carries structured fields for typed error payloads:

    * ``workload_kind`` — ``"model"`` or ``"board"``;
    * ``unknown_name`` — the name that failed to resolve;
    * ``available`` — the registered names at lookup time;
    * ``suggestion`` — closest-name match, or ``None``.
    """

    def __init__(self, workload_kind: str, name: str, available) -> None:
        self.workload_kind = workload_kind
        self.unknown_name = name
        self.available = sorted(available)
        self.suggestion = closest_name(name, self.available)
        message = f"unknown {workload_kind} {name!r}"
        if self.suggestion is not None:
            message += f"; did you mean {self.suggestion!r}?"
        message += f" available: {self.available}"
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ would repr() the message; keep it human-readable.
        return self.args[0]


def reject_unknown_fields(data, allowed, where, error_type=MCCMError) -> None:
    """Raise ``error_type`` if ``data`` carries keys outside ``allowed``.

    Shared by every JSON-validating layer (service request schemas,
    campaign specs) so the "unknown field(s)" message stays uniform while
    each layer keeps its own error class.
    """
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise error_type(
            f"unknown field(s) {unknown} in {where}; accepted: {sorted(allowed)}"
        )
