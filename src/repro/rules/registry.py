"""The process-wide ruleset registry.

Rulesets flow through the stack exactly like models and boards do: the
CLI, the HTTP service, and DSE campaigns resolve them by name through one
shared :class:`~repro.utils.registry.Registry` — the same generic class
behind the workload registry, so lookups, idempotence, conflicts and the
persistent *rule directory* (``$MCCM_RULE_DIR``, default ``~/.mccm/rules``)
behave identically. Unknown names raise
:class:`~repro.utils.errors.UnknownWorkloadError` (kind ``"ruleset"``,
with did-you-mean suggestions) and collisions raise
:class:`~repro.utils.errors.WorkloadConflictError`, so the service keeps
its 404/409 taxonomy without rule-specific branches.

One ruleset is pre-registered: ``builtin:resources``, the single code
path for the historical on-chip feasibility boolean (see
:func:`repro.rules.engine.resources_verdicts`). Names under the
``builtin:`` prefix are reserved.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.rules.schema import RuleSet
from repro.utils.errors import RuleError
from repro.utils.registry import Codec, Definition, Entry, Registry, save_definition

RuleSetLike = Union[RuleSet, Mapping[str, Any], str, Path]

#: Environment override for the persistent rule directory.
RULE_DIR_ENV = "MCCM_RULE_DIR"

#: Names under this prefix are reserved for pre-registered rulesets.
BUILTIN_PREFIX = "builtin:"

#: The pre-registered feasibility ruleset: the one code path behind the
#: historical ``CostReport.fits_onchip`` boolean and the service's
#: ``feasible`` flag (ISSUE 7's "feasibility duality" fix).
BUILTIN_RESOURCES = "builtin:resources"

_BUILTIN_RESOURCES_DEF: Dict[str, Any] = {
    "name": BUILTIN_RESOURCES,
    "description": (
        "On-chip feasibility: the mandatory double-buffers must fit the "
        "board's BRAM budget. Pre-registered; mirrors the legacy "
        "CostReport.fits_onchip boolean."
    ),
    "rules": [
        {
            "name": "fits-onchip",
            "metric": "fits_onchip",
            "op": "==",
            "threshold": True,
            "severity": "fail",
            "message": "buffer plan exceeds the board's on-chip BRAM budget",
        }
    ],
}


def _parse_ruleset(ruleset: Any, name: Optional[str]) -> Tuple[str, RuleSet, Definition]:
    if isinstance(ruleset, RuleSet):
        parsed = ruleset
    elif isinstance(ruleset, Mapping):
        parsed = RuleSet.from_dict(ruleset)
    else:
        raise RuleError(
            "register_ruleset accepts a RuleSet, a ruleset-schema "
            f"dict, or a JSON file path, got {type(ruleset).__name__}"
        )
    if name is not None:
        parsed = RuleSet.from_dict({**parsed.to_dict(), "name": name})
    return parsed.name, parsed, parsed.to_dict()


def _reserved_ruleset_name(key: str) -> Optional[str]:
    if key.startswith(BUILTIN_PREFIX):
        return (
            f"ruleset name {key!r} is reserved: the '{BUILTIN_PREFIX}' "
            "namespace belongs to pre-registered rulesets"
        )
    return None


RULESET_CODEC: Codec[RuleSet] = Codec(
    kind="ruleset",
    error=RuleError,
    parse=_parse_ruleset,
    define=RuleSet.to_dict,
    builtins=lambda: {
        BUILTIN_RESOURCES: lambda: RuleSet.from_dict(_BUILTIN_RESOURCES_DEF)
    },
    builtin_source="builtin",
    builtin_owner="a built-in ruleset",
    directory="rule directory",
    reserved=_reserved_ruleset_name,
)


class RuleRegistry(Registry[RuleSet]):
    """Thread-safe ruleset resolution for the entire system.

    One process-wide instance (:data:`REGISTRY`) backs the Python API, the
    CLI, the HTTP service, and DSE campaigns; fresh instances exist for
    tests. ``include_builtins=True`` (default) pre-registers
    ``builtin:resources``.
    """

    def __init__(self, include_builtins: bool = True) -> None:
        super().__init__(RULESET_CODEC, include_builtins)


def ruleset_summary(entry: Entry[RuleSet]) -> Dict[str, Any]:
    """One ruleset's ``GET /rules`` / ``repro rules list --json`` entry."""
    definition = entry.definition
    return {
        "name": entry.name,
        "description": definition.get("description", ""),
        "rule_count": len(definition.get("rules", [])),
        "custom": not entry.builtin,
        "definition": definition,
    }


#: The process-wide registry every front-end shares.
REGISTRY = RuleRegistry()


def default_rule_dir() -> Path:
    """``$MCCM_RULE_DIR`` or ``~/.mccm/rules``."""
    override = os.environ.get(RULE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".mccm" / "rules"


def load_rule_dir(
    path: Optional[Union[str, Path]] = None, *, registry: Optional[RuleRegistry] = None
) -> List[str]:
    """Load the persistent rule directory into the (global) registry."""
    target = registry if registry is not None else REGISTRY
    return target.load_directory(path if path is not None else default_rule_dir())


def save_ruleset(
    name: str,
    definition: Mapping[str, Any],
    path: Optional[Union[str, Path]] = None,
) -> Path:
    """Atomically persist one canonical ruleset definition as ``<dir>/<name>.json``.

    ``:`` in ruleset names is replaced by ``__`` in the file name (colons
    are not portable across filesystems); loading reads the name back from
    the JSON body, not the file name.
    """
    root = Path(path) if path is not None else default_rule_dir()
    try:
        return save_definition(root / f"{name.replace(':', '__')}.json", definition)
    except OSError as error:
        raise RuleError(f"cannot save ruleset {name!r} to {root}: {error}") from None
