"""Declarative constraint rules over cost reports (ROADMAP item 4).

Module-level functions operate on the process-wide :data:`REGISTRY`; the
:class:`RuleRegistry` class exists for isolated instances in tests.

>>> import repro
>>> repro.register_ruleset({                       # doctest: +SKIP
...     "name": "edge-slo",
...     "rules": [{"name": "latency", "metric": "latency_ms",
...                "op": "<=", "threshold": 10}],
... })
>>> report = repro.evaluate("resnet50", "zc706", "segmentedrr",
...                         ce_count=2, rules="edge-slo")  # doctest: +SKIP
>>> [v.passed for v in report.verdicts]            # doctest: +SKIP
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.rules.engine import (
    RulesLike,
    attach_verdicts,
    evaluate_rules,
    has_failures,
    resolve_ruleset,
    resources_verdicts,
    strip_verdicts,
)
from repro.rules.registry import (
    BUILTIN_RESOURCES,
    REGISTRY,
    RULE_DIR_ENV,
    RuleRegistry,
    RuleSetLike,
    default_rule_dir,
    load_rule_dir,
    save_ruleset,
)
from repro.rules.schema import (
    METRICS,
    SEVERITIES,
    MetricSpec,
    Rule,
    RuleMatch,
    RuleSet,
    Verdict,
)


def available_rulesets() -> List[str]:
    """Canonical names of every registered ruleset (built-in and custom)."""
    return REGISTRY.names()


def get_ruleset(name: str) -> RuleSet:
    """Resolve a registered ruleset by name."""
    return REGISTRY.get(name)


def register_ruleset(ruleset: RuleSetLike, **kwargs) -> str:
    """Register a ruleset with the process-wide registry."""
    return REGISTRY.register(ruleset, **kwargs)


def unregister_ruleset(name: str) -> None:
    """Remove a custom ruleset from the process-wide registry."""
    REGISTRY.unregister(name)


def ruleset_definition(name: str) -> Dict[str, Any]:
    """The canonical JSON dict of a registered ruleset."""
    return REGISTRY.entry(name).definition


def generation() -> int:
    """The global registry's mutation counter (for cache invalidation)."""
    return REGISTRY.generation


__all__ = [
    "BUILTIN_RESOURCES",
    "METRICS",
    "REGISTRY",
    "RULE_DIR_ENV",
    "SEVERITIES",
    "MetricSpec",
    "Rule",
    "RuleMatch",
    "RuleRegistry",
    "RuleSet",
    "RuleSetLike",
    "RulesLike",
    "Verdict",
    "attach_verdicts",
    "available_rulesets",
    "default_rule_dir",
    "evaluate_rules",
    "generation",
    "get_ruleset",
    "has_failures",
    "load_rule_dir",
    "register_ruleset",
    "resolve_ruleset",
    "resources_verdicts",
    "ruleset_definition",
    "save_ruleset",
    "strip_verdicts",
    "unregister_ruleset",
]
