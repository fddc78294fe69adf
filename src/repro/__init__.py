"""MCCM: an analytical cost model for multiple compute-engine CNN
accelerators.

Reproduction of Qararyah, Maleki & Trancoso, "An Analytical Cost Model for
Fast Evaluation of Multiple Compute-Engine CNN Accelerators", ISPASS 2025.

Quickstart::

    from repro import evaluate
    report = evaluate("resnet50", "zc706", "segmentedrr", ce_count=2)
    print(report.summary())
"""

from repro.api import (
    SkippedConfig,
    SweepResult,
    build_accelerator,
    evaluate,
    sweep,
)
from repro.core.cost.results import CostReport
from repro.core.notation import ArchitectureSpec, parse_notation
from repro.runtime import BatchEvaluator, RunStats
# Constraint rules: declarative SLO rulesets producing typed verdicts
# (docs/rules.md); `evaluate(..., rules=...)` threads them through reports.
from repro.rules import (
    Rule,
    RuleSet,
    Verdict,
    available_rulesets,
    evaluate_rules,
    get_ruleset,
    register_ruleset,
    unregister_ruleset,
)
# Workload resolution goes through the registry, so listings and lookups
# reflect user-registered models/boards, not just the paper's built-ins.
from repro.workloads import (
    available_boards,
    available_models,
    get_board,
    load_model,
    register_board,
    register_model,
    unregister_board,
    unregister_model,
)
from repro.utils.lazy import lazy_exports

# The campaign entry points load repro.dse on first use (as in repro.api),
# so `import repro` stays within the cost model.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.dse.campaign": (
            "CampaignResult",
            "CampaignSpec",
            "campaign_status",
            "resume_campaign",
            "run_campaign",
        )
    },
)

__version__ = "1.9.0"

__all__ = [
    "build_accelerator",
    "evaluate",
    "sweep",
    "run_campaign",
    "resume_campaign",
    "campaign_status",
    "CampaignSpec",
    "CampaignResult",
    "SweepResult",
    "SkippedConfig",
    "BatchEvaluator",
    "RunStats",
    "available_models",
    "load_model",
    "register_model",
    "unregister_model",
    "CostReport",
    "ArchitectureSpec",
    "parse_notation",
    "available_boards",
    "get_board",
    "register_board",
    "unregister_board",
    "Rule",
    "RuleSet",
    "Verdict",
    "available_rulesets",
    "get_ruleset",
    "register_ruleset",
    "unregister_ruleset",
    "evaluate_rules",
    "__version__",
]
