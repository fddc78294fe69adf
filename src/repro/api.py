"""High-level convenience API: evaluate an accelerator in one call.

This is the library's front door, mirroring the methodology's inputs
(Fig. 3): a CNN (name or graph), an FPGA (name or board), and a multiple-CE
description (template name, notation string, or explicit spec).

>>> from repro.api import evaluate
>>> report = evaluate("resnet50", "zc706", "segmentedrr", ce_count=2)
>>> report.throughput_fps  # doctest: +SKIP
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.cnn.graph import CNNGraph
from repro.core.architectures import (
    PAPER_ARCHITECTURES,
    PAPER_CE_COUNTS,
    TEMPLATES,
    build_template,
)
from repro.core.builder import Accelerator, MultipleCEBuilder
from repro.core.cost.model import default_model
from repro.core.cost.results import CostReport
from repro.core.notation import ArchitectureSpec, parse_notation
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, Precision
from repro.runtime import BatchEvaluator, RunStats
from repro.runtime.fingerprint import context_fingerprint
# Ruleset registration is a registry concern; the API re-exports the
# entry points and threads `rules=` through evaluate/sweep.
from repro.rules import (  # noqa: F401  (re-exported)
    register_ruleset,
    unregister_ruleset,
)
from repro.rules.engine import (
    RulesLike,
    attach_verdicts,
    evaluate_rules,
    resolve_ruleset,
)
from repro.utils.errors import MCCMError, ResourceError
from repro.utils.lazy import lazy_exports
# Workload resolution and registration are registry concerns; the API
# re-exports the registration entry points as part of its public surface.
from repro.workloads import (  # noqa: F401  (re-exported)
    REGISTRY,
    register_board,
    register_model,
)

# Campaign entry points are part of the public API surface: run_campaign /
# resume_campaign / campaign_status accept a spec (object, dict, or JSON
# path) plus a checkpoint path, and return a CampaignResult. See docs/dse.md.
# They load repro.dse (and repro.analysis) on first use, not with the API.
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

logger = logging.getLogger(__name__)

ModelLike = Union[str, CNNGraph]
BoardLike = Union[str, FPGABoard]
ArchitectureLike = Union[str, ArchitectureSpec]


def resolve_model(model: ModelLike) -> CNNGraph:
    """Accept a registered name (zoo or custom) or an already-built graph.

    Unknown names raise
    :class:`~repro.utils.errors.UnknownWorkloadError` — an
    :class:`MCCMError` (and ``KeyError``) subclass carrying a did-you-mean
    suggestion.
    """
    if isinstance(model, CNNGraph):
        return model
    return REGISTRY.model(model)


def resolve_board(
    board: BoardLike, *, precision: Optional[Precision] = None
) -> FPGABoard:
    """Accept a registered board name or an explicit board description.

    Unknown names raise :class:`~repro.utils.errors.UnknownWorkloadError`,
    like :func:`resolve_model`. Passing ``precision`` additionally enforces
    a registered board's ``supported_precisions`` restriction.
    """
    if isinstance(board, FPGABoard):
        return board
    return REGISTRY.board(board, precision=precision)


def build_accelerator(
    model: ModelLike,
    board: BoardLike,
    architecture: ArchitectureLike,
    ce_count: Optional[int] = None,
    precision: Precision = DEFAULT_PRECISION,
) -> Accelerator:
    """Build (without evaluating) a multiple-CE accelerator.

    ``architecture`` may be a template name (``"segmented"``,
    ``"segmentedrr"``, ``"hybrid"`` — requires ``ce_count``), a notation
    string (``"{L1-L4: CE1, L5-Last: CE2-CE4}"``), or a full
    :class:`ArchitectureSpec`.
    """
    graph = resolve_model(model)
    fpga = resolve_board(board, precision=precision)
    builder = MultipleCEBuilder(graph, fpga, precision)
    if isinstance(architecture, ArchitectureSpec):
        spec = architecture
    elif architecture.strip().startswith("{"):
        spec = parse_notation(architecture)
    else:
        if ce_count is None:
            raise MCCMError(
                f"template {architecture!r} needs an explicit ce_count"
            )
        spec = build_template(architecture, builder.conv_specs, ce_count)
    return builder.build(spec)


def evaluate(
    model: ModelLike,
    board: BoardLike,
    architecture: ArchitectureLike,
    ce_count: Optional[int] = None,
    precision: Precision = DEFAULT_PRECISION,
    *,
    rules: Optional[RulesLike] = None,
) -> CostReport:
    """Build and evaluate an accelerator; returns the full cost report.

    ``rules`` (a registered ruleset name, a ruleset-schema dict, or a
    :class:`~repro.rules.schema.RuleSet`) additionally evaluates the
    constraint rules against the finished report and attaches their
    verdicts (``report.verdicts``). The cost numbers are identical with
    rules on or off — rules are observers, never inputs.
    """
    accelerator = build_accelerator(model, board, architecture, ce_count, precision)
    report = default_model().evaluate(accelerator)
    if rules is None:
        return report
    fpga = resolve_board(board, precision=precision)
    verdicts = evaluate_rules(report, rules, board=fpga, precision=precision)
    return attach_verdicts(report, verdicts)


@dataclass(frozen=True)
class SkippedConfig:
    """One sweep configuration that could not be evaluated, and why."""

    architecture: str
    ce_count: int
    reason: str


class SweepResult(List[CostReport]):
    """The reports of a sweep, plus what was skipped and how it ran.

    Behaves exactly like the historical ``List[CostReport]`` return value
    (iteration, indexing, ``len``) while carrying:

    * ``skipped`` — the configurations dropped as infeasible, each with the
      error message that caused it (no more silent swallowing);
    * ``stats`` — the runtime's :class:`~repro.runtime.RunStats` for the
      run (evaluations, cache hits, wall time, jobs).
    """

    def __init__(
        self,
        reports: Iterable[CostReport] = (),
        skipped: Iterable[SkippedConfig] = (),
        stats: Optional[RunStats] = None,
    ) -> None:
        super().__init__(reports)
        self.skipped: List[SkippedConfig] = list(skipped)
        self.stats: RunStats = stats if stats is not None else RunStats()

    def to_dict(self) -> dict:
        """JSON-ready dump: full reports plus skipped configs and run stats.

        Reports use the lossless :func:`~repro.core.cost.export.report_to_dict`
        form, so each entry round-trips back to a :class:`CostReport` via
        :func:`~repro.core.cost.export.report_from_dict`.
        """
        from repro.core.cost.export import report_to_dict

        return {
            "reports": [report_to_dict(report) for report in self],
            "skipped": [
                {
                    "architecture": skip.architecture,
                    "ce_count": skip.ce_count,
                    "reason": skip.reason,
                }
                for skip in self.skipped
            ],
            "stats": self.stats.to_dict(),
        }


def sweep(
    model: ModelLike,
    board: BoardLike,
    architectures: Optional[Iterable[str]] = None,
    ce_counts: Optional[Iterable[int]] = None,
    precision: Precision = DEFAULT_PRECISION,
    *,
    jobs: Union[int, str] = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    runtime: Optional[BatchEvaluator] = None,
    rules: Optional[RulesLike] = None,
) -> SweepResult:
    """Evaluate the paper's baseline sweep: architectures x CE counts.

    Defaults to the paper's setup — the three Section II-C architectures and
    CE counts 2..11 (Section V-A3). Instances whose CE count is infeasible
    for the CNN (e.g. SegmentedRR with more CEs than layers) are recorded in
    the result's ``skipped`` list instead of being silently dropped, as
    are instances the evaluation itself finds infeasible (with reason
    ``"ResourceError: <message>"``).

    ``jobs``/``cache_dir`` route the evaluations through a parallel,
    memoizing :class:`~repro.runtime.BatchEvaluator`; ``jobs=1`` (default)
    evaluates serially with results identical to the historical path, and
    ``jobs="auto"`` lets the runtime fork only when it would win.

    ``rules`` evaluates a constraint ruleset against every produced report
    and attaches verdicts, exactly as in :func:`evaluate`. Verdicts are
    attached *after* evaluation (and after caching), so cache entries and
    cost numbers stay byte-identical to a rules-off sweep.
    """
    graph = resolve_model(model)
    fpga = resolve_board(board, precision=precision)
    # Resolve the ruleset up front so unknown names fail before any
    # evaluation work (and before the runtime forks workers).
    ruleset = resolve_ruleset(rules) if rules is not None else None
    if runtime is not None:
        if jobs != 1 or cache_dir is not None:
            raise ValueError(
                "pass either an explicit runtime or jobs/cache_dir, not both "
                "(the runtime already fixes its own parallelism and cache)"
            )
        if runtime.context != context_fingerprint(graph, fpga, precision):
            raise ValueError(
                "the explicit runtime was built for a different "
                "model/board/precision than this sweep request"
            )
    evaluator = runtime or BatchEvaluator(
        graph,
        fpga,
        precision,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    try:
        result = sweep_grid(evaluator, architectures, ce_counts)
    finally:
        if runtime is None:
            evaluator.close()
    if ruleset is not None:
        result[:] = [
            attach_verdicts(
                report, evaluate_rules(report, ruleset, board=fpga, precision=precision)
            )
            for report in result
        ]
    return result


def sweep_grid(
    evaluator: BatchEvaluator,
    architectures: Optional[Iterable[str]] = None,
    ce_counts: Optional[Iterable[int]] = None,
) -> SweepResult:
    """:func:`sweep`'s grid through ``evaluator``, whose context the caller
    vouches for: :func:`sweep` checks an explicit ``runtime``, and the
    service's contexts are keyed by it."""
    names = list(architectures) if architectures is not None else list(PAPER_ARCHITECTURES)
    counts = list(ce_counts) if ce_counts is not None else list(PAPER_CE_COUNTS)

    skipped: List[SkippedConfig] = []
    grid: List[tuple] = []
    specs: List[ArchitectureSpec] = []
    for name in names:
        for count in counts:
            try:
                spec = build_template(name, evaluator.builder.conv_specs, count)
            except ResourceError as error:
                # Infeasible CE count for this CNN/template — the only
                # error class a sweep is allowed to skip over.
                skipped.append(SkippedConfig(name, count, str(error)))
                logger.debug("sweep skipping %s x %d CEs: %s", name, count, error)
                continue
            grid.append((name, count))
            specs.append(spec)

    reports: List[CostReport] = []
    # stream first in the zip so its StopIteration (and stats
    # finalization) fires before the zip ends.
    for item, (name, count) in zip(evaluator.stream(specs), grid):
        if item.report is None:
            reason = item.reason or "infeasible"
            skipped.append(SkippedConfig(name, count, reason))
            logger.debug("sweep skipping %s x %d CEs: %s", name, count, reason)
        else:
            reports.append(item.report)
    if skipped:
        logger.info(
            "sweep skipped %d of %d configurations (infeasible)",
            len(skipped),
            len(skipped) + len(reports),
        )
    return SweepResult(reports, skipped=skipped, stats=evaluator.last_run)
