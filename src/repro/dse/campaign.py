"""Checkpointed, resumable multi-objective DSE campaigns.

A *campaign* is a declarative grid of (model, board, precision,
architecture-space) **cells**, each searched with one of the pluggable
:mod:`~repro.dse.search` strategies — by default the NSGA-II evolution of
:mod:`~repro.dse.evolve` — while a persistent per-cell **Pareto archive**
accumulates every non-dominated design seen. Campaigns are built for
long-running, crash-prone environments:

* after every evaluation round (the initial sample or one generation) the
  engine atomically rewrites a JSON **checkpoint** holding the spec, the
  ``random.Random`` state, the scored population, and the archive (via the
  lossless :func:`~repro.core.cost.export.report_to_dict` round-trip);
* a killed campaign resumes from its checkpoint and replays the
  interrupted round from the saved RNG state, so the final front is
  **bit-identical** to an uninterrupted run with the same seed — the CI
  pipeline SIGKILLs a live campaign and asserts exactly that;
* evaluation runs through one :class:`~repro.dse.sampler.DesignEvaluator`
  per cell, so fingerprint and segment caches stay warm across
  generations, and ``jobs``/``cache_dir`` thread straight through to the
  batch runtime;
* every round also emits a typed telemetry event
  (:mod:`repro.dse.events`) — ``generation_done`` carries front size,
  hypervolume, best-per-objective and cache hit rates — appended to an
  NDJSON event log next to the checkpoint *before* the checkpoint lands,
  so a resumed campaign replays byte-stable history with no duplicate or
  missing generation numbers, and the service streams the same events
  live over ``GET /campaign/<id>/events``.

Front-ends: :func:`repro.api.run_campaign`, the ``repro campaign
run/resume/status`` CLI, and the service's ``POST /campaign`` +
``GET /campaign/<id>``. See ``docs/dse.md`` for the spec and checkpoint
formats.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.pareto import dominates, front_to_csv, hypervolume, pareto_front
from repro.core.cost.export import report_from_dict, report_to_dict
from repro.core.cost.results import CostReport
from repro.dse.events import CampaignEvent, CampaignEventBus, EventLog
from repro.dse.evolve import (
    EvolutionConfig,
    EvolutionEngine,
    ScoredDesign,
    design_key,
)
from repro.dse.sampler import DesignEvaluator
from repro.dse.search import (
    LOCAL_SEARCH_ITERATIONS,
    LOCAL_SEARCH_NEIGHBOURS,
    STRATEGY_NAMES,
    make_strategy,
)
from repro.dse.space import CustomDesign, CustomDesignSpace
from repro.hw.datatypes import (
    DEFAULT_PRECISION,
    Precision,
    precision_from_names,
    precision_to_dict,
)
from repro.rules import REGISTRY as RULES
from repro.rules.engine import evaluate_rules, has_failures
from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError, reject_unknown_fields
from repro.workloads import REGISTRY

#: Checkpoint schema version; bumped when the on-disk layout changes.
#: v2: a top-level "workloads" section embeds custom model/board
#: definitions, which resumes depend on.
CHECKPOINT_VERSION = 2

#: Cell lifecycle states as stored in the checkpoint.
CELL_PENDING, CELL_RUNNING, CELL_DONE = "pending", "running", "done"


class CampaignError(MCCMError):
    """A campaign spec or checkpoint problem (bad file, spec drift, ...)."""


# --- JSON plumbing ------------------------------------------------------------


def _rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` -> JSON-safe form (and back below)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_json(data: Sequence[Any]) -> tuple:
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


def _precision_from_dict(data: Optional[Mapping[str, str]]) -> Precision:
    """The shared wire codec (:mod:`repro.hw.datatypes`), with campaign errors."""
    if data is None:
        return DEFAULT_PRECISION
    if not isinstance(data, Mapping):
        raise CampaignError("cell precision must be an object of datatype names")
    _reject_unknown(data, ("weights", "activations"), "cell precision")
    try:
        return precision_from_names(data)
    except ValueError as error:
        raise CampaignError(str(error)) from None


def _reject_unknown(data: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    reject_unknown_fields(data, allowed, where, CampaignError)


# --- the declarative spec -----------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: an evaluation context plus its architecture space."""

    model: str
    board: str
    precision: Precision = DEFAULT_PRECISION
    #: CE counts of the custom space; ``None`` = the paper's 2..11.
    ce_counts: Optional[Tuple[int, ...]] = None
    max_pipelined: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.model}/{self.board}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "board": self.board,
            "precision": precision_to_dict(self.precision),
            "ce_counts": list(self.ce_counts) if self.ce_counts is not None else None,
            "max_pipelined": self.max_pipelined,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignCell":
        _reject_unknown(
            data,
            ("model", "board", "precision", "ce_counts", "max_pipelined"),
            "campaign cell",
        )
        for key in ("model", "board"):
            if not isinstance(data.get(key), str) or not data[key].strip():
                raise CampaignError(f"campaign cell needs a non-empty {key!r} name")
        # Resolve through the workload registry, so cells accept custom
        # models/boards (and the paper's abbreviations). Unknown names raise
        # UnknownWorkloadError — still an MCCMError, but with suggestions,
        # and the service maps it to a 404.
        model = REGISTRY.models.canonical(data["model"])
        board = REGISTRY.boards.canonical(data["board"])
        ce_counts = data.get("ce_counts")
        if ce_counts is not None:
            if (
                not isinstance(ce_counts, (list, tuple))
                or not ce_counts
                or not all(
                    isinstance(count, int) and not isinstance(count, bool) and count >= 2
                    for count in ce_counts
                )
            ):
                raise CampaignError("cell ce_counts must be a list of integers >= 2")
            ce_counts = tuple(ce_counts)
        max_pipelined = data.get("max_pipelined")
        if max_pipelined is not None and (
            not isinstance(max_pipelined, int) or max_pipelined < 0
        ):
            raise CampaignError("cell max_pipelined must be a non-negative integer")
        return cls(
            model=model,
            board=board,
            precision=_precision_from_dict(data.get("precision")),
            ce_counts=ce_counts,
            max_pipelined=max_pipelined,
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative description of a whole campaign (JSON-stable)."""

    cells: Tuple[CampaignCell, ...]
    name: str = "campaign"
    strategy: str = "evolve"
    seed: int = 0
    cost_metric: str = "buffers"
    # evolve strategy knobs
    population: int = 32
    generations: int = 10
    crossover_rate: float = 0.9
    mutation_rate: float = 0.9
    # random/guided strategy knobs
    samples: int = 500
    refine_top: int = 5
    #: Registered ruleset name used as a hard constraint: designs with a
    #: failed ``fail``-severity verdict never enter the Pareto archives.
    rules: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.cells:
            raise CampaignError("campaign needs at least one cell")
        if self.rules is not None:
            # Canonicalize eagerly so the fingerprint is spelling-stable;
            # unknown names raise UnknownWorkloadError (service: 404).
            object.__setattr__(
                self, "rules", RULES.canonical(self.rules)
            )
        if self.strategy not in STRATEGY_NAMES:
            raise CampaignError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGY_NAMES}"
            )
        if self.cost_metric not in ("buffers", "access"):
            raise CampaignError(
                f"cost_metric must be 'buffers' or 'access', got {self.cost_metric!r}"
            )
        # Let EvolutionConfig validate its own knobs eagerly.
        self.evolution_config()

    def evolution_config(self) -> EvolutionConfig:
        return EvolutionConfig(
            population=self.population,
            generations=self.generations,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            cost_metric=self.cost_metric,
        )

    def cell_seed(self, index: int) -> int:
        """Deterministic per-cell seed (cells are independent searches)."""
        return self.seed + index

    def budget(self) -> int:
        """Upper-bound evaluation count (used by the service's request cap)."""
        if self.strategy == "evolve":
            per_cell = self.population * (self.generations + 1)
        elif self.strategy == "guided":
            # samples plus the hill-climbing worst case of guided_search.
            per_cell = self.samples + (
                self.refine_top * LOCAL_SEARCH_ITERATIONS * LOCAL_SEARCH_NEIGHBOURS
            )
        else:
            per_cell = self.samples
        return per_cell * len(self.cells)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "strategy": self.strategy,
            "seed": self.seed,
            "cost_metric": self.cost_metric,
            "population": self.population,
            "generations": self.generations,
            "crossover_rate": self.crossover_rate,
            "mutation_rate": self.mutation_rate,
            "samples": self.samples,
            "refine_top": self.refine_top,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        # Emitted only when set, so rules-free specs (and their sha256
        # fingerprints, which guard every existing checkpoint) are unchanged.
        if self.rules is not None:
            payload["rules"] = self.rules
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise CampaignError(
                f"campaign spec must be a JSON object, got {type(data).__name__}"
            )
        _reject_unknown(
            data,
            (
                "name",
                "strategy",
                "seed",
                "cost_metric",
                "population",
                "generations",
                "crossover_rate",
                "mutation_rate",
                "samples",
                "refine_top",
                "cells",
                "rules",
            ),
            "campaign spec",
        )
        rules = data.get("rules")
        if rules is not None and not isinstance(rules, str):
            raise CampaignError("campaign field 'rules' must be a ruleset name")
        cells = data.get("cells")
        if not isinstance(cells, (list, tuple)) or not cells:
            raise CampaignError("campaign spec needs a non-empty 'cells' list")
        for key in ("seed", "population", "generations", "samples", "refine_top"):
            if key in data and (
                isinstance(data[key], bool) or not isinstance(data[key], int)
            ):
                raise CampaignError(f"campaign field {key!r} must be an integer")
        try:
            return cls(
                cells=tuple(CampaignCell.from_dict(cell) for cell in cells),
                name=str(data.get("name", "campaign")),
                strategy=str(data.get("strategy", "evolve")).strip().lower(),
                seed=data.get("seed", 0),
                cost_metric=str(data.get("cost_metric", "buffers")),
                population=data.get("population", 32),
                generations=data.get("generations", 10),
                crossover_rate=data.get("crossover_rate", 0.9),
                mutation_rate=data.get("mutation_rate", 0.9),
                samples=data.get("samples", 500),
                refine_top=data.get("refine_top", 5),
                rules=rules,
            )
        except (TypeError, ValueError) as error:
            raise CampaignError(f"bad campaign spec: {error}") from None

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec file (``repro campaign run --spec campaign.json``)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise CampaignError(f"cannot read campaign spec {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise CampaignError(f"campaign spec {path} is not valid JSON: {error}") from None
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Stable digest guarding resumes against a drifted spec file."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# --- the persistent archive ---------------------------------------------------


class ParetoArchive:
    """Every non-dominated (design, report) pair one cell has seen.

    Updates are order-deterministic: a candidate enters unless an archived
    entry dominates it (or it is the same design), and evicts the entries
    it dominates. The exported front is canonically sorted, so two
    campaigns that saw the same designs — in however many sessions —
    export byte-identical fronts.
    """

    def __init__(
        self, cost_metric: str = "buffers", entries: Sequence[ScoredDesign] = ()
    ) -> None:
        self.cost_metric = cost_metric
        self._entries: List[ScoredDesign] = []
        self._keys: set = set()
        for design, report in entries:
            self.add(design, report)

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, design: CustomDesign, report: CostReport) -> bool:
        """Offer one pair; returns whether it entered the archive."""
        key = design_key(design)
        if key in self._keys:
            return False
        survivors: List[ScoredDesign] = []
        evicted: List = []
        for other_design, other_report in self._entries:
            if dominates(other_report, report, self.cost_metric):
                return False  # dominated by an archived entry
            if dominates(report, other_report, self.cost_metric):
                evicted.append(design_key(other_design))
                continue  # the candidate evicts this entry
            survivors.append((other_design, other_report))
        survivors.append((design, report))
        self._entries = survivors
        self._keys.difference_update(evicted)
        self._keys.add(key)
        return True

    def update(self, pairs: Sequence[ScoredDesign]) -> int:
        """Offer many pairs in order; returns how many entered."""
        return sum(1 for design, report in pairs if self.add(design, report))

    def front(self) -> List[ScoredDesign]:
        """The archive in canonical order: ascending cost, then throughput,
        then notation (full determinism even under objective ties)."""
        return sorted(
            self._entries,
            key=lambda pair: (
                pair[1].metric(self.cost_metric),
                -pair[1].throughput_fps,
                pair[1].notation,
                design_key(pair[0]),
            ),
        )

    def hypervolume(self) -> float:
        """2-D hypervolume of the archive front (see :mod:`repro.analysis.pareto`).

        Archive entries are mutually non-dominated by construction, so the
        O(n^2) front sweep is skipped — this runs on every status poll.
        """
        return hypervolume(
            self._entries,
            benefit=lambda pair: pair[1].throughput_fps,
            cost=lambda pair: pair[1].metric(self.cost_metric),
            assume_front=True,
        )

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"design": design.to_dict(), "report": report_to_dict(report)}
            for design, report in self.front()
        ]

    @classmethod
    def from_dicts(
        cls, data: Sequence[Mapping[str, Any]], cost_metric: str
    ) -> "ParetoArchive":
        return cls(
            cost_metric,
            entries=[
                (
                    CustomDesign.from_dict(entry["design"]),
                    report_from_dict(entry["report"]),
                )
                for entry in data
            ],
        )


# --- per-cell progress (the checkpointable unit) ------------------------------


@dataclass
class CellProgress:
    """Everything the checkpoint stores about one cell."""

    status: str = CELL_PENDING
    #: Whether the initial sample round has completed.
    initialized: bool = False
    #: Completed evolution generations (stays 0 for one-shot strategies).
    generation: int = 0
    rng_state: Optional[tuple] = None
    population: List[ScoredDesign] = field(default_factory=list)
    archive: Optional[ParetoArchive] = None
    evaluations: int = 0
    infeasible: int = 0
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "initialized": self.initialized,
            "generation": self.generation,
            "rng_state": (
                _rng_state_to_json(self.rng_state) if self.rng_state is not None else None
            ),
            "population": [
                {"design": design.to_dict(), "report": report_to_dict(report)}
                for design, report in self.population
            ],
            "archive": self.archive.to_dicts() if self.archive is not None else [],
            "evaluations": self.evaluations,
            "infeasible": self.infeasible,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], cost_metric: str) -> "CellProgress":
        return cls(
            status=data["status"],
            initialized=data["initialized"],
            generation=data["generation"],
            rng_state=(
                _rng_state_from_json(data["rng_state"])
                if data.get("rng_state") is not None
                else None
            ),
            population=[
                (
                    CustomDesign.from_dict(entry["design"]),
                    report_from_dict(entry["report"]),
                )
                for entry in data["population"]
            ],
            archive=ParetoArchive.from_dicts(data["archive"], cost_metric),
            evaluations=data["evaluations"],
            infeasible=data["infeasible"],
            elapsed_seconds=data["elapsed_seconds"],
        )


# --- results ------------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """One cell's final (or current) standing."""

    cell: CampaignCell
    status: str
    generation: int
    evaluations: int
    infeasible: int
    elapsed_seconds: float
    front: Sequence[ScoredDesign]
    hypervolume: float

    def to_dict(self, include_front: bool = True) -> Dict[str, Any]:
        payload = {
            "model": self.cell.model,
            "board": self.cell.board,
            "precision": precision_to_dict(self.cell.precision),
            "status": self.status,
            "generation": self.generation,
            "evaluations": self.evaluations,
            "infeasible": self.infeasible,
            "elapsed_seconds": self.elapsed_seconds,
            "archive_size": len(self.front),
            "hypervolume": self.hypervolume,
        }
        if include_front:
            payload["front"] = [
                {"design": design.to_dict(), "report": report_to_dict(report)}
                for design, report in self.front
            ]
        return payload


@dataclass(frozen=True)
class CampaignResult:
    """The outcome (or live snapshot) of a campaign across all cells."""

    spec: CampaignSpec
    cells: Tuple[CellResult, ...]

    @property
    def done(self) -> bool:
        return all(cell.status == CELL_DONE for cell in self.cells)

    @property
    def total_evaluations(self) -> int:
        return sum(cell.evaluations for cell in self.cells)

    def to_dict(self, include_fronts: bool = True) -> Dict[str, Any]:
        return {
            "name": self.spec.name,
            "strategy": self.spec.strategy,
            "seed": self.spec.seed,
            "cost_metric": self.spec.cost_metric,
            "done": self.done,
            "total_evaluations": self.total_evaluations,
            "cells": [cell.to_dict(include_front=include_fronts) for cell in self.cells],
        }

    def front_csv(self) -> str:
        """Every cell's front as one CSV (the CI artifact format)."""
        entries = [
            (cell.cell.label, report)
            for cell in self.cells
            for _design, report in cell.front
        ]
        return front_to_csv(entries, self.spec.cost_metric)

    def combined_front(self) -> List[ScoredDesign]:
        """Non-dominated set across cells sharing the whole campaign's
        objective space (meaningful when cells share a model)."""
        pairs = [pair for cell in self.cells for pair in cell.front]
        return pareto_front(
            pairs,
            benefit=lambda pair: pair[1].throughput_fps,
            cost=lambda pair: pair[1].metric(self.spec.cost_metric),
        )


# --- the engine ---------------------------------------------------------------


class Campaign:
    """A runnable (and resumable) campaign bound to an optional checkpoint.

    Construct fresh with a spec, or :meth:`load` from a checkpoint file.
    :meth:`run` executes pending cells round by round, checkpointing after
    every round; killing the process at any point loses at most the round
    in flight, and a subsequent :meth:`load` + :meth:`run` replays that
    round bit-identically from the stored RNG state.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        checkpoint_path: Optional[Union[str, Path]] = None,
        *,
        jobs: Union[int, str] = "auto",
        cache_dir: Optional[Union[str, Path]] = None,
        event_log: Union[str, Path, None] = "auto",
        event_sink=None,
    ) -> None:
        self.spec = spec
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.cells: List[CellProgress] = [
            CellProgress(archive=ParetoArchive(spec.cost_metric)) for _ in spec.cells
        ]
        self._lock = threading.Lock()
        #: Telemetry fan-out: the NDJSON event log (if any) plus sinks.
        self.events = CampaignEventBus()
        self.event_log_path = self._resolve_event_log(self.checkpoint_path, event_log)
        self._event_log_attached = False
        if event_sink is not None:
            self.events.subscribe(event_sink)

    @staticmethod
    def _resolve_event_log(
        checkpoint_path: Optional[Path], event_log: Union[str, Path, None]
    ) -> Optional[Path]:
        """``"auto"`` = ``<checkpoint>.events`` (none without a checkpoint)."""
        if event_log == "auto":
            if checkpoint_path is None:
                return None
            return checkpoint_path.with_name(checkpoint_path.name + ".events")
        return Path(event_log) if event_log is not None else None

    def _attach_event_log(self, *, resume: bool) -> None:
        """Bind the on-disk log: truncate when fresh, reconcile on resume.

        On resume the log keeps exactly the longest prefix of events the
        checkpoint proves committed (see :meth:`_event_committed`) —
        preserved as original bytes — and the bus continues ``seq``
        numbering after it; the interrupted round re-emits its events.
        """
        self._event_log_attached = True
        if self.event_log_path is None:
            return
        log = EventLog(self.event_log_path)
        if resume:
            replayed = log.reconcile(self._event_committed)
            self.events.prime(replayed)
        elif self.event_log_path.exists():
            log.truncate()
        self.events.attach_log(log)

    def _event_committed(self, event: CampaignEvent) -> bool:
        """Does checkpoint state prove this logged event already happened?

        The runner appends each event *before* saving the checkpoint that
        covers it, so on resume an event is committed iff the restored
        state implies its round completed: generation events of an evolve
        cell once ``initialized`` and ``generation`` reached them, one-shot
        (random/guided) cell events only once the cell finished (one-shot
        rounds are unresumable), ``cell_done``/``campaign_done`` once the
        statuses say so. ``campaign_start`` and ``error`` are history the
        moment they are written.
        """
        if event.type in ("campaign_start", "error"):
            return True
        if event.type == "campaign_done":
            return all(cell.status == CELL_DONE for cell in self.cells)
        index = event.cell
        if index is None or not 0 <= index < len(self.cells):
            return False
        progress = self.cells[index]
        if event.type == "cell_done":
            return progress.status == CELL_DONE
        if event.type in ("generation_start", "generation_done"):
            if self.spec.strategy != "evolve":
                return progress.status == CELL_DONE
            generation = event.data.get("generation")
            if not isinstance(generation, int):
                return False
            return progress.initialized and generation <= progress.generation
        return False

    # --- persistence ---------------------------------------------------------
    @classmethod
    def load(
        cls,
        checkpoint_path: Union[str, Path],
        *,
        spec: Optional[CampaignSpec] = None,
        jobs: Union[int, str] = "auto",
        cache_dir: Optional[Union[str, Path]] = None,
        event_log: Union[str, Path, None] = "auto",
        event_sink=None,
    ) -> "Campaign":
        """Rebuild a campaign from its checkpoint (the resume path).

        When ``spec`` is given it must match the checkpointed spec's
        fingerprint — resuming a campaign under a silently edited spec
        would make the "bit-identical to uninterrupted" guarantee a lie.
        """
        path = Path(checkpoint_path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise CampaignError(f"cannot read checkpoint {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"checkpoint {path} is not valid JSON ({error}); "
                "was the campaign killed mid-write without the atomic rename?"
            ) from None
        if data.get("version") != CHECKPOINT_VERSION:
            raise CampaignError(
                f"checkpoint {path} has version {data.get('version')!r}, "
                f"this build reads {CHECKPOINT_VERSION}"
            )
        # Custom workloads and rulesets must be back in their registries
        # *before* the spec parses, or its cells (and its ``rules`` name)
        # would fail resolution.
        cls._restore_workloads(data.get("workloads") or {})
        cls._restore_rulesets(data.get("rulesets") or {})
        stored_spec = CampaignSpec.from_dict(data["spec"])
        if data.get("fingerprint") != stored_spec.fingerprint():
            raise CampaignError(f"checkpoint {path} fingerprint mismatch (corrupt?)")
        if spec is not None and spec.fingerprint() != stored_spec.fingerprint():
            raise CampaignError(
                "the given spec does not match the checkpointed campaign; "
                "start a fresh checkpoint for a changed spec"
            )
        campaign = cls(
            stored_spec,
            path,
            jobs=jobs,
            cache_dir=cache_dir,
            event_log=event_log,
            event_sink=event_sink,
        )
        stored_cells = data.get("cells")
        if not isinstance(stored_cells, list) or len(stored_cells) != len(
            stored_spec.cells
        ):
            raise CampaignError(f"checkpoint {path} cell count mismatch")
        try:
            campaign.cells = [
                CellProgress.from_dict(cell, stored_spec.cost_metric)
                for cell in stored_cells
            ]
        except (KeyError, TypeError, ValueError) as error:
            # The fingerprint only covers the spec, so a hand-edited or
            # damaged cells section must still fail as a checkpoint error.
            raise CampaignError(
                f"checkpoint {path} has a malformed cells section "
                f"({type(error).__name__}: {error})"
            ) from None
        # Reconcile only now: the committed-predicate needs the restored
        # cell states, and a log-less load (campaign_status) stays read-only.
        campaign._attach_event_log(resume=True)
        return campaign

    def _workload_definitions(self) -> Dict[str, Dict[str, Any]]:
        """Full definitions of every *custom* model/board the spec names.

        Embedding them makes the checkpoint self-contained: a resumed
        campaign re-registers its workloads before resolving any cell, so a
        fresh process (which has never seen the user's JSON files) still
        replays to a byte-identical front.
        """
        models: Dict[str, Any] = {}
        boards: Dict[str, Any] = {}
        for cell in self.spec.cells:
            model = REGISTRY.models.entry(cell.model)
            if not model.builtin:
                models[cell.model] = model.definition
            board = REGISTRY.boards.entry(cell.board)
            if not board.builtin:
                boards[cell.board] = board.definition
        return {"models": models, "boards": boards}

    @staticmethod
    def _restore_workloads(data: Mapping[str, Any]) -> None:
        """Re-register a checkpoint's embedded workload definitions.

        Identical re-registration is a no-op; a live registration that
        *differs* from the checkpointed definition is refused — silently
        replacing either side would break the bit-identical-resume contract.
        """
        for kind, register in (
            ("models", REGISTRY.models.register),
            ("boards", REGISTRY.boards.register),
        ):
            for name, definition in (data.get(kind) or {}).items():
                try:
                    register(definition, name=name, source="checkpoint")
                except MCCMError as error:
                    raise CampaignError(
                        f"checkpoint embeds {kind[:-1]} {name!r} that cannot "
                        f"be restored: {error}"
                    ) from None

    def _ruleset_definitions(self) -> Dict[str, Dict[str, Any]]:
        """Full definition of the spec's *custom* ruleset, if any.

        Embedded for the same self-containment reason as workloads: a
        resumed campaign re-registers its constraint ruleset before the
        spec parses, so the front it replays is byte-identical even in a
        process that never saw the user's rule files. Built-in rulesets
        need no embedding.
        """
        if self.spec.rules is None:
            return {}
        entry = RULES.entry(self.spec.rules)
        return {} if entry.builtin else {entry.name: entry.definition}

    @staticmethod
    def _restore_rulesets(data: Mapping[str, Any]) -> None:
        """Re-register a checkpoint's embedded ruleset definitions.

        Mirrors :meth:`_restore_workloads`: identical re-registration is a
        no-op; a live registration that differs is refused.
        """
        for name, definition in data.items():
            try:
                RULES.register(definition, name=name, source="checkpoint")
            except MCCMError as error:
                raise CampaignError(
                    f"checkpoint embeds ruleset {name!r} that cannot be "
                    f"restored: {error}"
                ) from None

    def checkpoint_dict(self) -> Dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.spec.fingerprint(),
            "spec": self.spec.to_dict(),
            "workloads": self._workload_definitions(),
            "rulesets": self._ruleset_definitions(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def save(self) -> None:
        """Atomically persist the current state (no-op without a path).

        Write-then-rename, so a SIGKILL mid-write never corrupts the
        checkpoint.
        """
        if self.checkpoint_path is None:
            return
        data = json.dumps(self.checkpoint_dict()).encode("utf-8")
        try:
            write_atomic(self.checkpoint_path, data)
        except OSError as error:
            # An unwritable checkpoint path is a user-input problem; keep it
            # inside the library's error hierarchy (the CLI exits 2 cleanly).
            raise CampaignError(
                f"cannot write checkpoint {self.checkpoint_path}: {error}"
            ) from None

    # --- interrogation -------------------------------------------------------
    def result(self) -> CampaignResult:
        """The campaign's current standing (thread-safe snapshot)."""
        with self._lock:
            cells = tuple(
                CellResult(
                    cell=cell,
                    status=progress.status,
                    generation=progress.generation,
                    evaluations=progress.evaluations,
                    infeasible=progress.infeasible,
                    elapsed_seconds=progress.elapsed_seconds,
                    front=tuple(progress.archive.front()),
                    hypervolume=progress.archive.hypervolume(),
                )
                for cell, progress in zip(self.spec.cells, self.cells)
            )
        return CampaignResult(spec=self.spec, cells=cells)

    @property
    def done(self) -> bool:
        with self._lock:
            return all(cell.status == CELL_DONE for cell in self.cells)

    # --- execution -----------------------------------------------------------
    def run(self, max_rounds: Optional[int] = None) -> CampaignResult:
        """Run every pending cell to completion (or ``max_rounds`` rounds).

        A *round* is one evaluation batch: a cell's initial sample, one
        evolution generation, or (for one-shot strategies) the whole cell.
        ``max_rounds`` exists for tests and cooperative interruption — the
        checkpoint left behind is exactly what a SIGKILL at the same point
        would leave.
        """
        rounds = 0
        self.save()  # an immediately-killable campaign is already resumable
        if not self._event_log_attached:
            self._attach_event_log(resume=False)
        if self.events.last_seq == 0:
            self.events.emit(
                "campaign_start",
                name=self.spec.name,
                strategy=self.spec.strategy,
                seed=self.spec.seed,
                cost_metric=self.spec.cost_metric,
                cells=[cell.label for cell in self.spec.cells],
                budget=self.spec.budget(),
                fingerprint=self.spec.fingerprint(),
            )
        index = None
        try:
            for index, cell in enumerate(self.spec.cells):
                progress = self.cells[index]
                if progress.status == CELL_DONE:
                    continue
                if max_rounds is not None and rounds >= max_rounds:
                    break
                space_kwargs: Dict[str, Any] = {}
                if cell.ce_counts is not None:
                    space_kwargs["ce_counts"] = cell.ce_counts
                if cell.max_pipelined is not None:
                    space_kwargs["max_pipelined"] = cell.max_pipelined
                graph = REGISTRY.model(cell.model)
                board = REGISTRY.board(cell.board, precision=cell.precision)
                space = CustomDesignSpace(graph.conv_specs(), **space_kwargs)
                with DesignEvaluator(
                    graph,
                    board,
                    cell.precision,
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                ) as evaluator:
                    if self.spec.strategy == "evolve":
                        rounds = self._run_evolve_cell(
                            index, evaluator, space, rounds, max_rounds
                        )
                    else:
                        rounds = self._run_oneshot_cell(index, evaluator, space, rounds)
        except Exception as error:
            # The stream's terminal failure marker; the exception itself
            # still propagates to the caller (CLI exit 2, service "failed").
            self.events.emit(
                "error",
                cell=index,
                message=str(error),
                error_type=type(error).__name__,
            )
            raise
        result = self.result()
        if result.done and "campaign_done" not in self.events.seen_types:
            self.events.emit(
                "campaign_done",
                name=self.spec.name,
                total_evaluations=result.total_evaluations,
                cells=[
                    {
                        "cell": cell_index,
                        "label": cell_result.cell.label,
                        "front_size": len(cell_result.front),
                        "hypervolume": cell_result.hypervolume,
                        "evaluations": cell_result.evaluations,
                    }
                    for cell_index, cell_result in enumerate(result.cells)
                ],
            )
        return result

    def _admissible(self, index: int, evaluated: Sequence) -> List:
        """The evaluated pairs the spec's ruleset admits into the archive.

        With ``spec.rules`` set, any design whose report draws a failed
        ``fail``-severity verdict is rejected *before* the Pareto archive
        sees it. Filtering is deterministic (pure rule evaluation over
        deterministic reports), so interrupted and uninterrupted campaigns
        reject exactly the same designs and resumes stay byte-identical.
        The population is NOT filtered — search dynamics are unchanged;
        rules only gate what the campaign reports as its front.
        """
        if self.spec.rules is None:
            return list(evaluated)
        cell = self.spec.cells[index]
        ruleset = RULES.get(self.spec.rules)
        board = REGISTRY.board(cell.board, precision=cell.precision)
        return [
            (design, report)
            for design, report in evaluated
            if not has_failures(
                evaluate_rules(
                    report, ruleset, board=board, precision=cell.precision
                )
            )
        ]

    # --- telemetry helpers ----------------------------------------------------
    def _emit_generation_done(
        self,
        index: int,
        *,
        generation: int,
        round_kind: str,
        round_evaluations: int,
        round_infeasible: int,
        round_seconds: float,
        run_stats,
    ) -> None:
        """One round's summary: archive standing + best-per-objective +
        the batch runtime's cache behaviour for the round just evaluated."""
        metric = self.spec.cost_metric
        with self._lock:
            progress = self.cells[index]
            front = progress.archive.front()
            snapshot = {
                "front_size": len(front),
                "hypervolume": progress.archive.hypervolume(),
                "evaluations": progress.evaluations,
                "infeasible": progress.infeasible,
            }
        best_throughput = max(
            (report.throughput_fps for _design, report in front), default=None
        )
        best_cost = min(
            (report.metric(metric) for _design, report in front), default=None
        )
        self.events.emit(
            "generation_done",
            cell=index,
            label=self.spec.cells[index].label,
            generation=generation,
            round=round_kind,
            round_evaluations=round_evaluations,
            round_infeasible=round_infeasible,
            round_seconds=round_seconds,
            best_throughput_fps=best_throughput,
            best_cost=best_cost,
            cost_metric=metric,
            cache_hit_rate=round(run_stats.hit_rate, 4),
            cache_memory_hits=run_stats.memory_hits,
            cache_disk_hits=run_stats.disk_hits,
            **snapshot,
        )

    def _emit_cell_done(self, index: int) -> None:
        with self._lock:
            progress = self.cells[index]
            payload = {
                "label": self.spec.cells[index].label,
                "generation": progress.generation,
                "evaluations": progress.evaluations,
                "infeasible": progress.infeasible,
                "front_size": len(progress.archive),
                "hypervolume": progress.archive.hypervolume(),
                "elapsed_seconds": round(progress.elapsed_seconds, 6),
            }
        self.events.emit("cell_done", cell=index, **payload)

    def _run_evolve_cell(
        self,
        index: int,
        evaluator: DesignEvaluator,
        space: CustomDesignSpace,
        rounds: int,
        max_rounds: Optional[int],
    ) -> int:
        progress = self.cells[index]
        config = self.spec.evolution_config()
        seed = self.spec.cell_seed(index)
        rng = random.Random(seed)
        engine = EvolutionEngine(space, config, evaluator.evaluate_batch, rng)
        if progress.initialized:
            # Resume: restore the three state values and replay from the
            # exact point the last completed round checkpointed.
            rng.setstate(progress.rng_state)
            engine.restore(progress.population, progress.generation)
        while True:
            if max_rounds is not None and rounds >= max_rounds:
                return rounds
            if progress.initialized and progress.generation >= config.generations:
                with self._lock:
                    progress.status = CELL_DONE
                    progress.rng_state = rng.getstate()
                self._emit_cell_done(index)
                self.save()
                return rounds
            # Round g: the initial sample is generation 0, evolution steps
            # are 1..generations. generation_start precedes the batch so
            # watchers see long rounds begin, not only end.
            generation = progress.generation + 1 if progress.initialized else 0
            self.events.emit(
                "generation_start",
                cell=index,
                label=self.spec.cells[index].label,
                generation=generation,
                round="initial_sample" if generation == 0 else "generation",
                population=config.population,
            )
            start = time.perf_counter()
            if not progress.initialized:
                evaluated = engine.initialize(seed)
                with self._lock:
                    progress.status = CELL_RUNNING
                    progress.initialized = True
            else:
                evaluated = engine.step()
            elapsed = time.perf_counter() - start
            admitted = self._admissible(index, evaluated)
            with self._lock:
                progress.archive.update(admitted)
                progress.population = list(engine.population)
                progress.generation = engine.generation
                progress.rng_state = rng.getstate()
                progress.evaluations += engine.last_submitted
                progress.infeasible += engine.last_submitted - len(evaluated)
                progress.elapsed_seconds += elapsed
            self._emit_generation_done(
                index,
                generation=generation,
                round_kind="initial_sample" if generation == 0 else "generation",
                round_evaluations=engine.last_submitted,
                round_infeasible=engine.last_submitted - len(evaluated),
                round_seconds=round(elapsed, 6),
                run_stats=evaluator.runtime.last_run,
            )
            rounds += 1
            self.save()

    def _run_oneshot_cell(
        self,
        index: int,
        evaluator: DesignEvaluator,
        space: CustomDesignSpace,
        rounds: int,
    ) -> int:
        """Random/guided strategies run a cell in one (unresumable) round."""
        progress = self.cells[index]
        with self._lock:
            progress.status = CELL_RUNNING
        self.save()
        self.events.emit(
            "generation_start",
            cell=index,
            label=self.spec.cells[index].label,
            generation=0,
            round="search",
            samples=self.spec.samples,
        )
        strategy = make_strategy(
            self.spec.strategy,
            samples=self.spec.samples,
            cost_metric=self.spec.cost_metric,
            refine_top=self.spec.refine_top,
        )
        result = strategy.search(evaluator, space, seed=self.spec.cell_seed(index))
        admitted = self._admissible(index, list(result.evaluated))
        with self._lock:
            progress.archive.update(admitted)
            progress.evaluations += result.stats.evaluated + result.stats.failed
            progress.infeasible += result.stats.failed
            progress.elapsed_seconds += result.stats.elapsed_seconds
            progress.status = CELL_DONE
        # One-shot cells finish in a single round, so the whole-cell totals
        # double as the round stats (``totals`` because guided strategies
        # run several batches through the evaluator).
        self._emit_generation_done(
            index,
            generation=0,
            round_kind="search",
            round_evaluations=result.stats.evaluated + result.stats.failed,
            round_infeasible=result.stats.failed,
            round_seconds=round(result.stats.elapsed_seconds, 6),
            run_stats=evaluator.runtime.totals,
        )
        self._emit_cell_done(index)
        self.save()
        return rounds + 1


# --- module-level conveniences (the api.py / CLI surface) ---------------------


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
    checkpoint: Optional[Union[str, Path]] = None,
    *,
    resume: bool = False,
    jobs: Union[int, str] = "auto",
    cache_dir: Optional[Union[str, Path]] = None,
    max_rounds: Optional[int] = None,
    event_log: Union[str, Path, None] = "auto",
    event_sink=None,
) -> CampaignResult:
    """Run (or resume) a campaign; the one-call front door.

    ``spec`` is a :class:`CampaignSpec`, a spec dict, or a path to a spec
    JSON file. With ``resume=False`` an existing checkpoint file is an
    error (refuse to clobber state); with ``resume=True`` the checkpoint
    is loaded and the spec (if any) only cross-checked. ``event_log`` is
    the NDJSON telemetry log path — the default ``"auto"`` puts it next
    to the checkpoint as ``<checkpoint>.events`` (no log without a
    checkpoint); ``None`` disables it. ``event_sink`` is an optional
    callable receiving every :class:`~repro.dse.events.CampaignEvent`.
    """
    parsed: Optional[CampaignSpec]
    if isinstance(spec, CampaignSpec):
        parsed = spec
    elif isinstance(spec, Mapping):
        parsed = CampaignSpec.from_dict(spec)
    elif spec is not None:
        parsed = CampaignSpec.from_json(spec)
    else:
        parsed = None

    if resume:
        if checkpoint is None:
            raise CampaignError("resume needs a checkpoint path")
        campaign = Campaign.load(
            checkpoint,
            spec=parsed,
            jobs=jobs,
            cache_dir=cache_dir,
            event_log=event_log,
            event_sink=event_sink,
        )
    else:
        if parsed is None:
            raise CampaignError("a fresh campaign run needs a spec")
        if checkpoint is not None and Path(checkpoint).exists():
            raise CampaignError(
                f"checkpoint {checkpoint} already exists; "
                "resume it or choose a new path"
            )
        campaign = Campaign(
            parsed,
            checkpoint,
            jobs=jobs,
            cache_dir=cache_dir,
            event_log=event_log,
            event_sink=event_sink,
        )
    return campaign.run(max_rounds=max_rounds)


def resume_campaign(
    checkpoint: Union[str, Path],
    *,
    jobs: Union[int, str] = "auto",
    cache_dir: Optional[Union[str, Path]] = None,
    max_rounds: Optional[int] = None,
    event_log: Union[str, Path, None] = "auto",
    event_sink=None,
) -> CampaignResult:
    """Finish a checkpointed campaign (no-op if it already completed)."""
    return run_campaign(
        None,  # type: ignore[arg-type]
        checkpoint,
        resume=True,
        jobs=jobs,
        cache_dir=cache_dir,
        max_rounds=max_rounds,
        event_log=event_log,
        event_sink=event_sink,
    )


def campaign_status(checkpoint: Union[str, Path]) -> CampaignResult:
    """Inspect a checkpoint without evaluating anything.

    ``event_log=None`` keeps the load strictly read-only: a status poll
    must never reconcile (truncate) the event log of a campaign that is
    still running in another process.
    """
    return Campaign.load(checkpoint, event_log=None).result()
