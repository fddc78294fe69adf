"""Endpoint logic and the process-wide shared evaluator state.

The service's whole point is that many clients share one warm evaluation
cache: :class:`ServiceState` keeps a single :class:`BatchEvaluator` per
(CNN, board, precision) context — created lazily on first use, keyed by the
runtime's context fingerprint — and every endpoint routes its model work
through it. Repeated and concurrent requests for the same design therefore
cost one evaluation total, and a request replayed against a warm service
answers from memory in microseconds.

Handlers are plain functions ``(state, validated_request) -> (status, dict)``
so they are directly testable without a socket; :mod:`repro.service.server`
adds the HTTP plumbing.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

import repro
from repro.api import sweep
from repro.cnn.graph import CNNGraph
from repro.core.architectures import TEMPLATES, build_template
from repro.core.cost.export import report_to_dict
from repro.core.notation import ArchitectureSpec, parse_notation
from repro.dse import CustomDesignSpace, DesignEvaluator, random_search
from repro.dse.campaign import Campaign
from repro.dse.events import (
    TERMINAL_EVENT_TYPES,
    CampaignEvent,
    EventLog,
    read_events,
)
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import Precision
from repro.runtime import BatchEvaluator, BatchItem, RunStats
from repro.runtime.cache import DiskCache, LRUCache
from repro.runtime.fingerprint import context_fingerprint
from repro.rules import BUILTIN_RESOURCES
from repro.rules import REGISTRY as RULES
from repro.rules.engine import evaluate_rules
from repro.rules.registry import ruleset_summary
from repro.service.schema import (
    BoardRegisterRequest,
    CampaignRequest,
    DseRequest,
    EvaluateRequest,
    ModelRegisterRequest,
    RequestError,
    RulesetRegisterRequest,
    SweepRequest,
    precision_to_dict,
)
from repro.utils.atomic import write_atomic
from repro.utils.errors import ResourceError
from repro.workloads import REGISTRY
from repro.workloads.registry import model_summary

Response = Tuple[int, Dict[str, Any]]

#: Finished campaign jobs kept for polling before the oldest are evicted
#: (each retains its full archive/population; unbounded retention would
#: grow service memory forever).
MAX_RETAINED_CAMPAIGNS = 32

#: Campaigns allowed to run concurrently. Each one is a background thread
#: with its own per-cell evaluator, so the per-request budget cap alone
#: would not protect the host from a client looping ``POST /campaign``.
MAX_RUNNING_CAMPAIGNS = 4

#: Evaluation contexts kept warm at once. Contexts are content-keyed, so a
#: client iterating on a registered model (each edit is a new fingerprint)
#: would otherwise grow the evaluator map — and its caches — forever; the
#: least-recently-used context beyond this cap is closed and dropped.
MAX_EVALUATOR_CONTEXTS = 32

#: Default bound on model-work requests (POSTs) in flight per worker.
#: Beyond it the server answers a typed 429 with Retry-After instead of
#: piling up handler threads until the host thrashes.
DEFAULT_MAX_INFLIGHT = 64

#: How often (seconds) a worker refreshes its status snapshot in the shared
#: run directory as a side effect of request accounting; /healthz always
#: forces a fresh write.
STATUS_WRITE_INTERVAL = 0.25

#: Campaign ids are used as snapshot file names in the shared run
#: directory; anything outside this alphabet is rejected before it can
#: traverse paths.
_CAMPAIGN_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")

#: How often a ``GET /campaign/<id>/events`` stream polls its source (the
#: in-memory buffer locally, the shared-dir event file across workers)
#: for new events between flushes.
STREAM_POLL_SECONDS = 0.15

#: Extra polls a stream grants a settled campaign before giving up on its
#: terminal event. The ``campaign_done``/``error`` event normally ends the
#: stream; this only covers the sliver where the job settles before the
#: terminal event is observable (or an evicted snapshot disappears).
STREAM_SETTLED_GRACE_POLLS = 4


@dataclass
class StreamingResponse:
    """A handler result the server writes as chunked NDJSON, not JSON.

    ``chunks`` yields complete NDJSON lines; the server flushes each one
    immediately so consumers see events as they happen, and closes the
    connection when the iterator ends.
    """

    chunks: Iterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"


@dataclass(frozen=True)
class RawJSON:
    """JSON text standing in for a top-level payload value; the server
    writes it into the reply as it is (see :func:`dump_payload`)."""

    text: str


def dump_payload(payload: Mapping[str, Any]) -> str:
    """``json.dumps(payload)``, with each top-level :class:`RawJSON` value's
    text put in where the value stands.

    The plain members around a raw value are encoded as one dict per run
    and joined with ``json.dumps``'s own separators, so the result is
    byte for byte what ``json.dumps`` gives when each raw value is the
    object its text was dumped from.
    """
    members: List[str] = []
    run: Dict[str, Any] = {}
    for key, value in payload.items():
        if isinstance(value, RawJSON):
            if run:
                members.append(json.dumps(run)[1:-1])
                run = {}
            members.append(f"{json.dumps(key)}: {value.text}")
        else:
            run[key] = value
    if not members:
        return json.dumps(payload)
    if run:
        members.append(json.dumps(run)[1:-1])
    return "{" + ", ".join(members) + "}"


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """One shared-directory document, or None on any read/parse race."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _sum_counter_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker counter dicts by summing numeric values key-wise."""
    totals: Dict[str, Any] = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            totals[key] = totals.get(key, 0) + value
    return totals


class CampaignJob:
    """One background campaign: the runner thread plus its lifecycle state.

    The campaign itself is the source of truth for progress (its
    ``result()`` snapshot is thread-safe); the job only adds the thread
    and a terminal error, if any. Campaigns deliberately do *not* share
    the service's per-context evaluators: a long campaign holding an
    evaluator lock would starve interactive ``/evaluate`` traffic, so each
    cell builds its own evaluator on the campaign thread.

    ``publish`` (optional) is called with the job at start, periodically
    while running, and once after it settles — the multi-worker front uses
    it to mirror snapshots into the shared run directory so any worker can
    answer ``GET /campaign/<id>`` for a job started on this one.
    """

    def __init__(
        self,
        campaign_id: str,
        campaign: Campaign,
        publish: Optional[Callable[["CampaignJob"], None]] = None,
    ) -> None:
        self.id = campaign_id
        self.campaign = campaign
        self.started = time.time()
        self.finished: Optional[float] = None
        self.error: Optional[str] = None
        self._publish = publish
        self._publish_lock = threading.Lock()
        #: Every event the campaign emitted, in ``seq`` order — the source
        #: a local ``GET /campaign/<id>/events`` stream tails. Subscribed
        #: before the thread starts, so no event can slip past the buffer.
        self._events: List[CampaignEvent] = []
        self._events_lock = threading.Lock()
        campaign.events.subscribe(self._record_event)
        self.thread = threading.Thread(
            target=self._run, name=f"repro-campaign-{campaign_id}", daemon=True
        )

    def _record_event(self, event: CampaignEvent) -> None:
        with self._events_lock:
            self._events.append(event)

    def events_after(self, seq: int) -> List[CampaignEvent]:
        """Buffered events with ``seq`` beyond the cursor, oldest first."""
        with self._events_lock:
            return [event for event in self._events if event.seq > seq]

    def publish_snapshot(self) -> None:
        """Mirror the current state to the shared store (best effort)."""
        if self._publish is None:
            return
        try:
            with self._publish_lock:
                self._publish(self)
        except Exception:  # noqa: BLE001 - mirroring must never kill the run
            pass

    def _refresh_loop(self) -> None:
        # A late tick racing the final publish is harmless: every publish
        # serializes under the lock and re-reads the live state, so the
        # last write always reflects the settled job.
        while self.finished is None:
            time.sleep(0.5)
            self.publish_snapshot()

    def _run(self) -> None:
        self.publish_snapshot()
        if self._publish is not None:
            threading.Thread(
                target=self._refresh_loop,
                name=f"repro-campaign-{self.id}-mirror",
                daemon=True,
            ).start()
        try:
            self.campaign.run()
        except Exception as error:  # noqa: BLE001 - reported via polling
            self.error = f"{type(error).__name__}: {error}"
        finally:
            self.finished = time.time()
            self.publish_snapshot()

    @property
    def state(self) -> str:
        if self.error is not None:
            return "failed"
        if self.finished is not None or self.campaign.done:
            return "done"
        return "running"

    def to_dict(self, include_fronts: Optional[bool] = None) -> Dict[str, Any]:
        # Read the state once: deciding include_fronts and reporting the
        # state from separate reads could emit "done" without the fronts
        # when the campaign finishes between them.
        state = self.state
        if include_fronts is None:
            # Fronts ride along only once the run settled; while running,
            # snapshots stay cheap for tight polling loops.
            include_fronts = state != "running"
        result = self.campaign.result()
        return {
            "id": self.id,
            "state": state,
            "error": self.error,
            "started": round(self.started, 3),
            "elapsed_seconds": round(
                (self.finished or time.time()) - self.started, 3
            ),
            "campaign": result.to_dict(include_fronts=include_fronts),
        }


class EvaluationContext:
    """One (CNN, board, precision) context: its shared evaluator, the lock
    callers hold around any use of it, and three memos the same lock guards.

    ``BatchEvaluator`` is not itself thread-safe (LRU bookkeeping,
    ``last_run``). The memos let ``/evaluate`` answer a replayed design
    without rebuilding, hashing, judging or re-encoding anything, and hold
    at most ``memo_entries`` entries each (the evaluator's LRU capacity):

    * ``specs``: (architecture, ce_count) as requested -> the resolved
      spec and its fingerprint;
    * ``reports``: fingerprint -> the report's JSON text, encoded for the
      first answer that carried it;
    * ``verdicts``: (fingerprint, ruleset name) -> the verdict list's JSON
      text, valid for one rule-registry generation (a ruleset replaced
      under the same name must be judged again).

    Only ``/evaluate`` fills them: sweeps, DSE and campaigns encode nothing.
    """

    def __init__(self, evaluator: BatchEvaluator, memo_entries: int) -> None:
        self.evaluator = evaluator
        self.lock = threading.Lock()
        self.specs = LRUCache(memo_entries)
        self.reports = LRUCache(memo_entries)
        self.verdicts = LRUCache(memo_entries)
        self._verdicts_generation: Optional[int] = None

    def spec_for(
        self, architecture: str, ce_count: Optional[int]
    ) -> Tuple[ArchitectureSpec, str]:
        """:func:`_resolve_spec` and the spec's fingerprint, memoized
        (failures are not)."""
        key = (architecture, ce_count)
        resolved = self.specs.get(key)
        if resolved is None:
            spec = _resolve_spec(self.evaluator, architecture, ce_count)
            resolved = (spec, self.evaluator.key_for(spec))
            self.specs.put(key, resolved)
        return resolved

    def report_json(self, item: BatchItem) -> Optional[RawJSON]:
        """The wire form of ``item``'s report (None when infeasible)."""
        if item.report is None:
            return None
        text = self.reports.get(item.key)
        if text is None:
            text = RawJSON(json.dumps(report_to_dict(item.report)))
            self.reports.put(item.key, text)
        return text

    def verdicts_json(self, item: BatchItem, ruleset: str) -> Union[RawJSON, list]:
        """The wire form of ``ruleset``'s verdicts on ``item``'s report.

        Verdicts depend on the report, the ruleset and the context's board
        and precision, so (fingerprint, ruleset name) keys them while the
        rule registry's generation stands still. The generation is read
        before the rules run: a ruleset replaced meanwhile leaves a memo
        the next request drops.
        """
        if item.report is None:
            return []
        generation = RULES.generation
        if generation != self._verdicts_generation:
            self.verdicts.clear()
            self._verdicts_generation = generation
        key = (item.key, ruleset)
        text = self.verdicts.get(key)
        if text is None:
            verdicts = evaluate_rules(
                item.report,
                ruleset,
                board=self.evaluator.board,
                precision=self.evaluator.precision,
            )
            text = RawJSON(json.dumps([verdict.to_dict() for verdict in verdicts]))
            self.verdicts.put(key, text)
        return text


class ServiceState:
    """Shared, thread-safe state behind all endpoints of one service.

    Parameters mirror the CLI's runtime flags: ``jobs`` is the worker-process
    count of each :class:`BatchEvaluator` (1 = evaluate inline on the request
    thread; request concurrency still comes from the threading server), and
    ``cache_dir`` an optional on-disk cache shared by every context and
    persisted across service restarts.

    ``max_inflight`` bounds concurrent model-work requests (POSTs) before
    the server answers 429 ``backpressure``. ``shared_dir`` (set by the
    multi-worker supervisor) is a run directory shared by sibling worker
    processes: each worker mirrors its status and campaign snapshots there
    so ``/healthz`` and ``GET /campaign/<id>`` see the whole fleet.
    """

    def __init__(
        self,
        *,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[str] = None,
        cache_entries: int = 65536,
        segment_cache_entries: Optional[int] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        shared_dir: Optional[Union[str, Path]] = None,
        worker_index: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.cache_entries = cache_entries
        #: ``None`` keeps the runtime's default segment-cache capacity; the
        #: cache itself is what lets a warm service answer *novel* designs
        #: quickly, not just replayed ones.
        self.segment_cache_entries = segment_cache_entries
        self.started = time.time()
        self._registry_lock = threading.Lock()
        #: runtime context fingerprint (graph content + board + precision)
        #: -> its evaluation context. Content-keyed, so two names for the
        #: same registered graph share one warm evaluator (and its memos),
        #: while a re-registered (edited) graph gets a fresh context.
        self._evaluators: Dict[str, EvaluationContext] = {}
        #: Resolved (graph, board, precision), and the request's (model,
        #: board, precision) as sent, -> its context fingerprint; both
        #: valid for workload-registry generation ``_context_generation``
        #: and guarded by ``_registry_lock`` (see :meth:`evaluator_for`).
        self._context_keys: Dict[Tuple[CNNGraph, FPGABoard, Precision], str] = {}
        self._request_keys = LRUCache(cache_entries)
        self._context_generation: Optional[int] = None
        self._counter_lock = threading.Lock()
        self.request_counts: Dict[str, int] = {}
        self.error_count = 0
        #: Cached GET /models catalog plus the registry generation it was
        #: built against; ``model_catalog()`` rebuilds it whenever a model
        #: registration moves the generation.
        self._catalog_lock = threading.Lock()
        self._model_catalog: Optional[list] = None
        self._catalog_generation: Optional[int] = None
        #: id -> background campaign job (POST /campaign, GET /campaign/<id>).
        self._campaign_lock = threading.Lock()
        self._campaigns: Dict[str, CampaignJob] = {}
        self._campaign_counter = 0
        # --- multi-worker plumbing (no-ops when shared_dir is None) ---
        self.max_inflight = max_inflight
        self.worker_index = worker_index
        self.pid = os.getpid()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        #: All requests between dispatch and fully-written response — what
        #: a draining worker waits out before exiting (the budget counter
        #: alone would let exit race the final response bytes).
        self._active = 0
        self._draining = False
        self.shared_dir = Path(shared_dir) if shared_dir is not None else None
        self._status_path: Optional[Path] = None
        self._last_status_write = 0.0
        if self.shared_dir is not None:
            self.workers_dir = self.shared_dir / "workers"
            self.campaigns_dir = self.shared_dir / "campaigns"
            self.workers_dir.mkdir(parents=True, exist_ok=True)
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            self._status_path = self.workers_dir / f"{self.pid}.json"
        #: O(1) entry counts for /healthz when a disk cache is configured;
        #: reads through the cache's sqlite index, shared across workers.
        self._cache_probe = DiskCache(cache_dir) if cache_dir is not None else None

    # --- backpressure and draining -------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_draining(self) -> None:
        """Enter drain mode: every new request answers 503 ``draining``."""
        self._draining = True

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def try_begin_request(self) -> bool:
        """Claim one slot of the in-flight budget; False when saturated."""
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def end_request(self) -> None:
        with self._inflight_lock:
            if self._inflight > 0:
                self._inflight -= 1

    def track_request(self) -> None:
        with self._inflight_lock:
            self._active += 1

    def untrack_request(self) -> None:
        with self._inflight_lock:
            if self._active > 0:
                self._active -= 1

    @property
    def active_requests(self) -> int:
        """Requests whose responses are not yet fully written."""
        with self._inflight_lock:
            return self._active

    # --- shared worker status board ------------------------------------------
    def worker_status(self) -> Dict[str, Any]:
        """This worker's status snapshot (one /healthz worth of counters)."""
        with self._counter_lock:
            requests = dict(self.request_counts)
            errors = self.error_count
        return {
            "pid": self.pid,
            "worker": self.worker_index,
            "started": round(self.started, 3),
            "updated": round(time.time(), 3),
            "uptime_seconds": round(time.time() - self.started, 3),
            "draining": self._draining,
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "evaluators": self.evaluator_count,
            "requests": requests,
            "errors": errors,
            "cpu_seconds": time.process_time(),
            "runtime": self.runtime_totals().to_dict(),
            "segment_cache": self.segment_cache_totals(),
        }

    def write_worker_status(self, force: bool = False) -> None:
        """Refresh this worker's snapshot in the shared run directory.

        Throttled to :data:`STATUS_WRITE_INTERVAL` so per-request calls stay
        cheap; best effort — a full disk must not fail the request.
        """
        if self._status_path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_status_write < STATUS_WRITE_INTERVAL:
            return
        self._last_status_write = now
        try:
            write_atomic(
                self._status_path,
                json.dumps(self.worker_status()).encode("utf-8"),
                fsync=False,
            )
        except OSError:
            pass

    def read_worker_statuses(self) -> list:
        """Every sibling worker's latest snapshot (including this one's)."""
        if self.shared_dir is None:
            return []
        statuses = []
        for path in self.workers_dir.glob("*.json"):
            status = _read_json(path)
            if status is not None:
                statuses.append(status)
        statuses.sort(key=lambda s: (s.get("worker") or 0, s.get("pid") or 0))
        return statuses

    def shared_cache_entries(self) -> Optional[int]:
        if self._cache_probe is None:
            return None
        return len(self._cache_probe)

    # --- campaign registry ---------------------------------------------------
    def start_campaign(self, campaign: Campaign) -> CampaignJob:
        """Register and launch one background campaign job.

        Settled jobs beyond :data:`MAX_RETAINED_CAMPAIGNS` are evicted
        oldest-first so a long-lived service does not hoard every finished
        campaign's archive; running jobs are never evicted. Refuses (429)
        when :data:`MAX_RUNNING_CAMPAIGNS` are already in flight.
        """
        evicted = []
        with self._campaign_lock:
            running = sum(
                1 for job in self._campaigns.values() if job.state == "running"
            )
            if running >= MAX_RUNNING_CAMPAIGNS:
                raise RequestError(
                    f"{running} campaigns already running (cap "
                    f"{MAX_RUNNING_CAMPAIGNS}); poll them to completion or "
                    "run large campaigns on the CLI",
                    status=429,
                    kind="too_many_campaigns",
                )
            self._campaign_counter += 1
            # In a multi-worker fleet ids carry the owner pid so they stay
            # unique across workers sharing one campaigns/ directory.
            if self.shared_dir is not None:
                campaign_id = f"c{self.pid}-{self._campaign_counter}"
                publish = self._publish_campaign
            else:
                campaign_id = f"c{self._campaign_counter}"
                publish = None
            job = CampaignJob(campaign_id, campaign, publish=publish)
            if self.shared_dir is not None:
                # Mirror the event stream through the shared run dir as an
                # append-only NDJSON file, so ANY worker in the fleet can
                # serve ``GET /campaign/<id>/events`` for this job — the
                # snapshot analogue for streams. Attached before the thread
                # starts; appends are synchronous with each emit, so the
                # file is always ahead of the 0.5s snapshot mirror.
                campaign.events.attach_log(
                    EventLog(self.campaigns_dir / f"{job.id}.events")
                )
            self._campaigns[job.id] = job
            settled = [j for j in self._campaigns.values() if j.state != "running"]
            for stale in settled[: max(0, len(settled) - MAX_RETAINED_CAMPAIGNS)]:
                del self._campaigns[stale.id]
                evicted.append(stale.id)
        for stale_id in evicted:
            self._discard_campaign_snapshot(stale_id)
        job.thread.start()
        return job

    def campaign_job(self, campaign_id: str) -> Optional[CampaignJob]:
        with self._campaign_lock:
            return self._campaigns.get(campaign_id)

    def campaign_jobs(self) -> list:
        with self._campaign_lock:
            return list(self._campaigns.values())

    # --- cross-worker campaign snapshots --------------------------------------
    def _publish_campaign(self, job: CampaignJob) -> None:
        """Mirror one job's wire snapshot into the shared campaigns dir."""
        if self.shared_dir is None:
            return
        write_atomic(
            self.campaigns_dir / f"{job.id}.json",
            json.dumps(job.to_dict()).encode("utf-8"),
            fsync=False,
        )

    def _discard_campaign_snapshot(self, campaign_id: str) -> None:
        if self.shared_dir is None or not _CAMPAIGN_ID_RE.match(campaign_id):
            return
        for suffix in (".json", ".events"):
            try:
                (self.campaigns_dir / f"{campaign_id}{suffix}").unlink()
            except OSError:
                pass

    def campaign_snapshot(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """One campaign's wire payload: a live local job, or — in a worker
        fleet — the snapshot a sibling worker mirrored to disk."""
        job = self.campaign_job(campaign_id)
        if job is not None:
            return job.to_dict()
        if self.shared_dir is None or not _CAMPAIGN_ID_RE.match(campaign_id):
            return None
        return _read_json(self.campaigns_dir / f"{campaign_id}.json")

    def campaign_listing(self) -> list:
        """Every known campaign (local jobs plus siblings' snapshots)."""
        entries: Dict[str, Dict[str, Any]] = {}
        if self.shared_dir is not None:
            for path in sorted(self.campaigns_dir.glob("*.json")):
                snapshot = _read_json(path)
                if snapshot is None or "id" not in snapshot:
                    continue
                entries[snapshot["id"]] = {
                    "id": snapshot["id"],
                    "state": snapshot.get("state"),
                    "name": (snapshot.get("campaign") or {}).get("name"),
                    "started": snapshot.get("started"),
                }
        for job in self.campaign_jobs():
            entries[job.id] = {
                "id": job.id,
                "state": job.state,
                "name": job.campaign.spec.name,
                "started": round(job.started, 3),
            }
        return sorted(entries.values(), key=lambda e: (e["started"] or 0, e["id"]))

    # --- workload catalog ----------------------------------------------------
    def model_catalog(self) -> list:
        """The ``GET /models`` catalog, tracking live registry state.

        Cached against the workload registry's generation counter: a model
        registered through ``POST /models`` (or the Python API in an
        embedded service) bumps the generation, so the next request rebuilds
        the catalog instead of serving a stale listing.
        """
        generation = REGISTRY.models.generation
        with self._catalog_lock:
            if (
                self._model_catalog is not None
                and self._catalog_generation == generation
            ):
                return self._model_catalog
        # Build outside the lock: racing requests may duplicate the work,
        # but never block each other behind graph construction.
        catalog = [
            model_summary(REGISTRY.models.entry(name)) for name in REGISTRY.models.names()
        ]
        with self._catalog_lock:
            self._model_catalog = catalog
            self._catalog_generation = generation
        return catalog

    # --- evaluator registry --------------------------------------------------
    def evaluator_for(
        self, model: str, board: str, precision: Precision
    ) -> EvaluationContext:
        """The shared evaluation context for one (model, board, precision).

        Callers must hold the context's ``lock`` around any use of its
        evaluator or memos; contexts are independent, so requests for
        different (model, board, precision) triples still run concurrently.

        The evaluator map is keyed by the runtime's *content-derived*
        context fingerprint — the same path every other layer uses. Two
        memos find that key, both valid for one workload-registry
        generation (a registration may change what a name means, and
        ``replace=True`` may even hand back the same graph object with
        edited content):

        * the request's (model, board, precision) as sent -> its key, so a
          repeated request neither resolves names nor hashes anything. A
          hit still moves the context to the LRU end; only names that
          resolved are memoized, so unknown names and unsupported
          precisions keep failing on every call;
        * the resolved (graph, board, precision) -> its key, so spellings
          of one context (``SqueezeNet``, ``sqz``) share one fingerprint
          run, which reruns shape inference and hashes the whole context.
        """
        request = (model, board, precision)
        # Read before resolving: a registration racing this call then
        # leaves a memo that the next call drops.
        generation = REGISTRY.generation
        with self._registry_lock:
            if generation == self._context_generation:
                key = self._request_keys.get(request)
                entry = self._evaluators.pop(key, None) if key is not None else None
                if entry is not None:
                    self._evaluators[key] = entry
                    return entry
        graph = REGISTRY.model(model)
        fpga = REGISTRY.board(board, precision=precision)
        evicted = []
        with self._registry_lock:
            if generation != self._context_generation:
                self._context_keys.clear()
                self._request_keys.clear()
                self._context_generation = generation
            context = (graph, fpga, precision)
            key = self._context_keys.get(context)
            if key is None:
                key = self._context_keys[context] = context_fingerprint(*context)
            entry = self._evaluators.pop(key, None)
            if entry is None:
                # Graph construction is cached by the registry, so building
                # the evaluator here is the only per-context cost.
                evaluator = BatchEvaluator(
                    graph,
                    fpga,
                    precision,
                    jobs=self.jobs,
                    cache_entries=self.cache_entries,
                    cache_dir=self.cache_dir,
                    segment_cache_entries=self.segment_cache_entries,
                )
                entry = EvaluationContext(evaluator, self.cache_entries)
            # Re-insert at the end: the dict doubles as LRU order, so
            # re-registered (content-edited) workloads eventually push
            # their stale contexts out instead of leaking them.
            self._evaluators[key] = entry
            self._request_keys.put(request, key)
            while len(self._evaluators) > MAX_EVALUATOR_CONTEXTS:
                evicted.append(self._evaluators.pop(next(iter(self._evaluators))))
        for stale in evicted:
            # Close outside the registry lock; taking the per-evaluator lock
            # waits out any request still using it (requests never acquire
            # the registry lock while holding an evaluator lock, so this
            # cannot deadlock).
            with stale.lock:
                stale.evaluator.close()
        return entry

    def runtime_totals(self) -> RunStats:
        """Lifetime counters aggregated across every context's evaluator."""
        totals = RunStats(jobs=self.jobs if isinstance(self.jobs, int) else 1)
        with self._registry_lock:
            evaluators = [context.evaluator for context in self._evaluators.values()]
        for evaluator in evaluators:
            totals.absorb(evaluator.totals)
        return totals

    def segment_cache_totals(self) -> Dict[str, int]:
        """Aggregate segment-cache counters across every context's evaluator."""
        totals = {"entries": 0, "hits": 0, "misses": 0, "evaluations": 0}
        with self._registry_lock:
            caches = [
                context.evaluator.segment_cache
                for context in self._evaluators.values()
            ]
        for cache in caches:
            if cache is None:
                continue
            info = cache.info()
            for key in totals:
                totals[key] += info[key]
        return totals

    @property
    def evaluator_count(self) -> int:
        with self._registry_lock:
            return len(self._evaluators)

    def close(self) -> None:
        """Tear down every evaluator's worker pool (idempotent)."""
        with self._registry_lock:
            contexts = list(self._evaluators.values())
            self._evaluators.clear()
        for context in contexts:
            context.evaluator.close()
        if self._cache_probe is not None:
            self._cache_probe.close()

    # --- request accounting --------------------------------------------------
    def count_request(self, endpoint: str, ok: bool) -> None:
        with self._counter_lock:
            self.request_counts[endpoint] = self.request_counts.get(endpoint, 0) + 1
            if not ok:
                self.error_count += 1


def _resolve_spec(
    evaluator: BatchEvaluator, architecture: str, ce_count: Optional[int]
) -> ArchitectureSpec:
    """Template name or notation string -> spec, with service-side errors."""
    text = architecture.strip()
    if text.startswith("{"):
        return parse_notation(text)
    name = text.lower()
    if name not in TEMPLATES:
        raise RequestError(
            f"unknown architecture template {architecture!r}; "
            f"available: {sorted(TEMPLATES)} (or a notation string)",
            status=404,
            kind="unknown_architecture",
        )
    if ce_count is None:
        raise RequestError(f"template {architecture!r} needs an explicit ce_count")
    return build_template(name, evaluator.builder.conv_specs, ce_count)


# --- GET endpoints ------------------------------------------------------------


def handle_healthz(state: ServiceState) -> Response:
    totals = state.runtime_totals()
    with state._counter_lock:
        requests = dict(state.request_counts)
        errors = state.error_count
    payload = {
        "status": "ok",
        "version": repro.__version__,
        "uptime_seconds": round(time.time() - state.started, 3),
        "evaluators": state.evaluator_count,
        "jobs": state.jobs,
        "cache_dir": state.cache_dir,
        "inflight": state.inflight,
        "max_inflight": state.max_inflight,
        "draining": state.draining,
        "requests": requests,
        "errors": errors,
        "cpu_seconds": time.process_time(),
        "runtime": totals.to_dict(),
        "segment_cache": state.segment_cache_totals(),
    }
    if state.cache_dir is not None:
        payload["shared_cache"] = {
            "dir": state.cache_dir,
            "entries": state.shared_cache_entries(),
        }
    if state.shared_dir is not None:
        # Multi-worker fleet: fold every sibling's snapshot in so one
        # /healthz (served by whichever worker accepted it) reports the
        # whole service, with the per-worker breakdown alongside.
        state.write_worker_status(force=True)
        workers = state.read_worker_statuses()
        payload["workers"] = workers
        payload["worker_count"] = len(workers)
        payload["requests"] = _sum_counter_dicts(w.get("requests", {}) for w in workers)
        payload["errors"] = sum(w.get("errors", 0) for w in workers)
        payload["cpu_seconds"] = sum(w.get("cpu_seconds", 0.0) for w in workers)
        payload["evaluators"] = sum(w.get("evaluators", 0) for w in workers)
        payload["inflight"] = sum(w.get("inflight", 0) for w in workers)
        runtime = _sum_counter_dicts(w.get("runtime", {}) for w in workers)
        # Summing rates and pool sizes is meaningless: jobs is per-worker
        # (report the max), hit_rate is recomputed from the summed counters.
        runtime["jobs"] = max(
            (w.get("runtime", {}).get("jobs", 1) for w in workers), default=1
        )
        submitted = runtime.get("submitted", 0)
        runtime["hit_rate"] = (
            runtime.get("cache_hits", 0) / submitted if submitted else 0.0
        )
        payload["runtime"] = runtime
        payload["segment_cache"] = _sum_counter_dicts(
            w.get("segment_cache", {}) for w in workers
        )
    return 200, payload


def handle_models(state: ServiceState) -> Response:
    return 200, {"models": state.model_catalog()}


def handle_boards(state: ServiceState) -> Response:
    boards = []
    for name in REGISTRY.boards.names():
        entry = REGISTRY.boards.entry(name)
        boards.append({**entry.definition, "custom": not entry.builtin})
    return 200, {"boards": boards}


def handle_rules_list(state: ServiceState) -> Response:
    """``GET /rules``: every registered constraint ruleset, with definitions."""
    rulesets = [ruleset_summary(RULES.entry(name)) for name in RULES.names()]
    return 200, {"rulesets": rulesets}


# --- POST endpoints -----------------------------------------------------------


def handle_model_register(
    state: ServiceState, request: ModelRegisterRequest
) -> Response:
    """``POST /models``: register a user-defined CNN with the live registry.

    Registration is in-memory for the service's lifetime (persistent
    registration belongs to ``repro models register`` on the host).
    Conflicts surface as 409 ``workload_conflict``; malformed graphs as
    400 ``shape_error``. Returns 201 with the catalog entry.
    """
    name = REGISTRY.models.register(
        request.definition, replace=request.replace, source="http"
    )
    return 201, model_summary(REGISTRY.models.entry(name))


def handle_board_register(
    state: ServiceState, request: BoardRegisterRequest
) -> Response:
    """``POST /boards``: register a user-defined FPGA board (in-memory)."""
    name = REGISTRY.boards.register(
        request.definition, replace=request.replace, source="http"
    )
    entry = REGISTRY.boards.entry(name)
    return 201, {**entry.definition, "custom": not entry.builtin}


def handle_ruleset_register(
    state: ServiceState, request: RulesetRegisterRequest
) -> Response:
    """``POST /rules``: register a constraint ruleset (in-memory).

    Conflicts surface as 409 ``workload_conflict``; malformed rule schemas
    as 400 ``rule_error``. Returns 201 with the catalog entry.
    """
    name = RULES.register(request.definition, replace=request.replace, source="http")
    return 201, ruleset_summary(RULES.entry(name))


def _verdict_dicts(request, report, board) -> list:
    """Rule verdicts for one wire response, as plain dicts.

    Verdicts are carried at the *top level* of service responses — never
    inside the report dict — so wire reports stay byte-identical to the
    library's rules-off form (the CI smoke test compares them against the
    CLI's output). With no ``rules`` requested, the pre-registered
    ``builtin:resources`` ruleset evaluates, making the report's
    ``fits_onchip`` boolean and its verdict two views of one code path.
    """
    if report is None:
        return []
    name = request.rules if request.rules is not None else BUILTIN_RESOURCES
    verdicts = evaluate_rules(
        report, name, board=board, precision=request.precision
    )
    return [verdict.to_dict() for verdict in verdicts]


def handle_evaluate(state: ServiceState, request: EvaluateRequest) -> Response:
    """``POST /evaluate``: one design, through the context's shared cache.

    A replayed design costs a cache read: its spec and fingerprint, its
    report's JSON text and its verdicts' JSON text come from the context's
    memos, so only the small envelope around them is encoded per request.
    """
    context = state.evaluator_for(request.model, request.board, request.precision)
    rules = request.rules if request.rules is not None else BUILTIN_RESOURCES
    base = {
        "model": request.model,
        "board": request.board,
        "architecture": request.architecture,
        "ce_count": request.ce_count,
        "precision": precision_to_dict(request.precision),
        "rules": rules,
    }
    with context.lock:
        try:
            spec, key = context.spec_for(request.architecture, request.ce_count)
        except ResourceError as error:
            # Infeasible before evaluation even starts (e.g. more CEs than
            # layers): an answer, not an error — same contract as api.sweep.
            base.update(
                {"feasible": False, "cached": False, "report": None,
                 "reason": f"{type(error).__name__}: {error}", "verdicts": []}
            )
            return 200, base
        item = next(iter(context.evaluator.stream([spec], keys=[key])))
        report = context.report_json(item)
        verdicts = context.verdicts_json(item, rules)
    base.update(
        {
            "feasible": item.feasible,
            "cached": item.cached,
            "fingerprint": item.key,
            "report": report,
            "reason": item.reason,
            "verdicts": verdicts,
        }
    )
    return 200, base


def handle_sweep(state: ServiceState, request: SweepRequest) -> Response:
    context = state.evaluator_for(request.model, request.board, request.precision)
    evaluator = context.evaluator
    with context.lock:
        result = sweep(
            evaluator.graph,
            evaluator.board,
            architectures=request.architectures,
            ce_counts=request.ce_counts,
            precision=request.precision,
            runtime=evaluator,
        )
    payload = result.to_dict()
    payload.update(
        {
            "model": request.model,
            "board": request.board,
            "precision": precision_to_dict(request.precision),
            "rules": request.rules
            if request.rules is not None
            else BUILTIN_RESOURCES,
            # Aligned with "reports": verdicts[i] judges reports[i].
            "verdicts": [
                _verdict_dicts(request, report, evaluator.board)
                for report in result
            ],
        }
    )
    return 200, payload


def handle_campaign_start(state: ServiceState, request: CampaignRequest) -> Response:
    """``POST /campaign``: launch a campaign on a background thread.

    Returns 202 immediately with the job id; progress and the final fronts
    come from polling ``GET /campaign/<id>``. The campaign runs in memory
    (no checkpoint file) — crash-safe resumable campaigns belong to the
    CLI, where the checkpoint path outlives the process.
    """
    campaign = Campaign(
        request.spec, None, jobs=state.jobs, cache_dir=state.cache_dir
    )
    job = state.start_campaign(campaign)
    return 202, {
        "id": job.id,
        "state": job.state,
        "name": request.spec.name,
        "strategy": request.spec.strategy,
        "budget": request.spec.budget(),
        "cells": len(request.spec.cells),
        "poll": f"/campaign/{job.id}",
    }


def handle_campaign_get(state: ServiceState, campaign_id: str) -> Response:
    """``GET /campaign/<id>``: a live snapshot of one background campaign.

    In a worker fleet the job may live in a sibling process; its mirrored
    snapshot from the shared run directory answers then, so clients need
    not care which worker accepted the original ``POST /campaign``.
    """
    snapshot = state.campaign_snapshot(campaign_id)
    if snapshot is None:
        known = [entry["id"] for entry in state.campaign_listing()]
        raise RequestError(
            f"no campaign {campaign_id!r}; known: {known}",
            status=404,
            kind="unknown_campaign",
        )
    return 200, snapshot


def handle_campaign_list(state: ServiceState) -> Response:
    """``GET /campaign``: every job this service (all workers) started."""
    return 200, {"campaigns": state.campaign_listing()}


def _campaign_event_stream(
    state: ServiceState,
    campaign_id: str,
    job: Optional[CampaignJob],
    after: int,
) -> Iterator[bytes]:
    """Yield NDJSON event lines for one campaign until it terminates.

    A local job streams from its in-memory buffer; a sibling worker's job
    streams by tailing the shared-dir event file the owner appends to.
    Both sources carry identical canonical bytes, so a client reconnecting
    at an offset gets the same stream whichever worker answers. The stream
    ends on a terminal event (``campaign_done``/``error``), when this
    worker starts draining, or shortly after the campaign settles/vanishes
    without one (eviction).
    """
    cursor = after
    settled_polls = 0
    events_file = (
        state.campaigns_dir / f"{campaign_id}.events"
        if state.shared_dir is not None
        else None
    )
    while True:
        if job is not None:
            batch = job.events_after(cursor)
        else:
            batch = read_events(events_file, after=cursor)
        for event in batch:
            cursor = event.seq
            yield event.to_line()
            if event.type in TERMINAL_EVENT_TYPES:
                return
        if state.draining:
            return
        if job is not None:
            running = job.state == "running"
        else:
            snapshot = state.campaign_snapshot(campaign_id)
            running = snapshot is not None and snapshot.get("state") == "running"
        if running:
            settled_polls = 0
        else:
            settled_polls += 1
            if settled_polls > STREAM_SETTLED_GRACE_POLLS:
                return
        time.sleep(STREAM_POLL_SECONDS)


def handle_campaign_events(
    state: ServiceState, campaign_id: str, query: Mapping[str, str]
) -> StreamingResponse:
    """``GET /campaign/<id>/events``: live chunked-NDJSON event stream.

    ``?after=<seq>`` (or a ``Last-Event-Id: <seq>`` header, which the
    server maps to the same parameter) resumes after a dropped connection:
    only events with ``seq`` strictly greater than the offset are sent, so
    a reconnecting client sees no duplicates and no gaps.
    """
    raw_after = query.get("after", "0")
    try:
        after = int(raw_after)
    except (TypeError, ValueError):
        raise RequestError(
            f"after must be an integer event seq, got {raw_after!r}",
            kind="bad_request",
        ) from None
    if after < 0:
        raise RequestError(f"after must be >= 0, got {after}", kind="bad_request")
    job = state.campaign_job(campaign_id)
    if job is None and state.campaign_snapshot(campaign_id) is None:
        known = [entry["id"] for entry in state.campaign_listing()]
        raise RequestError(
            f"no campaign {campaign_id!r}; known: {known}",
            status=404,
            kind="unknown_campaign",
        )
    return StreamingResponse(
        chunks=_campaign_event_stream(state, campaign_id, job, after)
    )


def handle_campaign_path(
    state: ServiceState, suffix: str, query: Mapping[str, str]
) -> Union[Response, StreamingResponse]:
    """Route ``GET /campaign/<id>`` and ``GET /campaign/<id>/events``."""
    campaign_id, _, tail = suffix.partition("/")
    if not tail:
        return handle_campaign_get(state, campaign_id)
    if tail == "events":
        return handle_campaign_events(state, campaign_id, query)
    raise RequestError(
        f"no such campaign endpoint {tail!r}; expected /campaign/<id> "
        "or /campaign/<id>/events",
        status=404,
        kind="unknown_endpoint",
    )


def handle_dse(state: ServiceState, request: DseRequest) -> Response:
    context = state.evaluator_for(request.model, request.board, request.precision)
    evaluator = context.evaluator
    space = CustomDesignSpace(evaluator.graph.conv_specs())
    # The DesignEvaluator is a veneer over the *shared* runtime; it is not
    # closed here because closing it would tear down the service's evaluator.
    design_evaluator = DesignEvaluator(
        evaluator.graph, evaluator.board, request.precision, runtime=evaluator
    )
    with context.lock:
        result = random_search(
            design_evaluator,
            space,
            samples=request.samples,
            seed=request.seed,
            cost_metric=request.cost_metric,
        )
    payload = result.to_dict()
    payload.update(
        {
            "model": request.model,
            "board": request.board,
            "precision": precision_to_dict(request.precision),
            "samples": request.samples,
            "seed": request.seed,
            "space_size": space.size(),
        }
    )
    return 200, payload
