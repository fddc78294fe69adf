"""Endpoint logic and the process-wide shared evaluator state.

The service's whole point is that many clients share one warm evaluation
cache: :class:`ServiceState` keeps a single :class:`BatchEvaluator` per
(CNN, board, precision) context — created lazily on first use, keyed by the
runtime's context fingerprint — and every endpoint routes its model work
through it. Every context's evaluator reads and fills one in-memory report
LRU, and ``/evaluate`` keeps one replay memo; :data:`MEMORY_BUDGET` bounds
each. Repeated and concurrent requests for the same design therefore cost
one evaluation total, and a request replayed against a warm service
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
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set,
    Tuple, Union,
)

import repro
from repro.api import sweep_grid
from repro.cnn.graph import CNNGraph
from repro.core.architectures import TEMPLATES, build_template
from repro.core.cost.export import RawJSON, report_json
from repro.core.notation import ArchitectureSpec, parse_notation
from repro.dse.events import (
    TERMINAL_EVENT_TYPES,
    CampaignEvent,
    EventLog,
    read_events,
)
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import Precision
from repro.runtime import BatchEvaluator, RunStats
from repro.runtime.cache import DiskCache, LRUCache
from repro.runtime.fingerprint import context_fingerprint
from repro.rules import BUILTIN_RESOURCES
from repro.rules import REGISTRY as RULES
from repro.rules.engine import evaluate_rules
from repro.rules.registry import ruleset_summary
from repro.service.schema import (
    CampaignRequest,
    DseRequest,
    EvaluateRequest,
    RegisterRequest,
    RequestError,
    SweepRequest,
    precision_to_dict,
)
from repro.utils.atomic import write_atomic
from repro.utils.errors import ResourceError
from repro.utils.registry import Entry, Registry
from repro.workloads import REGISTRY
from repro.workloads.registry import model_summary

if TYPE_CHECKING:  # campaigns and searches load the DSE layer when they arrive
    from repro.dse.campaign import Campaign

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
#: would otherwise grow the evaluator map forever; the least-recently-used
#: context beyond this cap is closed and dropped (its reports stay in the
#: worker's LRU).
MAX_EVALUATOR_CONTEXTS = 32

#: Entries a worker keeps warm in each of its two in-memory stores: the
#: report LRU every context's evaluator shares, and the ``/evaluate``
#: replay memo. It is the whole bound on a worker's warm state, however
#: many contexts it serves.
MEMORY_BUDGET = 65536

#: Default bound on model-work requests (POSTs) in flight per worker.
#: Beyond it the server answers a typed 429 with Retry-After instead of
#: piling up model work until the host thrashes.
DEFAULT_MAX_INFLIGHT = 64

#: How often (seconds) a fleet worker's status thread rewrites its snapshot
#: in the shared run directory; /healthz writes a fresh one as well.
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


class NeedsThread(Exception):
    """A serving loop met work it does not do: a context whose lock another
    thread holds, a request the replay memo lacks (answering it resolves
    names, and may hash and build a context), a design the worker's
    in-memory cache lacks (answering it evaluates, or reads and writes the
    disk tier), a stale registry catalog (``GET /models|/boards|/rules``),
    or a ``/healthz`` or ``/campaign`` answer that reads or writes files.

    The loop never waits on a lock or on work it cannot bound, so the
    server moves the request to a thread of its own (see :func:`never_wait`).
    """


_loop_thread = threading.local()


def never_wait(on: bool = True) -> None:
    """On the calling thread, raise :class:`NeedsThread` where a request
    would wait on a context's lock, look up or build a context, miss the
    in-memory cache or touch the disk (``on=False`` undoes it)."""
    _loop_thread.never_wait = on


def _on_loop() -> bool:
    return getattr(_loop_thread, "never_wait", False)


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


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """One shared-directory document, or None on any read/parse race."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


#: The fields of a worker's status record (:meth:`ServiceState.worker_status`)
#: that ``/healthz`` sums over the workers it lists (see :func:`_summed_status`).
SUMMED_FIELDS = ("evaluators", "inflight", "requests", "errors", "cpu_seconds", "runtime", "memory")


def _sum_records(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Key-wise sums of the numbers in ``records``, nested dicts summed
    the same way; other values (None, booleans, text) drop out."""
    totals: Dict[str, Any] = {}
    for record in records:
        for key, value in record.items():
            if isinstance(value, Mapping):
                totals[key] = _sum_records([totals.get(key, {}), value])
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


def _summed_status(workers: List[Mapping[str, Any]], budget: int) -> Dict[str, Any]:
    """The :data:`SUMMED_FIELDS` of ``workers``' status records, summed."""
    totals = _sum_records({field: worker[field] for field in SUMMED_FIELDS} for worker in workers)
    runtime, memory = totals["runtime"], totals["memory"]
    # A pool size and a rate do not add up: jobs is the largest worker's,
    # and hit_rate is recomputed from the summed counters.
    runtime["jobs"] = max(worker["runtime"]["jobs"] for worker in workers)
    submitted = runtime["submitted"]
    runtime["hit_rate"] = runtime["cache_hits"] / submitted if submitted else 0.0
    # Entries and RSS add up; the budget is each worker's.
    memory["budget"] = budget
    memory["rss_mib"] = round(memory["rss_mib"], 2) if "rss_mib" in memory else None
    return totals


class CampaignJob:
    """One background campaign: the runner thread plus its lifecycle state.

    The campaign itself is the source of truth for progress (its
    ``result()`` snapshot is thread-safe); the job only adds the thread
    and a terminal error, if any. Campaigns deliberately do *not* share
    the service's per-context evaluators: a long campaign holding an
    evaluator lock would starve interactive ``/evaluate`` traffic, so each
    cell builds its own evaluator on the campaign thread.

    ``publish`` (optional) writes the job's snapshot where sibling workers
    read it, so any worker of a fleet can answer ``GET /campaign/<id>``.
    It runs once at registration (:meth:`ServiceState.start_campaign`,
    before the id is handed out and the thread starts), then only on the
    campaign thread: after every event, the only moments the job's state
    changes, and once when the run settles.
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
        self.publish_snapshot()

    def events_after(self, seq: int) -> List[CampaignEvent]:
        """Buffered events with ``seq`` beyond the cursor, oldest first."""
        with self._events_lock:
            return [event for event in self._events if event.seq > seq]

    def publish_snapshot(self) -> None:
        """Write the current state to the shared store (best effort)."""
        if self._publish is None:
            return
        try:
            self._publish(self)
        except Exception:  # noqa: BLE001 - a snapshot must never kill the run
            pass

    def _run(self) -> None:
        try:
            self.campaign.run()
        except Exception as error:  # noqa: BLE001 - reported via polling
            self.error = f"{type(error).__name__}: {error}"
        finally:
            self.finished = time.time()
            self.publish_snapshot()

    @property
    def ended(self) -> bool:
        """Whether the thread ran and returned, its last snapshot written."""
        return self.thread.ident is not None and not self.thread.is_alive()

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
    """One (CNN, board, precision) context: its shared evaluator and the
    lock callers hold around any use of it (``BatchEvaluator`` is not
    itself thread-safe: ``last_run``, the worker pool).

    ``with context:`` holds the lock; on a :func:`never_wait` thread a held
    lock raises :class:`NeedsThread` instead of waiting.
    """

    def __init__(self, evaluator: BatchEvaluator) -> None:
        self.evaluator = evaluator
        self.lock = threading.Lock()
        #: Set when the worker evicts the context: what moves the counts of
        #: a request that took the lock after the eviction into the
        #: worker's lifetime totals, which no longer read this evaluator.
        self.retired: Optional[Callable[["EvaluationContext"], None]] = None

    def __enter__(self) -> "EvaluationContext":
        if not self.lock.acquire(not _on_loop()):
            raise NeedsThread()
        return self

    def __exit__(self, *_exc) -> None:
        if self.retired is not None:
            self.retired(self)
        self.lock.release()


class Replay(NamedTuple):
    """What a warm ``POST /evaluate`` reuses: the fingerprints of its
    context and its design, the resolved spec, and the JSON texts of the
    report (None when infeasible) and of the verdicts; or, for a spec that
    cannot be built, only why. A tuple, because a worker may hold 65,536
    of them."""

    context: str
    spec: Optional[ArchitectureSpec]
    key: Optional[str] = None
    report: Optional[RawJSON] = None
    verdicts: Optional[RawJSON] = None
    reason: Optional[str] = None


def rss_mib() -> Optional[float]:
    """This process's resident MiB (``VmRSS``), or None without ``/proc``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            kib = next(line.split()[1] for line in status if line.startswith("VmRSS:"))
    except (OSError, StopIteration):
        return None
    return round(int(kib) / 1024, 2)


class ServiceState:
    """Shared, thread-safe state behind all endpoints of one service.

    Parameters mirror the CLI's runtime flags: ``jobs`` is the worker-process
    count of each :class:`BatchEvaluator` (1 = evaluate inline on the thread
    that serves the request), and ``cache_dir`` an optional on-disk cache
    shared by every context and persisted across service restarts.

    The worker's warm state is two stores of at most :data:`MEMORY_BUDGET`
    entries each: ``memory``, the report LRU every context's evaluator
    shares, and ``replays``, the ``/evaluate`` replay memo.

    ``max_inflight`` bounds concurrent model-work requests (POSTs) before
    the server answers 429 ``backpressure``. ``shared_dir`` (set by the
    multi-worker supervisor) is a run directory shared by sibling worker
    processes: each worker writes its status and campaign snapshots there
    so ``/healthz`` and ``GET /campaign/<id>`` see the whole fleet.
    """

    def __init__(
        self,
        *,
        jobs: Union[int, str] = 1,
        cache_dir: Optional[str] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        shared_dir: Optional[Union[str, Path]] = None,
        worker_index: Optional[int] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.started = time.time()
        self.memory = LRUCache(MEMORY_BUDGET)
        #: (request, workload generation, rule generation) -> its Replay.
        self.replays = LRUCache(MEMORY_BUDGET)
        #: Guards the three below; the serving loop takes it.
        self._registry_lock = threading.Lock()
        #: runtime context fingerprint (graph content + board + precision)
        #: -> its evaluation context, least recently used first. Content-
        #: keyed, so two names for the same registered graph share one
        #: evaluator, while a re-registered (edited) graph gets a fresh one.
        self._evaluators: Dict[str, EvaluationContext] = {}
        #: Evicted contexts whose last requests may still run, and the
        #: summed counters of the closed ones: lifetime totals include both.
        self._evicted: Set[EvaluationContext] = set()
        self._retired = RunStats(jobs=jobs if isinstance(jobs, int) else 1)
        #: Held while a context is hashed or built; the loop never takes it.
        self._build_lock = threading.Lock()
        #: Resolved (graph, board, precision) -> its context fingerprint,
        #: valid for workload-registry generation ``_context_generation``.
        self._context_keys: Dict[Tuple[CNNGraph, FPGABoard, Precision], str] = {}
        self._context_generation: Optional[int] = None
        self._counter_lock = threading.Lock()
        self.request_counts: Dict[str, int] = {}
        self.error_count = 0
        #: registry -> (the generation its GET catalog was built against,
        #: that catalog); ``catalog()`` rebuilds one whenever a
        #: registration moves its registry's generation.
        self._catalog_lock = threading.Lock()
        self._catalogs: Dict[Registry, Tuple[int, list]] = {}
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
        self._status_stop = threading.Event()
        self._status_thread: Optional[threading.Thread] = None
        if self.shared_dir is not None:
            self.workers_dir = self.shared_dir / "workers"
            self.campaigns_dir = self.shared_dir / "campaigns"
            self.workers_dir.mkdir(parents=True, exist_ok=True)
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            self._status_path = self.workers_dir / f"{self.pid}.json"
            # Requests only count; this thread publishes the counts, so no
            # request waits on the write and a burst's tail is not lost.
            self._status_thread = threading.Thread(
                target=self._publish_worker_status,
                name="repro-worker-status",
                daemon=True,
            )
            self._status_thread.start()
        #: Counts the disk tier's entry files for /healthz, which counts
        #: off the serving loop; opened here, so no request opens one.
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
        """This worker's status record, the one place its counters are read."""
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
            "memory": {
                "entries": len(self.memory),
                "replays": len(self.replays),
                "budget": self.memory.max_entries,
                "rss_mib": rss_mib(),
            },
        }

    def write_worker_status(self, status: Dict[str, Any]) -> None:
        """Write ``status``, a record of :meth:`worker_status`, as this
        worker's status file in the shared run directory.

        Best effort: a full disk must not fail the caller.
        """
        if self._status_path is None:
            return
        try:
            write_atomic(
                self._status_path,
                json.dumps(status).encode("utf-8"),
                fsync=False,
            )
        except OSError:
            pass

    def _publish_worker_status(self) -> None:
        while not self._status_stop.wait(STATUS_WRITE_INTERVAL):
            self.write_worker_status(self.worker_status())

    def worker_statuses(self, own: Dict[str, Any]) -> List[Dict[str, Any]]:
        """``own``, this worker's status record, and in a fleet every
        sibling's latest status file, by worker index. ``own`` is written
        to this worker's file first, so siblings read it as fresh."""
        statuses = {self.pid: own}
        if self.shared_dir is not None:
            self.write_worker_status(own)
            for path in self.workers_dir.glob("*.json"):
                status = _read_json(path)
                if status is not None:
                    statuses.setdefault(status.get("pid"), status)
        return sorted(statuses.values(), key=lambda s: (s.get("worker") or 0, s.get("pid") or 0))

    # --- campaign registry ---------------------------------------------------
    def start_campaign(self, campaign: Campaign) -> CampaignJob:
        """Register and launch one background campaign job.

        Jobs whose thread has ended, beyond :data:`MAX_RETAINED_CAMPAIGNS`,
        are evicted oldest-first so a long-lived service does not hoard
        every finished campaign's archive; no other job is. Refuses (429)
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
                # Write the event stream through the shared run dir as an
                # append-only NDJSON file, so ANY worker in the fleet can
                # serve ``GET /campaign/<id>/events`` for this job — the
                # snapshot analogue for streams. Attached before the thread
                # starts; each emit appends before the job rewrites its
                # snapshot, so the file is never behind the snapshot.
                campaign.events.attach_log(
                    EventLog(self.campaigns_dir / f"{job.id}.events")
                )
            self._campaigns[job.id] = job
            # A settled job whose thread has not ended may still write its
            # snapshot, which would outlive the files removed below.
            settled = [j for j in self._campaigns.values() if j.ended]
            for stale in settled[: max(0, len(settled) - MAX_RETAINED_CAMPAIGNS)]:
                del self._campaigns[stale.id]
                evicted.append(stale.id)
        for stale_id in evicted:
            self._discard_campaign_snapshot(stale_id)
        # The first snapshot is on the shared dir before the id leaves this
        # worker, so a sibling never answers 404 for a campaign the fleet
        # has already handed out.
        job.publish_snapshot()
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
        """Write one job's wire snapshot into the shared campaigns dir."""
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
        fleet — the snapshot a sibling worker wrote to disk."""
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

    # --- registry catalogs ---------------------------------------------------
    def catalog(self, registry: Registry, summary: Callable[[Entry], Dict[str, Any]]) -> list:
        """A registry's ``GET`` catalog (``summary`` of every entry, by
        name), tracking live registry state.

        Cached against the registry's generation counter: a registration
        through ``POST`` (or the Python API in an embedded service) bumps
        the generation, so the next request rebuilds the catalog instead of
        serving a stale listing.
        """
        generation = registry.generation
        with self._catalog_lock:
            cached = self._catalogs.get(registry)
        if cached is not None and cached[0] == generation:
            return cached[1]
        if _on_loop():
            raise NeedsThread()  # a models build summarizes every registered graph
        # Build outside the lock: racing requests may duplicate the work,
        # but never block each other behind graph construction.
        catalog = [summary(registry.entry(name)) for name in registry.names()]
        with self._catalog_lock:
            self._catalogs[registry] = (generation, catalog)
        return catalog

    # --- evaluator registry --------------------------------------------------
    def context(self, key: str) -> Optional[EvaluationContext]:
        """The built context whose fingerprint is ``key`` (now the most
        recently used), or None."""
        with self._registry_lock:
            entry = self._evaluators.pop(key, None)
            if entry is not None:
                self._evaluators[key] = entry
            return entry

    def evaluator_for(
        self, model: str, board: str, precision: Precision
    ) -> EvaluationContext:
        """The shared evaluation context for one (model, board, precision).

        Callers must hold the context's ``lock`` around any use of its
        evaluator; contexts are independent, so requests for different
        (model, board, precision) triples still run concurrently.

        The evaluator map is keyed by the runtime's *content-derived*
        context fingerprint. A memo maps the resolved (graph, board,
        precision) to it, so spellings of one context (``SqueezeNet``,
        ``sqz``) share one fingerprint run (0.4-2.1 ms for a zoo model). The
        memo is valid for one workload-registry generation: a registration
        may change what a name means, and ``replace=True`` may even hand
        back the same graph object with edited content. Hashing and
        building hold the build lock, so each context is hashed and built
        once however many requests race for it, while the serving loop,
        which raises :class:`NeedsThread` here, waits on none of it.
        """
        if _on_loop():
            raise NeedsThread()  # resolving names, hashing, building
        # Read before resolving: a registration racing this call then
        # leaves a memo that the next call drops.
        generation = REGISTRY.generation
        graph = REGISTRY.model(model)
        fpga = REGISTRY.board(board, precision=precision)
        resolved = (graph, fpga, precision)
        evicted = []
        with self._build_lock:
            if generation != self._context_generation:
                self._context_keys.clear()
                self._context_generation = generation
            key = self._context_keys.get(resolved)
            if key is None:
                key = self._context_keys[resolved] = context_fingerprint(*resolved)
            entry = self.context(key)
            if entry is None:
                entry = EvaluationContext(BatchEvaluator(
                    *resolved, jobs=self.jobs, memory=self.memory, cache_dir=self.cache_dir
                ))
                with self._registry_lock:
                    # The dict doubles as LRU order, so re-registered
                    # (content-edited) workloads eventually push their
                    # stale contexts out instead of leaking them.
                    self._evaluators[key] = entry
                    while len(self._evaluators) > MAX_EVALUATOR_CONTEXTS:
                        evicted.append(self._evaluators.pop(next(iter(self._evaluators))))
                    self._evicted.update(evicted)
        for stale in evicted:
            # Holding no other lock: taking the context's lock waits out
            # any request still using it, whose counts then stay with the
            # worker's lifetime totals; a request that takes it later
            # moves its own there on leaving.
            with stale.lock:
                stale.evaluator.close()
                self._retire(stale)
                stale.retired = self._retire
        return entry

    def _retire(self, context: EvaluationContext) -> None:
        """Move an evicted context's counts so far into the closed
        contexts' sum."""
        evaluator = context.evaluator
        with self._registry_lock:
            self._evicted.discard(context)
            self._retired.absorb(evaluator.totals)
            evaluator.totals = RunStats(jobs=evaluator.jobs)

    def runtime_totals(self) -> RunStats:
        """Lifetime counters of every context this worker has built, so
        they never decrease: the closed ones' sum plus each other one's."""
        totals = RunStats(jobs=self._retired.jobs)
        with self._registry_lock:
            totals.absorb(self._retired)
            # Taken under the lock: retiring a context moves its totals
            # into the closed ones' sum and hands it fresh ones.
            contexts = (*self._evaluators.values(), *self._evicted)
            counts = [context.evaluator.totals for context in contexts]
        for stats in counts:
            totals.absorb(stats)
        return totals

    @property
    def evaluator_count(self) -> int:
        with self._registry_lock:
            return len(self._evaluators)

    def close(self) -> None:
        """Stop the status thread and tear down every evaluator's worker
        pool (idempotent)."""
        self._status_stop.set()
        if self._status_thread is not None:
            self._status_thread.join()
        with self._registry_lock:
            contexts = list(self._evaluators.values())
            self._evaluators.clear()
        for context in contexts:
            context.evaluator.close()

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


# --- registry routes ----------------------------------------------------------


def board_summary(entry: Entry[FPGABoard]) -> Dict[str, Any]:
    """One board's ``GET /boards`` entry: its definition, marked custom or not."""
    return {**entry.definition, "custom": not entry.builtin}


class RegistryRoute(NamedTuple):
    """One registry's HTTP surface: ``GET`` lists its entries under
    ``list_key`` and ``POST`` registers into it, each entry as ``summary``
    describes it."""

    registry: Registry
    list_key: str
    summary: Callable[[Entry], Dict[str, Any]]


#: route -> the registry behind it; :data:`repro.service.server.ROUTES`
#: builds the ``GET`` and ``POST`` entry of each from this table.
REGISTRIES: Dict[str, RegistryRoute] = {
    "/models": RegistryRoute(REGISTRY.models, "models", model_summary),
    "/boards": RegistryRoute(REGISTRY.boards, "boards", board_summary),
    "/rules": RegistryRoute(RULES, "rulesets", ruleset_summary),
}


# --- GET endpoints ------------------------------------------------------------


def handle_healthz(state: ServiceState) -> Response:
    """``GET /healthz``, one shape alone and in a fleet: every worker's
    status record, their :data:`SUMMED_FIELDS` summed, and this worker's
    other fields."""
    if _on_loop() and (state.cache_dir is not None or state.shared_dir is not None):
        raise NeedsThread()  # counting cache entries, the fleet's status files
    own = state.worker_status()
    workers = state.worker_statuses(own)
    payload = {
        "status": "ok",
        "version": repro.__version__,
        "uptime_seconds": own["uptime_seconds"],
        "jobs": state.jobs,
        "cache_dir": state.cache_dir,
        "max_inflight": own["max_inflight"],
        "draining": own["draining"],
        **_summed_status(workers, state.memory.max_entries),
        "worker_count": len(workers),
        "workers": workers,
    }
    if state.cache_dir is not None:
        payload["shared_cache"] = {"dir": state.cache_dir, "entries": len(state._cache_probe)}
    return 200, payload


def handle_catalog(route: RegistryRoute, state: ServiceState) -> Response:
    """``GET /models|/boards|/rules``: every entry of the route's registry."""
    return 200, {route.list_key: state.catalog(route.registry, route.summary)}


# --- POST endpoints -----------------------------------------------------------


def handle_register(
    route: RegistryRoute, state: ServiceState, request: RegisterRequest
) -> Response:
    """``POST /models|/boards|/rules``: register a definition with the
    route's live registry; returns 201 with its catalog entry.

    Registration is in-memory for the service's lifetime (persistent
    registration belongs to ``repro models|boards|rules register`` on the
    host). Conflicts surface as 409 ``workload_conflict``, malformed
    definitions as the codec's 400 (``shape_error``, ``rule_error``, ...).
    """
    name = route.registry.register(request.definition, replace=request.replace, source="http")
    return 201, route.summary(route.registry.entry(name))


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
    """``POST /evaluate``: one design, through the worker's shared cache.

    A replayed request costs one memo lookup: its context, spec and
    fingerprint, its report's JSON text and its verdicts' JSON text come
    from the worker's replay memo, so only the small envelope around them
    is encoded per request. The design still goes through its context's
    evaluator, whose counters see every replay; a report the worker's LRU
    has dropped since is evaluated again, to the same text.
    """
    # Read before any name resolves: a registration racing this request
    # leaves an entry under the old generations, which no later request
    # looks up.
    memo_key = (request, REGISTRY.generation, RULES.generation)
    replay = state.replays.get(memo_key)
    context = state.context(replay.context) if replay is not None else None
    if context is None:  # a new request, or its context was evicted
        replay = None
        context = state.evaluator_for(request.model, request.board, request.precision)
    evaluator = context.evaluator
    base = {
        "model": request.model,
        "board": request.board,
        "architecture": request.architecture,
        "ce_count": request.ce_count,
        "precision": precision_to_dict(request.precision),
        "rules": request.rules if request.rules is not None else BUILTIN_RESOURCES,
    }
    if replay is None:
        try:
            spec = _resolve_spec(evaluator, request.architecture, request.ce_count)
        except ResourceError as error:
            # Infeasible before evaluation even starts (e.g. more CEs than
            # layers): an answer, not an error — same contract as api.sweep.
            replay = Replay(evaluator.context, None, reason=f"{type(error).__name__}: {error}")
            state.replays.put(memo_key, replay)
    if replay is not None and replay.spec is None:
        base.update(
            {"feasible": False, "cached": False, "report": None,
             "reason": replay.reason, "verdicts": []}
        )
        return 200, base
    with context:
        if replay is None:
            key = evaluator.key_for(spec)
        else:
            spec, key = replay.spec, replay.key
            # Another context's evaluator may evict the entry before the
            # read below; the loop then evaluates it, to the same answer.
            if _on_loop() and not evaluator.in_memory(key):
                raise NeedsThread()  # a miss evaluates, or reads the disk tier
        item = next(iter(evaluator.stream([spec], keys=[key])))
    if replay is None:
        report = item.report
        text = item.report_text  # the disk tier's, when it wrote one
        if text is None and report is not None:
            text = report_json(report)
        replay = Replay(
            evaluator.context,
            spec,
            key,
            text,
            RawJSON(json.dumps(_verdict_dicts(request, report, evaluator.board))),
        )
        state.replays.put(memo_key, replay)
    base.update(
        {
            "feasible": item.feasible,
            "cached": item.cached,
            "fingerprint": key,
            "report": replay.report,
            "reason": item.reason,
            "verdicts": replay.verdicts,
        }
    )
    return 200, base


def handle_sweep(state: ServiceState, request: SweepRequest) -> Response:
    context = state.evaluator_for(request.model, request.board, request.precision)
    evaluator = context.evaluator
    with context:
        # The context is keyed by what the request resolved to, so the
        # grid needs no check of the evaluator against it.
        result = sweep_grid(evaluator, request.architectures, request.ce_counts)
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
    from repro.dse.campaign import Campaign

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


def _unknown_campaign(state: ServiceState, campaign_id: str) -> RequestError:
    """The 404 for a campaign id no worker knows, listing the known ones."""
    known = [entry["id"] for entry in state.campaign_listing()]
    return RequestError(
        f"no campaign {campaign_id!r}; known: {known}", status=404, kind="unknown_campaign"
    )


def handle_campaign_get(state: ServiceState, campaign_id: str) -> Response:
    """``GET /campaign/<id>``: a live snapshot of one background campaign.

    In a worker fleet the job may live in a sibling process; its written
    snapshot from the shared run directory answers then, so clients need
    not care which worker accepted the original ``POST /campaign``.
    """
    snapshot = state.campaign_snapshot(campaign_id)
    if snapshot is None:
        raise _unknown_campaign(state, campaign_id)
    return 200, snapshot


def handle_campaign_list(state: ServiceState) -> Response:
    """``GET /campaign``: every job this service (all workers) started."""
    if _on_loop():
        raise NeedsThread()  # sibling snapshots, the jobs' locks
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
        raise _unknown_campaign(state, campaign_id)
    return StreamingResponse(
        chunks=_campaign_event_stream(state, campaign_id, job, after)
    )


def handle_campaign_path(
    state: ServiceState, suffix: str, query: Mapping[str, str]
) -> Union[Response, StreamingResponse]:
    """Route ``GET /campaign/<id>`` and ``GET /campaign/<id>/events``."""
    if _on_loop():
        raise NeedsThread()  # sibling snapshots, a job's lock and fronts
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
    from repro.dse import CustomDesignSpace, random_search

    context = state.evaluator_for(request.model, request.board, request.precision)
    evaluator = context.evaluator
    space = CustomDesignSpace(evaluator.graph.conv_specs())
    with context:
        result = random_search(
            evaluator,
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
