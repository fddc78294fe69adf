"""In-process workloads: cold paper sweeps and NSGA-II campaign generations.

Both call the program's public API exactly as a user script would, pin
``jobs=1``, and clear the process-global Eq. 1 tables before every sweep
and every campaign so one operation never rides on another's warm caches.
Outputs are checked outside the timed region and, in a traced run, after
tracing is switched off, so checking costs no measured time and records
no spans.
"""

from __future__ import annotations

import contextlib
import random
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.cost.export import report_to_dict
from repro.runtime import BatchEvaluator
from repro.runtime.bench import clear_process_caches

from perfbench import common, stats, tracing
from perfbench.common import Outcome

# --- sweep-cold ----------------------------------------------------------------

#: The paper's zoo and Table II boards (the registry's built-ins).
MODELS = (
    "alexnet",
    "densenet121",
    "efficientnetlite0",
    "mobilenetv2",
    "resnet152",
    "resnet50",
    "squeezenet",
    "vgg16",
    "xception",
)
BOARDS = ("vcu108", "vcu110", "zc706", "zcu102")
SWEEP_DIGESTS = "sweep_digests.json"

#: Enough sweeps for a p90 with ten samples beyond it.
MIN_SWEEPS = 100


def sweep_key(model: str, board: str) -> str:
    return f"{model}/{board}"


def sweep_digest(result) -> str:
    """Digest of a sweep's full reports and its skipped configurations."""
    return common.digest(
        {
            "reports": [report_to_dict(report) for report in result],
            "skipped": [[s.architecture, s.ce_count, s.reason] for s in result.skipped],
        }
    )


def sweep_failures(checked: Sequence[Tuple], expected: Dict[str, str]) -> int:
    """How many checked sweeps (see :func:`check_sweep`) miss their
    expected digest."""
    return sum(1 for _seconds, key, got, _designs in checked if got != expected.get(key))


def timed_sweep(
    model: str, board: str, recorder: Optional[tracing.SpanRecorder] = None
) -> Tuple[float, str, object]:
    """One cold sweep; returns (seconds, key, SweepResult)."""
    clear_process_caches()
    if recorder is not None:
        recorder.op = (recorder.op or 0) + 1
    start = time.perf_counter()
    result = api.sweep(model, board, jobs=1)
    return time.perf_counter() - start, sweep_key(model, board), result


def check_sweep(run: Tuple[float, str, object]) -> Tuple[float, str, str, int]:
    """(seconds, key, digest, designs): the result itself is dropped, so
    the process's peak memory is the program's, not kept results'."""
    seconds, key, result = run
    return seconds, key, sweep_digest(result), len(result) + len(result.skipped)


def _sweep_passes(seed: int):
    """Endless seeded shuffles of all 36 (model, board) pairs."""
    rng = random.Random(seed)
    pairs = [(model, board) for model in MODELS for board in BOARDS]
    while True:
        rng.shuffle(pairs)
        yield list(pairs)


def sweep_cold(
    seed: int, seconds: float, trace: bool, workdir: Path, negative_control: bool
) -> Outcome:
    expected = common.load_expected(SWEEP_DIGESTS)
    outcome = Outcome()
    passes = _sweep_passes(seed)
    common.warm_up(MODELS)
    if trace:
        # One pass, every sweep untraced and traced.
        tracer, plain, traced = paired(next(passes), lambda pair, rec: timed_sweep(*pair, rec))
        runs = [check_sweep(run) for run in plain + traced]
        outcome.layers = tracer.layers(
            len(traced), [run[0] for run in plain], [run[0] for run in traced]
        )
    else:
        outcome.setup_seconds = common.time_cold_setup(workdir, MODELS, BOARDS)
        # Whole passes over all pairs, so every run measures the same mix
        # however fast the host is.
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds or len(runs) < MIN_SWEEPS:
            batch = [check_sweep(timed_sweep(*pair)) for pair in next(passes)]
            outcome.throughputs.append(
                sum(run[3] for run in batch) / sum(run[0] for run in batch)
            )
            runs += batch
    if negative_control:
        expected[runs[0][1]] = "0" * 64

    outcome.attempted = len(runs)
    outcome.failed = sweep_failures(runs, expected)
    if not trace:
        outcome.op_ms = [1000.0 * run[0] for run in runs]
        outcome.rss_peak_mib = common.self_rss_peak_mib()
        outcome.named = {
            "designs_per_s": (stats.median(outcome.throughputs), "1/s"),
            "sweep_ms_p50": (stats.median(outcome.op_ms), "ms"),
            "sweep_ms_p90": (common.percentile_or_fail(outcome.op_ms, 90, "sweeps"), "ms"),
        }
    return outcome


def write_sweep_digests() -> None:
    digests = {}
    for model in MODELS:
        for board in BOARDS:
            clear_process_caches()
            digests[sweep_key(model, board)] = sweep_digest(api.sweep(model, board, jobs=1))
    common.write_expected(SWEEP_DIGESTS, digests)


# --- dse-campaign ----------------------------------------------------------------

#: The heaviest DSE setting of the paper (and ``repro bench``'s default),
#: and the model with the most layers and so the most segments.
CAMPAIGN_CELLS = (
    {"model": "xception", "board": "vcu110"},
    {"model": "resnet152", "board": "zcu102"},
)
POPULATION = 32
GENERATIONS = 50
#: Campaign seeds every run evolves, in an order shuffled by the benchmark
#: seed. A fixed pool, like sweep-cold's fixed grid: seeded campaigns
#: differ by about 11% in cost (how many new designs the search meets),
#: which alone spread runs past the 0.25 bound.
CAMPAIGN_POOL = (0, 1, 2)
CAMPAIGN_EXPECTED = "campaign_expected.json"


def campaign_spec(seed: int) -> dict:
    return {
        "name": "perfbench",
        "seed": seed,
        "population": POPULATION,
        "generations": GENERATIONS,
        "cells": [dict(cell) for cell in CAMPAIGN_CELLS],
    }


def _campaign_passes(seed: int):
    """Endless seeded shuffles of the campaign pool."""
    rng = random.Random(seed)
    pool = list(CAMPAIGN_POOL)
    while True:
        rng.shuffle(pool)
        yield list(pool)


def front_digest(front) -> str:
    return common.digest(
        [{"design": design.to_dict(), "report": report_to_dict(report)} for design, report in front]
    )


def run_campaign_timed(
    seed: int, checkpoint: Path, recorder: Optional[tracing.SpanRecorder] = None
):
    """One campaign; returns (result, per-generation seconds, wall seconds).

    A generation runs from its ``generation_start`` event to the next one
    (or to the cell's ``cell_done``), so its evaluation, archive update,
    event appends and fsync'd checkpoint all count.
    """
    gen_times: List[float] = []
    opened: List[float] = []

    def sink(event) -> None:
        if event.type not in ("generation_start", "cell_done"):
            return
        now = time.perf_counter()
        if opened:
            gen_times.append(now - opened.pop())
        if event.type == "generation_start":
            opened.append(now)
            if recorder is not None:
                recorder.op = (recorder.op or 0) + 1

    clear_process_caches()
    start = time.perf_counter()
    result = api.run_campaign(campaign_spec(seed), checkpoint, jobs=1, event_sink=sink)
    return result, gen_times, time.perf_counter() - start


def recost_front(cell, front) -> List[bytes]:
    """The front's reports re-evaluated cold: a fresh evaluator with no
    segment cache, so nothing is shared with the campaign's evaluation."""
    graph = api.resolve_model(cell.model)
    board = api.resolve_board(cell.board, precision=cell.precision)
    with BatchEvaluator(graph, board, cell.precision, jobs=1, segment_cache_entries=0) as cold:
        reports = cold.evaluate_specs([design.to_spec() for design, _report in front])
    return [common.canonical(report_to_dict(r)) if r is not None else b"" for r in reports]


def campaign_cell_failures(result, stored: Optional[dict], perturb: bool = False) -> int:
    """Generations (initial sample included) of the cells whose front fails
    a check; 0 when all pass. ``perturb`` spoils the first cell's expected
    reports (the negative control)."""
    failed = 0
    for cell_index, cell_result in enumerate(result.cells):
        front = list(cell_result.front)
        got = [common.canonical(report_to_dict(report)) for _design, report in front]
        want = recost_front(cell_result.cell, front)
        if perturb and cell_index == 0:
            want = [b"perturbed"] + want[1:]
        ok = bool(front) and got == want
        if stored is not None:
            pinned = stored["cells"][cell_index]
            ok = ok and pinned["hypervolume"] == repr(cell_result.hypervolume)
            ok = ok and pinned["front"] == front_digest(front)
        if not ok:
            failed += cell_result.generation + 1
    return failed


def dse_campaign(
    seed: int, seconds: float, trace: bool, workdir: Path, negative_control: bool
) -> Outcome:
    stored = {entry["seed"]: entry for entry in common.load_expected(CAMPAIGN_EXPECTED)["campaigns"]}
    outcome = Outcome()
    models = [cell["model"] for cell in CAMPAIGN_CELLS]
    common.warm_up(models)
    passes = _campaign_passes(seed)
    paths = iter(range(1 << 30))

    def run(campaign: int, recorder=None):
        path = workdir / f"campaign-{next(paths)}.json"
        return (campaign, *run_campaign_timed(campaign, path, recorder))

    if trace:
        # Two campaigns, each untraced and traced.
        tracer, plain, traced = paired(next(passes)[:2], run)
        outcome.layers = tracer.layers(
            sum(len(r[2]) for r in traced),
            [t for r in plain for t in r[2]],
            [t for r in traced for t in r[2]],
        )
        runs = plain + traced
    else:
        boards = [cell["board"] for cell in CAMPAIGN_CELLS]
        outcome.setup_seconds = common.time_cold_setup(workdir, models, boards)
        # Whole passes over the pool until the time is up.
        runs = []  # (campaign seed, result, per-generation seconds, wall seconds)
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            batch = [run(campaign) for campaign in next(passes)]
            outcome.throughputs.append(
                sum(r[1].total_evaluations for r in batch) / sum(r[3] for r in batch)
            )
            runs += batch

    for position, (campaign, result, gen_times, _wall) in enumerate(runs):
        outcome.attempted += len(gen_times)
        outcome.failed += campaign_cell_failures(
            result, stored.get(campaign), negative_control and position == 0
        )
    if not trace:
        outcome.op_ms = [1000.0 * t for run_ in runs for t in run_[2]]
        outcome.rss_peak_mib = common.self_rss_peak_mib()
        outcome.named = {
            "designs_per_s": (stats.median(outcome.throughputs), "1/s"),
            "gen_ms_p50": (stats.median(outcome.op_ms), "ms"),
            "gen_ms_p90": (common.percentile_or_fail(outcome.op_ms, 90, "generations"), "ms"),
        }
    outcome.record["campaigns"] = len(runs)
    return outcome


def write_campaign_expected(workdir: Path) -> None:
    campaigns = []
    for campaign in CAMPAIGN_POOL:
        result, _times, _wall = run_campaign_timed(campaign, workdir / f"expected-{campaign}.json")
        campaigns.append(
            {
                "seed": campaign,
                "cells": [
                    {
                        "label": cell.cell.label,
                        "hypervolume": repr(cell.hypervolume),
                        "front": front_digest(list(cell.front)),
                    }
                    for cell in result.cells
                ],
            }
        )
    common.write_expected(
        CAMPAIGN_EXPECTED, {"spec": campaign_spec(CAMPAIGN_POOL[0]), "campaigns": campaigns}
    )


# --- traced-run helpers --------------------------------------------------------------


class EvaluatorCounts:
    """Sums the counters of every :class:`BatchEvaluator` closed while active
    (``cache_info()`` and lifetime ``RunStats``), read as it closes."""

    KEYS = ("submitted", "cache_hits", "seg_hits", "seg_misses", "seg_evaluations",
            "kernel_designs", "kernel_vector")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.KEYS, 0)
        self._seen: "weakref.WeakSet[BatchEvaluator]" = weakref.WeakSet()
        self._original = None

    def add(self, info: dict, runtime: dict) -> None:
        segment = info.get("segment_cache") or {}
        kernel = info.get("population_kernel") or {}
        for key, value in (
            ("submitted", runtime.get("submitted", 0)),
            ("cache_hits", runtime.get("cache_hits", 0)),
            ("seg_hits", segment.get("hits", 0)),
            ("seg_misses", segment.get("misses", 0)),
            ("seg_evaluations", segment.get("evaluations", 0)),
            ("kernel_designs", kernel.get("designs", 0)),
            ("kernel_vector", kernel.get("vector_composed", 0)),
        ):
            self.totals[key] += value

    def __enter__(self) -> "EvaluatorCounts":
        original = self._original = BatchEvaluator.close
        counts = self

        def close(evaluator) -> None:
            if evaluator not in counts._seen:
                counts._seen.add(evaluator)
                counts.add(evaluator.cache_info(), evaluator.totals.to_dict())
            original(evaluator)

        BatchEvaluator.close = close
        return self

    def __exit__(self, *_exc) -> None:
        BatchEvaluator.close = self._original


def count_layers(totals: Dict[str, float]) -> Dict[str, float]:
    """Ratio metrics, each next to its base."""
    lookups = totals["seg_hits"] + totals["seg_misses"]
    return {
        "runtime.segcache.lookups": lookups,
        "runtime.segcache.hit_ratio": common.ratio(totals["seg_hits"], lookups),
        "runtime.segcache.evaluations": totals["seg_evaluations"],
        "core.cost.vector.designs": totals["kernel_designs"],
        "core.cost.vector.vector_ratio": common.ratio(
            totals["kernel_vector"], totals["kernel_designs"]
        ),
        "runtime.batch.submitted": totals["submitted"],
        "runtime.batch.hit_ratio": common.ratio(totals["cache_hits"], totals["submitted"]),
    }


def span_layers(spans, ops: int) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name, row in tracing.layer_table(spans, ops).items():
        layers[f"{name}.calls"] = row["calls"]
        layers[f"{name}.self_ms_per_op"] = row["self_ms_per_op"]
    return layers


def overhead_layers(untraced_s: Sequence[float], traced_s: Sequence[float]) -> Dict[str, float]:
    """Tracing overhead: traced minus untraced mean operation time."""
    plain = 1000.0 * sum(untraced_s) / len(untraced_s)
    traced = 1000.0 * sum(traced_s) / len(traced_s)
    return {
        "trace.overhead_ms_per_op": traced - plain,
        "trace.overhead_pct": 100.0 * (traced - plain) / plain,
    }


class Tracer:
    """The span recorder and evaluator counters, switched on per operation."""

    def __init__(self) -> None:
        self.recorder = tracing.SpanRecorder()
        self.counts = EvaluatorCounts()

    @contextlib.contextmanager
    def on(self):
        uninstall = tracing.install(self.recorder)
        try:
            with self.counts:
                yield self.recorder
        finally:
            uninstall()

    def layers(self, ops: int, untraced_s, traced_s) -> Dict[str, float]:
        layers = span_layers(self.recorder.spans, ops)
        layers.update(count_layers(self.counts.totals))
        layers.update(overhead_layers(untraced_s, traced_s))
        return layers


def paired(ops: Sequence, run_op: Callable) -> Tuple[Tracer, list, list]:
    """Run every operation untraced and traced, alternating which goes
    first, so drift over the run cancels out of the overhead.

    ``run_op(op, recorder)`` gets ``None`` for the untraced run. Returns
    (tracer, untraced outputs, traced outputs).
    """
    tracer = Tracer()
    plain, traced = [], []
    for position, op in enumerate(ops):
        for is_traced in (False, True) if position % 2 == 0 else (True, False):
            if is_traced:
                with tracer.on() as recorder:
                    traced.append(run_op(op, recorder))
            else:
                plain.append(run_op(op, None))
    return tracer, plain, traced
