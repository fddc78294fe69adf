"""Span recorder that wraps the program's public functions from outside.

Nothing under ``src/`` knows about it: :func:`install` swaps the named
functions and methods for timing wrappers — in their defining module, in
every ``repro`` module that imported them by name, in default arguments
that captured them, and in the HTTP route table — and :func:`uninstall`
puts the originals back. Spans stay in memory; the caller writes them out
when the run ends.

A span records its name, start, end, parent span, operation id and
thread. An *operation* is one unit of benchmark work (a sweep, a campaign
generation, an HTTP request): in-process workloads set
:attr:`SpanRecorder.op` themselves; a span that starts with no open
parent and no op set by the caller opens a new operation, which is how
server-side requests get their ids.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: span name -> "module:qualname" of each function or method it wraps.
SPANS: Dict[str, Tuple[str, ...]] = {
    "cnn.graph.conv_specs": ("repro.cnn.graph:CNNGraph.conv_specs",),
    "workloads.registry.resolve": (
        "repro.workloads.registry:WorkloadRegistry.model",
        "repro.workloads.registry:WorkloadRegistry.board",
    ),
    "core.architectures.build_template": ("repro.core.architectures:build_template",),
    "core.builder.build": ("repro.core.builder:MultipleCEBuilder.build",),
    "core.parallelism.choose_parallelism": ("repro.core.parallelism:choose_parallelism",),
    "core.cost.evaluate": ("repro.core.cost.model:MCCM.evaluate",),
    "core.cost.vector.evaluate": ("repro.core.cost.vector:PopulationKernel.evaluate",),
    "core.cost.export.report_to_dict": ("repro.core.cost.export:report_to_dict",),
    "runtime.batch.stream": ("repro.runtime.batch:BatchEvaluator.stream",),
    "runtime.fingerprint.context_fingerprint": (
        "repro.runtime.fingerprint:context_fingerprint",
    ),
    "rules.evaluate_rules": ("repro.rules.engine:evaluate_rules",),
    "dse.evolve.initialize": ("repro.dse.evolve:EvolutionEngine.initialize",),
    "dse.evolve.step": ("repro.dse.evolve:EvolutionEngine.step",),
    "dse.campaign.archive_update": ("repro.dse.campaign:ParetoArchive.update",),
    "dse.campaign.save": ("repro.dse.campaign:Campaign.save",),
    "dse.events.append": ("repro.dse.events:EventLog.append",),
    "analysis.hypervolume": ("repro.analysis.pareto:hypervolume",),
    "service.server.post": ("repro.service.server:_RequestHandler.do_POST",),
    "service.schema.parse_evaluate": ("repro.service.schema:parse_evaluate",),
    "service.handlers.handle_evaluate": ("repro.service.handlers:handle_evaluate",),
    "service.handlers.evaluator_for": ("repro.service.handlers:ServiceState.evaluator_for",),
}


class SpanRecorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: Operation id stamped on spans opened with an empty stack; ``None``
        #: lets every such span open a fresh operation.
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        if stack:
            parent, op = stack[-1]["id"], stack[-1]["op"]
        else:
            parent, op = None, self.op if self.op is not None else next(self._ops)
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "op": op,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def suspend(self, span: Dict[str, Any]) -> None:
        """Take an open generator span off the stack while its caller runs."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def resume(self, span: Dict[str, Any]) -> None:
        self._stack().append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span-recording stand-in for ``fn`` (generators span their whole
        iteration, but sit on the stack only while they run)."""
        recorder = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return recorder._traced_iter(name, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span)

        return wrapper

    def _traced_iter(self, name: str, inner: Iterable) -> Iterable:
        span = None
        iterator = iter(inner)
        try:
            while True:
                if span is None:
                    span = self.open(name)
                else:
                    self.resume(span)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                self.suspend(span)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()
            if span is not None:
                self.close(span)


# --- installing wrappers -------------------------------------------------------


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, original)."""
    module_name, _, qualname = target.partition(":")
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _rebind(original: Any, replacement: Any) -> List[Tuple[Any, str, Any]]:
    """Point every by-name import, default argument and route-table entry
    of ``original`` in a loaded ``repro`` module at ``replacement``."""
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
            elif inspect.isfunction(value) and value.__defaults__ and any(
                default is original for default in value.__defaults__
            ):
                undo.append((value, "__defaults__", value.__defaults__))
                value.__defaults__ = tuple(
                    replacement if default is original else default
                    for default in value.__defaults__
                )
    for routes in sys.modules["repro.service.server"].ROUTES.values():
        for path, entry in list(routes.items()):
            if any(part is original for part in entry):
                undo.append((routes, path, entry))
                routes[path] = tuple(replacement if part is original else part for part in entry)
    return undo


def install(recorder: SpanRecorder, spans: Sequence[str] = tuple(SPANS)) -> Callable[[], None]:
    """Wrap every named span's targets; returns the function that undoes it.

    The whole program is imported first, so no module loaded later can
    bind a wrapper by name that uninstalling would miss.
    """
    import_program()
    undo: List[Tuple[Any, str, Any]] = []
    for name in spans:
        for target in SPANS[name]:
            owner, attr, original = _resolve(target)
            replacement = recorder.wrap(name, original)
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
            if not inspect.isclass(owner):
                undo.extend(_rebind(original, replacement))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    return uninstall


def import_program() -> None:
    """Load every module a wrapped function may be imported into."""
    for module in (
        "repro.api",
        "repro.cli",
        "repro.runtime.bench",
        "repro.service.server",
        "repro.service.supervisor",
    ):
        __import__(module)
    for name in SPANS:
        for target in SPANS[name]:
            __import__(target.partition(":")[0])


# --- analysis --------------------------------------------------------------------


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> self time: its duration minus the part of its interval
    covered by its child spans (overlapping children count once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


def layer_table(
    spans: Sequence[Dict[str, Any]], ops: int, names: Sequence[str] = tuple(SPANS)
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration and self time per operation (ms)."""
    selfs = self_times(spans)
    table = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in names}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1000.0 * (span["end"] - span["start"])
        row["self_ms"] += 1000.0 * selfs[span["id"]]
    for row in table.values():
        row["self_ms_per_op"] = row["self_ms"] / ops if ops else 0.0
    return table
