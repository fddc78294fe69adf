"""Typed campaign telemetry events and the append-only NDJSON event log.

A running :class:`~repro.dse.campaign.Campaign` narrates itself as a
stream of flat, JSON-stable **events** — ``campaign_start``,
``generation_start``, ``generation_done`` (front size, 2-D hypervolume,
best-per-objective, cache hit rates), ``cell_done``, ``campaign_done``
and ``error`` — so long searches stop being a poll-only black box.
Three consumers share one wire format (one canonical JSON object per
line, monotonically increasing ``seq``):

* the **event log**, an append-only ``<checkpoint>.events`` NDJSON file
  persisted next to the checkpoint (each line is flushed+fsynced before
  the round's checkpoint lands, so a SIGKILL loses at most the round in
  flight and never a committed line);
* the **service stream**, ``GET /campaign/<id>/events`` chunked NDJSON
  (:mod:`repro.service`), which tails either an in-memory buffer or the
  fleet's shared-run-dir mirror of this log;
* the **CLI renderer**, ``repro campaign watch``.

Resume safety is a prefix property: on :meth:`EventLog.reconcile` the
longest prefix of events the checkpoint proves *committed* is kept
byte-for-byte (original line bytes are reused, never re-serialized) and
the uncommitted suffix — at most the interrupted round, plus a possibly
torn final line — is truncated; the replayed round then re-emits those
events with fresh ``seq`` numbers. History therefore replays
byte-stable with no duplicate and no missing generation numbers, the
event-stream analogue of the checkpoint's bit-identical-front
guarantee.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError

#: Every event type the campaign runner emits, in rough lifecycle order.
EVENT_TYPES = (
    "campaign_start",
    "generation_start",
    "generation_done",
    "cell_done",
    "campaign_done",
    "error",
)

#: Event types after which a stream has nothing more to say.
TERMINAL_EVENT_TYPES = ("campaign_done", "error")

#: Keys reserved for the envelope; payload fields may not collide.
_ENVELOPE_KEYS = ("seq", "ts", "type", "cell")


class EventLogError(MCCMError):
    """An unreadable or unwritable campaign event log."""


@dataclass(frozen=True)
class CampaignEvent:
    """One telemetry event: a typed envelope plus a flat JSON payload.

    The wire form is a single flat object — ``{"seq": 3, "ts": ...,
    "type": "generation_done", "cell": 0, "generation": 2, ...}`` —
    serialized canonically (sorted keys, compact separators) so identical
    events are identical bytes everywhere they appear.
    """

    seq: int
    ts: float
    type: str
    cell: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload = {"seq": self.seq, "ts": self.ts, "type": self.type, "cell": self.cell}
        payload.update(self.data)
        return payload

    def to_line(self) -> bytes:
        """The canonical NDJSON wire form (one line, newline-terminated)."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
            + b"\n"
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignEvent":
        seq, ts, etype = data.get("seq"), data.get("ts"), data.get("type")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise ValueError(f"event needs an integer seq >= 1, got {seq!r}")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            raise ValueError(f"event needs a numeric ts, got {ts!r}")
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        cell = data.get("cell")
        if cell is not None and (not isinstance(cell, int) or isinstance(cell, bool)):
            raise ValueError(f"event cell must be an integer or null, got {cell!r}")
        payload = {key: value for key, value in data.items() if key not in _ENVELOPE_KEYS}
        return cls(seq=seq, ts=float(ts), type=etype, cell=cell, data=payload)

    @classmethod
    def parse_line(cls, line: bytes) -> "CampaignEvent":
        data = json.loads(line.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("event line is not a JSON object")
        return cls.from_dict(data)


def _complete_lines(path: Path) -> List[Tuple[bytes, Optional[CampaignEvent]]]:
    """Raw newline-terminated lines of ``path`` with their parsed events.

    A missing trailing newline marks a line torn by a kill mid-append; the
    torn tail is dropped (never an error). A line that fails to parse maps
    to ``(raw, None)`` so callers can stop — and truncate — right there.
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return []
    except OSError as error:
        raise EventLogError(f"cannot read event log {path}: {error}") from None
    lines: List[Tuple[bytes, Optional[CampaignEvent]]] = []
    # Bytes past the last newline are a tail torn by a kill mid-append;
    # they are not a complete line and are silently ignored.
    end = raw.rfind(b"\n") + 1
    offset = 0
    while offset < end:
        newline = raw.index(b"\n", offset)
        line = raw[offset : newline + 1]
        offset = newline + 1
        stripped = line.strip()
        if not stripped:
            continue
        try:
            event: Optional[CampaignEvent] = CampaignEvent.parse_line(stripped)
        except (ValueError, UnicodeDecodeError):
            event = None
        lines.append((line, event))
        if event is None:
            break
    return lines


def read_events(
    path: Union[str, Path], after: int = 0
) -> List[CampaignEvent]:
    """Replay an event log: every well-formed event with ``seq > after``.

    Tolerant by design — a torn final line (kill mid-append) or a corrupt
    suffix ends the replay quietly; everything before it is returned. This
    is the read used by stream serving, ``campaign watch --log``, and the
    resume reconcile.
    """
    events: List[CampaignEvent] = []
    expected = 0
    for _raw, event in _complete_lines(Path(path)):
        if event is None or event.seq != expected + 1:
            break
        expected = event.seq
        if event.seq > after:
            events.append(event)
    return events


class EventLog:
    """Append-only NDJSON event persistence with crash-safe appends.

    Appends are flush+fsync so a committed line survives SIGKILL; the
    only loss mode is a torn *final* line, which every reader tolerates.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[Any] = None
        self._lock = threading.Lock()

    def append(self, event: CampaignEvent) -> None:
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = open(self.path, "ab")
                self._handle.write(event.to_line())
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as error:
                raise EventLogError(
                    f"cannot append to event log {self.path}: {error}"
                ) from None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None

    def truncate(self) -> None:
        """Reset to empty (a fresh campaign over a stale log file)."""
        self.close()
        try:
            with open(self.path, "wb"):
                pass
        except OSError as error:
            raise EventLogError(
                f"cannot truncate event log {self.path}: {error}"
            ) from None

    def reconcile(
        self, committed: Callable[[CampaignEvent], bool]
    ) -> List[CampaignEvent]:
        """Keep the longest committed prefix, drop the rest, byte-stable.

        Walks the log in order and keeps events while they parse, carry
        contiguous ``seq`` numbers, and satisfy ``committed`` (a predicate
        derived from the checkpoint). The kept prefix is preserved as its
        *original bytes* — never re-serialized — so replayed history is
        byte-identical; the uncommitted suffix (the interrupted round, a
        torn tail) is atomically truncated away and will be re-emitted by
        the resumed run. Returns the kept events.
        """
        self.close()
        lines = _complete_lines(self.path)
        kept_raw: List[bytes] = []
        kept: List[CampaignEvent] = []
        for raw, event in lines:
            if event is None or event.seq != len(kept) + 1 or not committed(event):
                break
            kept_raw.append(raw)
            kept.append(event)
        prefix = b"".join(kept_raw)
        try:
            size = os.stat(self.path).st_size
        except FileNotFoundError:
            size = 0
        except OSError as error:
            raise EventLogError(f"cannot stat event log {self.path}: {error}") from None
        if size != len(prefix):
            try:
                write_atomic(self.path, prefix)
            except OSError as error:
                raise EventLogError(
                    f"cannot reconcile event log {self.path}: {error}"
                ) from None
        return kept


class CampaignEventBus:
    """Assigns ``seq`` numbers and fans events out to a log and sinks.

    The campaign runner owns one bus per campaign. ``emit`` appends to the
    attached :class:`EventLog` (if any) *before* notifying subscriber
    sinks, so persistence is never behind what consumers saw. Sink errors
    are swallowed — telemetry consumers must not be able to kill a search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._log: Optional[EventLog] = None
        self._sinks: List[Callable[[CampaignEvent], None]] = []
        self._last_seq = 0
        self._seen_types: Set[str] = set()

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._last_seq

    @property
    def seen_types(self) -> Set[str]:
        with self._lock:
            return set(self._seen_types)

    def attach_log(self, log: EventLog) -> None:
        with self._lock:
            self._log = log

    def subscribe(self, sink: Callable[[CampaignEvent], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def prime(self, events: Iterable[CampaignEvent]) -> None:
        """Adopt replayed history (resume): continue ``seq`` after it and
        remember which lifecycle events already happened, then offer the
        history to every sink so live consumers see the full stream."""
        events = list(events)
        with self._lock:
            for event in events:
                self._last_seq = max(self._last_seq, event.seq)
                self._seen_types.add(event.type)
            sinks = list(self._sinks)
        for event in events:
            for sink in sinks:
                try:
                    sink(event)
                except Exception:  # pragma: no cover - defensive
                    pass

    def emit(
        self, etype: str, cell: Optional[int] = None, **data: Any
    ) -> CampaignEvent:
        if etype not in EVENT_TYPES:
            raise ValueError(f"unknown event type {etype!r}")
        with self._lock:
            self._last_seq += 1
            self._seen_types.add(etype)
            event = CampaignEvent(
                seq=self._last_seq, ts=round(time.time(), 3), type=etype, cell=cell, data=data
            )
            log, sinks = self._log, list(self._sinks)
        if log is not None:
            log.append(event)
        for sink in sinks:
            try:
                sink(event)
            except Exception:  # pragma: no cover - defensive
                pass
        return event

    def close(self) -> None:
        with self._lock:
            log, self._log = self._log, None
        if log is not None:
            log.close()
