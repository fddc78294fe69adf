"""Evaluation caches: in-memory LRU in front of an optional on-disk store.

Both layers map a fingerprint (see :mod:`repro.runtime.fingerprint`) to a
:class:`CacheEntry` — either a full :class:`~repro.core.cost.results.CostReport`
or a recorded infeasibility, so known-infeasible designs are not rebuilt
just to fail again.

The disk cache writes one JSON document per key, sharded into 256
two-hex-digit subdirectories to keep directory listings sane at DSE scale,
and writes atomically (:func:`repro.utils.atomic.write_atomic`) so concurrent readers —
including sibling worker processes sharing the directory — never observe
torn files.  The entry files are the directory's only state: its entry
count is one walk of the shard directories.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Optional, Union

from repro.core.cost.export import RawJSON, dump_json, report_from_dict, report_json
from repro.core.cost.results import CostReport
from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError

#: Format marker stored inside every disk-cache document.
DISK_CACHE_FORMAT = 1


@dataclass(frozen=True)
class CacheEntry:
    """One memoized evaluation outcome.

    ``report is None`` means the design was infeasible; ``reason`` then
    carries the error message so callers can surface *why* it was skipped.
    """

    report: Optional[CostReport]
    reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.report is not None


class LRUCache:
    """A size-bounded least-recently-used map, safe to share between
    threads (a service worker's evaluators, each under its own lock, share
    one)."""

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, entry: Any) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


class DiskCache:
    """One-JSON-file-per-key persistent store under a cache directory.

    Safe to share between processes: writes go through ``write_atomic``,
    so a reader (or a worker that crashed mid-write and restarted) either
    sees a complete document or nothing.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise MCCMError(
                f"cannot use {self.directory!s} as an evaluation cache "
                f"directory: {error}"
            ) from error
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry stored for ``key``, or ``None`` (a miss).

        An entry that cannot be read back as this key's — a corrupt file,
        an unknown format, a document of the wrong shape, a report that
        does not rebuild, or another key's entry — is a miss too, so the
        caller recomputes the design and :meth:`put` overwrites the file.
        """
        try:
            entry = self._read(key)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            entry = None
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def _read(self, key: str) -> Optional[CacheEntry]:
        payload = json.loads(self._path(key).read_text())
        if (
            not isinstance(payload, dict)
            or payload.get("format") != DISK_CACHE_FORMAT
            or payload.get("key") != key
        ):
            return None
        if payload.get("report") is None:
            return CacheEntry(report=None, reason=payload.get("reason"))
        return CacheEntry(report=report_from_dict(payload["report"]))

    def put(self, key: str, entry: CacheEntry) -> Optional[RawJSON]:
        """Store ``entry``; returns the report's JSON text it wrote (None
        for an infeasible entry), for a caller that needs the same text."""
        text = report_json(entry.report) if entry.report else None
        payload = {
            "format": DISK_CACHE_FORMAT,
            "key": key,
            "report": text,
            "reason": entry.reason,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, dump_json(payload).encode("utf-8"))
        return text

    def __len__(self) -> int:
        """The entry files (``*/*.json``), counted by one directory walk.

        Hidden files are not entries: a killed run may have orphaned a
        temp file mid-write (older versions named them ``.tmp-*.json``).
        """
        count = 0
        for shard in _scan(self.directory):
            if shard.is_dir():
                count += sum(
                    entry.name.endswith(".json") and not entry.name.startswith(".")
                    for entry in _scan(shard.path)
                )
        return count


def _scan(directory: Union[str, Path]) -> list:
    """The entries of ``directory``; none when it cannot be read (say, a
    directory removed while it was counted)."""
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except OSError:
        return []
