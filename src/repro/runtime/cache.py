"""Evaluation caches: in-memory LRU in front of an optional on-disk store.

Both layers map a fingerprint (see :mod:`repro.runtime.fingerprint`) to a
:class:`CacheEntry` — either a full :class:`~repro.core.cost.results.CostReport`
or a recorded infeasibility, so known-infeasible designs are not rebuilt
just to fail again.

The disk cache writes one JSON document per key, sharded into 256
two-hex-digit subdirectories to keep directory listings sane at DSE scale,
and writes atomically (:func:`repro.utils.atomic.write_atomic`) so concurrent readers —
including sibling worker processes sharing the directory — never observe
torn files.  A sqlite index alongside the entries makes entry counts O(1)
for the service /healthz endpoint instead of a directory walk.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.core.cost.export import report_from_dict, report_to_dict
from repro.core.cost.results import CostReport
from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError

if TYPE_CHECKING:  # sqlite3 loads when a disk cache opens its index
    import sqlite3

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
    """A size-bounded least-recently-used map of fingerprint -> entry."""

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class _CacheIndex:
    """Sqlite key index shared by every process using one cache directory.

    Purely an acceleration structure: the JSON entry files stay the source
    of truth, so a corrupt or missing index degrades to a directory walk
    rather than to wrong answers.  WAL mode plus a busy timeout lets N
    pre-forked service workers record entries concurrently.
    """

    def __init__(self, directory: Path) -> None:
        import sqlite3

        self.path = directory / "index.sqlite3"
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        try:
            connection = sqlite3.connect(
                str(self.path), timeout=5.0, check_same_thread=False
            )
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY)"
            )
            connection.commit()
            self._connection = connection
        except sqlite3.Error:
            self._connection = None

    @property
    def available(self) -> bool:
        return self._connection is not None

    def record(self, key: str) -> None:
        import sqlite3

        if self._connection is None:
            return
        try:
            with self._lock:
                self._connection.execute(
                    "INSERT OR IGNORE INTO entries (key) VALUES (?)", (key,)
                )
                self._connection.commit()
        except sqlite3.Error:
            self._disable()

    def count(self) -> Optional[int]:
        import sqlite3

        if self._connection is None:
            return None
        try:
            with self._lock:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
            return int(row[0])
        except sqlite3.Error:
            self._disable()
            return None

    def reconcile(self, keys) -> None:
        """Bulk-register keys found on disk but missing from the index."""
        import sqlite3

        if self._connection is None:
            return
        try:
            with self._lock:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO entries (key) VALUES (?)",
                    ((key,) for key in keys),
                )
                self._connection.commit()
        except sqlite3.Error:
            self._disable()

    def _disable(self) -> None:
        import sqlite3

        connection, self._connection = self._connection, None
        if connection is not None:
            try:
                connection.close()
            except sqlite3.Error:
                pass

    def close(self) -> None:
        self._disable()


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
        self._index = _CacheIndex(self.directory)
        if self._index.available and not self._index.count():
            # A fresh index over a directory that already has entries (made
            # by an older version, or rebuilt after deletion) is seeded from
            # one directory walk; after that every put() keeps it current.
            self._index.reconcile(path.stem for path in self._entry_paths())

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

    def put(self, key: str, entry: CacheEntry) -> None:
        payload = {
            "format": DISK_CACHE_FORMAT,
            "key": key,
            "report": report_to_dict(entry.report) if entry.report else None,
            "reason": entry.reason,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(payload).encode("utf-8"))
        self._index.record(key)

    def _entry_paths(self):
        # Exclude hidden temp files a killed run may have orphaned
        # mid-write (older versions named them .tmp-*.json).
        return (
            path
            for path in self.directory.glob("*/*.json")
            if not path.name.startswith(".")
        )

    def __len__(self) -> int:
        count = self._index.count()
        if count is not None:
            return count
        return sum(1 for _ in self._entry_paths())

    def close(self) -> None:
        """Release the index connection (entry files need no teardown)."""
        self._index.close()
