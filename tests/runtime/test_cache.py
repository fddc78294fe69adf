"""Tests for the LRU and on-disk evaluation caches."""

import json
import sys
import threading

import pytest

from repro.api import evaluate
from repro.core.cost.export import report_from_dict, report_from_json, report_to_dict, report_to_json
from repro.runtime.cache import CacheEntry, DiskCache, LRUCache


@pytest.fixture(scope="module")
def report(roomy_board):
    from tests.conftest import build_tiny_cnn

    return evaluate(build_tiny_cnn(), roomy_board, "segmented", ce_count=3)


class TestLRUCache:
    def test_miss_then_hit(self, report):
        cache = LRUCache(max_entries=4)
        assert cache.get("k1") is None
        cache.put("k1", CacheEntry(report=report))
        entry = cache.get("k1")
        assert entry is not None and entry.report is report
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_is_least_recently_used(self, report):
        cache = LRUCache(max_entries=2)
        cache.put("a", CacheEntry(report=report))
        cache.put("b", CacheEntry(report=report))
        assert cache.get("a") is not None  # refresh "a"
        cache.put("c", CacheEntry(report=report))  # evicts "b"
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_infeasible_entries_cached(self):
        cache = LRUCache()
        cache.put("bad", CacheEntry(report=None, reason="ResourceError: nope"))
        entry = cache.get("bad")
        assert entry is not None
        assert not entry.feasible
        assert "nope" in entry.reason

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_shared_between_threads(self):
        # A tiny switch interval interleaves the threads inside get and
        # put; unguarded, a get moves the entry another thread's put just
        # evicted (a KeyError in most runs).
        cache = LRUCache(max_entries=1)
        errors = []

        def churn(offset):
            try:
                for index in range(10000):
                    key = (offset + index) % 2
                    if cache.get(key) is None:
                        cache.put(key, CacheEntry(report=None, reason=str(key)))
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(cache) == 1
        assert cache.hits + cache.misses == 6 * 10000
        assert all(cache.get(key).reason == str(key) for key in list(cache._entries))


class TestReportRoundTrip:
    def test_dict_round_trip_is_exact(self, report):
        clone = report_from_dict(report_to_dict(report))
        assert clone == report  # frozen dataclasses: full deep equality

    def test_json_round_trip_is_exact(self, report):
        clone = report_from_json(report_to_json(report))
        assert clone == report

    def test_derived_metrics_survive(self, report):
        clone = report_from_json(report_to_json(report))
        assert clone.throughput_fps == report.throughput_fps
        assert clone.pe_utilization == report.pe_utilization
        assert [s.utilization for s in clone.segments] == [
            s.utilization for s in report.segments
        ]


class TestDiskCache:
    def test_round_trip(self, tmp_path, report):
        cache = DiskCache(tmp_path / "cache")
        key = "ab" * 32
        assert cache.get(key) is None
        cache.put(key, CacheEntry(report=report))
        entry = cache.get(key)
        assert entry is not None
        assert entry.report == report
        assert cache.hits == 1 and cache.misses == 1

    def test_persists_across_instances(self, tmp_path, report):
        key = "cd" * 32
        DiskCache(tmp_path / "cache").put(key, CacheEntry(report=report))
        entry = DiskCache(tmp_path / "cache").get(key)
        assert entry is not None and entry.report == report

    def test_infeasible_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cache.put("ef" * 32, CacheEntry(report=None, reason="too big"))
        entry = cache.get("ef" * 32)
        assert entry is not None
        assert entry.report is None
        assert entry.reason == "too big"

    def test_corrupt_file_is_a_miss(self, tmp_path, report):
        cache = DiskCache(tmp_path / "cache")
        key = "12" * 32
        cache.put(key, CacheEntry(report=report))
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_unknown_format_is_a_miss(self, tmp_path, report):
        cache = DiskCache(tmp_path / "cache")
        key = "34" * 32
        cache.put(key, CacheEntry(report=report))
        path = cache._path(key)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "case", ["list", "null", "string", "report-missing-fields", "report-not-a-dict", "other-key"]
    )
    def test_malformed_entry_is_a_miss_until_overwritten(self, tmp_path, report, case):
        cache = DiskCache(tmp_path / "cache")
        key = "5e" * 32
        cache.put(key, CacheEntry(report=report))
        path = cache._path(key)
        payload = json.loads(path.read_text())
        document = {
            "list": [],
            "null": None,
            "string": "entry",
            "report-missing-fields": {**payload, "report": {"accelerator": "x"}},
            "report-not-a-dict": {**payload, "report": [1, 2]},
            # Another design's entry must not be served for this key.
            "other-key": {**payload, "key": "ab" * 32},
        }[case]
        path.write_text(json.dumps(document))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, CacheEntry(report=report))
        assert cache.get(key).report == report

    def test_len_counts_entries(self, tmp_path, report):
        cache = DiskCache(tmp_path / "cache")
        assert len(cache) == 0
        cache.put("56" * 32, CacheEntry(report=report))
        cache.put("78" * 32, CacheEntry(report=report))
        assert len(cache) == 2

    def test_put_fsyncs_before_rename(self, tmp_path, report, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            os_module, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        DiskCache(tmp_path / "cache").put("9a" * 32, CacheEntry(report=report))
        assert synced, "put() must fsync the tempfile before renaming it"

    def test_orphaned_tmp_files_not_counted(self, tmp_path, report):
        cache = DiskCache(tmp_path / "cache")
        key = "bc" * 32
        cache.put(key, CacheEntry(report=report))
        # Simulate a sibling worker killed mid-write: a stray tempfile.
        (cache._path(key).parent / ".tmp-dead.json").write_text("{")
        rebuilt = DiskCache(tmp_path / "cache")
        assert len(rebuilt) == 1
        assert rebuilt.get(key) is not None

    def test_index_shared_across_instances(self, tmp_path, report):
        first = DiskCache(tmp_path / "cache")
        second = DiskCache(tmp_path / "cache")
        first.put("de" * 32, CacheEntry(report=report))
        # The entry files are the shared source for counts, so a sibling
        # attached to the same directory sees the new entry.
        assert len(second) == 1
        second.put("f0" * 32, CacheEntry(report=report))
        assert len(first) == 2

    def test_stale_index_files_not_counted(self, tmp_path, report):
        """An older version's sqlite index sits beside the shard
        directories; only ``<shard>/<key>.json`` files count."""
        directory = tmp_path / "cache"
        directory.mkdir()
        for name in ("index.sqlite3", "index.sqlite3-wal", "index.sqlite3-shm"):
            (directory / name).write_bytes(b"stale")
        cache = DiskCache(directory)
        cache.put("3e" * 32, CacheEntry(report=report))
        assert len(cache) == 1

    def test_put_writes_only_shard_directories(self, tmp_path, report):
        directory = tmp_path / "cache"
        cache = DiskCache(directory)
        for key in ("4f" * 32, "4a" * 32):
            cache.put(key, CacheEntry(report=report))
        assert sorted(path.name for path in directory.iterdir()) == ["4a", "4f"]
        assert all(path.is_dir() for path in directory.iterdir())

    def test_a_removed_directory_counts_no_entries(self, tmp_path, report):
        import shutil

        cache = DiskCache(tmp_path / "cache")
        cache.put("5b" * 32, CacheEntry(report=report))
        shutil.rmtree(tmp_path / "cache")
        assert len(cache) == 0
