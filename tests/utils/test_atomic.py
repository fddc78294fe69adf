"""The one atomic writer, and every on-disk artifact written through it.

Each writer must leave either the previous file or the complete new one —
never a truncated file, never a stray temp file — and keep raising its own
typed error when the write fails.
"""

import json
import os

import pytest

from repro.dse.campaign import Campaign, CampaignError, CampaignSpec, run_campaign
from repro.dse.events import CampaignEvent, EventLog, EventLogError
from repro.rules import save_ruleset
from repro.runtime.cache import CacheEntry, DiskCache
from repro.utils.atomic import write_atomic
from repro.utils.errors import RuleError, WorkloadError
from repro.workloads import save_workload


def _fail_fsync(monkeypatch):
    """Make the durability step fail once the temp file holds the bytes."""

    def boom(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", boom)


def _only_file(directory):
    """The single file in ``directory`` (fails if a temp file was left)."""
    files = sorted(path.name for path in directory.rglob("*") if path.is_file())
    assert len(files) == 1, files
    return files[0]


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "doc.json"
        write_atomic(path, b"first")
        write_atomic(path, b"second")
        assert path.read_bytes() == b"second"
        assert _only_file(tmp_path) == "doc.json"

    def test_failure_keeps_previous_bytes_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        write_atomic(path, b"previous")
        _fail_fsync(monkeypatch)
        with pytest.raises(OSError):
            write_atomic(path, b"next")
        assert path.read_bytes() == b"previous"
        assert _only_file(tmp_path) == "doc.json"

    def test_fsync_can_be_skipped(self, tmp_path, monkeypatch):
        _fail_fsync(monkeypatch)
        write_atomic(tmp_path / "status.json", b"{}", fsync=False)
        assert (tmp_path / "status.json").read_bytes() == b"{}"

    def test_each_write_uses_a_fresh_hidden_temp_file(self, tmp_path, monkeypatch):
        temps = []
        real_replace = os.replace

        def spy(source, target):
            temps.append(os.path.basename(source))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", spy)
        for payload in (b"a", b"b"):
            write_atomic(tmp_path / "doc.json", payload)
        assert len(set(temps)) == 2
        # Hidden and .tmp-suffixed: never matched by a ``*.json`` glob.
        assert all(name.startswith(".") and name.endswith(".tmp") for name in temps)


SAVERS = {
    "model": (
        lambda definition, root: save_workload("model", "net", definition, root),
        WorkloadError,
    ),
    "board": (
        lambda definition, root: save_workload("board", "fpga", definition, root),
        WorkloadError,
    ),
    "ruleset": (
        lambda definition, root: save_ruleset("team:edge", definition, root),
        RuleError,
    ),
}


@pytest.mark.parametrize("kind", sorted(SAVERS))
class TestDirectorySavers:
    """A crash mid-save must not truncate a file the CLI auto-loads."""

    def test_serialisation_failure_keeps_previous_file(self, kind, tmp_path, monkeypatch):
        save, error = SAVERS[kind]
        target = save({"name": "v1"}, tmp_path)
        before = target.read_bytes()

        def boom(*args, **kwargs):
            raise OSError(28, "No space left on device")

        # Whichever serialiser the saver uses fails part-way through.
        monkeypatch.setattr(json, "dump", boom)
        monkeypatch.setattr(json, "dumps", boom)
        with pytest.raises(error):
            save({"name": "v2"}, tmp_path)
        assert target.read_bytes() == before
        assert _only_file(tmp_path) == target.name

    def test_write_failure_keeps_previous_file(self, kind, tmp_path, monkeypatch):
        save, error = SAVERS[kind]
        target = save({"name": "v1"}, tmp_path)
        before = target.read_bytes()
        _fail_fsync(monkeypatch)
        with pytest.raises(error):
            save({"name": "v2"}, tmp_path)
        assert target.read_bytes() == before
        assert _only_file(tmp_path) == target.name


def test_failing_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    spec = CampaignSpec.from_dict(
        {
            "name": "atomic",
            "population": 4,
            "generations": 2,
            "cells": [{"model": "squeezenet", "board": "zc706"}],
        }
    )
    path = tmp_path / "ck.json"
    run_campaign(spec, path, max_rounds=1, event_log=None)
    before = path.read_bytes()
    campaign = Campaign.load(path, event_log=None)
    _fail_fsync(monkeypatch)
    with pytest.raises(CampaignError, match="cannot write checkpoint"):
        campaign.save()
    assert path.read_bytes() == before
    assert _only_file(tmp_path) == "ck.json"


def test_failing_event_log_reconcile_keeps_log(tmp_path, monkeypatch):
    path = tmp_path / "ck.json.events"
    log = EventLog(path)
    for seq in (1, 2, 3):
        log.append(CampaignEvent(seq=seq, ts=0.0, type="generation_done", cell=0,
                                 data={"generation": seq}))
    log.close()
    before = path.read_bytes()
    _fail_fsync(monkeypatch)
    with pytest.raises(EventLogError, match="cannot reconcile"):
        log.reconcile(lambda event: event.seq < 3)
    assert path.read_bytes() == before
    assert _only_file(tmp_path) == path.name


def test_failing_cache_put_leaves_no_entry(tmp_path, monkeypatch):
    from repro.api import evaluate

    cache = DiskCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    _fail_fsync(monkeypatch)
    with pytest.raises(OSError):
        cache.put(key, CacheEntry(report=evaluate("squeezenet", "zc706", "segmentedrr",
                                                   ce_count=2)))
    monkeypatch.undo()
    assert cache.get(key) is None
    assert list((tmp_path / "cache" / "ab").iterdir()) == []
    cache.close()
