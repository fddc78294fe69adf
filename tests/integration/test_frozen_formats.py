"""Frozen on-disk formats: every artifact written today must reload and
re-save byte-identically.

``tests/data/formats/`` holds one file of each persistent kind, exactly as
the current writers produce it:

* ``workloads/models/fmtnet.json`` and ``workloads/boards/fmtboard.json``
  (``save_workload``; the board restricts ``supported_precisions``);
* ``rules/team__edge.json`` (``save_ruleset`` maps ``team:edge`` to a
  portable file name);
* ``checkpoint/checkpoint.json`` — a version-2 campaign checkpoint that
  embeds a custom model, board and ruleset;
* ``cache/5f/<key>.json`` — one ``DiskCache`` entry.

Each case copies its fixture into a scratch directory, loads it through
the public loader, writes it back through the public saver and compares
bytes, so a change to any writer's serialisation fails here first.
"""

import shutil
from pathlib import Path

import pytest

from repro import rules, workloads
from repro.dse.campaign import Campaign
from repro.runtime.cache import DiskCache

FORMATS = Path(__file__).resolve().parents[1] / "data" / "formats"
CACHE_KEY = "5f" + "0" * 62


def _resave_workload(kind, scratch):
    registry = workloads.WorkloadRegistry()
    workloads.load_workload_dir(scratch / "workloads", registry=registry)
    name = {"model": "fmtnet", "board": "fmtboard"}[kind]
    entries = registry.models if kind == "model" else registry.boards
    path = workloads.save_workload(
        kind, name, entries.entry(name).definition, scratch / "out"
    )
    return Path(f"workloads/{kind}s/{name}.json"), path


def _resave_ruleset(scratch):
    registry = rules.RuleRegistry()
    (name,) = rules.load_rule_dir(scratch / "rules", registry=registry)
    assert name == "team:edge"
    definition = registry.entry(name).definition
    path = rules.save_ruleset(name, definition, scratch / "out")
    return Path("rules/team__edge.json"), path


def _resave_checkpoint(scratch):
    # A fresh process has never seen the embedded workloads or ruleset:
    # loading the checkpoint must restore them from the file alone.
    assert "fmtnet" not in workloads.available_models()
    assert "team:edge" not in rules.available_rulesets()
    path = scratch / "checkpoint" / "checkpoint.json"
    try:
        Campaign.load(path, event_log=None).save()
    finally:
        workloads.unregister_model("fmtnet")
        workloads.unregister_board("fmtboard")
        rules.unregister_ruleset("team:edge")
    return Path("checkpoint/checkpoint.json"), path


def _resave_cache_entry(scratch):
    source = DiskCache(scratch / "cache")
    entry = source.get(CACHE_KEY)
    source.close()
    assert entry is not None and entry.report is not None
    target = DiskCache(scratch / "out")
    target.put(CACHE_KEY, entry)
    target.close()
    relative = Path(CACHE_KEY[:2]) / f"{CACHE_KEY}.json"
    return Path("cache") / relative, scratch / "out" / relative


CASES = {
    "model": lambda scratch: _resave_workload("model", scratch),
    "board": lambda scratch: _resave_workload("board", scratch),
    "ruleset": _resave_ruleset,
    "checkpoint": _resave_checkpoint,
    "cache-entry": _resave_cache_entry,
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_fixture_reloads_and_resaves_byte_identically(kind, tmp_path):
    scratch = tmp_path / "formats"
    shutil.copytree(FORMATS, scratch)
    fixture, written = CASES[kind](scratch)
    assert written.read_bytes() == (FORMATS / fixture).read_bytes()
