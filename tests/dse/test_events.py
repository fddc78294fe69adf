"""Tests for campaign telemetry: typed events, the NDJSON event log,
and the kill/resume replay contract.

The load-bearing invariant (the event-stream analogue of the checkpoint's
bit-identical-front guarantee): a campaign interrupted at any point and
resumed replays its committed event history **byte-for-byte** and emits
the remaining events with no duplicate and no missing generation numbers.
"""

import json

import pytest

from repro.dse.campaign import (
    Campaign,
    CampaignSpec,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.dse.events import (
    EVENT_TYPES,
    TERMINAL_EVENT_TYPES,
    CampaignEvent,
    CampaignEventBus,
    EventLog,
    read_events,
)

SPEC_DICT = {
    "name": "events-campaign",
    "seed": 5,
    "strategy": "evolve",
    "population": 6,
    "generations": 2,
    "cost_metric": "buffers",
    "cells": [{"model": "squeezenet", "board": "zc706"}],
}

ONESHOT_DICT = {
    "name": "events-oneshot",
    "seed": 5,
    "strategy": "random",
    "samples": 12,
    "cells": [{"model": "squeezenet", "board": "zc706"}],
}


def event_dicts(path):
    return [event.to_dict() for event in read_events(path)]


def generations_of(events, etype="generation_done"):
    return [e.data["generation"] for e in events if e.type == etype]


class TestCampaignEvent:
    def test_wire_form_is_canonical_and_round_trips(self):
        event = CampaignEvent(seq=3, ts=12.5, type="cell_done", cell=1, data={"a": 1})
        line = event.to_line()
        assert line.endswith(b"\n")
        assert line == event.to_line()  # deterministic bytes
        clone = CampaignEvent.parse_line(line.strip())
        assert clone == event
        # Canonical: sorted keys, compact separators.
        assert line == (
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":")).encode()
            + b"\n"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"seq": 0, "ts": 1.0, "type": "cell_done"},
            {"seq": True, "ts": 1.0, "type": "cell_done"},
            {"seq": 1, "ts": "now", "type": "cell_done"},
            {"seq": 1, "ts": 1.0, "type": "nonsense"},
            {"seq": 1, "ts": 1.0, "type": "cell_done", "cell": "zero"},
        ],
    )
    def test_from_dict_rejects_malformed_envelopes(self, bad):
        with pytest.raises(ValueError):
            CampaignEvent.from_dict(bad)

    def test_parse_line_rejects_non_objects(self):
        with pytest.raises(ValueError):
            CampaignEvent.parse_line(b"[1,2,3]")

    def test_terminal_types_are_event_types(self):
        assert set(TERMINAL_EVENT_TYPES) <= set(EVENT_TYPES)


class TestEventLog:
    def events(self, count):
        return [
            CampaignEvent(seq=i + 1, ts=float(i), type="generation_done", cell=0,
                          data={"generation": i})
            for i in range(count)
        ]

    def test_append_then_read_round_trips(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        for event in self.events(3):
            log.append(event)
        log.close()
        assert read_events(path) == self.events(3)
        assert read_events(path, after=2) == self.events(3)[2:]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "nope.events") == []

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        for event in self.events(2):
            log.append(event)
        log.close()
        with open(path, "ab") as handle:
            handle.write(b'{"seq":3,"ts":2.0,"type":"cell_d')  # kill mid-append
        assert read_events(path) == self.events(2)

    def test_corrupt_line_ends_replay(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        events = self.events(3)
        log.append(events[0])
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        log.append(events[1])  # unreachable past the corruption
        log.close()
        assert read_events(path) == events[:1]

    def test_seq_gap_ends_replay(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        events = self.events(4)
        log.append(events[0])
        log.append(events[2])  # seq 3 after seq 1: gap
        log.close()
        assert read_events(path) == events[:1]

    def test_truncate_resets_to_empty(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        log.append(self.events(1)[0])
        log.truncate()
        assert path.read_bytes() == b""

    def test_reconcile_keeps_committed_prefix_byte_stable(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        events = self.events(4)
        for event in events:
            log.append(event)
        with open(path, "ab") as handle:
            handle.write(b'{"torn')
        committed_bytes = b"".join(e.to_line() for e in events[:2])
        kept = log.reconcile(lambda event: event.data["generation"] < 2)
        assert kept == events[:2]
        # Original bytes preserved exactly; uncommitted suffix + torn tail gone.
        assert path.read_bytes() == committed_bytes

    def test_reconcile_of_fully_committed_log_rewrites_nothing(self, tmp_path):
        path = tmp_path / "log.events"
        log = EventLog(path)
        for event in self.events(3):
            log.append(event)
        before = path.read_bytes()
        stat_before = path.stat().st_ino
        kept = log.reconcile(lambda event: True)
        assert len(kept) == 3
        assert path.read_bytes() == before
        # No atomic-replace rewrite when the prefix is the whole file.
        assert path.stat().st_ino == stat_before


class TestEventBus:
    def test_emit_assigns_contiguous_seq_and_fans_out(self):
        bus = CampaignEventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("campaign_start", name="x")
        bus.emit("cell_done", cell=0)
        assert [event.seq for event in seen] == [1, 2]
        assert bus.last_seq == 2
        assert bus.seen_types == {"campaign_start", "cell_done"}

    def test_emit_rejects_unknown_types(self):
        with pytest.raises(ValueError):
            CampaignEventBus().emit("made_up")

    def test_sink_errors_never_propagate(self):
        bus = CampaignEventBus()

        def explode(event):
            raise RuntimeError("sink bug")

        bus.subscribe(explode)
        event = bus.emit("error", message="m", error_type="E")
        assert event.seq == 1

    def test_log_append_happens_before_sinks(self, tmp_path):
        path = tmp_path / "log.events"
        bus = CampaignEventBus()
        bus.attach_log(EventLog(path))
        persisted = []
        bus.subscribe(lambda event: persisted.append(read_events(path)[-1].seq))
        bus.emit("campaign_start")
        bus.emit("cell_done", cell=0)
        assert persisted == [1, 2]  # each sink call saw its own event on disk

    def test_prime_adopts_history_and_replays_to_sinks(self):
        bus = CampaignEventBus()
        seen = []
        bus.subscribe(seen.append)
        history = [
            CampaignEvent(seq=1, ts=0.0, type="campaign_start"),
            CampaignEvent(seq=2, ts=1.0, type="generation_done", cell=0,
                          data={"generation": 0}),
        ]
        bus.prime(history)
        assert [event.seq for event in seen] == [1, 2]
        assert "campaign_start" in bus.seen_types
        follow_up = bus.emit("cell_done", cell=0)
        assert follow_up.seq == 3  # continues after the replayed history


class TestCampaignTelemetry:
    @pytest.fixture(scope="class")
    def completed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("events") / "checkpoint.json"
        sink = []
        result = run_campaign(
            CampaignSpec.from_dict(SPEC_DICT), path, event_sink=sink.append
        )
        return result, path, sink

    def test_lifecycle_order_and_contiguous_seq(self, completed):
        _result, path, _sink = completed
        events = read_events(path.with_name(path.name + ".events"))
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        types = [event.type for event in events]
        assert types[0] == "campaign_start"
        assert types[-1] == "campaign_done"
        assert types.count("cell_done") == len(SPEC_DICT["cells"])
        # One start/done pair per round: initial sample + each generation.
        assert generations_of(events) == [0, 1, 2]
        assert generations_of(events, "generation_start") == [0, 1, 2]

    def test_sink_sees_the_same_stream_as_the_log(self, completed):
        _result, path, sink = completed
        logged = read_events(path.with_name(path.name + ".events"))
        assert [e.to_dict() for e in sink] == [e.to_dict() for e in logged]

    def test_generation_done_payload(self, completed):
        result, path, _sink = completed
        events = read_events(path.with_name(path.name + ".events"))
        done = [e for e in events if e.type == "generation_done"]
        for event in done:
            data = event.data
            assert data["round"] in ("initial_sample", "generation")
            assert data["front_size"] >= 0
            assert data["hypervolume"] >= 0.0
            assert 0.0 <= data["cache_hit_rate"] <= 1.0
            assert data["round_evaluations"] == SPEC_DICT["population"]
            assert data["cost_metric"] == SPEC_DICT["cost_metric"]
            assert "best_throughput_fps" in data and "best_cost" in data
        # The last generation_done matches the final standing of its cell.
        final = done[-1].data
        cell = result.cells[done[-1].cell]
        assert final["front_size"] == len(cell.front)
        assert final["hypervolume"] == pytest.approx(cell.hypervolume)

    def test_campaign_done_summarizes_every_cell(self, completed):
        result, path, _sink = completed
        events = read_events(path.with_name(path.name + ".events"))
        done = events[-1]
        assert done.type == "campaign_done"
        assert done.data["total_evaluations"] == result.total_evaluations
        summary = done.data["cells"]
        assert [cell["label"] for cell in summary] == [
            cell.cell.label for cell in result.cells
        ]
        for entry, cell in zip(summary, result.cells):
            assert entry["hypervolume"] == pytest.approx(cell.hypervolume)

    def test_no_event_log_without_checkpoint(self):
        sink = []
        run_campaign(
            CampaignSpec.from_dict(SPEC_DICT), None, event_sink=sink.append
        )
        assert sink  # events still flow to the sink
        assert sink[0].type == "campaign_start"

    def test_oneshot_strategy_emits_search_round(self, tmp_path):
        path = tmp_path / "oneshot.json"
        run_campaign(CampaignSpec.from_dict(ONESHOT_DICT), path)
        events = read_events(path.with_name(path.name + ".events"))
        types = [event.type for event in events]
        assert types == [
            "campaign_start",
            "generation_start",
            "generation_done",
            "cell_done",
            "campaign_done",
        ]
        done = next(e for e in events if e.type == "generation_done")
        assert done.data["round"] == "search"
        assert done.data["generation"] == 0

    def test_error_event_on_cell_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "boom.json"
        sink = []

        def explode(self, *args, **kwargs):
            raise RuntimeError("evaluator exploded")

        monkeypatch.setattr(Campaign, "_run_evolve_cell", explode)
        with pytest.raises(RuntimeError, match="evaluator exploded"):
            run_campaign(
                CampaignSpec.from_dict(SPEC_DICT), path, event_sink=sink.append
            )
        logged = read_events(path.with_name(path.name + ".events"))
        assert logged[-1].type == "error"
        assert logged[-1].data["error_type"] == "RuntimeError"
        assert "evaluator exploded" in logged[-1].data["message"]
        assert sink[-1].to_dict() == logged[-1].to_dict()


class TestReplayContinuity:
    """Satellite: kill mid-generation, resume, no duplicate/missing rounds."""

    def test_interrupt_resume_replays_byte_stable_history(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        log_path = path.with_name(path.name + ".events")
        spec = CampaignSpec.from_dict(SPEC_DICT)
        run_campaign(spec, path, max_rounds=2)
        committed = log_path.read_bytes()
        assert committed  # rounds 1..2 emitted and fsynced

        # Simulate a kill mid-round-3: an uncommitted-but-complete line
        # (emitted after the last checkpoint save) plus a torn tail.
        fake = CampaignEvent(
            seq=len(read_events(log_path)) + 1,
            ts=0.0,
            type="generation_start",
            cell=0,
            data={"generation": 99, "label": "x", "round": "generation",
                  "population": 6},
        )
        with open(log_path, "ab") as handle:
            handle.write(fake.to_line())
            handle.write(b'{"seq":999,"ts":')

        result = resume_campaign(path)
        final = log_path.read_bytes()
        # Byte-stable: the committed prefix survives exactly; the
        # uncommitted suffix was truncated and re-emitted with fresh seqs.
        assert final.startswith(committed)
        events = read_events(log_path)
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        assert generations_of(events) == [0, 1, 2]  # no duplicate, no gap
        assert all(e.data.get("generation") != 99 for e in events)
        done = events[-1]
        assert done.type == "campaign_done"
        status = campaign_status(path)
        assert result.done and status.done
        for entry, cell in zip(done.data["cells"], status.cells):
            assert entry["hypervolume"] == pytest.approx(cell.hypervolume)

    def test_status_never_touches_a_live_log(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        log_path = path.with_name(path.name + ".events")
        run_campaign(CampaignSpec.from_dict(SPEC_DICT), path, max_rounds=1)
        # Uncommitted line, as left behind by a campaign running elsewhere.
        with open(log_path, "ab") as handle:
            handle.write(b'{"seq":999,"ts":1.0,"type":"cell_done","cell":0}\n')
        before = log_path.read_bytes()
        campaign_status(path)
        assert log_path.read_bytes() == before  # read-only: no reconcile

    def test_resume_of_finished_campaign_adds_no_events(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        log_path = path.with_name(path.name + ".events")
        run_campaign(CampaignSpec.from_dict(SPEC_DICT), path)
        before = log_path.read_bytes()
        resume_campaign(path)
        assert log_path.read_bytes() == before  # no duplicate campaign_done

    def test_fresh_campaign_truncates_a_stale_log(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        log_path = path.with_name(path.name + ".events")
        log_path.write_bytes(b'{"seq":1,"ts":1.0,"type":"campaign_start"}\n')
        run_campaign(CampaignSpec.from_dict(SPEC_DICT), path, max_rounds=1)
        events = read_events(log_path)
        assert events[0].type == "campaign_start"
        assert events[0].data["name"] == SPEC_DICT["name"]  # not the stale line


class TestWatchCli:
    """``repro campaign watch --log`` renders a local event log."""

    @pytest.fixture(scope="class")
    def log_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("watch") / "checkpoint.json"
        run_campaign(CampaignSpec.from_dict(SPEC_DICT), path)
        return path.with_name(path.name + ".events")

    def test_human_table(self, log_path, capsys):
        from repro.cli import main

        assert main(["campaign", "watch", "--log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert f"campaign {SPEC_DICT['name']!r} started" in out
        assert "gen   0" in out and "gen   2" in out
        assert "hv " in out and "cache" in out
        assert out.rstrip().splitlines()[-1].startswith("campaign done:")

    def test_json_passthrough_matches_log_bytes(self, log_path, capsys):
        from repro.cli import main

        assert main(["campaign", "watch", "--log", str(log_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == log_path.read_bytes()  # canonical passthrough

    def test_after_offset(self, log_path, capsys):
        from repro.cli import main

        total = len(read_events(log_path))
        main(["campaign", "watch", "--log", str(log_path), "--json", "--after", "2"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == total - 2
        assert json.loads(lines[0])["seq"] == 3

    def test_error_event_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "boom.events"
        with open(log, "wb") as handle:
            handle.write(
                CampaignEvent(
                    seq=1, ts=0.0, type="error",
                    data={"message": "m", "error_type": "E"},
                ).to_line()
            )
        assert main(["campaign", "watch", "--log", str(log)]) == 1
        assert "error: m (E)" in capsys.readouterr().out

    def test_missing_log_exits_two(self, tmp_path, capsys):
        """A mistyped path is an error here, although ``read_events``
        reads a missing file as empty."""
        from repro.cli import main

        missing = tmp_path / "typo.events"
        assert main(["campaign", "watch", "--log", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read event log {missing}: no such file\n"

    def test_requires_exactly_one_source(self, capsys):
        from repro.cli import main

        assert main(["campaign", "watch"]) == 2
        assert main(["campaign", "watch", "--url", "http://x"]) == 2  # no --id
