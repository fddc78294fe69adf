"""Tests for resumable multi-objective campaigns (spec, checkpoint, resume).

The load-bearing invariant: a campaign interrupted at *any* round boundary
and resumed from its checkpoint produces a Pareto front bit-identical to an
uninterrupted run with the same seed. ``run(max_rounds=N)`` leaves exactly
the checkpoint a SIGKILL after round N would leave (the CI pipeline does
the real-SIGKILL version of the same assertion).
"""

import json
import random
import re

import pytest

from repro.analysis.pareto import non_dominated_sort
from repro.core.cost import export
from repro.core.cost.export import dump_json, report_to_dict
from repro.utils.errors import UnknownWorkloadError
from repro.dse import campaign as campaign_module
from repro.dse.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    ParetoArchive,
    _rng_state_from_json,
    _rng_state_to_json,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.dse.evolve import EvolutionConfig, crossover, crowding_distances
from repro.dse.space import CustomDesign, CustomDesignSpace

SPEC_DICT = {
    "name": "test-campaign",
    "seed": 9,
    "strategy": "evolve",
    "population": 6,
    "generations": 2,
    "cost_metric": "buffers",
    "cells": [
        {"model": "squeezenet", "board": "zc706"},
        {"model": "squeezenet", "board": "vcu108", "ce_counts": [2, 3, 4]},
    ],
}

#: Rounds a full run of SPEC_DICT takes: 2 cells x (1 init + 2 generations).
TOTAL_ROUNDS = 6


def fronts_of(result):
    """The bit-comparable payload: every cell's front in canonical order."""
    return json.dumps(
        [cell.to_dict()["front"] for cell in result.cells], sort_keys=True
    )


def without_elapsed(checkpoint: bytes) -> bytes:
    """A checkpoint's bytes with its wall-clock fields blanked."""
    return re.sub(rb'"elapsed_seconds": [-+.0-9e]+', b'"elapsed_seconds": 0', checkpoint)


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


@pytest.fixture(scope="module")
def reference(spec, tmp_path_factory):
    """One uninterrupted run all resume tests compare against."""
    path = tmp_path_factory.mktemp("ref") / "checkpoint.json"
    return run_campaign(spec, path), path


class TestEvolvePrimitives:
    def test_non_dominated_sort_layers(self):
        vectors = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (2.0, 2.0)]
        fronts = non_dominated_sort(vectors)
        assert fronts[0] == [0]
        assert fronts[1] == [2]  # dominated only by 0
        assert fronts[2] == [1]
        assert fronts[3] == [3]

    def test_incomparable_vectors_share_a_front(self):
        fronts = non_dominated_sort([(0.0, 1.0), (1.0, 0.0)])
        assert fronts == [[0, 1]]

    def test_crowding_boundaries(self):
        vectors = [(0.0, 4.0), (1.0, 2.0), (2.0, 1.0), (4.0, 0.0)]
        distances = crowding_distances(vectors, [0, 1, 2, 3])
        assert distances[0] == float("inf")
        assert distances[3] == float("inf")
        assert 0.0 < distances[1] < float("inf")

    def test_crossover_is_valid_and_deterministic(self):
        space = CustomDesignSpace([object()] * 12, ce_counts=(2, 3, 4, 5))
        rng = random.Random(3)
        parents = [space.random_design(rng) for _ in range(10)]
        child_a = crossover(space, parents[0], parents[1], random.Random(7))
        child_b = crossover(space, parents[0], parents[1], random.Random(7))
        assert child_a == child_b
        for first in parents:
            for second in parents:
                child = crossover(space, first, second, rng)
                # CustomDesign validates ordering/range in __post_init__;
                # the operator must also stay inside the space's CE-count
                # bounds (merged cut sets could otherwise overshoot).
                assert space.ce_counts[0] <= child.ce_count <= space.ce_counts[-1]

    def test_evolution_respects_sparse_ce_counts(self, roomy_board):
        from tests.conftest import build_tiny_cnn

        from repro.dse.evolve import EvolutionEngine
        from repro.runtime import BatchEvaluator

        cnn = build_tiny_cnn()
        # Sparse set: 3 CEs would be in the min..max range but is excluded.
        space = CustomDesignSpace(cnn.conv_specs(), ce_counts=(2, 4))
        with BatchEvaluator(cnn, roomy_board) as evaluator:
            engine = EvolutionEngine(
                space,
                EvolutionConfig(population=8, generations=3),
                evaluator.evaluate_designs,
                random.Random(11),
            )
            seen = list(engine.initialize(11))
            for _ in range(3):
                seen.extend(engine.step())
        assert seen
        assert all(design.ce_count in (2, 4) for design, _report in seen)

    def test_crossover_inherits_parent_cuts(self):
        space = CustomDesignSpace([object()] * 12, ce_counts=(2, 3, 4, 5))
        first = CustomDesign(pipelined_layers=0, cuts=(2, 5), num_layers=12)
        second = CustomDesign(pipelined_layers=0, cuts=(7, 9), num_layers=12)
        child = crossover(space, first, second, random.Random(1))
        assert set(child.cuts) <= set(first.cuts) | set(second.cuts)


class TestSpec:
    def test_round_trip_and_fingerprint(self, spec):
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content(self, spec):
        changed = CampaignSpec.from_dict({**SPEC_DICT, "seed": 10})
        assert changed.fingerprint() != spec.fingerprint()

    @pytest.mark.parametrize(
        "mutation",
        [
            {"cells": []},
            {"strategy": "annealing"},
            {"cost_metric": "latency"},
            {"population": 1},
            {"extra_field": 1},
            {"cells": [{"model": "squeezenet", "board": "zc706", "ce_counts": [1]}]},
            {"cells": [{"model": "squeezenet", "board": "zc706", "oops": 1}]},
            {"cells": [{"model": "squeezenet", "board": "zc706",
                        "precision": {"weights": 8}}]},
            {"cells": [{"model": "squeezenet", "board": "zc706",
                        "precision": {"weighs": "int8"}}]},
            # Booleans are not numbers, though Python compares them as 1 and 0.
            {"crossover_rate": True},
            {"mutation_rate": False},
            {"cells": [{"model": "squeezenet", "board": "zc706", "max_pipelined": True}]},
        ],
    )
    def test_rejects_bad_specs(self, mutation):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({**SPEC_DICT, **mutation})

    @pytest.mark.parametrize(
        "mutation",
        [
            {"cells": [{"model": "nope", "board": "zc706"}]},
            {"cells": [{"model": "squeezenet", "board": "nope"}]},
        ],
    )
    def test_rejects_unknown_workloads(self, mutation):
        # Unknown names surface as the registry's typed, suggestion-carrying
        # error (still an MCCMError, so the CLI keeps exiting 2).
        with pytest.raises(UnknownWorkloadError):
            CampaignSpec.from_dict({**SPEC_DICT, **mutation})

    def test_budget_counts_initial_sample(self, spec):
        assert spec.budget() == 6 * (2 + 1) * 2


class TestCheckpointRoundTrip:
    def test_rng_state_survives_json(self):
        rng = random.Random(42)
        rng.random()
        data = json.loads(json.dumps(_rng_state_to_json(rng.getstate())))
        restored = random.Random()
        restored.setstate(_rng_state_from_json(data))
        assert [rng.random() for _ in range(8)] == [
            restored.random() for _ in range(8)
        ]

    def test_archive_rebuilds_bit_identical(self, reference):
        result, _path = reference
        for cell in result.cells:
            archive = ParetoArchive(
                result.spec.cost_metric, entries=list(cell.front)
            )
            dumped = archive.to_dicts()
            rebuilt = ParetoArchive.from_dicts(dumped, result.spec.cost_metric)
            assert rebuilt.to_dicts() == dumped
            for (_design, original), entry in zip(archive.front(), dumped):
                assert report_to_dict(original) == entry["report"]

    def test_checkpoint_file_reloads_identically(self, reference):
        # checkpoint_dict() holds each report as its JSON text, so it is
        # compared through the encoder that writes it.
        _result, path = reference
        stored = json.loads(path.read_text())
        reloaded = Campaign.load(path).checkpoint_dict()
        assert json.loads(dump_json(reloaded)) == stored

    def test_a_live_checkpoint_resaves_and_resumes_byte_identically(
        self, spec, reference, tmp_path
    ):
        """A multi-round checkpoint, not only the frozen fixture, keeps its
        bytes when loaded (every report rebuilt) and saved again, and a
        resume from the re-saved file ends in the uninterrupted run's
        checkpoint."""
        ref_result, ref_path = reference
        path = tmp_path / "checkpoint.json"
        run_campaign(spec, path, max_rounds=3)
        written = path.read_bytes()
        Campaign.load(path, event_log=None).save()
        assert path.read_bytes() == written
        resumed = resume_campaign(path)
        assert fronts_of(resumed) == fronts_of(ref_result)
        assert without_elapsed(path.read_bytes()) == without_elapsed(ref_path.read_bytes())

    def test_archive_dominance_rules(self, reference):
        result, _path = reference
        cell = result.cells[0]
        front = list(cell.front)
        assert front, "campaign produced an empty front"
        metric = result.spec.cost_metric
        # No member strictly dominates another.
        for _design, a in front:
            for _d2, b in front:
                assert not (
                    a.throughput_fps >= b.throughput_fps
                    and a.metric(metric) <= b.metric(metric)
                    and (
                        a.throughput_fps > b.throughput_fps
                        or a.metric(metric) < b.metric(metric)
                    )
                ) or a is b
        # Canonical order: ascending cost.
        costs = [report.metric(metric) for _design, report in front]
        assert costs == sorted(costs)


class TestEncodeOnce:
    def test_each_report_is_encoded_once_across_saves(self, spec, tmp_path, monkeypatch):
        encoded = []
        encode = export.report_to_dict

        def spy(report):
            encoded.append(report)
            return encode(report)

        monkeypatch.setattr(export, "report_to_dict", spy)
        monkeypatch.setattr(campaign_module, "report_to_dict", spy)
        held = []  # every report each save's checkpoint holds, kept alive
        save = Campaign.save

        def recording_save(campaign):
            for cell in campaign.cells:
                held.extend(report for _design, report in [*cell.population, *cell.archive.front()])
            save(campaign)

        monkeypatch.setattr(Campaign, "save", recording_save)
        run_campaign(spec, tmp_path / "checkpoint.json")
        distinct = {id(report) for report in held}
        assert len(held) > 2 * len(distinct)  # later rounds keep most reports
        assert sorted(map(id, encoded)) == sorted(distinct)


class TestResume:
    @pytest.mark.parametrize("interrupt_after", [1, 2, 3, 5])
    def test_resume_after_partial_campaign_is_bit_identical(
        self, spec, reference, tmp_path, interrupt_after
    ):
        ref_result, _ = reference
        path = tmp_path / "checkpoint.json"
        partial = run_campaign(spec, path, max_rounds=interrupt_after)
        assert not partial.done
        resumed = resume_campaign(path)
        assert resumed.done
        assert fronts_of(resumed) == fronts_of(ref_result)
        assert resumed.total_evaluations == ref_result.total_evaluations

    def test_resume_mid_cell_restores_generation(self, spec, tmp_path):
        path = tmp_path / "checkpoint.json"
        # 2 rounds = cell 0's initial sample + generation 1: mid-cell.
        run_campaign(spec, path, max_rounds=2)
        status = campaign_status(path)
        assert status.cells[0].status == "running"
        assert status.cells[0].generation == 1
        assert status.cells[1].status == "pending"

    def test_resume_of_completed_campaign_is_noop(self, reference):
        ref_result, path = reference
        again = resume_campaign(path)
        assert again.done
        assert fronts_of(again) == fronts_of(ref_result)
        assert again.total_evaluations == ref_result.total_evaluations

    def test_run_refuses_existing_checkpoint(self, spec, reference):
        _result, path = reference
        with pytest.raises(CampaignError):
            run_campaign(spec, path)

    def test_load_missing_checkpoint_errors(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign.load(tmp_path / "missing.json")

    def test_resume_rejects_drifted_spec(self, reference, tmp_path):
        _result, path = reference
        drifted = CampaignSpec.from_dict({**SPEC_DICT, "seed": 99})
        with pytest.raises(CampaignError):
            run_campaign(drifted, path, resume=True)

    def test_corrupt_checkpoint_errors(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            Campaign.load(path)

    def test_malformed_cells_section_errors(self, reference, tmp_path):
        # The fingerprint covers only the spec, so a damaged cells section
        # must still surface as a CampaignError, not a raw KeyError.
        _result, ref_path = reference
        data = json.loads(ref_path.read_text())
        del data["cells"][0]["status"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        with pytest.raises(CampaignError):
            Campaign.load(broken)


class TestDeterminism:
    def test_jobs_do_not_change_the_front(self, spec, reference, tmp_path):
        ref_result, _ = reference  # reference ran with the default jobs
        forked = run_campaign(spec, tmp_path / "j2.json", jobs=2)
        assert fronts_of(forked) == fronts_of(ref_result)

    def test_checkpointless_run_matches(self, spec, reference):
        ref_result, _ = reference
        in_memory = run_campaign(spec)
        assert fronts_of(in_memory) == fronts_of(ref_result)

    def test_oneshot_strategy_campaign_completes(self, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "name": "oneshot",
                "strategy": "random",
                "samples": 20,
                "cells": [{"model": "squeezenet", "board": "zc706"}],
            }
        )
        path = tmp_path / "checkpoint.json"
        result = run_campaign(spec, path)
        assert result.done
        assert result.cells[0].front
        # One-shot cells resume by rerunning; the archive stays identical.
        again = resume_campaign(path)
        assert fronts_of(again) == fronts_of(result)

    def test_front_csv_stable(self, reference):
        result, path = reference
        assert result.front_csv() == campaign_status(path).front_csv()


class TestCustomWorkloadCampaigns:
    """Campaign cells accept registered models/boards, and the checkpoint is
    self-contained: a resume in a fresh process (simulated by wiping the
    registry) replays to a byte-identical front."""

    CUSTOM_SPEC = {
        "name": "custom-campaign",
        "seed": 5,
        "strategy": "evolve",
        "population": 6,
        "generations": 2,
        "cells": [{"model": "campnet", "board": "campboard"}],
    }

    @pytest.fixture
    def custom_workloads(self):
        from repro import workloads
        from repro.cnn.serialize import graph_to_dict
        from tests.conftest import build_tiny_cnn

        definition = graph_to_dict(build_tiny_cnn())
        definition["name"] = "campnet"
        workloads.register_model(definition)
        workloads.register_board(
            {"name": "campboard", "dsp_count": 512, "bram_mib": 2.0,
             "bandwidth_gbps": 8.0}
        )
        yield workloads
        for name in list(workloads.REGISTRY.models.customs()):
            workloads.unregister_model(name)
        for name in list(workloads.REGISTRY.boards.customs()):
            workloads.unregister_board(name)

    def test_checkpoint_embeds_custom_definitions(self, custom_workloads, tmp_path):
        spec = CampaignSpec.from_dict(self.CUSTOM_SPEC)
        path = tmp_path / "custom.json"
        run_campaign(spec, path, max_rounds=1)
        data = json.loads(path.read_text())
        assert "campnet" in data["workloads"]["models"]
        assert data["workloads"]["models"]["campnet"]["name"] == "campnet"
        assert data["workloads"]["boards"]["campboard"]["dsp_count"] == 512

    def test_resume_is_self_contained_and_byte_identical(
        self, custom_workloads, tmp_path
    ):
        spec = CampaignSpec.from_dict(self.CUSTOM_SPEC)
        reference = run_campaign(spec, tmp_path / "ref.json")
        interrupted = tmp_path / "interrupted.json"
        run_campaign(spec, interrupted, max_rounds=1)

        # A fresh process has never seen the user's definitions: wipe them.
        custom_workloads.unregister_model("campnet")
        custom_workloads.unregister_board("campboard")

        resumed = resume_campaign(interrupted)
        assert fronts_of(resumed) == fronts_of(reference)
        assert resumed.front_csv() == reference.front_csv()
        # The checkpoint restored the registrations on load.
        assert "campnet" in custom_workloads.REGISTRY.models
        assert "campboard" in custom_workloads.REGISTRY.boards

    def test_resume_refuses_conflicting_live_registration(
        self, custom_workloads, tmp_path
    ):
        from repro.cnn.serialize import graph_to_dict
        from tests.conftest import build_tiny_cnn

        spec = CampaignSpec.from_dict(self.CUSTOM_SPEC)
        interrupted = tmp_path / "interrupted.json"
        run_campaign(spec, interrupted, max_rounds=1)

        # Replace 'campnet' with *different* content, then try to resume.
        edited = graph_to_dict(build_tiny_cnn())
        edited["name"] = "campnet"
        edited["layers"][1]["kernel_size"] = [5, 5]
        custom_workloads.register_model(edited, replace=True)
        with pytest.raises(CampaignError):
            resume_campaign(interrupted)


class TestRulesConstrainedCampaigns:
    """``CampaignSpec.rules`` makes fail-severity verdicts hard archive
    constraints, and the checkpoint embeds the ruleset so a kill -9 resume
    in a fresh process replays byte-identically and violator-free."""

    BASE_SPEC = {
        "name": "slo-campaign",
        "seed": 7,
        "strategy": "evolve",
        "population": 6,
        "generations": 2,
        "cells": [{"model": "squeezenet", "board": "zc706"}],
    }

    @pytest.fixture(scope="class")
    def slo_threshold(self, tmp_path_factory):
        """A buffer bound from the middle of the *unconstrained* front, so
        the constrained campaign provably rejects some evaluated designs."""
        unconstrained = run_campaign(CampaignSpec.from_dict(self.BASE_SPEC))
        buffers = sorted(
            report.buffer_requirement_mib
            for _design, report in unconstrained.cells[0].front
        )
        assert buffers[0] < buffers[-1], "degenerate front; cannot split it"
        return (buffers[0] + buffers[-1]) / 2

    @pytest.fixture
    def slo_ruleset(self, slo_threshold):
        from repro import rules

        rules.register_ruleset(
            {
                "name": "camp-slo",
                "rules": [
                    {
                        "name": "buffers",
                        "metric": "buffer_mib",
                        "op": "<=",
                        "threshold": slo_threshold,
                    }
                ],
            },
            replace=True,
        )
        yield "camp-slo"
        if "camp-slo" in rules.REGISTRY:
            rules.unregister_ruleset("camp-slo")

    def _spec(self, ruleset):
        return CampaignSpec.from_dict({**self.BASE_SPEC, "rules": ruleset})

    def test_rules_key_emitted_only_when_set(self, slo_ruleset):
        bare = CampaignSpec.from_dict(self.BASE_SPEC)
        assert "rules" not in bare.to_dict()
        constrained = self._spec(slo_ruleset)
        assert constrained.to_dict()["rules"] == slo_ruleset
        # Fingerprints must differ: the constraint changes the campaign.
        assert constrained.fingerprint() != bare.fingerprint()

    def test_unknown_ruleset_rejected_at_parse(self):
        with pytest.raises(UnknownWorkloadError):
            self._spec("no-such-slo")

    def test_front_has_zero_violators(self, slo_ruleset, slo_threshold):
        result = run_campaign(self._spec(slo_ruleset))
        front = result.cells[0].front
        assert front, "SLO constraint wiped out the entire front"
        assert all(
            report.buffer_requirement_mib <= slo_threshold
            for _design, report in front
        )

    def test_checkpoint_embeds_ruleset(self, slo_ruleset, tmp_path):
        path = tmp_path / "slo.json"
        run_campaign(self._spec(slo_ruleset), path, max_rounds=1)
        data = json.loads(path.read_text())
        assert data["rulesets"][slo_ruleset]["rules"][0]["metric"] == "buffer_mib"

    def test_builtin_rules_checkpoint_embeds_nothing(self, tmp_path):
        from repro.rules import BUILTIN_RESOURCES

        path = tmp_path / "builtin.json"
        spec = CampaignSpec.from_dict(
            {**self.BASE_SPEC, "rules": BUILTIN_RESOURCES}
        )
        run_campaign(spec, path, max_rounds=1)
        data = json.loads(path.read_text())
        assert data["rulesets"] == {}

    def test_kill_resume_is_byte_identical_and_violator_free(
        self, slo_ruleset, slo_threshold, tmp_path
    ):
        from repro import rules

        spec = self._spec(slo_ruleset)
        reference = run_campaign(spec, tmp_path / "ref.json")
        interrupted = tmp_path / "interrupted.json"
        partial = run_campaign(spec, interrupted, max_rounds=1)
        assert not partial.done

        # A fresh process has never seen the ruleset: wipe it before resume.
        rules.unregister_ruleset(slo_ruleset)

        resumed = resume_campaign(interrupted)
        assert resumed.done
        assert fronts_of(resumed) == fronts_of(reference)
        assert resumed.front_csv() == reference.front_csv()
        # The checkpoint restored the ruleset registration on load...
        assert slo_ruleset in rules.REGISTRY
        # ...and the resumed front still honors the constraint.
        assert all(
            report.buffer_requirement_mib <= slo_threshold
            for _design, report in resumed.cells[0].front
        )
