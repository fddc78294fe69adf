"""Unit tests for the constraint-rule engine: schema, registry, evaluation.

The property-based companion lives in ``test_rule_properties.py``; this
module pins the concrete behaviors — validation errors, unit
canonicalization, exceedance arithmetic, match guards, the persistent
rule directory, and the ``builtin:resources`` feasibility duality.
"""

import json

import pytest

import repro
from repro.core.cost.export import report_from_dict, report_to_dict
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, INT8, Precision
from repro.rules import (
    BUILTIN_RESOURCES,
    Rule,
    RuleRegistry,
    RuleSet,
    Verdict,
    attach_verdicts,
    evaluate_rules,
    has_failures,
    load_rule_dir,
    resources_verdicts,
    save_ruleset,
    strip_verdicts,
)
from repro.utils.errors import (
    RuleError,
    UnknownWorkloadError,
    WorkloadConflictError,
)


@pytest.fixture
def registry():
    """An isolated rule registry (built-ins included, no global state)."""
    return RuleRegistry()


@pytest.fixture(scope="module")
def tight_report():
    """squeezenet on zc706: does NOT fit on-chip (BRAM-starved)."""
    return repro.evaluate("squeezenet", "zc706", "segmentedrr", ce_count=4)


@pytest.fixture(scope="module")
def roomy_report():
    """squeezenet on vcu108: fits on-chip."""
    return repro.evaluate("squeezenet", "vcu108", "segmentedrr", ce_count=4)


def rule(**overrides):
    base = {"name": "r", "metric": "latency_ms", "op": "<=", "threshold": 10}
    base.update(overrides)
    return base


def ruleset(*rules, name="rs", description=""):
    return {"name": name, "description": description, "rules": list(rules)}


class TestRuleSchema:
    def test_unknown_metric(self):
        with pytest.raises(RuleError, match="unknown metric"):
            Rule.from_dict(rule(metric="latency"))

    def test_op_invalid_for_metric(self):
        with pytest.raises(RuleError, match="comparator"):
            Rule.from_dict(rule(metric="fits_onchip", op="<=", threshold=True))
        with pytest.raises(RuleError, match="comparator"):
            Rule.from_dict(rule(metric="precision", op="==", threshold=["int8"]))

    def test_bad_severity(self):
        with pytest.raises(RuleError, match="severity"):
            Rule.from_dict(rule(severity="fatal"))

    def test_bad_unit(self):
        with pytest.raises(RuleError, match="unit"):
            Rule.from_dict(rule(unit="hours"))

    def test_missing_threshold(self):
        with pytest.raises(RuleError, match="threshold"):
            Rule.from_dict({"name": "r", "metric": "latency_ms", "op": "<="})

    def test_bool_threshold_must_be_bool(self):
        with pytest.raises(RuleError, match="boolean"):
            Rule.from_dict(rule(metric="fits_onchip", op="==", threshold=1))

    def test_numeric_threshold_rejects_bool(self):
        with pytest.raises(RuleError, match="number"):
            Rule.from_dict(rule(threshold=True))

    def test_unknown_datatype_in_precision_threshold(self):
        with pytest.raises(RuleError, match="datatype"):
            Rule.from_dict(
                rule(metric="precision", op="in", threshold=["int7"])
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(RuleError, match="treshold"):
            Rule.from_dict(rule(treshold=5))

    def test_bad_rule_name(self):
        with pytest.raises(RuleError, match="rule name"):
            Rule.from_dict(rule(name="-leading-dash"))

    def test_unit_canonicalization_seconds_to_ms(self):
        in_seconds = Rule.from_dict(rule(threshold=0.005, unit="s"))
        in_ms = Rule.from_dict(rule(threshold=5, unit="ms"))
        assert in_seconds.threshold == in_ms.threshold == 5.0
        # Two spellings of one constraint serialize to the same bytes.
        assert json.dumps(in_seconds.to_dict()) == json.dumps(in_ms.to_dict())
        assert in_ms.to_dict()["unit"] == "ms"

    def test_unit_canonicalization_percent_and_bytes(self):
        pct = Rule.from_dict(
            rule(metric="bram_used_frac", threshold=80, unit="percent")
        )
        assert pct.threshold == pytest.approx(0.8)
        by = Rule.from_dict(
            rule(metric="buffer_mib", threshold=2 << 20, unit="bytes")
        )
        assert by.threshold == pytest.approx(2.0)

    def test_precision_threshold_sorted_and_deduped(self):
        parsed = Rule.from_dict(
            rule(metric="precision", op="in", threshold=["int8", "int16", "int8"])
        )
        assert parsed.threshold == tuple(sorted(("int16", "int8")))

    def test_round_trip_is_byte_stable(self):
        spellings = [
            rule(threshold=0.005, unit="s", severity="warn", message="too slow"),
            rule(metric="fits_onchip", op="==", threshold=True),
            rule(metric="precision", op="not-in", threshold=["fp32"]),
            rule(match={"boards": ["VCU*"], "min_total_macs": 1}),
        ]
        for spelling in spellings:
            once = Rule.from_dict(spelling).to_dict()
            twice = Rule.from_dict(once).to_dict()
            assert json.dumps(once, sort_keys=True) == json.dumps(
                twice, sort_keys=True
            )


class TestRuleSetSchema:
    def test_empty_ruleset(self):
        with pytest.raises(RuleError, match="non-empty 'rules'"):
            RuleSet.from_dict(ruleset())

    def test_duplicate_rule_names(self):
        with pytest.raises(RuleError, match="duplicate"):
            RuleSet.from_dict(ruleset(rule(), rule()))

    def test_bad_ruleset_name(self):
        with pytest.raises(RuleError, match="ruleset name"):
            RuleSet.from_dict(ruleset(rule(), name="Bad Name"))

    def test_name_lowercased(self):
        parsed = RuleSet.from_dict(ruleset(rule(), name="EDGE-slo"))
        assert parsed.name == "edge-slo"


class TestMatchGuards:
    def test_empty_match_rejected(self):
        with pytest.raises(RuleError, match="at least one field"):
            Rule.from_dict(rule(match={}))

    def test_empty_mac_range_rejected(self):
        with pytest.raises(RuleError, match="empty"):
            Rule.from_dict(rule(match={"min_total_macs": 10, "max_total_macs": 5}))

    def test_bad_pattern_list(self):
        with pytest.raises(RuleError, match="boards"):
            Rule.from_dict(rule(match={"boards": []}))
        with pytest.raises(RuleError, match="boards"):
            Rule.from_dict(rule(match={"boards": [3]}))

    def test_board_family_guard_skips_rule(self, tight_report, roomy_report):
        guarded = ruleset(rule(match={"boards": ["vcu*"]}))
        assert evaluate_rules(tight_report, guarded) == []  # zc706
        assert len(evaluate_rules(roomy_report, guarded)) == 1  # vcu108

    def test_model_guard_is_case_insensitive_fnmatch(self, tight_report):
        hit = ruleset(rule(match={"models": ["SQUEEZE*"]}))
        miss = ruleset(rule(match={"models": ["resnet*"]}))
        assert len(evaluate_rules(tight_report, hit)) == 1
        assert evaluate_rules(tight_report, miss) == []

    def test_mac_bounds_guard(self, tight_report):
        macs = tight_report.total_macs
        inside = ruleset(
            rule(match={"min_total_macs": macs, "max_total_macs": macs})
        )
        above = ruleset(rule(match={"min_total_macs": macs + 1}))
        assert len(evaluate_rules(tight_report, inside)) == 1
        assert evaluate_rules(tight_report, above) == []


class TestEvaluation:
    def test_exceedance_upper_bound(self, tight_report):
        verdicts = evaluate_rules(
            tight_report, ruleset(rule(threshold=5, unit="ms"))
        )
        (verdict,) = verdicts
        assert not verdict.passed
        assert verdict.exceedance == pytest.approx(tight_report.latency_ms - 5)

    def test_exceedance_lower_bound(self, tight_report):
        verdicts = evaluate_rules(
            tight_report,
            ruleset(rule(metric="throughput_fps", op=">=", threshold=1000)),
        )
        (verdict,) = verdicts
        assert not verdict.passed
        assert verdict.exceedance == pytest.approx(
            1000 - tight_report.throughput_fps
        )

    def test_exceedance_zero_on_pass(self, tight_report):
        (verdict,) = evaluate_rules(
            tight_report, ruleset(rule(threshold=1, unit="s"))
        )
        assert verdict.passed and verdict.exceedance == 0.0

    def test_exceedance_none_for_non_numeric(self, tight_report):
        (verdict,) = evaluate_rules(
            tight_report,
            ruleset(rule(metric="fits_onchip", op="==", threshold=True)),
        )
        assert verdict.exceedance is None

    def test_verdict_order_follows_rule_order(self, tight_report):
        names = ["zz", "aa", "mm"]
        verdicts = evaluate_rules(
            tight_report, ruleset(*[rule(name=n) for n in names])
        )
        assert [v.rule for v in verdicts] == names

    def test_precision_allowlist(self, tight_report):
        allow = ruleset(
            rule(metric="precision", op="in", threshold=["int16", "int8"])
        )
        (verdict,) = evaluate_rules(
            tight_report, allow, precision=DEFAULT_PRECISION
        )
        assert verdict.passed and verdict.observed == "int16/int16"
        narrow = ruleset(rule(metric="precision", op="in", threshold=["int8"]))
        (verdict,) = evaluate_rules(
            tight_report, narrow, precision=DEFAULT_PRECISION
        )
        assert not verdict.passed

    def test_precision_denylist(self, tight_report):
        mixed = Precision(weights=DEFAULT_PRECISION.weights, activations=INT8)
        deny = ruleset(rule(metric="precision", op="not-in", threshold=["int8"]))
        (verdict,) = evaluate_rules(tight_report, deny, precision=mixed)
        # One of the two datatypes is denied: the pair fails as a whole.
        assert not verdict.passed and verdict.observed == "int16/int8"

    def test_precision_rule_needs_precision(self, tight_report):
        deny = ruleset(rule(metric="precision", op="not-in", threshold=["fp32"]))
        with pytest.raises(RuleError, match="precision"):
            evaluate_rules(tight_report, deny)

    def test_bram_frac_needs_resolvable_board(self, tight_report):
        frac = ruleset(rule(metric="bram_used_frac", threshold=0.8))
        # zc706 is registered, so the board resolves implicitly...
        (implicit,) = evaluate_rules(tight_report, frac)
        # ...and an explicit board must agree.
        board = repro.get_board("zc706")
        (explicit,) = evaluate_rules(tight_report, frac, board=board)
        assert implicit.observed == explicit.observed
        # An unregistered board name with no explicit board cannot resolve.
        unknown = FPGABoard(
            name="prototype", dsp_count=128, bram_bytes=1 << 20, bandwidth_gbps=2.0
        )
        report = repro.evaluate("squeezenet", unknown, "segmentedrr", ce_count=4)
        with pytest.raises(RuleError, match="not.*registered"):
            evaluate_rules(report, frac)
        (verdict,) = evaluate_rules(report, frac, board=unknown)
        assert verdict.observed == pytest.approx(
            report.buffer_requirement_bytes / unknown.bram_bytes
        )

    def test_custom_message_only_on_failure(self, tight_report):
        slow = ruleset(rule(threshold=5, message="SLO breach"))
        fast = ruleset(rule(threshold=1000, message="SLO breach"))
        (failing,) = evaluate_rules(tight_report, slow)
        (passing,) = evaluate_rules(tight_report, fast)
        assert failing.message == "SLO breach"
        assert "holds" in passing.message and "SLO" not in passing.message

    def test_verdict_round_trip(self, tight_report):
        mixed = ruleset(
            rule(threshold=5),
            rule(name="p", metric="precision", op="in", threshold=["int16"]),
            rule(name="b", metric="fits_onchip", op="==", threshold=True),
        )
        for verdict in evaluate_rules(
            tight_report, mixed, precision=DEFAULT_PRECISION
        ):
            rebuilt = Verdict.from_dict(verdict.to_dict())
            assert rebuilt == verdict
            assert json.dumps(rebuilt.to_dict()) == json.dumps(verdict.to_dict())

    def test_verdict_missing_field(self):
        with pytest.raises(RuleError, match="missing field"):
            Verdict.from_dict({"rule": "r"})


class TestReportIntegration:
    def test_rules_off_reports_have_no_verdicts(self, tight_report):
        assert tight_report.verdicts == ()
        assert "verdicts" not in report_to_dict(tight_report)

    def test_attach_is_pure_and_strips_clean(self, tight_report):
        before = json.dumps(report_to_dict(tight_report), sort_keys=True)
        verdicts = evaluate_rules(tight_report, ruleset(rule()))
        attached = attach_verdicts(tight_report, verdicts)
        assert attached is not tight_report
        assert tight_report.verdicts == ()
        assert json.dumps(report_to_dict(tight_report), sort_keys=True) == before
        stripped = strip_verdicts(attached)
        assert json.dumps(report_to_dict(stripped), sort_keys=True) == before

    def test_export_round_trip_with_verdicts(self, tight_report):
        attached = attach_verdicts(
            tight_report, evaluate_rules(tight_report, ruleset(rule(threshold=5)))
        )
        data = report_to_dict(attached)
        assert data["verdicts"]
        rebuilt = report_from_dict(data)
        assert rebuilt == attached
        assert json.dumps(report_to_dict(rebuilt), sort_keys=True) == json.dumps(
            data, sort_keys=True
        )

    def test_api_evaluate_attaches_verdicts(self, tight_report):
        report = repro.evaluate(
            "squeezenet",
            "zc706",
            "segmentedrr",
            ce_count=4,
            rules=ruleset(rule(threshold=5)),
        )
        assert len(report.verdicts) == 1 and not report.verdicts[0].passed
        assert strip_verdicts(report) == tight_report

    def test_api_sweep_attaches_verdicts(self):
        result = repro.sweep(
            "squeezenet",
            "zc706",
            architectures=["segmentedrr"],
            ce_counts=[2, 4],
            rules=ruleset(rule(threshold=5)),
        )
        assert len(result) == 2
        for report in result:
            assert len(report.verdicts) == 1


class TestFeasibilityDuality:
    """ISSUE 7: `fits_onchip` and `builtin:resources` are one code path."""

    def test_unfit_report_fails_builtin(self, tight_report):
        verdicts = resources_verdicts(tight_report)
        assert [v.rule for v in verdicts] == ["fits-onchip"]
        assert has_failures(verdicts) == (not tight_report.fits_onchip) is True

    def test_fit_report_passes_builtin(self, roomy_report):
        verdicts = resources_verdicts(roomy_report)
        assert not has_failures(verdicts)
        assert roomy_report.fits_onchip

    def test_warn_severity_never_counts_as_failure(self, tight_report):
        advisory = ruleset(rule(threshold=5, severity="warn"))
        verdicts = evaluate_rules(tight_report, advisory)
        assert not verdicts[0].passed
        assert not has_failures(verdicts)


class TestRegistry:
    def test_builtin_pre_registered(self, registry):
        assert registry.names() == [BUILTIN_RESOURCES]
        assert registry.entry(BUILTIN_RESOURCES).builtin
        assert registry.entry(BUILTIN_RESOURCES).source == "builtin"

    def test_builtin_namespace_reserved(self, registry):
        with pytest.raises(WorkloadConflictError, match="reserved"):
            registry.register(ruleset(rule(), name="builtin:mine"))

    def test_builtin_cannot_change_or_vanish(self, registry):
        with pytest.raises(WorkloadConflictError):
            registry.register(
                ruleset(rule(), name=BUILTIN_RESOURCES), replace=True
            )
        with pytest.raises(WorkloadConflictError):
            registry.unregister(BUILTIN_RESOURCES)

    def test_builtin_identical_reregistration_is_idempotent(self, registry):
        generation = registry.generation
        definition = registry.entry(BUILTIN_RESOURCES).definition
        assert registry.register(definition) == BUILTIN_RESOURCES
        assert registry.generation == generation

    def test_register_and_lookup(self, registry):
        name = registry.register(ruleset(rule(), name="edge"))
        assert name == "edge"
        assert registry.get("EDGE").name == "edge"
        assert registry.canonical(" Edge ") == "edge"

    def test_unknown_name_suggests(self, registry):
        registry.register(ruleset(rule(), name="edge"))
        with pytest.raises(UnknownWorkloadError) as excinfo:
            registry.get("edgy")
        assert excinfo.value.workload_kind == "ruleset"
        assert excinfo.value.suggestion == "edge"

    def test_conflict_needs_replace(self, registry):
        registry.register(ruleset(rule(), name="edge"))
        changed = ruleset(rule(threshold=99), name="edge")
        with pytest.raises(WorkloadConflictError, match="replace=True"):
            registry.register(changed)
        registry.register(changed, replace=True)
        assert registry.get("edge").rules[0].threshold == 99.0

    def test_identical_reregistration_is_idempotent(self, registry):
        definition = ruleset(rule(), name="edge")
        registry.register(definition)
        generation = registry.generation
        registry.register(definition)
        assert registry.generation == generation

    def test_custom_rulesets_excludes_builtins(self, registry):
        registry.register(ruleset(rule(), name="edge"))
        customs = registry.customs()
        assert list(customs) == ["edge"]
        assert customs["edge"]["rules"][0]["name"] == "r"

    def test_rename_on_register(self, registry):
        name = registry.register(ruleset(rule(), name="edge"), name="prod")
        assert name == "prod"
        assert "edge" not in registry


class TestPersistence:
    def test_save_then_load_round_trips(self, registry, tmp_path):
        definition = RuleSet.from_dict(ruleset(rule(), name="edge")).to_dict()
        target = save_ruleset("edge", definition, tmp_path)
        assert target.name == "edge.json"
        loaded = load_rule_dir(tmp_path, registry=registry)
        assert loaded == ["edge"]
        assert registry.entry("edge").definition == definition

    def test_colon_names_map_to_portable_files(self, tmp_path):
        definition = RuleSet.from_dict(ruleset(rule(), name="a:b")).to_dict()
        target = save_ruleset("a:b", definition, tmp_path)
        assert target.name == "a__b.json"

    def test_env_dir_is_default(self, registry, monkeypatch, tmp_path):
        monkeypatch.setenv("MCCM_RULE_DIR", str(tmp_path / "rules"))
        definition = RuleSet.from_dict(ruleset(rule(), name="envy")).to_dict()
        save_ruleset("envy", definition)
        assert load_rule_dir(registry=registry) == ["envy"]

    def test_missing_dir_is_noop(self, registry, tmp_path):
        assert load_rule_dir(tmp_path / "absent", registry=registry) == []

    def test_malformed_file_names_culprit(self, registry, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(RuleError, match="bad.json"):
            load_rule_dir(tmp_path, registry=registry)


class TestRulesCLI:
    def test_list_shows_builtin(self, capsys):
        from repro.cli import main

        assert main(["rules", "list"]) == 0
        assert BUILTIN_RESOURCES in capsys.readouterr().out

    def test_register_check_cycle(self, capsys, tmp_path):
        from repro.cli import main

        slo = tmp_path / "slo.json"
        slo.write_text(
            json.dumps(ruleset(rule(threshold=5), name="edge-slo")),
            encoding="utf-8",
        )
        assert main(["rules", "register", str(slo)]) == 0
        capsys.readouterr()  # drop the registration banner
        report_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "evaluate",
                    "--model", "squeezenet",
                    "--board", "zc706",
                    "--arch", "segmentedrr",
                    "--ces", "4",
                    "--json",
                ]
            )
            == 0
        )
        report_file.write_text(capsys.readouterr().out, encoding="utf-8")
        # 6.99 ms observed latency violates the 5 ms SLO: exit code 1.
        assert main(["rules", "check", str(report_file), "--rules", "edge-slo"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "latency_ms" in err

    def test_check_unreadable_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["rules", "check", str(tmp_path / "nope.json")]) == 2

    def test_evaluate_rules_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "--model", "squeezenet",
                "--board", "zc706",
                "--arch", "segmentedrr",
                "--ces", "4",
                "--rules", BUILTIN_RESOURCES,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "fits-onchip" in captured.err and "FAIL" in captured.err
