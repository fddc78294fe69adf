"""Miscellaneous coverage: rendering helpers, package surface, docs sync."""

import importlib

import pytest

import repro
from repro.analysis.reporting import short_architecture_name
from repro.api import evaluate
from repro.cnn.stats import collect_stats, stats_table
from repro.cnn.zoo import available_models, load_model


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_top_level_exports_work(self):
        report = repro.evaluate("squeezenet", "zc706", "segmentedrr", ce_count=2)
        assert report.throughput_fps > 0

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_analysis_package_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_core_package_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    #: Exported constants, which carry no ``__module__``.
    CONSTANTS_DEFINED_IN = {
        "__version__": "repro",
        "STRATEGY_NAMES": "repro.dse",
        "DEFAULT_CONSTANTS": "repro.analysis.energy",
        "RESOURCES": "repro.analysis.sensitivity",
        "HEADLINE_METRICS": "repro.analysis.reporting",
        "TIE_THRESHOLD": "repro.analysis.reporting",
    }

    @pytest.mark.parametrize(
        "package", ["repro", "repro.dse", "repro.analysis", "repro.service"]
    )
    def test_lazy_exports_are_the_defining_modules_objects(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            home = self.CONSTANTS_DEFINED_IN.get(name) or value.__module__
            assert getattr(importlib.import_module(home), name) is value, name

    def test_unknown_name_is_an_attribute_error(self):
        import repro.dse as dse

        assert not hasattr(dse, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_campaign_entry_points_import_from_the_top(self):
        from repro import run_campaign
        from repro.dse.campaign import run_campaign as defined

        assert run_campaign is defined is repro.api.run_campaign

    def test_campaign_error_has_one_class(self):
        import repro.dse.campaign
        import repro.utils.errors

        assert repro.dse.campaign.CampaignError is repro.utils.errors.CampaignError


class TestRenderingHelpers:
    def test_short_names_distinct(self):
        names = {
            short_architecture_name(a)
            for a in ("Segmented", "SegmentedRR", "Hybrid", "HybridDual")
        }
        assert len(names) == 4

    def test_stats_table_lists_models(self):
        stats = [collect_stats(load_model(m)) for m in ("resnet50", "squeezenet")]
        text = stats_table(stats)
        assert "ResNet50" in text and "SqueezeNet" in text

    def test_report_summary_mentions_fit(self):
        report = evaluate("resnet50", "zc706", "segmentedrr", ce_count=2)
        assert "exceeds BRAM" in report.summary() or "fits" in report.summary()


class TestZooCompleteness:
    def test_every_model_evaluates(self):
        for name in available_models():
            report = evaluate(name, "zcu102", "segmentedrr", ce_count=2)
            assert report.latency_cycles > 0, name

    def test_nine_models_registered(self):
        assert len(available_models()) == 9
