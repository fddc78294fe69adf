"""Fig. 7: off-chip access breakdown (weights vs FMs) for the highest-
throughput instance of each architecture — ResNet50 on ZC706.
"""

import pytest

from repro.analysis.breakdown import access_breakdown, breakdown_table
from repro.analysis.reporting import architecture_of
from repro.api import sweep

MODEL = "resnet50"
BOARD = "zc706"


@pytest.fixture(scope="module")
def best_throughput_instances():
    reports = sweep(MODEL, BOARD)
    families = {}
    for report in reports:
        families.setdefault(architecture_of(report), []).append(report)
    return {
        family: max(family_reports, key=lambda r: r.throughput_fps)
        for family, family_reports in families.items()
    }


def test_regenerate_fig7(best_throughput_instances, emit):
    instances = list(best_throughput_instances.values())
    emit("fig7.txt", breakdown_table(instances))

    shares = {
        family: access_breakdown(report)
        for family, report in best_throughput_instances.items()
    }
    # Paper: weights dominate for SegmentedRR and Hybrid (compressing FMs
    # would be pure overhead); Segmented moves comparatively more FMs.
    assert shares["SegmentedRR"].weight_fraction > 0.7
    assert shares["Hybrid"].weight_fraction > 0.7
    assert shares["Segmented"].fm_fraction > shares["SegmentedRR"].fm_fraction
    assert shares["Segmented"].fm_fraction > shares["Hybrid"].fm_fraction


def test_breakdown(best_throughput_instances):
    report = next(iter(best_throughput_instances.values()))
    assert access_breakdown(report).total_bytes > 0
