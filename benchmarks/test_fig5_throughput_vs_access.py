"""Fig. 5: throughput vs off-chip accesses, ResNet50 on ZC706,
10 instances per architecture (2-11 CEs).
"""

import pytest

from repro.analysis.pareto import scatter_points
from repro.analysis.reporting import architecture_of
from repro.api import sweep

MODEL = "resnet50"
BOARD = "zc706"


@pytest.fixture(scope="module")
def reports():
    return sweep(MODEL, BOARD)


def test_regenerate_fig5(reports, emit):
    points = scatter_points(reports, "access")
    lines = [f"{'instance':<18}{'FPS':>8}{'access MiB':>12}"]
    lines.append("-" * len(lines[0]))
    for name, fps, access_mib in sorted(points):
        lines.append(f"{name:<18}{fps:>8.1f}{access_mib:>12.1f}")

    families = {}
    for report in reports:
        families.setdefault(architecture_of(report), []).append(report)
    for family, family_reports in families.items():
        best_thr = max(family_reports, key=lambda r: r.throughput_fps)
        best_acc = min(family_reports, key=lambda r: r.accesses.total_bytes)
        lines.append(
            f"{family}: highest throughput {best_thr.accelerator_name} "
            f"({best_thr.throughput_fps:.1f} FPS), minimum accesses "
            f"{best_acc.accelerator_name} ({best_acc.access_mib:.1f} MiB)"
        )
    emit("fig5.txt", "\n".join(lines))

    # Shape: SegmentedRR sits to the high-access side of the plot.
    rr_min = min(r.accesses.total_bytes for r in families["SegmentedRR"])
    assert rr_min > min(r.accesses.total_bytes for r in families["Hybrid"])
    assert rr_min > min(r.accesses.total_bytes for r in families["Segmented"])


def test_fig5_sweep():
    reports = sweep(MODEL, BOARD, ["segmentedrr"], [2, 3])
    assert len(reports) == 2
