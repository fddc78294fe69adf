"""Fig. 9: per-segment buffers and PE underutilization of the two most
promising Fig. 8 instances — Segmented with 4 CEs vs Hybrid with 7 CEs,
Xception on VCU110.
"""

import pytest

from repro.analysis.utilization import (
    normalized_buffer_shares,
    normalized_underutilization,
    slowest_segment,
)
from repro.api import evaluate

MODEL = "xception"
BOARD = "vcu110"


@pytest.fixture(scope="module")
def segmented4():
    return evaluate(MODEL, BOARD, "segmented", ce_count=4)


@pytest.fixture(scope="module")
def hybrid7():
    return evaluate(MODEL, BOARD, "hybrid", ce_count=7)


def test_regenerate_fig9(segmented4, hybrid7, emit):
    lines = ["(a) per-segment buffer shares (normalized to each total)"]
    for label, report in (("Segmented-4", segmented4), ("Hybrid-7", hybrid7)):
        shares = normalized_buffer_shares(report)
        rendered = "  ".join(f"{share:.2f}" for share in shares)
        lines.append(f"{label:<14}{rendered}")

    lines.append("")
    lines.append("(b) per-segment PE underutilization (normalized to global min)")
    matrices = normalized_underutilization([segmented4, hybrid7])
    for label, matrix in zip(("Segmented-4", "Hybrid-7"), matrices):
        rendered = "  ".join(f"{value:.2f}" for value in matrix)
        lines.append(f"{label:<14}{rendered}")
    emit("fig9.txt", "\n".join(lines))

    # Shape (paper's reading): the Segmented's buffer bottleneck sits in its
    # first segments — and much more sharply than the Hybrid's, whose
    # buffers spread between its two parts.
    seg_shares = normalized_buffer_shares(segmented4)
    hyb_shares = normalized_buffer_shares(hybrid7)
    assert seg_shares.index(max(seg_shares)) == 0
    assert max(seg_shares) > 0.5
    assert hyb_shares[0] < seg_shares[0]

    # Throughput of both coarse pipelines is set by their slowest segment;
    # record which (the paper attributes Segmented's to its first block).
    segmented_slowest, _ = slowest_segment(segmented4)
    assert segmented_slowest == 0
    hybrid_slowest, _ = slowest_segment(hybrid7)
    assert 0 <= hybrid_slowest < len(hybrid7.segments)


def test_utilization(segmented4):
    shares = normalized_buffer_shares(segmented4)
    assert len(shares) == len(segmented4.segments)
