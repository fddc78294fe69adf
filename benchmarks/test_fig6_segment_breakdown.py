"""Fig. 6: per-segment compute vs memory time, normalized to the overall
execution — SegmentedRR with 2 CEs and Segmented with 7 CEs, ResNet50 on
ZC706.
"""

import pytest

from repro.analysis.bottleneck import profile_bottlenecks
from repro.api import evaluate

MODEL = "resnet50"
BOARD = "zc706"


@pytest.fixture(scope="module")
def rr2():
    return evaluate(MODEL, BOARD, "segmentedrr", ce_count=2)


@pytest.fixture(scope="module")
def segmented7():
    return evaluate(MODEL, BOARD, "segmented", ce_count=7)


def test_regenerate_fig6(rr2, segmented7, emit):
    profile_a = profile_bottlenecks(rr2)
    profile_b = profile_bottlenecks(segmented7)
    text = "(a) SegmentedRR, 2 CEs\n" + profile_a.table()
    text += "\n\n(b) Segmented, 7 CEs\n" + profile_b.table()
    emit("fig6.txt", text)

    # Fig. 6a: 27 segments; the memory-bound ones cluster in the deep
    # layers; a substantial share of time is spent idle waiting for data.
    assert len(profile_a.segments) == 27
    memory_bound = profile_a.memory_bound_segments()
    assert memory_bound
    assert all(t.index >= 13 for t in memory_bound)
    assert 0.10 < profile_a.idle_fraction < 0.60

    # Fig. 6b: Segmented with 7 CEs has no such bottleneck.
    assert len(profile_b.segments) == 7
    assert profile_b.idle_fraction < profile_a.idle_fraction


def test_profile(rr2):
    assert profile_bottlenecks(rr2).segments
