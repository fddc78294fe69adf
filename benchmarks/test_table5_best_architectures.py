"""Table V: best architecture and CE count per (board, CNN, metric),
with the paper's 10% tie rule.
"""

import pytest

from repro.analysis.reporting import (
    HEADLINE_METRICS,
    best_architecture_table,
    winners_with_ties,
)
from repro.api import sweep
from repro.cnn.zoo import PAPER_MODELS
from repro.hw.boards import PAPER_BOARDS


@pytest.fixture(scope="module")
def grid():
    return {
        (board, model): sweep(model, board)
        for board in PAPER_BOARDS
        for model in PAPER_MODELS
    }


def test_regenerate_table5(grid, emit):
    text = best_architecture_table(grid)

    # Paper insight 1: in most columns no single architecture wins all four
    # metrics. Count columns with a clean sweep.
    clean_sweeps = 0
    for key, reports in grid.items():
        winners_per_metric = [
            set(winners_with_ties(list(reports), metric).architectures())
            for metric in HEADLINE_METRICS
        ]
        common = set.intersection(*winners_per_metric)
        if common:
            clean_sweeps += 1
    total = len(grid)
    text += (
        f"\n\ncolumns where one architecture wins or ties every metric: "
        f"{clean_sweeps}/{total}"
    )
    emit("table5.txt", text)

    # Shape: the paper found 4/20 clean sweeps (80% contested); require
    # that a majority of columns stay contested.
    assert clean_sweeps <= total // 2

    # Paper insight 4: Hybrid (nearly) always ties for minimum off-chip
    # accesses. Our reproduction concedes a couple of small-BRAM columns
    # (see EXPERIMENTS.md); require at least 75% of columns.
    hybrid_access_wins = sum(
        1
        for reports in grid.values()
        if "Hybrid" in winners_with_ties(list(reports), "access").architectures()
    )
    assert hybrid_access_wins >= int(0.75 * total)


def test_board_sweep(grid):
    # All 30 paper instances (3 templates x 2-11 CEs) fit MobileNetV2 on
    # the ZC706.
    assert len(grid[("zc706", "mobilenetv2")]) == 30
