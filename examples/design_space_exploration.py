#!/usr/bin/env python3
"""Use case 3: design-space exploration of custom multiple-CE accelerators
(paper Fig. 10).

Samples the custom space (Hybrid-like pipelined first block followed by
Segmented-like single-CE blocks) for Xception on VCU110, refines the
sampled Pareto front with local search, and compares against the best
state-of-the-art baseline instances.

Run:  python examples/design_space_exploration.py [samples]
"""

import sys

from repro.analysis.reporting import architecture_of
from repro.api import resolve_board, resolve_model, sweep
from repro.dse import CustomDesignSpace, Objective, guided_search
from repro.runtime import BatchEvaluator


def main(samples: int = 800) -> None:
    model_name, board_name = "xception", "vcu110"
    graph = resolve_model(model_name)
    board = resolve_board(board_name)

    baseline = sweep(model_name, board_name)
    best_segmented = max(
        (r for r in baseline if architecture_of(r) == "Segmented"),
        key=lambda r: r.throughput_fps,
    )
    print(
        f"baseline: {best_segmented.accelerator_name} "
        f"{best_segmented.throughput_fps:.1f} FPS, "
        f"{best_segmented.buffer_requirement_mib:.2f} MiB buffers"
    )

    evaluator = BatchEvaluator(graph, board)
    space = CustomDesignSpace(graph.conv_specs())
    print(f"custom design space: {space.size():,} designs")

    objective = Objective.relative_to(best_segmented, cost_metric="buffers",
                                      throughput_weight=1.0, cost_weight=0.5)
    result = guided_search(evaluator, space, samples=samples,
                           objective=objective, seed=2025)
    print(
        f"evaluated {result.stats.evaluated} designs at "
        f"{result.stats.ms_per_design:.1f} ms/design"
    )

    print("\nPareto front (throughput vs buffers):")
    for design, report in result.front:
        print(
            f"  {report.accelerator_name:<22} {report.throughput_fps:7.1f} FPS  "
            f"{report.buffer_requirement_mib:7.2f} MiB   {report.notation}"
        )

    matching = [
        (design, report)
        for design, report in result.evaluated
        if report.throughput_fps >= best_segmented.throughput_fps
    ]
    if matching:
        thrifty = min(matching, key=lambda pair: pair[1].buffer_requirement_bytes)[1]
        reduction = 100 * (
            1 - thrifty.buffer_requirement_bytes / best_segmented.buffer_requirement_bytes
        )
        print(
            f"\ncustom matching baseline throughput with least buffers: "
            f"{thrifty.accelerator_name} ({thrifty.buffer_requirement_mib:.2f} MiB, "
            f"{reduction:.0f}% reduction)"
        )
    best = max(result.evaluated, key=lambda pair: pair[1].throughput_fps)[1]
    gain = 100 * (best.throughput_fps / best_segmented.throughput_fps - 1)
    print(
        f"best custom throughput: {best.accelerator_name} "
        f"({best.throughput_fps:.1f} FPS, {gain:+.0f}% vs baseline)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
