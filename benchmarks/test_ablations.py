"""Ablation benchmarks for the design choices DESIGN.md calls out.

Four ablations, each isolating one builder/model decision:

1. **Boundary refinement** in Segmented segmentation (balance-only cuts vs
   interface-aware cuts) — affects buffer requirement via Eq. 8's
   inter-segment term.
2. **Coarse-grained pipelining** between Segmented blocks — the
   throughput/buffer trade of Section IV-B.
3. **Precision** (int8 vs int16) — data width scales buffers, accesses,
   and memory-bound latency together.
4. **Dual-engine Hybrid tail** (plain vs two sub-CEs) — Section II-C's
   optional variant.
"""

import pytest

from repro.api import evaluate, resolve_board, resolve_model
from repro.core.builder import MultipleCEBuilder
from repro.core.cost.model import default_model
from repro.core.notation import ArchitectureSpec, BlockSpec
from repro.core.segmentation import balanced_segments
from repro.hw.datatypes import INT8, INT16, Precision


def _segmented_spec(specs, ce_count, refine):
    ranges = balanced_segments(specs, ce_count, refine=refine)
    blocks = tuple(BlockSpec(start, end, 1) for start, end in ranges)
    suffix = "refined" if refine else "balanced-only"
    return ArchitectureSpec(
        name=f"Segmented-{ce_count}-{suffix}", blocks=blocks, coarse_pipelined=True
    )


def test_ablation_boundary_refinement(emit):
    graph = resolve_model("xception")
    board = resolve_board("vcu110")
    builder = MultipleCEBuilder(graph, board)
    model = default_model()
    lines = [f"{'instance':<28}{'buffer MiB':>12}{'access MiB':>12}{'FPS':>8}"]
    improvements = []
    for ce_count in (4, 6, 8):
        reports = {}
        for refine in (False, True):
            spec = _segmented_spec(builder.conv_specs, ce_count, refine)
            report = model.evaluate(builder.build(spec))
            reports[refine] = report
            lines.append(
                f"{report.accelerator_name:<28}{report.buffer_requirement_mib:>12.2f}"
                f"{report.access_mib:>12.1f}{report.throughput_fps:>8.1f}"
            )
        improvements.append(
            reports[True].buffer_requirement_bytes
            <= reports[False].buffer_requirement_bytes
        )
    emit("ablation_refinement.txt", "\n".join(lines))
    # Interface-aware cuts should never increase the buffer requirement,
    # and should strictly shrink it for at least one instance.
    assert all(improvements)


def test_ablation_coarse_pipelining(emit):
    graph = resolve_model("resnet50")
    board = resolve_board("zcu102")
    builder = MultipleCEBuilder(graph, board)
    model = default_model()
    lines = [f"{'variant':<24}{'latency ms':>12}{'FPS':>8}{'buffer MiB':>12}"]
    reports = {}
    for pipelined in (True, False):
        ranges = balanced_segments(builder.conv_specs, 5)
        spec = ArchitectureSpec(
            name=f"Segmented-5-{'pipe' if pipelined else 'seq'}",
            blocks=tuple(BlockSpec(start, end, 1) for start, end in ranges),
            coarse_pipelined=pipelined,
        )
        report = model.evaluate(builder.build(spec))
        reports[pipelined] = report
        lines.append(
            f"{report.accelerator_name:<24}{report.latency_ms:>12.2f}"
            f"{report.throughput_fps:>8.1f}{report.buffer_requirement_mib:>12.2f}"
        )
    emit("ablation_coarse_pipelining.txt", "\n".join(lines))
    # Inter-segment pipelining buys throughput and pays in buffers
    # (double-buffered interfaces), leaving single-image latency ~equal.
    assert reports[True].throughput_fps > 1.5 * reports[False].throughput_fps
    assert reports[True].buffer_requirement_bytes > (
        reports[False].buffer_requirement_bytes
    )


def test_ablation_precision(emit):
    graph = resolve_model("resnet50")
    board = resolve_board("zc706")
    model = default_model()
    lines = [f"{'precision':<10}{'latency ms':>12}{'FPS':>8}{'buffer MiB':>12}{'access MiB':>12}"]
    reports = {}
    for name, precision in (("int8", Precision(INT8, INT8)), ("int16", Precision(INT16, INT16))):
        builder = MultipleCEBuilder(graph, board, precision)
        from repro.core.architectures import segmented_rr

        report = model.evaluate(builder.build(segmented_rr(builder.conv_specs, 2)))
        reports[name] = report
        lines.append(
            f"{name:<10}{report.latency_ms:>12.2f}{report.throughput_fps:>8.1f}"
            f"{report.buffer_requirement_mib:>12.2f}{report.access_mib:>12.1f}"
        )
    emit("ablation_precision.txt", "\n".join(lines))
    # Halving the data width must halve the buffer requirement exactly and
    # cut accesses at least proportionally (smaller data also fits better).
    assert reports["int8"].buffer_requirement_bytes == pytest.approx(
        reports["int16"].buffer_requirement_bytes / 2, rel=0.01
    )
    assert reports["int8"].accesses.total_bytes < reports["int16"].accesses.total_bytes / 1.8
    # On the bandwidth-starved ZC706 this translates into real speedup.
    assert reports["int8"].latency_cycles < reports["int16"].latency_cycles


def test_ablation_dual_tail(emit):
    model_names = ("mobilenetv2", "xception")
    lines = [f"{'model':<14}{'variant':<12}{'latency ms':>12}{'FPS':>8}{'buffer MiB':>12}"]
    for model_name in model_names:
        plain = evaluate(model_name, "zc706", "hybrid", ce_count=4)
        dual = evaluate(model_name, "zc706", "hybriddual", ce_count=4)
        for label, report in (("plain", plain), ("dual", dual)):
            lines.append(
                f"{model_name:<14}{label:<12}{report.latency_ms:>12.2f}"
                f"{report.throughput_fps:>8.1f}{report.buffer_requirement_mib:>12.2f}"
            )
        # The dual tail trades a small scheduling penalty for the fused
        # intermediate's buffer saving (Section II-C variant).
        assert dual.buffer_requirement_bytes <= plain.buffer_requirement_bytes
        assert dual.accesses.total_bytes <= plain.accesses.total_bytes * 1.01
    emit("ablation_dual_tail.txt", "\n".join(lines))


def test_ablation_unit():
    graph = resolve_model("xception")
    board = resolve_board("vcu110")
    builder = MultipleCEBuilder(graph, board)
    spec = _segmented_spec(builder.conv_specs, 6, refine=True)
    report = default_model().evaluate(builder.build(spec))
    assert report.throughput_fps > 0
