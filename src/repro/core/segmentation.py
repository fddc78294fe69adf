"""Segmentation heuristics: mapping layer ranges to blocks.

The Multiple-CE Builder decides how CNN layers are grouped into segments
"based on a set of heuristics inspired by the prior art" (Section III-A).
The central one, used by the Segmented template, balances per-segment
compute so the coarse-grained pipeline's stages are even — the same
workload-proportional rule used for PE distribution (Section V-A3).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.utils.errors import ResourceError
from repro.utils.mathutils import balanced_partition


#: Load-balance slack tolerated when nudging a cut to a cheaper interface.
_BOUNDARY_SLACK = 0.25
#: How far (in layers) a cut may move during boundary refinement.
_BOUNDARY_WINDOW = 3


def balanced_segments(
    specs: Sequence[ConvSpec], num_segments: int, refine: bool = True
) -> List[Tuple[int, int]]:
    """Split layers into ``num_segments`` contiguous, MACs-balanced ranges.

    Two-step heuristic: an exact min-bottleneck linear partition of the
    per-layer MACs, then (with ``refine=True``, the default) a local
    refinement that nudges each cut (within a small window, tolerating
    bounded imbalance) toward the layer boundary with the smallest OFM —
    inter-segment interfaces are double-buffered and may spill off-chip
    (Eqs. 8-9), so cheap boundaries matter almost as much as balance.
    ``refine=False`` keeps the pure balance cuts (used by the ablation
    benchmark).

    Returns 1-based inclusive ``(start, end)`` layer ranges suitable for
    :class:`~repro.core.notation.BlockSpec`.
    """
    if num_segments < 1:
        raise ResourceError(f"num_segments must be >= 1, got {num_segments}")
    if num_segments > len(specs):
        raise ResourceError(
            f"cannot split {len(specs)} layers into {num_segments} segments"
        )
    loads = [spec.macs for spec in specs]
    ranges = balanced_partition(loads, num_segments)
    cuts = [end for _, end in ranges[:-1]]  # exclusive cut indices
    if refine:
        cuts = _refine_cuts(specs, loads, cuts)
    bounds = [0] + cuts + [len(specs)]
    return [(bounds[i] + 1, bounds[i + 1]) for i in range(num_segments)]


def _refine_cuts(
    specs: Sequence[ConvSpec], loads: Sequence[float], cuts: List[int]
) -> List[int]:
    """Nudge each cut toward a cheaper interface under a balance constraint."""
    if not cuts:
        return cuts
    prefix = [0.0]
    for load in loads:
        prefix.append(prefix[-1] + load)
    target = prefix[-1] / (len(cuts) + 1)
    refined = list(cuts)
    for position, cut in enumerate(refined):
        lower = refined[position - 1] + 1 if position > 0 else 1
        upper = refined[position + 1] - 1 if position + 1 < len(refined) else len(specs) - 1
        best_cut = cut
        best_cost = specs[cut - 1].ofm_elements
        for candidate in range(max(lower, cut - _BOUNDARY_WINDOW),
                               min(upper, cut + _BOUNDARY_WINDOW) + 1):
            left_start = refined[position - 1] if position > 0 else 0
            left_load = prefix[candidate] - prefix[left_start]
            if abs(left_load - target) > _BOUNDARY_SLACK * target + 1:
                continue
            cost = specs[candidate - 1].ofm_elements
            if cost < best_cost:
                best_cost = cost
                best_cut = candidate
        refined[position] = best_cut
    return refined


def segment_loads(specs: Sequence[ConvSpec], ranges: Sequence[Tuple[int, int]]) -> List[int]:
    """Total MACs of each 1-based inclusive layer range."""
    loads = []
    for start, end in ranges:
        loads.append(sum(spec.macs for spec in specs[start - 1 : end]))
    return loads


def hybrid_split(specs: Sequence[ConvSpec], ce_count: int) -> int:
    """Choose how many leading layers the Hybrid's pipelined part takes.

    The Hybrid pattern (Section II-C) dedicates one pipelined CE per early
    layer and hands the remainder to a larger engine. With ``n`` CEs the
    first ``n - 1`` layers get dedicated engines — early layers have the
    largest FMs and benefit most from fused, on-chip pipelining — matching
    the Fig. 2 Hybrid sketch (CE1..CE3 on L1..L3, CE4 on the rest).
    Returns the number of pipelined layers (possibly 0 for ``ce_count`` 1).
    """
    if ce_count < 2:
        return 0
    pipelined = ce_count - 1
    if pipelined >= len(specs):
        raise ResourceError(
            f"Hybrid with {ce_count} CEs needs more than {pipelined} conv layers"
        )
    return pipelined
