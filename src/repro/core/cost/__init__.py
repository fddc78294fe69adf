"""MCCM cost equations: buffers (Eq. 4/5/8), accesses (Eq. 6/7/9),
allocation policy, and the composing model (Section IV-B).

Latency (Eq. 1/2) and throughput (Eq. 3) primitives live with the
structures they describe: :mod:`repro.core.parallelism` (Eq. 1) and
:mod:`repro.core.tiling` (Eqs. 2-3).
"""

from repro.core.cost.allocation import AllocationPlan, allocate_onchip
from repro.core.cost.model import MCCM, default_model
from repro.core.cost.results import (
    AccessBreakdown,
    BlockEvaluation,
    CostReport,
    SegmentCost,
    metric_is_higher_better,
)

__all__ = [
    "AllocationPlan",
    "allocate_onchip",
    "MCCM",
    "default_model",
    "AccessBreakdown",
    "BlockEvaluation",
    "CostReport",
    "SegmentCost",
    "metric_is_higher_better",
]
