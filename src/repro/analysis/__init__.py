"""Fine-grained analysis: bottlenecks, breakdowns, utilization, Pareto,
and the end-to-end evaluation tables.

Each re-exported name loads its submodule on first use, so importing
``repro.analysis.pareto`` (all a campaign needs) loads only it.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.bottleneck": (
        "BottleneckProfile",
        "SegmentTiming",
        "idle_fraction",
        "profile_bottlenecks",
    ),
    "repro.analysis.energy": (
        "DEFAULT_CONSTANTS",
        "EnergyBreakdown",
        "EnergyConstants",
        "energy_breakdown",
        "energy_table",
        "per_segment_energy",
    ),
    "repro.analysis.breakdown": (
        "AccessShares",
        "access_breakdown",
        "breakdown_table",
        "per_segment_breakdown",
    ),
    "repro.analysis.pareto": (
        "pareto_front",
        "report_front",
        "scatter_points",
    ),
    "repro.analysis.sensitivity": (
        "RESOURCES",
        "SensitivityPoint",
        "SensitivityProfile",
        "scaled_board",
        "sensitivity_profile",
    ),
    "repro.analysis.reporting": (
        "HEADLINE_METRICS",
        "TIE_THRESHOLD",
        "MetricWinners",
        "architecture_of",
        "best_architecture_table",
        "best_instances",
        "ce_count_of",
        "comparison_table",
        "normalized_comparison",
        "winners_with_ties",
    ),
    "repro.analysis.utilization": (
        "SegmentUtilization",
        "normalized_buffer_shares",
        "normalized_underutilization",
        "per_segment_utilization",
        "slowest_segment",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
