"""The paper's primary contribution: blocks, builder, and the MCCM model."""

from repro.core.architectures import (
    PAPER_ARCHITECTURES,
    PAPER_CE_COUNTS,
    TEMPLATES,
    build_template,
    hybrid,
    segmented,
    segmented_rr,
)
from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock
from repro.core.builder import Accelerator, MultipleCEBuilder
from repro.core.cost import MCCM, AccessBreakdown, CostReport, SegmentCost, default_model
from repro.core.dataflow import DEFAULT_DATAFLOW, Dataflow
from repro.core.engine import ComputeEngine
from repro.core.notation import ArchitectureSpec, BlockSpec, parse_notation
from repro.core.parallelism import (
    Dimension,
    ParallelismStrategy,
    choose_parallelism,
    layer_cycles,
    layer_utilization,
)
from repro.core.segmentation import balanced_segments, hybrid_split

__all__ = [
    "PAPER_ARCHITECTURES",
    "PAPER_CE_COUNTS",
    "TEMPLATES",
    "build_template",
    "hybrid",
    "segmented",
    "segmented_rr",
    "PipelinedCEsBlock",
    "SingleCEBlock",
    "Accelerator",
    "MultipleCEBuilder",
    "MCCM",
    "AccessBreakdown",
    "CostReport",
    "SegmentCost",
    "default_model",
    "DEFAULT_DATAFLOW",
    "Dataflow",
    "ComputeEngine",
    "ArchitectureSpec",
    "BlockSpec",
    "parse_notation",
    "Dimension",
    "ParallelismStrategy",
    "choose_parallelism",
    "layer_cycles",
    "layer_utilization",
    "balanced_segments",
    "hybrid_split",
]
