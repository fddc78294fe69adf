"""The Multiple-CE Builder (Fig. 3, middle module).

Transforms an :class:`~repro.core.notation.ArchitectureSpec` plus the CNN
and FPGA descriptions into a concrete :class:`Accelerator`: blocks with
engines, PE counts, parallelism strategies and dataflows, ready for MCCM
evaluation. The implementation heuristics follow the prior art the paper
cites:

* PEs are distributed to blocks, and to CEs within a pipelined block,
  proportionally to their MAC workload (Section V-A3; pipeline balancing
  per Eq. 3's discussion).
* Each engine's parallelism is fitted to the layers it will actually
  process (Section II-B; Ma et al. [23]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cnn.graph import CNNGraph, ConvSpec
from repro.core.blocks import PipelinedCEsBlock, SingleCEBlock
from repro.core.dual import DualEngineBlock, has_mixed_conv_types
from repro.core.engine import ComputeEngine
from repro.core.notation import ArchitectureSpec, BlockSpec
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, Precision
from repro.utils.errors import ResourceError
from repro.utils.mathutils import proportional_allocation

Block = Union[SingleCEBlock, PipelinedCEsBlock, DualEngineBlock]


@dataclass
class Accelerator:
    """A fully built multiple-CE accelerator instance awaiting evaluation."""

    name: str
    spec: ArchitectureSpec
    blocks: List[Block]
    board: FPGABoard
    precision: Precision
    model_name: str
    input_fm_bytes: int
    output_fm_bytes: int
    inter_segment_bytes: List[int]
    #: Group label per block. Blocks sharing a label share one physical CE
    #: (a CE processing multiple segments, Eq. 8); by default every block
    #: has its own label.
    block_groups: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.block_groups is None:
            self.block_groups = [f"blk{i}" for i in range(len(self.blocks))]
        if len(self.block_groups) != len(self.blocks):
            raise ResourceError("block_groups must align with blocks")

    @property
    def total_pes(self) -> int:
        """PEs in distinct engines (shared groups counted once)."""
        seen = set()
        total = 0
        for block, group in zip(self.blocks, self.block_groups):
            if group in seen:
                continue
            seen.add(group)
            total += block.pe_count
        return total

    def group_members(self) -> "Dict[str, List[int]]":
        """Group label -> indices of the blocks sharing that engine."""
        members: Dict[str, List[int]] = {}
        for index, group in enumerate(self.block_groups):
            members.setdefault(group, []).append(index)
        return members

    @property
    def total_ces(self) -> int:
        return self.spec.total_ces

    @property
    def coarse_pipelined(self) -> bool:
        return self.spec.coarse_pipelined

    def describe(self) -> str:
        lines = [f"{self.name} on {self.board.name} ({self.total_pes} PEs, "
                 f"{self.total_ces} CEs): {self.spec.to_notation()}"]
        for block in self.blocks:
            if isinstance(block, SingleCEBlock):
                lines.append(f"  {block.name}: single-CE, {block.engine.describe()}, "
                             f"{len(block.specs)} layers")
            elif isinstance(block, DualEngineBlock):
                lines.append(f"  {block.name}: dual-engine, "
                             f"{block.dw_engine.describe()} + "
                             f"{block.std_engine.describe()}, "
                             f"{len(block.specs)} layers")
            else:
                lines.append(f"  {block.name}: pipelined x{block.ce_count}, "
                             f"{len(block.specs)} layers, "
                             f"{len(block.rounds())} round(s)")
        return "\n".join(lines)


def _block_layers(spec: BlockSpec, conv_specs: Sequence[ConvSpec]) -> Tuple[ConvSpec, ...]:
    return tuple(conv_specs[spec.layer_slice()])


def _build_pipelined_engines(
    block_name: str,
    layers: Tuple[ConvSpec, ...],
    ce_count: int,
    pe_budget: int,
) -> Tuple[ComputeEngine, ...]:
    """Size and fit one engine per pipeline position.

    Position ``j`` processes layers ``j, j + ce_count, j + 2*ce_count, ...``
    (round-robin). PEs go to positions proportionally to their total MACs so
    the pipeline stages are balanced (Eq. 3 discussion), and each engine's
    parallelism is fitted to exactly its own layers.
    """
    per_position: List[List[ConvSpec]] = [[] for _ in range(ce_count)]
    for offset, spec in enumerate(layers):
        per_position[offset % ce_count].append(spec)
    workloads = [max(1.0, float(sum(s.macs for s in position))) for position in per_position]
    if pe_budget < ce_count:
        raise ResourceError(
            f"{block_name}: {pe_budget} PEs cannot feed {ce_count} pipelined CEs"
        )
    pe_split = proportional_allocation(pe_budget, workloads, minimum=1)
    return tuple(
        ComputeEngine.fitted(
            f"{block_name}.CE{position + 1}", pes, position_specs or layers[:1]
        )
        for position, (position_specs, pes) in enumerate(zip(per_position, pe_split))
    )


class MultipleCEBuilder:
    """Builds :class:`Accelerator` instances from architecture specs."""

    def __init__(
        self,
        graph: CNNGraph,
        board: FPGABoard,
        precision: Precision = DEFAULT_PRECISION,
    ) -> None:
        self.graph = graph
        self.board = board
        self.precision = precision
        self._conv_specs = graph.conv_specs()
        # Prefix sums of per-layer MACs: every build needs workload totals
        # over contiguous layer ranges (PE distribution is MACs-proportional),
        # and prefix sums make each range O(1) instead of O(layers).
        prefix = [0]
        for conv in self._conv_specs:
            prefix.append(prefix[-1] + conv.macs)
        self._macs_prefix = prefix
        self._context_fingerprint: Optional[str] = None

    @property
    def context(self) -> str:
        """Fingerprint of this builder's (CNN, board, precision) context.

        Digested from the conv specs the builder copied at construction, so
        it names exactly the layers :meth:`build` costs, even if the graph
        is edited afterwards; for an unedited graph it equals
        :func:`~repro.runtime.fingerprint.context_fingerprint`. Lazily
        computed (the fingerprint helper lives in the runtime layer,
        imported only when needed).
        """
        if self._context_fingerprint is None:
            from repro.runtime.fingerprint import conv_context_fingerprint

            self._context_fingerprint = conv_context_fingerprint(
                self._conv_specs, self.board, self.precision
            )
        return self._context_fingerprint

    @property
    def conv_specs(self) -> List[ConvSpec]:
        return list(self._conv_specs)

    def range_macs(self, block: BlockSpec) -> int:
        """Total MACs of a resolved block's layer range (O(1))."""
        layer_range = block.layer_slice()
        return self._macs_prefix[layer_range.stop] - self._macs_prefix[layer_range.start]

    def build(self, spec: ArchitectureSpec) -> Accelerator:
        """Construct the accelerator: resolve ranges, distribute PEs, fit CEs.

        Engine fitting — the dominant build cost — goes through
        :func:`~repro.core.parallelism.choose_parallelism`, whose search is
        memoized process-wide by PE budget and layer shapes, so designs
        sharing segments share the fitting work.
        """
        resolved = spec.resolved(len(self._conv_specs))
        if resolved.total_ces > self.board.pe_count:
            raise ResourceError(
                f"{resolved.name}: {resolved.total_ces} CEs exceed the board's "
                f"{self.board.pe_count} PEs"
            )

        block_layers = [_block_layers(block, self._conv_specs) for block in resolved.blocks]

        # Group blocks sharing a CE (single-CE blocks with the same ce_id);
        # every other block forms its own group.
        groups: List[str] = []
        for index, block in enumerate(resolved.blocks):
            if block.ce_count == 1 and block.ce_id is not None:
                groups.append(f"ce{block.ce_id}")
            else:
                groups.append(f"blk{index}")
        group_order: List[str] = []
        group_layers: Dict[str, List[ConvSpec]] = {}
        group_minimum: Dict[str, int] = {}
        group_macs: Dict[str, int] = {}
        for index, (block, layers, group) in enumerate(
            zip(resolved.blocks, block_layers, groups)
        ):
            if group not in group_layers:
                group_order.append(group)
                group_layers[group] = []
                group_minimum[group] = block.ce_count
                group_macs[group] = 0
            group_layers[group].extend(layers)
            group_macs[group] += self.range_macs(block)
        group_workloads = [max(1.0, float(group_macs[g])) for g in group_order]
        group_pes = dict(
            zip(
                group_order,
                self._split_pes(
                    self.board.pe_count,
                    group_workloads,
                    [group_minimum[g] for g in group_order],
                ),
            )
        )
        pe_split = [group_pes[group] for group in groups]

        blocks: List[Block] = []
        bytes_per_cycle = self.board.bytes_per_cycle
        shared_engines: Dict[str, ComputeEngine] = {}
        for position, (block_spec, layers, pes) in enumerate(
            zip(resolved.blocks, block_layers, pe_split)
        ):
            name = f"B{position + 1}"
            group = groups[position]
            if block_spec.is_pipelined:
                engines = _build_pipelined_engines(name, layers, block_spec.ce_count, pes)
                blocks.append(
                    PipelinedCEsBlock(
                        name=name,
                        engines=engines,
                        specs=layers,
                        precision=self.precision,
                        bytes_per_cycle=bytes_per_cycle,
                    )
                )
            else:
                is_tail = position == len(resolved.blocks) - 1
                use_dual = (
                    resolved.dual_tail
                    and is_tail
                    and pes >= 2
                    and has_mixed_conv_types(layers)
                )
                if use_dual:
                    blocks.append(
                        DualEngineBlock.fitted(
                            name,
                            pes,
                            layers,
                            precision=self.precision,
                            bytes_per_cycle=bytes_per_cycle,
                        )
                    )
                else:
                    if group in shared_engines:
                        engine = shared_engines[group]
                    else:
                        # Fit the engine to every layer its CE will ever
                        # process — the Section IV-B1 "optimized for the
                        # average case rather than for a unique segment".
                        engine = ComputeEngine.fitted(
                            f"{name}.CE1", pes, group_layers[group]
                        )
                        shared_engines[group] = engine
                    blocks.append(
                        SingleCEBlock(
                            name=name,
                            engine=engine,
                            specs=layers,
                            precision=self.precision,
                            bytes_per_cycle=bytes_per_cycle,
                        )
                    )

        act_bytes = self.precision.activation_bytes
        inter_segment = [
            layers[-1].ofm_elements * act_bytes for layers in block_layers[:-1]
        ]
        first = self._conv_specs[0]
        last = self._conv_specs[-1]
        return Accelerator(
            name=resolved.name,
            spec=resolved,
            blocks=blocks,
            board=self.board,
            precision=self.precision,
            model_name=self.graph.name,
            input_fm_bytes=first.ifm_elements * act_bytes,
            output_fm_bytes=last.ofm_elements * act_bytes,
            inter_segment_bytes=inter_segment,
            block_groups=groups,
        )

    @staticmethod
    def _split_pes(
        total: int, workloads: Sequence[float], minimums: Sequence[int]
    ) -> List[int]:
        """Workload-proportional PE split with per-block CE minimums."""
        floor = sum(minimums)
        if total < floor:
            raise ResourceError(f"{total} PEs cannot host {floor} CEs")
        distributable = total - floor
        raw = proportional_allocation(distributable + len(workloads), list(workloads), minimum=1)
        # proportional_allocation guarantees >= 1 each; shift to sit on top of
        # the per-block minimums.
        extras = [r - 1 for r in raw]
        return [minimum + extra for minimum, extra in zip(minimums, extras)]
