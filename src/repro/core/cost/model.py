"""MCCM: bottom-up composition of block models into a full accelerator
evaluation (Section IV-B).

The composition handles exactly the two concerns the paper identifies:
whether a block processes one or multiple segments (the blocks themselves
report per-segment costs), and whether there is inter-segment (coarse-
grained) pipelining across blocks:

* **Latency** — the sum of block latencies either way (one input walks the
  blocks in order); coarse pipelining overlaps *different* inputs, not one.
* **Throughput** — with coarse pipelining, the initiation interval is the
  slowest block's interval (Eq. 2/3 generalized per Section IV-B1); without
  it, the interval is the end-to-end latency. Aggregate off-chip traffic
  over the shared bandwidth bounds throughput from above in both cases.
* **Buffers** — Eq. 8: block requirements plus double-buffered
  inter-segment interfaces under coarse pipelining (single-buffered
  otherwise).
* **Accesses** — Eq. 9: intra-block accesses plus ``2 x interSegBufferSz``
  for every interface whose double-buffer did not fit on-chip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.cost.allocation import AllocationPlan, allocate_onchip
from repro.core.cost.results import AccessBreakdown, BlockEvaluation, CostReport
from repro.utils.mathutils import ordered_sum

if TYPE_CHECKING:  # avoid a circular import; Accelerator is only a type here
    from repro.core.builder import Accelerator

#: ``(mandatory_bytes, ideal_bytes)`` per block — the Eq. 4/5 footprints
#: the allocator and the Eq. 8 requirement both consume.
Footprint = Tuple[int, int]


class MCCM:
    """The Multiple-CE accelerator analytical Cost Model."""

    def evaluate(self, accelerator: "Accelerator", segment_cache=None) -> CostReport:
        """Produce the full cost report for one built accelerator.

        ``segment_cache`` is an optional
        :class:`repro.runtime.segcache.SegmentCostCache` (duck-typed; the
        core does not import the runtime layer). When present, per-block
        buffer footprints and block evaluations — the expensive, segment-
        local work — are served from the cache; the pipeline-level Eq. 2/3
        composition below always runs fresh. Reports are bit-identical with
        and without a cache.

        The cache is trusted to belong to the accelerator's evaluation
        context: :class:`~repro.core.cost.vector.PopulationKernel` binds
        it to its builder's context when the kernel is constructed.
        """
        footprints = self._block_footprints(accelerator, segment_cache)
        plan = self._allocate(accelerator, footprints)
        evaluations = self._evaluate_blocks(accelerator, plan, segment_cache)

        latency = ordered_sum(evaluation.latency_cycles for evaluation in evaluations)
        accesses = AccessBreakdown()
        for evaluation in evaluations:
            accesses = accesses + evaluation.accesses

        if accelerator.coarse_pipelined and len(evaluations) > 1:
            # A CE shared by several segments serializes them for each
            # input (Eq. 8 case): its pipeline-stage time is the sum of
            # its segments' intervals.
            group_intervals = {}
            for group, evaluation in zip(accelerator.block_groups, evaluations):
                group_intervals[group] = (
                    group_intervals.get(group, 0.0)
                    + evaluation.throughput_interval_cycles
                )
            interval = max(group_intervals.values())
        elif len(evaluations) == 1:
            interval = evaluations[0].throughput_interval_cycles
        else:
            interval = latency
        bandwidth_floor = accesses.total_bytes / accelerator.board.bytes_per_cycle
        interval = max(interval, bandwidth_floor)

        copies = 2 if accelerator.coarse_pipelined else 1
        inter_seg_requirement = self._inter_segment_requirement(accelerator, copies)
        # Eq. 8: a CE processing multiple segments reuses one buffer sized
        # for its worst segment, so shared groups contribute their max.
        group_ideal = {}
        for group, (_mandatory, ideal) in zip(accelerator.block_groups, footprints):
            group_ideal[group] = max(group_ideal.get(group, 0), ideal)
        requirement = sum(group_ideal.values()) + inter_seg_requirement

        return CostReport(
            accelerator_name=accelerator.name,
            model_name=accelerator.model_name,
            board_name=accelerator.board.name,
            clock_hz=accelerator.board.clock_hz,
            latency_cycles=latency,
            throughput_interval_cycles=interval,
            buffer_requirement_bytes=requirement,
            buffer_allocated_bytes=plan.total_block_bytes,
            accesses=accesses,
            blocks=tuple(evaluations),
            total_pes=accelerator.total_pes,
            fits_onchip=plan.fits_onchip,
            notation=accelerator.spec.to_notation(),
        )

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _inter_segment_requirement(accelerator: "Accelerator", copies: int) -> int:
        """Eq. 8 interface term; without pipelining, one reused buffer must
        hold the largest inter-segment intermediate (Section IV-B2)."""
        sizes = accelerator.inter_segment_bytes
        if not sizes:
            return 0
        if copies == 2:
            return 2 * sum(sizes)
        return max(sizes)

    @staticmethod
    def _block_footprints(
        accelerator: "Accelerator", segment_cache=None
    ) -> List[Footprint]:
        """Eq. 4/5 ``(mandatory, ideal)`` bytes per block, cache-aware."""
        if segment_cache is not None:
            return [
                segment_cache.block_footprint(block) for block in accelerator.blocks
            ]
        return [
            (block.mandatory_buffer_bytes(), block.ideal_buffer_bytes())
            for block in accelerator.blocks
        ]

    @staticmethod
    def _allocate(
        accelerator: "Accelerator", footprints: Sequence[Footprint]
    ) -> AllocationPlan:
        """Group-aware BRAM allocation over the blocks' Eq. 4/5
        ``footprints`` (:meth:`_block_footprints`).

        Blocks sharing a CE share one physical buffer (Eq. 8): the group is
        allocated once, sized by its worst member, and every member block
        evaluates against that same allocation.
        """
        members = accelerator.group_members()
        group_order = list(members)
        group_mandatory = [
            max(footprints[i][0] for i in members[g]) for g in group_order
        ]
        group_ideal = [
            max(footprints[i][1] for i in members[g]) for g in group_order
        ]
        plan = allocate_onchip(
            capacity_bytes=accelerator.board.bram_bytes,
            mandatory_bytes=group_mandatory,
            ideal_bytes=group_ideal,
            inter_segment_bytes=accelerator.inter_segment_bytes,
            inter_segment_copies=2 if accelerator.coarse_pipelined else 1,
        )
        per_block = [0] * len(accelerator.blocks)
        for group, allocated in zip(group_order, plan.block_bytes):
            for index in members[group]:
                per_block[index] = allocated
        return AllocationPlan(
            block_bytes=tuple(per_block),
            inter_segment_onchip=plan.inter_segment_onchip,
            fits_onchip=plan.fits_onchip,
        )

    @staticmethod
    def _evaluate_blocks(
        accelerator: "Accelerator", plan: AllocationPlan, segment_cache=None
    ) -> List[BlockEvaluation]:
        """Run every block model with its Eq. 9 :func:`boundary_traffic`.

        With a segment cache, a block whose (segment, allocation, boundary
        traffic) signature has been costed before reuses that evaluation,
        rebased to this design's block name and segment indices.
        """
        evaluations: List[BlockEvaluation] = []
        segment_cursor = 0
        for index, (block, (input_extra, output_extra)) in enumerate(
            zip(accelerator.blocks, boundary_traffic(accelerator, plan))
        ):
            if segment_cache is not None:
                evaluation = segment_cache.block_evaluation(
                    block,
                    plan.block_bytes[index],
                    input_extra,
                    output_extra,
                    segment_cursor,
                )
            else:
                evaluation = block.evaluate(
                    plan.block_bytes[index],
                    input_extra_bytes=input_extra,
                    output_extra_bytes=output_extra,
                    segment_index=segment_cursor,
                )
            segment_cursor += len(evaluation.segments)
            evaluations.append(evaluation)
        return evaluations


def boundary_traffic(
    accelerator: "Accelerator", plan: AllocationPlan
) -> List[Tuple[int, int]]:
    """Each block's Eq. 9 boundary FM bytes: ``(input_extra, output_extra)``.

    The CNN input load and output store are always off-chip; a spilled
    interface charges its store to the producer block and its load to the
    consumer block (together the ``2 x interSegBufferSz`` of Eq. 9).
    """
    spilled = [
        0 if onchip else size
        for onchip, size in zip(plan.inter_segment_onchip, accelerator.inter_segment_bytes)
    ]
    return list(
        zip([accelerator.input_fm_bytes, *spilled], [*spilled, accelerator.output_fm_bytes])
    )


_DEFAULT_MODEL: Optional[MCCM] = None


def default_model() -> MCCM:
    """The shared stateless MCCM instance."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = MCCM()
    return _DEFAULT_MODEL
