"""Segment-memoized incremental evaluation (the MCCM hot-path cache).

The custom design space (Fig. 10) is a space of *partitions* of one fixed
layer list: two designs that differ in a single cut share every other
segment. The fingerprint cache in :mod:`repro.runtime.cache` only helps
when the *whole design* repeats; this module memoizes the expensive
sub-design work so that evaluating a new design degenerates to "look up
its N segments, then run the cheap Eq. 2/3 pipeline composition" (engine
fitting is memoized process-wide by
:func:`~repro.core.parallelism.choose_parallelism` itself):

* **buffer footprints** — a block's mandatory/ideal on-chip requirement
  (Eq. 4/5), consumed repeatedly by the BRAM allocator;
* **block evaluations** — the full :class:`~repro.core.cost.results.BlockEvaluation`
  of one built segment under a given buffer allocation and boundary
  traffic (Eq. 1/2/3 + the Eq. 6/7 access model).

Keys are canonical *segment signatures*: the layer indices the segment
covers plus the outcome of engine fitting (PE count, unrolling degrees,
dataflow) and the evaluation inputs (allocated bytes, boundary bytes).
Everything else a block's cost depends on — the CNN's conv shapes, the
board bandwidth, the arithmetic precision — is fixed per cache instance:
:class:`~repro.core.cost.vector.PopulationKernel` binds its cache to its
builder's evaluation context (see :meth:`SegmentCostCache.bind`), and a
cache refuses to serve another, so caches can never leak results across
(model, board, precision) contexts.

Cached block evaluations are stored exactly as the cold path computed
them and *rebased* on reuse: block names and segment indices/labels are
position-dependent (``B3``, ``B3.r2``), so a hit from a different
position is relabeled field-for-field while every cost number is carried
over verbatim. Composed reports are therefore bit-identical to cold-path
reports — the property ``tests/runtime/test_segcache.py`` locks in.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Any, Hashable, Optional, Tuple

from repro.core.cost.results import BlockEvaluation
from repro.core.engine import ComputeEngine
from repro.utils.errors import MCCMError

#: Default capacity. A segment is tiny (a few dataclasses), so this is
#: generous; DSE rounds over one CNN produce far fewer distinct segments.
DEFAULT_SEGMENT_ENTRIES = 8192


def engine_signature(engine: ComputeEngine) -> Tuple[Hashable, ...]:
    """What an engine contributes to a segment's cost: its PE count, its
    fitted unrolling degrees, and its dataflow — not its (positional) name."""
    return (
        engine.pe_count,
        engine.strategy.degrees,
        engine.dataflow.value,
    )


def segment_key(block: Any) -> Tuple[Hashable, ...]:
    """Canonical signature of one built segment (block), name-independent.

    Two blocks with the same signature produce identical cost numbers for
    identical ``evaluate`` inputs within one evaluation context: the key
    carries the layer identities and the *outcome* of engine fitting, which
    together determine Eq. 1 cycles, tiling, accesses, and buffers.
    """
    layer_ids = tuple(spec.index for spec in block.specs)
    kind = block.kind
    if kind == "single":
        engines: Tuple[Tuple[Hashable, ...], ...] = (engine_signature(block.engine),)
    elif kind == "pipelined":
        engines = tuple(engine_signature(engine) for engine in block.engines)
    elif kind == "dual":
        engines = (
            engine_signature(block.dw_engine),
            engine_signature(block.std_engine),
        )
    else:  # pragma: no cover - new block kinds must opt in explicitly
        raise MCCMError(f"unknown block kind {kind!r} for segment caching")
    return (kind, layer_ids, engines)


def _rebased(
    evaluation: BlockEvaluation, name: str, segment_index: int
) -> BlockEvaluation:
    """Relabel a cached evaluation for its position in the current design.

    Only the position-dependent fields move: the block name, each segment's
    running index, and each segment label's block-name prefix (``B3`` /
    ``B3.r2`` → ``B1`` / ``B1.r2``). Every cost figure is reused verbatim.
    """
    base = evaluation.segments[0].index if evaluation.segments else segment_index
    if evaluation.name == name and base == segment_index:
        return evaluation
    old = evaluation.name
    segments = tuple(
        replace(
            segment,
            index=segment_index + offset,
            label=name + segment.label[len(old):],
        )
        for offset, segment in enumerate(evaluation.segments)
    )
    return replace(evaluation, name=name, segments=segments)


class SegmentCostCache:
    """A bounded LRU of per-segment cost results for one context.

    Parameters
    ----------
    max_entries:
        Capacity across both record kinds (footprints, evaluations).
        Least-recently-used records are evicted first.
    """

    def __init__(self, max_entries: int = DEFAULT_SEGMENT_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        #: Context fingerprint
        #: (:func:`repro.runtime.fingerprint.context_fingerprint`) set by
        #: :meth:`bind`; ``None`` until then.
        self.context: Optional[str] = None
        self._entries: "OrderedDict[Tuple[Hashable, ...], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Block evaluations computed (eval-kind misses) — the work the
        #: cache exists to avoid repeating.
        self.evaluations = 0

    # --- context isolation ----------------------------------------------------
    def bind(self, context: str) -> "SegmentCostCache":
        """Attach the cache to an evaluation context (idempotent).

        Raises :class:`MCCMError` when the cache already serves a different
        context: segment keys are only unique *within* one
        (model, board, precision) world.
        """
        if self.context is None:
            self.context = context
        elif self.context != context:
            raise MCCMError(
                "segment cache is bound to a different evaluation context "
                "(one cache per (model, board, precision))"
            )
        return self

    # --- LRU plumbing ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, key: Tuple[Hashable, ...]) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _put(self, key: Tuple[Hashable, ...], value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def info(self) -> dict:
        """Introspection snapshot (``BatchEvaluator.cache_info``, service
        ``/healthz``)."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evaluations": self.evaluations,
        }

    # --- memoized segment work ------------------------------------------------
    def block_footprint(self, block: Any) -> Tuple[int, int]:
        """Memoized ``(mandatory_buffer_bytes, ideal_buffer_bytes)`` (Eq. 4/5)."""
        key = ("footprint", segment_key(block))
        found = self._get(key)
        if found is None:
            found = (block.mandatory_buffer_bytes(), block.ideal_buffer_bytes())
            self._put(key, found)
        return found

    def block_evaluation(
        self,
        block: Any,
        allocated_bytes: int,
        input_extra_bytes: int,
        output_extra_bytes: int,
        segment_index: int,
    ) -> BlockEvaluation:
        """Memoized ``block.evaluate(...)``, rebased to the caller's position."""
        key = (
            "eval",
            segment_key(block),
            allocated_bytes,
            input_extra_bytes,
            output_extra_bytes,
        )
        found = self._get(key)
        if found is None:
            found = block.evaluate(
                allocated_bytes,
                input_extra_bytes=input_extra_bytes,
                output_extra_bytes=output_extra_bytes,
                segment_index=segment_index,
            )
            self.evaluations += 1
            self._put(key, found)
            return found
        return _rebased(found, block.name, segment_index)
