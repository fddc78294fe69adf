"""CE parallelism strategies (Section II-B, Fig. 1).

A convolution is a nest of six loops; a parallelism strategy assigns an
unrolling degree to a subset of them, with the product of degrees bounded by
the CE's PE count (Eq. 1 constraint). Following the exhaustive FPGA analysis
the paper cites (Ma et al. [23]), the default strategy parallelizes three
dimensions: across filters (K) and within an IFM channel's width and height
(H, W). 2-D (K, W) and 1-D (K) strategies are used when a CE's PE budget is
small or the layer shapes fit them better.

Degree selection is a bounded search over divisors of the layer dimensions
(degrees that divide the dimension exactly leave no ragged edge and thus no
PE idling), minimizing the total Eq. 1 cycle count over the layers the CE
processes. The search is best-first and exact: it visits the K degrees in
ascending order of a cycle floor no (H, W) pair of theirs can beat, stops
once that floor exceeds the best cost found, and breaks cost ties
explicitly, so it returns what a triple loop over every candidate
(K, H, W) would (see :func:`_search_cached`).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cnn.graph import ConvSpec
from repro.utils.errors import ResourceError
from repro.utils.mathutils import _factors_cached, prod


class Dimension(enum.Enum):
    """The six disjoint convolution loop dimensions of Eq. 1."""

    FILTERS = "K"
    CHANNELS = "C"
    OUT_HEIGHT = "H"
    OUT_WIDTH = "W"
    KERNEL_HEIGHT = "R"
    KERNEL_WIDTH = "S"


#: Dimension extent accessors, keyed by loop dimension.
_EXTENT = {
    Dimension.FILTERS: lambda spec: spec.filters,
    Dimension.CHANNELS: lambda spec: spec.channels,
    Dimension.OUT_HEIGHT: lambda spec: spec.out_height,
    Dimension.OUT_WIDTH: lambda spec: spec.out_width,
    Dimension.KERNEL_HEIGHT: lambda spec: spec.kernel_height,
    Dimension.KERNEL_WIDTH: lambda spec: spec.kernel_width,
}


def dimension_extent(spec: ConvSpec, dimension: Dimension) -> int:
    """Extent of ``dimension`` in layer ``spec``."""
    return _EXTENT[dimension](spec)


@dataclass(frozen=True)
class ParallelismStrategy:
    """Unrolling degrees per loop dimension; unlisted dimensions have degree 1."""

    degrees: Tuple[Tuple[Dimension, int], ...] = field(default=())

    def __post_init__(self) -> None:
        seen = set()
        for dimension, degree in self.degrees:
            if degree <= 0:
                raise ResourceError(f"degree for {dimension.value} must be positive")
            if dimension in seen:
                raise ResourceError(f"duplicate degree for dimension {dimension.value}")
            seen.add(dimension)
        # Eq. 1 is evaluated millions of times per DSE run; precompute the
        # degree lookup once per strategy instead of scanning per call.
        # (object.__setattr__ because the dataclass is frozen; neither
        # attribute participates in equality or hashing.)
        degree_map = dict(self.degrees)
        object.__setattr__(self, "_degree_map", degree_map)
        object.__setattr__(
            self,
            "_degrees6",
            tuple(degree_map.get(dimension, 1) for dimension in Dimension),
        )

    @classmethod
    def from_dict(cls, degrees: Dict[Dimension, int]) -> "ParallelismStrategy":
        ordered = tuple(sorted(degrees.items(), key=lambda item: item[0].value))
        return cls(degrees=ordered)

    def degree(self, dimension: Dimension) -> int:
        return self._degree_map.get(dimension, 1)

    @property
    def degrees6(self) -> Tuple[int, int, int, int, int, int]:
        """Degrees for all six loop dimensions in :class:`Dimension` order."""
        return self._degrees6

    @property
    def total_parallelism(self) -> int:
        """Product of degrees — the PEs this strategy keeps busy at best."""
        return prod(deg for _, deg in self.degrees)

    @property
    def dimensionality(self) -> int:
        """Number of dimensions with degree > 1 (1-D, 2-D, 3-D of Fig. 1)."""
        return sum(1 for _, deg in self.degrees if deg > 1)

    def describe(self) -> str:
        parts = [f"{dim.value}={deg}" for dim, deg in self.degrees if deg > 1]
        return "x".join(parts) if parts else "scalar"


def layer_cycles(spec: ConvSpec, strategy: ParallelismStrategy) -> int:
    """Eq. 1 inner term: cycles to process one layer on one CE.

    ``Lat(Li, CEj) = prod over dimensions d of ceil(|d| / Par(CEj, d))``.
    Ceilings materialize PE underutilization: a degree that does not divide
    the extent wastes PEs on the ragged final iteration.

    This is the innermost kernel of every evaluation; the extents are read
    straight off the spec (no per-dimension dispatch) and the ceilings are
    inlined (``-(-a // b)`` == ``ceil_div`` for the positive operands both
    sides guarantee).
    """
    pk, pc, ph, pw, pr, ps = strategy.degrees6
    return (
        -(-spec.filters // pk)
        * -(-spec.channels // pc)
        * -(-spec.out_height // ph)
        * -(-spec.out_width // pw)
        * -(-spec.kernel_height // pr)
        * -(-spec.kernel_width // ps)
    )


def layer_utilization(spec: ConvSpec, strategy: ParallelismStrategy, pe_count: int) -> float:
    """Fraction of PE-cycles doing useful MACs while processing ``spec``."""
    if pe_count <= 0:
        raise ResourceError(f"pe_count must be positive, got {pe_count}")
    cycles = layer_cycles(spec, strategy)
    return spec.macs / (cycles * pe_count)


def _divisor_candidates(extents: Iterable[int], budget: int, cap: int = 24) -> List[int]:
    """Candidate unrolling degrees: divisors of the given extents, bounded.

    Divisors of the actual layer extents are the only degrees that can avoid
    ragged edges, so the search is restricted to their union (plus 1) under
    the PE budget. When that union has more than ``cap`` values, an evenly
    spaced spread of ``cap`` of them (starting at 1) is kept, plus the
    largest: at most ``cap + 1`` ascending candidates.
    """
    candidates = {1}
    for extent in extents:
        candidates.update(_factors_cached(extent))
    ordered = sorted(candidates)
    del ordered[bisect_right(ordered, budget) :]
    if len(ordered) > cap:
        # Keep a spread: always retain the smallest and largest.
        step = len(ordered) / cap
        ordered = sorted({ordered[int(i * step)] for i in range(cap)} | {ordered[-1], 1})
    return ordered


#: What the Eq. 1 search reads from one layer: ``(K, C, H, W, R, S, MACs)``.
SearchKey = Tuple[int, int, int, int, int, int, int]


def search_key(spec: ConvSpec) -> SearchKey:
    """The layer's six loop extents (Eq. 1) and its MACs."""
    return (
        spec.filters,
        spec.channels,
        spec.out_height,
        spec.out_width,
        spec.kernel_height,
        spec.kernel_width,
        spec.macs,
    )


@lru_cache(maxsize=65536)
def _search_cached(budget: int, layer_key: Tuple[SearchKey, ...]) -> ParallelismStrategy:
    """Cached core of :func:`choose_parallelism`; see its docstring.

    The winner is the (K, H, W) triple under the budget with the lowest
    cost, then the highest parallelism pk*ph*pw, then the smallest
    (pk, ph): the answer of a triple loop over the candidate lists.
    Exact reductions find it while scoring few triples:

    * The cost is the integer sum of ``C*R*S * ceil(K/pk) * ceil(H/ph) *
      ceil(W/pw)`` over the layers, so layers sharing a (K, H, W) shape
      fold into one term weighted by their summed ``C*R*S``, and for a
      given pk the shapes sharing an output plane (H, W) fold into one
      weight ``a = sum(C*R*S * ceil(K/pk))``.
    * Every term is non-increasing in pw, so for each (pk, ph) only the
      largest W candidate under the budget can win: it costs no more than
      any smaller one and is strictly more parallel.
    * Each pk is a row whose (ph, pw) pairs satisfy ph*pw <= L with
      ``L = budget // pk``. Since ``ceil(H/ph) * ceil(W/pw) >= H*W/L``,
      no pair of the row costs less than its floor
      ``sum(a * ceil(H*W / L))``, and a pair costs at least
      ``sum(a * H*W) / (ph*pw)``.

    Rows are visited in ascending floor, and the search stops at the first
    floor above the best cost found; a pair whose area bound is above it
    is skipped. Both bounds are strictly above a cost already reached, so
    a pruned triple can neither beat nor tie the winner, and the explicit
    tie-break makes the visiting order irrelevant.
    """
    shapes: Dict[Tuple[int, int, int], int] = {}
    for k, c, h, w, r, s, _macs in layer_key:
        shape = (k, h, w)
        shapes[shape] = shapes.get(shape, 0) + c * r * s

    k_candidates = _divisor_candidates({k for k, _, _ in shapes}, budget)
    h_candidates = _divisor_candidates({h for _, h, _ in shapes}, budget)
    w_candidates = _divisor_candidates({w for _, _, w in shapes}, budget)

    # (K, C*R*S, H*W, plane) per shape, with planes numbered in first-seen order.
    plane_index: Dict[Tuple[int, int], int] = {}
    folded = [
        (k, weight, h * w, plane_index.setdefault((h, w), len(plane_index)))
        for (k, h, w), weight in shapes.items()
    ]
    planes = list(plane_index)

    rows = []
    for pk in k_candidates:
        limit = budget // pk
        floor = area = 0
        for k, weight, hw, _plane in folded:
            a = weight * -(-k // pk)
            floor += a * -(-hw // limit)
            area += a * hw
        rows.append((floor, pk, limit, area))
    rows.sort()

    # (cost, -parallelism, pk, ph, pw): the lexicographic minimum wins.
    best: Optional[Tuple[int, int, int, int, int]] = None
    for floor, pk, limit, area in rows:
        if best is not None and floor > best[0]:
            break  # rows ascend by floor: no later row can reach the best
        weights = [0] * len(planes)
        for k, weight, _hw, plane in folded:
            weights[plane] += weight * -(-k // pk)
        terms = [(a, h, w) for a, (h, w) in zip(weights, planes)]
        for ph in h_candidates:
            if ph > limit:
                break  # candidates ascend: no larger ph fits either
            pw = w_candidates[bisect_right(w_candidates, limit // ph) - 1]
            pair = ph * pw
            if best is not None and area > best[0] * pair:
                continue
            cost = 0
            for a, h, w in terms:
                cost += a * -(-h // ph) * -(-w // pw)
            candidate = (cost, -pk * pair, pk, ph, pw)
            if best is None or candidate < best:
                best = candidate
    assert best is not None  # the row with the lowest floor always scores ph = 1
    _, _, pk, ph, pw = best
    degrees = {Dimension.FILTERS: pk, Dimension.OUT_HEIGHT: ph, Dimension.OUT_WIDTH: pw}
    return ParallelismStrategy.from_dict(
        {dimension: degree for dimension, degree in degrees.items() if degree > 1}
    )


def choose_parallelism(
    pe_budget: int,
    specs: Sequence[ConvSpec],
    keys: Optional[Tuple[SearchKey, ...]] = None,
) -> ParallelismStrategy:
    """Pick the (K, H, W) unrolling that minimizes total Eq. 1 cycles.

    The strategy parallelizes filters and the IFM-channel spatial dimensions
    (the 3-D scheme of [23]); for small budgets the search naturally
    degenerates to 2-D or 1-D by assigning degree 1. The search minimizes the
    summed cycle count over all layers the CE processes, i.e. it optimizes
    the average case when a CE serves diverse layers (Section IV-B1).

    ``keys`` are the specs' :func:`search_key` tuples, in order, when the
    caller already holds them (a builder's layer columns do); otherwise
    they are built from ``specs``.
    """
    if pe_budget <= 0:
        raise ResourceError(f"pe_budget must be positive, got {pe_budget}")
    if not specs:
        raise ResourceError("cannot choose parallelism for an empty layer set")
    if keys is None:
        keys = tuple(map(search_key, specs))
    return _search_cached(pe_budget, keys)
