"""CNN layer intermediate representation.

The cost model consumes CNNs as a topologically ordered sequence of
convolutional layers (Section II-A): convolutions dominate (>90% of
operations, Section II-B), so non-conv layers (pooling, element-wise adds,
concatenations, dense heads) are carried for shape inference and residual
bookkeeping but contribute no PE work in the model, matching the paper's
focus on convolution CEs.

Every layer exposes the quantities the analytical equations need:

* the six disjoint convolution loop dimensions (Eq. 1) — filters ``K``,
  input channels ``C``, output rows ``H``, output columns ``W``, kernel rows
  ``R`` and kernel columns ``S``;
* IFM/OFM/weight element counts, for the buffer (Eqs. 4, 5, 8) and access
  (Eqs. 6, 7, 9) models;
* MAC counts, for workload-proportional PE distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

from repro.utils.errors import ShapeError
from repro.utils.mathutils import ceil_div


@dataclass(frozen=True)
class TensorShape:
    """Shape of a feature map: ``height x width x channels`` (NHWC, N=1)."""

    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        for name in ("height", "width", "channels"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ShapeError(f"{name} must be a positive int, got {value!r}")

    @property
    def elements(self) -> int:
        """Total number of scalar elements in the feature map."""
        return self.height * self.width * self.channels

    def with_channels(self, channels: int) -> "TensorShape":
        """A copy of this shape with a different channel count."""
        return TensorShape(self.height, self.width, channels)

    def __str__(self) -> str:
        return f"{self.height}x{self.width}x{self.channels}"


class Padding(enum.Enum):
    """Spatial padding mode, mirroring the Keras convention."""

    SAME = "same"
    VALID = "valid"


class LayerKind(enum.Enum):
    """Discriminates layer roles for the cost model.

    ``STANDARD_CONV``, ``DEPTHWISE_CONV`` and ``POINTWISE_CONV`` are the
    compute-bearing kinds; everything else is shape plumbing. Pointwise is a
    1x1 standard convolution kept distinct because Hybrid architectures
    dedicate sub-engines per convolution type (Section II-C).
    """

    INPUT = "input"
    STANDARD_CONV = "conv"
    DEPTHWISE_CONV = "dwconv"
    POINTWISE_CONV = "pwconv"
    POOL = "pool"
    GLOBAL_POOL = "global_pool"
    DENSE = "dense"
    ADD = "add"
    CONCAT = "concat"
    FLATTEN = "flatten"

    @property
    def is_conv(self) -> bool:
        return self in (
            LayerKind.STANDARD_CONV,
            LayerKind.DEPTHWISE_CONV,
            LayerKind.POINTWISE_CONV,
        )


class LoopExtents(NamedTuple):
    """A convolution's six disjoint loop extents (Eq. 1).

    A conv layer's weights, MACs and OFM elements are products of these,
    so they are written once, here.
    """

    filters: int
    channels: int
    out_height: int
    out_width: int
    kernel_height: int
    kernel_width: int

    @property
    def weight_count(self) -> int:
        """``K*C*R*S`` trainable weights."""
        return self.filters * self.channels * self.kernel_height * self.kernel_width

    @property
    def macs(self) -> int:
        """One MAC per weight per output pixel: ``H*W*K*C*R*S``."""
        return self.out_height * self.out_width * self.weight_count

    @property
    def ofm_elements(self) -> int:
        """``H*W*K``: one output channel per filter."""
        return self.out_height * self.out_width * self.filters


def conv_output_size(input_size: int, kernel: int, stride: int, padding: Padding) -> int:
    """Spatial output size of a convolution or pooling window."""
    if input_size <= 0 or kernel <= 0 or stride <= 0:
        raise ShapeError(
            f"sizes must be positive: input={input_size} kernel={kernel} stride={stride}"
        )
    if padding is Padding.SAME:
        return ceil_div(input_size, stride)
    if kernel > input_size:
        raise ShapeError(f"VALID padding: kernel {kernel} exceeds input {input_size}")
    return (input_size - kernel) // stride + 1


@dataclass
class Layer:
    """Base layer: a named node with one primary input shape.

    Subclasses override :meth:`infer_output_shape` and the cost properties.
    ``residual_copies`` records how many live copies of this layer's OFM the
    schedule must hold (Eq. 4 note: FMs must account for multiple copies when
    a layer feeds a residual connection); the graph fills it in.
    """

    name: str
    input_shape: TensorShape
    kind: LayerKind = field(default=LayerKind.INPUT, init=False)
    residual_copies: int = field(default=1, init=False)

    def infer_output_shape(self) -> TensorShape:
        return self.input_shape

    @property
    def output_shape(self) -> TensorShape:
        return self.infer_output_shape()

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations performed by this layer."""
        return 0

    @property
    def weight_count(self) -> int:
        """Number of trainable scalar weights."""
        return 0

    @property
    def ifm_elements(self) -> int:
        return self.input_shape.elements

    @property
    def ofm_elements(self) -> int:
        return self.output_shape.elements

    def describe(self) -> Dict[str, object]:
        """Human/JSON-friendly summary used by the serializer and reports."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "input_shape": str(self.input_shape),
            "output_shape": str(self.output_shape),
            "macs": self.macs,
            "weights": self.weight_count,
        }


@dataclass
class InputLayer(Layer):
    """The network input; holds the image shape."""

    def __post_init__(self) -> None:
        self.kind = LayerKind.INPUT


@dataclass
class ConvLayer(Layer):
    """Standard 2-D convolution.

    ``groups`` covers grouped convolutions (ResNeXt-style); depthwise
    convolutions use the dedicated subclass for clarity in per-type engine
    assignment.
    """

    filters: int = 1
    kernel_size: Tuple[int, int] = (3, 3)
    strides: Tuple[int, int] = (1, 1)
    padding: Padding = Padding.SAME
    groups: int = 1

    def __post_init__(self) -> None:
        self.kind = (
            LayerKind.POINTWISE_CONV if self.kernel_size == (1, 1) else LayerKind.STANDARD_CONV
        )
        if self.filters <= 0:
            raise ShapeError(f"{self.name}: filters must be positive, got {self.filters}")
        if any(k <= 0 for k in self.kernel_size) or any(s <= 0 for s in self.strides):
            raise ShapeError(f"{self.name}: kernel and stride entries must be positive")
        if self.groups <= 0 or self.input_shape.channels % self.groups != 0:
            raise ShapeError(
                f"{self.name}: groups={self.groups} must divide input channels "
                f"{self.input_shape.channels}"
            )
        if self.filters % self.groups != 0:
            raise ShapeError(
                f"{self.name}: groups={self.groups} must divide filters {self.filters}"
            )

    def infer_output_shape(self) -> TensorShape:
        out_h = conv_output_size(
            self.input_shape.height, self.kernel_size[0], self.strides[0], self.padding
        )
        out_w = conv_output_size(
            self.input_shape.width, self.kernel_size[1], self.strides[1], self.padding
        )
        return TensorShape(out_h, out_w, self.filters)

    # -- Disjoint loop dimensions (Eq. 1) ------------------------------------
    @property
    def loop_filters(self) -> int:
        return self.filters

    @property
    def loop_channels(self) -> int:
        return self.input_shape.channels // self.groups

    @property
    def loop_out_height(self) -> int:
        return self.output_shape.height

    @property
    def loop_out_width(self) -> int:
        return self.output_shape.width

    @property
    def loop_kernel_height(self) -> int:
        return self.kernel_size[0]

    @property
    def loop_kernel_width(self) -> int:
        return self.kernel_size[1]

    def loop_extents(self) -> LoopExtents:
        """All six loop extents, from one output-shape inference."""
        out = self.output_shape
        return LoopExtents(
            self.filters, self.loop_channels, out.height, out.width, *self.kernel_size
        )

    @property
    def macs(self) -> int:
        return self.loop_extents().macs

    @property
    def weight_count(self) -> int:
        return self.loop_extents().weight_count

    def describe(self) -> Dict[str, object]:
        base = super().describe()
        base.update(
            {
                "filters": self.filters,
                "kernel_size": list(self.kernel_size),
                "strides": list(self.strides),
                "padding": self.padding.value,
                "groups": self.groups,
            }
        )
        return base


@dataclass
class DepthwiseConvLayer(Layer):
    """Depthwise 2-D convolution: one filter per input channel."""

    kernel_size: Tuple[int, int] = (3, 3)
    strides: Tuple[int, int] = (1, 1)
    padding: Padding = Padding.SAME
    depth_multiplier: int = 1

    def __post_init__(self) -> None:
        self.kind = LayerKind.DEPTHWISE_CONV
        if any(k <= 0 for k in self.kernel_size) or any(s <= 0 for s in self.strides):
            raise ShapeError(f"{self.name}: kernel and stride entries must be positive")
        if self.depth_multiplier <= 0:
            raise ShapeError(f"{self.name}: depth_multiplier must be positive")

    def infer_output_shape(self) -> TensorShape:
        out_h = conv_output_size(
            self.input_shape.height, self.kernel_size[0], self.strides[0], self.padding
        )
        out_w = conv_output_size(
            self.input_shape.width, self.kernel_size[1], self.strides[1], self.padding
        )
        return TensorShape(out_h, out_w, self.input_shape.channels * self.depth_multiplier)

    @property
    def loop_filters(self) -> int:
        return self.output_shape.channels

    @property
    def loop_channels(self) -> int:
        # Each output channel reads exactly one input channel.
        return 1

    @property
    def loop_out_height(self) -> int:
        return self.output_shape.height

    @property
    def loop_out_width(self) -> int:
        return self.output_shape.width

    @property
    def loop_kernel_height(self) -> int:
        return self.kernel_size[0]

    @property
    def loop_kernel_width(self) -> int:
        return self.kernel_size[1]

    def loop_extents(self) -> LoopExtents:
        """All six loop extents, from one output-shape inference."""
        out = self.output_shape
        return LoopExtents(
            out.channels, self.loop_channels, out.height, out.width, *self.kernel_size
        )

    @property
    def macs(self) -> int:
        return self.loop_extents().macs

    @property
    def weight_count(self) -> int:
        return self.loop_extents().weight_count

    def describe(self) -> Dict[str, object]:
        base = super().describe()
        base.update(
            {
                "kernel_size": list(self.kernel_size),
                "strides": list(self.strides),
                "padding": self.padding.value,
                "depth_multiplier": self.depth_multiplier,
            }
        )
        return base


@dataclass
class PoolLayer(Layer):
    """Max/average pooling. No weights; negligible compute in the model."""

    pool_size: Tuple[int, int] = (2, 2)
    strides: Optional[Tuple[int, int]] = None
    padding: Padding = Padding.VALID
    mode: str = "max"

    def __post_init__(self) -> None:
        self.kind = LayerKind.POOL
        if self.strides is None:
            self.strides = self.pool_size
        if self.mode not in ("max", "avg"):
            raise ShapeError(f"{self.name}: pooling mode must be 'max' or 'avg'")

    def infer_output_shape(self) -> TensorShape:
        assert self.strides is not None
        out_h = conv_output_size(
            self.input_shape.height, self.pool_size[0], self.strides[0], self.padding
        )
        out_w = conv_output_size(
            self.input_shape.width, self.pool_size[1], self.strides[1], self.padding
        )
        return TensorShape(out_h, out_w, self.input_shape.channels)


@dataclass
class GlobalPoolLayer(Layer):
    """Global average pooling, collapsing the spatial dimensions to 1x1."""

    def __post_init__(self) -> None:
        self.kind = LayerKind.GLOBAL_POOL

    def infer_output_shape(self) -> TensorShape:
        return TensorShape(1, 1, self.input_shape.channels)


@dataclass
class DenseLayer(Layer):
    """Fully connected classifier head."""

    units: int = 1000

    def __post_init__(self) -> None:
        self.kind = LayerKind.DENSE
        if self.units <= 0:
            raise ShapeError(f"{self.name}: units must be positive")

    def infer_output_shape(self) -> TensorShape:
        return TensorShape(1, 1, self.units)

    @property
    def macs(self) -> int:
        return self.input_shape.elements * self.units

    @property
    def weight_count(self) -> int:
        return self.input_shape.elements * self.units


@dataclass
class AddLayer(Layer):
    """Element-wise addition merging a residual connection."""

    def __post_init__(self) -> None:
        self.kind = LayerKind.ADD


@dataclass
class ConcatLayer(Layer):
    """Channel concatenation (DenseNet-style merges).

    ``extra_channels`` is the channel count contributed by the secondary
    inputs beyond the primary input's channels.
    """

    extra_channels: int = 0

    def __post_init__(self) -> None:
        self.kind = LayerKind.CONCAT
        if self.extra_channels < 0:
            raise ShapeError(f"{self.name}: extra_channels must be non-negative")

    def infer_output_shape(self) -> TensorShape:
        return self.input_shape.with_channels(self.input_shape.channels + self.extra_channels)
