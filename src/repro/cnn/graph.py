"""CNN DAG representation and the conv-layer view the cost model consumes.

A :class:`CNNGraph` is a directed acyclic graph of :class:`~repro.cnn.layers.Layer`
nodes. The MCCM equations operate on the topologically ordered convolutional
layers only (Section II-B: convolutions are >90% of CNN operations), so the
graph exposes :meth:`CNNGraph.conv_specs`, a flat list of
:class:`ConvSpec` records carrying exactly the quantities the equations need.

Residual connections matter to the buffer model: Eq. 4's note says a layer's
feature maps "must account for multiple copies of the FMs in case a layer has
residual connections". The graph derives each conv layer's live-copy
multiplier from its out-degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cnn.layers import Layer, LayerKind, TensorShape
from repro.utils.errors import ShapeError


@dataclass(frozen=True)
class ConvSpec:
    """Flat record of one convolutional layer for the analytical model.

    Attributes mirror the six disjoint loop dimensions of Eq. 1 plus the
    element counts used by the buffer and access models. All counts are in
    scalar elements (not bytes); the hardware description supplies the
    datatype width.
    """

    index: int
    name: str
    kind: LayerKind
    filters: int
    channels: int
    out_height: int
    out_width: int
    kernel_height: int
    kernel_width: int
    ifm_elements: int
    ofm_elements: int
    weight_count: int
    macs: int
    fms_copies: int = 1

    def __post_init__(self) -> None:
        positive_fields = (
            "filters",
            "channels",
            "out_height",
            "out_width",
            "kernel_height",
            "kernel_width",
            "ifm_elements",
            "ofm_elements",
            "weight_count",
            "macs",
            "fms_copies",
        )
        for field_name in positive_fields:
            value = getattr(self, field_name)
            if value <= 0:
                raise ShapeError(f"{self.name}: {field_name} must be positive, got {value}")

    @property
    def loop_dimensions(self) -> Tuple[int, int, int, int, int, int]:
        """The six disjoint dimensions ``(K, C, H, W, R, S)`` of Eq. 1."""
        return (
            self.filters,
            self.channels,
            self.out_height,
            self.out_width,
            self.kernel_height,
            self.kernel_width,
        )

    @property
    def fms_elements(self) -> int:
        """IFM plus OFM elements, with residual copies counted (Eq. 4)."""
        return self.ifm_elements + self.ofm_elements * self.fms_copies


class CNNGraph:
    """A named DAG of layers with shape validation and conv extraction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._layers: Dict[str, Layer] = {}
        self._predecessors: Dict[str, List[str]] = {}
        self._successors: Dict[str, List[str]] = {}
        self._order: List[str] = []

    # -- construction --------------------------------------------------------
    def add(self, layer: Layer, inputs: Sequence[str] = ()) -> Layer:
        """Add ``layer`` fed by the named predecessor layers.

        The first layer added must have no inputs (the network input). Shape
        consistency between the layer's declared ``input_shape`` and its
        primary predecessor's output shape is enforced here, so a graph that
        builds successfully always has coherent shapes.
        """
        if layer.name in self._layers:
            raise ShapeError(f"duplicate layer name: {layer.name}")
        for parent in inputs:
            if parent not in self._layers:
                raise ShapeError(f"{layer.name}: unknown input layer {parent!r}")
        if not inputs and self._layers:
            raise ShapeError(f"{layer.name}: only the first layer may have no inputs")
        if inputs:
            self._check_input_shape(layer, inputs)
        self._layers[layer.name] = layer
        self._predecessors[layer.name] = list(inputs)
        self._successors[layer.name] = []
        for parent in inputs:
            self._successors[parent].append(layer.name)
        self._order.append(layer.name)
        return layer

    def _check_input_shape(self, layer: Layer, inputs: Sequence[str]) -> None:
        primary = self._layers[inputs[0]].output_shape
        if layer.kind is LayerKind.CONCAT:
            total_channels = sum(self._layers[p].output_shape.channels for p in inputs)
            expected = primary.with_channels(primary.channels)
            if layer.input_shape != expected:
                raise ShapeError(
                    f"{layer.name}: concat primary input shape {layer.input_shape} "
                    f"!= predecessor output {expected}"
                )
            declared_total = layer.output_shape.channels
            if declared_total != total_channels:
                raise ShapeError(
                    f"{layer.name}: concat output channels {declared_total} != "
                    f"sum of predecessor channels {total_channels}"
                )
            return
        if layer.kind is LayerKind.ADD:
            shapes = {str(self._layers[p].output_shape) for p in inputs}
            if len(shapes) != 1:
                raise ShapeError(f"{layer.name}: add inputs disagree on shape: {shapes}")
        if layer.input_shape != primary:
            raise ShapeError(
                f"{layer.name}: declared input shape {layer.input_shape} does not match "
                f"predecessor {inputs[0]!r} output {primary}"
            )

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def layer(self, name: str) -> Layer:
        return self._layers[name]

    def predecessors(self, name: str) -> List[str]:
        return list(self._predecessors[name])

    def successors(self, name: str) -> List[str]:
        return list(self._successors[name])

    def topological_order(self) -> List[Layer]:
        """Layers in a valid topological order (insertion order is one)."""
        return [self._layers[name] for name in self._order]

    @property
    def input_shape(self) -> TensorShape:
        if not self._order:
            raise ShapeError("graph is empty")
        return self._layers[self._order[0]].input_shape

    def conv_layers(self) -> List[Layer]:
        """Convolutional layers in topological order."""
        return [layer for layer in self.topological_order() if layer.kind.is_conv]

    def conv_specs(self) -> List[ConvSpec]:
        """The flat conv-layer records consumed by the cost model.

        Each layer's output shape is inferred once, by its
        ``loop_extents()``; the extents give its weights, MACs and OFM size.
        """
        self._assign_residual_copies()
        specs: List[ConvSpec] = []
        for index, layer in enumerate(self.conv_layers()):
            loops = layer.loop_extents()  # type: ignore[attr-defined]
            specs.append(
                ConvSpec(
                    index=index,
                    name=layer.name,
                    kind=layer.kind,
                    filters=loops.filters,
                    channels=loops.channels,
                    out_height=loops.out_height,
                    out_width=loops.out_width,
                    kernel_height=loops.kernel_height,
                    kernel_width=loops.kernel_width,
                    ifm_elements=layer.ifm_elements,
                    ofm_elements=loops.ofm_elements,
                    weight_count=loops.weight_count,
                    macs=loops.macs,
                    fms_copies=layer.residual_copies,
                )
            )
        return specs

    def _assign_residual_copies(self) -> None:
        """Set each conv layer's live-FM multiplier from its fan-out.

        A conv whose OFM feeds more than one consumer (e.g. both the next
        conv and a downstream Add) must keep that many copies live, which is
        exactly the Eq. 4 residual-copies provision.
        """
        for name, layer in self._layers.items():
            if layer.kind.is_conv:
                layer.residual_copies = max(1, len(self._successors[name]))

    # -- aggregate statistics ---------------------------------------------------
    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.topological_order())

    @property
    def conv_macs(self) -> int:
        return sum(layer.macs for layer in self.conv_layers())

    @property
    def total_weights(self) -> int:
        return sum(layer.weight_count for layer in self.topological_order())

    @property
    def conv_weights(self) -> int:
        return sum(layer.weight_count for layer in self.conv_layers())

    @property
    def num_conv_layers(self) -> int:
        return len(self.conv_layers())

    def validate(self) -> None:
        """Re-check DAG invariants: acyclicity and shape coherence."""
        seen: Dict[str, int] = {name: 0 for name in self._layers}
        for name in self._order:
            for parent in self._predecessors[name]:
                if self._order.index(parent) >= self._order.index(name):
                    raise ShapeError(f"edge {parent} -> {name} violates topological order")
                seen[parent] += 1
        # Every non-terminal layer should feed something.
        terminals = [n for n, succs in self._successors.items() if not succs]
        if len(terminals) != 1:
            raise ShapeError(f"expected exactly one output layer, found {terminals}")

    def summary(self) -> str:
        """Multi-line human-readable summary table."""
        lines = [f"Model: {self.name}  ({self.num_conv_layers} conv layers)"]
        header = f"{'layer':<28}{'kind':<10}{'output':<16}{'weights':>12}{'MACs':>16}"
        lines.append(header)
        lines.append("-" * len(header))
        for layer in self.topological_order():
            lines.append(
                f"{layer.name:<28}{layer.kind.value:<10}{str(layer.output_shape):<16}"
                f"{layer.weight_count:>12,}{layer.macs:>16,}"
            )
        lines.append("-" * len(header))
        lines.append(f"total weights: {self.total_weights:,}  total MACs: {self.total_macs:,}")
        return "\n".join(lines)
