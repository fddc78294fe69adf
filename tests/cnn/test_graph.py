"""Tests for the CNN DAG and the ConvSpec view."""

import pytest

from repro.cnn.graph import CNNGraph, ConvSpec
from repro.cnn.layers import (
    AddLayer,
    ConvLayer,
    DepthwiseConvLayer,
    InputLayer,
    LayerKind,
    Padding,
    TensorShape,
)
from repro.cnn.zoo import available_models, load_model
from repro.utils.errors import ShapeError


def make_linear_graph():
    g = CNNGraph("linear")
    g.add(InputLayer(name="in", input_shape=TensorShape(8, 8, 3)))
    g.add(
        ConvLayer(name="c1", input_shape=TensorShape(8, 8, 3), filters=8),
        ["in"],
    )
    g.add(
        ConvLayer(name="c2", input_shape=TensorShape(8, 8, 8), filters=16),
        ["c1"],
    )
    return g


class TestGraphConstruction:
    def test_len(self):
        assert len(make_linear_graph()) == 3

    def test_contains(self):
        assert "c1" in make_linear_graph()

    def test_duplicate_name_rejected(self):
        g = make_linear_graph()
        with pytest.raises(ShapeError):
            g.add(ConvLayer(name="c1", input_shape=TensorShape(8, 8, 16), filters=4), ["c2"])

    def test_unknown_input_rejected(self):
        g = make_linear_graph()
        with pytest.raises(ShapeError):
            g.add(ConvLayer(name="c3", input_shape=TensorShape(8, 8, 16), filters=4), ["nope"])

    def test_second_root_rejected(self):
        g = make_linear_graph()
        with pytest.raises(ShapeError):
            g.add(InputLayer(name="in2", input_shape=TensorShape(8, 8, 3)))

    def test_shape_mismatch_rejected(self):
        g = make_linear_graph()
        with pytest.raises(ShapeError):
            g.add(
                ConvLayer(name="c3", input_shape=TensorShape(8, 8, 99), filters=4),
                ["c2"],
            )

    def test_add_inputs_must_agree(self):
        g = make_linear_graph()
        g.add(ConvLayer(name="c3", input_shape=TensorShape(8, 8, 16), filters=8), ["c2"])
        with pytest.raises(ShapeError):
            g.add(AddLayer(name="bad", input_shape=TensorShape(8, 8, 16)), ["c2", "c3"])

    def test_validate_single_output(self, tiny_cnn):
        tiny_cnn.validate()  # should not raise


class TestQueries:
    def test_topological_order(self):
        g = make_linear_graph()
        assert [layer.name for layer in g.topological_order()] == ["in", "c1", "c2"]

    def test_predecessors_successors(self):
        g = make_linear_graph()
        assert g.predecessors("c2") == ["c1"]
        assert g.successors("c1") == ["c2"]

    def test_conv_layers_only(self):
        g = make_linear_graph()
        assert [layer.name for layer in g.conv_layers()] == ["c1", "c2"]

    def test_input_shape(self):
        assert make_linear_graph().input_shape == TensorShape(8, 8, 3)

    def test_totals(self):
        g = make_linear_graph()
        assert g.conv_weights == 8 * 3 * 9 + 16 * 8 * 9
        assert g.num_conv_layers == 2

    def test_summary_contains_layers(self):
        text = make_linear_graph().summary()
        assert "c1" in text and "total weights" in text


class TestConvSpecs:
    def test_indices_are_sequential(self, tiny_specs):
        assert [spec.index for spec in tiny_specs] == list(range(len(tiny_specs)))

    def test_residual_copies(self, tiny_cnn):
        specs = {spec.name: spec for spec in tiny_cnn.conv_specs()}
        # c2 feeds both c3 and the residual add -> 2 live copies.
        assert specs["c2"].fms_copies == 2
        assert specs["c1"].fms_copies == 1

    def test_fms_elements_includes_copies(self, tiny_cnn):
        specs = {spec.name: spec for spec in tiny_cnn.conv_specs()}
        c2 = specs["c2"]
        assert c2.fms_elements == c2.ifm_elements + 2 * c2.ofm_elements

    def test_loop_dimensions_tuple(self, tiny_specs):
        spec = tiny_specs[0]
        assert spec.loop_dimensions == (
            spec.filters,
            spec.channels,
            spec.out_height,
            spec.out_width,
            spec.kernel_height,
            spec.kernel_width,
        )

    def test_depthwise_spec_channels(self, tiny_cnn):
        specs = {spec.name: spec for spec in tiny_cnn.conv_specs()}
        assert specs["c6_dw"].kind is LayerKind.DEPTHWISE_CONV
        assert specs["c6_dw"].channels == 1

    def test_macs_match_layers(self, tiny_cnn):
        layers = {layer.name: layer for layer in tiny_cnn.conv_layers()}
        for spec in tiny_cnn.conv_specs():
            assert spec.macs == layers[spec.name].macs

    def test_spec_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            ConvSpec(
                index=0,
                name="bad",
                kind=LayerKind.STANDARD_CONV,
                filters=0,
                channels=1,
                out_height=1,
                out_width=1,
                kernel_height=1,
                kernel_width=1,
                ifm_elements=1,
                ofm_elements=1,
                weight_count=1,
                macs=1,
            )


def _specs_from_layer_properties(graph):
    """The conv specs read off each layer's own properties, one by one."""
    return [
        ConvSpec(
            index=index,
            name=layer.name,
            kind=layer.kind,
            filters=layer.loop_filters,
            channels=layer.loop_channels,
            out_height=layer.loop_out_height,
            out_width=layer.loop_out_width,
            kernel_height=layer.loop_kernel_height,
            kernel_width=layer.loop_kernel_width,
            ifm_elements=layer.ifm_elements,
            ofm_elements=layer.ofm_elements,
            weight_count=layer.weight_count,
            macs=layer.macs,
            fms_copies=layer.residual_copies,
        )
        for index, layer in enumerate(graph.conv_layers())
    ]


def _grouped_and_multiplied_graph():
    """A grouped conv, a depthwise conv with ``depth_multiplier`` 2, a
    pointwise conv, and VALID padding and uneven strides among them."""
    g = CNNGraph("grouped")
    g.add(InputLayer(name="in", input_shape=TensorShape(17, 13, 8)))
    g.add(
        ConvLayer(
            name="grouped",
            input_shape=TensorShape(17, 13, 8),
            filters=12,
            kernel_size=(3, 3),
            strides=(2, 1),
            padding=Padding.VALID,
            groups=4,
        ),
        ["in"],
    )
    g.add(
        DepthwiseConvLayer(
            name="dw_x2",
            input_shape=g.layer("grouped").output_shape,
            kernel_size=(3, 5),
            strides=(1, 2),
            depth_multiplier=2,
        ),
        ["grouped"],
    )
    g.add(
        ConvLayer(name="pw", input_shape=g.layer("dw_x2").output_shape, filters=10,
                  kernel_size=(1, 1)),
        ["dw_x2"],
    )
    return g


class TestConvSpecsMatchLayerProperties:
    """``conv_specs`` infers each output shape once; every field must still
    equal what the layer's own properties give."""

    @pytest.mark.parametrize("model", available_models())
    def test_zoo(self, model):
        graph = load_model(model)
        assert graph.conv_specs() == _specs_from_layer_properties(graph)

    def test_grouped_and_multiplied_depthwise(self):
        graph = _grouped_and_multiplied_graph()
        specs = graph.conv_specs()
        assert specs == _specs_from_layer_properties(graph)
        grouped, depthwise, _pointwise = specs
        assert (grouped.filters, grouped.channels) == (12, 2)
        assert (depthwise.kind, depthwise.filters, depthwise.channels) == (
            LayerKind.DEPTHWISE_CONV, 24, 1,
        )
        assert depthwise.weight_count == 24 * 3 * 5
