"""Table III: the evaluated CNN models and their characteristics."""

from repro.cnn.stats import collect_stats, stats_table
from repro.cnn.zoo import PAPER_MODELS, load_model

# (conv layers, weights in millions) straight from Table III.
PAPER_VALUES = {
    "ResNet152": (155, 60.4),
    "ResNet50": (53, 25.6),
    "Xception": (74, 22.9),
    "DenseNet121": (120, 8.1),
    "MobileNetV2": (52, 3.5),
}


def test_regenerate_table3(emit):
    stats = [collect_stats(load_model(name)) for name in PAPER_MODELS]
    text = stats_table(stats)
    emit("table3.txt", text)
    for entry in stats:
        expected_layers, expected_weights = PAPER_VALUES[entry.name]
        assert entry.conv_layer_count == expected_layers
        assert abs(entry.weights_millions - expected_weights) / expected_weights < 0.03


def test_model_construction():
    from repro.cnn.zoo.resnet import resnet50

    assert resnet50().num_conv_layers == 53
