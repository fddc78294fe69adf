"""Tests for the workload registry: models and boards as data."""

import json

import pytest

from repro.cnn.serialize import graph_to_dict
from repro.cnn.zoo import ABBREVIATIONS, available_models, load_model
from repro.hw.boards import BOARDS, FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION, INT8, Precision
from repro.runtime.fingerprint import context_fingerprint
from repro.utils.errors import (
    MCCMError,
    UnknownWorkloadError,
    WorkloadConflictError,
    WorkloadError,
)
from repro.workloads import WorkloadRegistry, board_from_dict, board_to_dict
from tests.conftest import build_tiny_cnn


@pytest.fixture
def registry():
    """An isolated registry (built-ins included, no global state)."""
    return WorkloadRegistry()


def tiny_definition(name="tinynet"):
    definition = graph_to_dict(build_tiny_cnn())
    definition["name"] = name
    return definition


BOARD_DEF = {
    "name": "edgeboard",
    "dsp_count": 512,
    "bram_mib": 2.0,
    "bandwidth_gbps": 8.0,
}


class TestBuiltins:
    def test_models_match_zoo(self, registry):
        assert registry.models.names() == available_models()
        assert registry.model("resnet50") is load_model("resnet50")

    def test_abbreviations_resolve(self, registry):
        assert registry.models.canonical("res50") == "resnet50"
        assert registry.model("RES50") is registry.model("resnet50")

    def test_boards_match_table_ii(self, registry):
        assert registry.boards.names() == sorted(BOARDS)
        assert registry.board("zc706") is BOARDS["zc706"]

    def test_builtins_are_flagged(self, registry):
        assert registry.models.entry("xception").builtin
        assert registry.boards.entry("vcu110").builtin

    def test_builtins_cannot_be_removed(self, registry):
        with pytest.raises(WorkloadConflictError):
            registry.models.unregister("resnet50")
        with pytest.raises(WorkloadConflictError):
            registry.boards.unregister("zc706")


class TestUnknownNames:
    def test_unknown_model_has_suggestion(self, registry):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            registry.model("resnet5")
        error = excinfo.value
        assert error.workload_kind == "model"
        assert error.suggestion == "resnet50"
        assert "did you mean 'resnet50'" in str(error)
        assert error.available == available_models()

    def test_unknown_board_is_key_error_compatible(self, registry):
        with pytest.raises(KeyError):
            registry.board("nope")
        with pytest.raises(MCCMError):
            registry.board("nope")


class TestModelRegistration:
    def test_register_graph_object(self, registry):
        name = registry.models.register(build_tiny_cnn())
        assert name == "tinynet"
        assert registry.model("tinynet").num_conv_layers == 8
        assert "tinynet" in registry.models.names()
        assert not registry.models.entry("tinynet").builtin

    def test_register_dict_and_file_agree(self, registry, tmp_path):
        definition = tiny_definition()
        from_dict = registry.models.register(definition, name="fromdict")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(definition))
        from_file = registry.models.register(path, name="fromfile")
        assert registry.models.entry(from_dict).definition["layers"] == (
            registry.models.entry(from_file).definition["layers"]
        )

    def test_idempotent_reregistration(self, registry):
        registry.models.register(tiny_definition())
        generation = registry.generation
        assert registry.models.register(tiny_definition()) == "tinynet"
        assert registry.generation == generation  # no-op

    def test_conflicting_content_needs_replace(self, registry):
        registry.models.register(tiny_definition())
        edited = tiny_definition()
        edited["layers"][1]["kernel_size"] = [5, 5]  # c1: 3x3 -> 5x5
        with pytest.raises(WorkloadConflictError):
            registry.models.register(edited)
        registry.models.register(edited, replace=True)
        assert registry.model("tinynet").conv_specs()[0].kernel_height == 5

    def test_builtin_names_and_abbreviations_reserved(self, registry):
        with pytest.raises(WorkloadConflictError):
            registry.models.register(tiny_definition(), name="resnet50")
        abbreviation = next(iter(ABBREVIATIONS))
        with pytest.raises(WorkloadConflictError):
            registry.models.register(tiny_definition(), name=abbreviation)

    def test_bad_names_rejected(self, registry):
        for bad in ("", "has space", "sl/ash", "-leading"):
            with pytest.raises(WorkloadError):
                registry.models.register(tiny_definition(), name=bad)

    def test_malformed_definition_rejected(self, registry):
        from repro.utils.errors import ShapeError

        with pytest.raises(ShapeError):
            registry.models.register({"name": "broken", "layers": []})

    def test_unregister(self, registry):
        registry.models.register(tiny_definition())
        registry.models.unregister("tinynet")
        assert "tinynet" not in registry.models
        with pytest.raises(UnknownWorkloadError):
            registry.models.unregister("tinynet")

    def test_custom_models_lists_definitions(self, registry):
        registry.models.register(tiny_definition())
        customs = registry.models.customs()
        assert list(customs) == ["tinynet"]
        assert customs["tinynet"]["name"] == "tinynet"


class TestBoardRegistration:
    def test_register_schema_dict(self, registry):
        name = registry.boards.register(BOARD_DEF)
        board = registry.board(name)
        assert name == "edgeboard"
        assert board.dsp_count == 512
        assert board.bram_bytes == 2 * 2**20
        assert board.clock_hz == 200e6  # default

    def test_register_board_object_and_file(self, registry, tmp_path):
        board = FPGABoard(name="objboard", dsp_count=256,
                          bram_bytes=1 << 20, bandwidth_gbps=4.0)
        assert registry.boards.register(board) == "objboard"
        path = tmp_path / "board.json"
        path.write_text(json.dumps(BOARD_DEF))
        assert registry.boards.register(path) == "edgeboard"

    def test_round_trip_codec(self):
        board, precisions = board_from_dict(
            {**BOARD_DEF, "supported_precisions": ["int8", "int16"]}
        )
        definition = board_to_dict(board, precisions)
        again, again_precisions = board_from_dict(definition)
        assert again == board
        assert again_precisions == ("int8", "int16")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"name": ""},
            {"dsp_count": 0},
            {"dsp_count": 2.5},
            {"bram_mib": -1},
            {"bandwidth_gbps": "fast"},
            {"bram_bytes": 1024},  # both bram_bytes and bram_mib
            {"clock_hz": 1e8, "clock_mhz": 100},
            {"unknown_field": 1},
            {"supported_precisions": []},
            {"supported_precisions": ["int4"]},
            {"supported_precisions": "int8"},
        ],
    )
    def test_schema_rejects(self, mutation):
        with pytest.raises(MCCMError):
            board_from_dict({**BOARD_DEF, **mutation})

    def test_precision_restriction_enforced(self, registry):
        registry.boards.register(
            {**BOARD_DEF, "supported_precisions": ["int8"]}
        )
        int8 = Precision(weights=INT8, activations=INT8)
        assert registry.board("edgeboard", precision=int8).dsp_count == 512
        with pytest.raises(WorkloadError):
            registry.board("edgeboard", precision=DEFAULT_PRECISION)

    def test_builtin_board_names_reserved(self, registry):
        with pytest.raises(WorkloadConflictError):
            registry.boards.register({**BOARD_DEF, "name": "zc706"})

    def test_conflict_and_replace(self, registry):
        registry.boards.register(BOARD_DEF)
        bigger = {**BOARD_DEF, "dsp_count": 1024}
        with pytest.raises(WorkloadConflictError):
            registry.boards.register(bigger)
        registry.boards.register(bigger, replace=True)
        assert registry.board("edgeboard").dsp_count == 1024


class TestContentDerivedFingerprints:
    """The cache-correctness contract for registered (renamable) models."""

    def test_renamed_model_shares_cache_context(self, registry):
        board = registry.board("zc706")
        first = build_tiny_cnn()
        second = build_tiny_cnn()
        second.name = "a-completely-different-name"
        assert context_fingerprint(first, board, DEFAULT_PRECISION) == (
            context_fingerprint(second, board, DEFAULT_PRECISION)
        )

    def test_edited_model_changes_cache_context(self, registry):
        board = registry.board("zc706")
        registry.models.register(tiny_definition())
        before = context_fingerprint(
            registry.model("tinynet"), board, DEFAULT_PRECISION
        )
        edited = tiny_definition()
        edited["layers"][1]["kernel_size"] = [5, 5]
        registry.models.register(edited, replace=True)
        after = context_fingerprint(
            registry.model("tinynet"), board, DEFAULT_PRECISION
        )
        assert before != after

    def test_renamed_board_shares_cache_context(self, registry):
        graph = registry.model("squeezenet")
        zc706 = registry.board("zc706")
        renamed = FPGABoard(
            name="zc706-clone",
            dsp_count=zc706.dsp_count,
            bram_bytes=zc706.bram_bytes,
            bandwidth_gbps=zc706.bandwidth_gbps,
            clock_hz=zc706.clock_hz,
        )
        assert context_fingerprint(graph, zc706, DEFAULT_PRECISION) == (
            context_fingerprint(graph, renamed, DEFAULT_PRECISION)
        )


class TestWorkloadDirectory:
    def test_load_directory_registers_models_and_boards(self, registry, tmp_path):
        (tmp_path / "models").mkdir()
        (tmp_path / "boards").mkdir()
        (tmp_path / "models" / "tinynet.json").write_text(
            json.dumps(tiny_definition())
        )
        (tmp_path / "boards" / "edgeboard.json").write_text(json.dumps(BOARD_DEF))
        registered = registry.load_directory(tmp_path)
        assert sorted(registered) == ["edgeboard", "tinynet"]
        assert "tinynet" in registry.models and "edgeboard" in registry.boards

    def test_missing_directory_is_noop(self, registry, tmp_path):
        assert registry.load_directory(tmp_path / "absent") == []

    def test_malformed_file_names_the_culprit(self, registry, tmp_path):
        (tmp_path / "models").mkdir()
        bad = tmp_path / "models" / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(WorkloadError) as excinfo:
            registry.load_directory(tmp_path)
        assert "broken.json" in str(excinfo.value)

    def test_save_workload_round_trips(self, registry, tmp_path):
        from repro.workloads import save_workload

        path = save_workload("model", "tinynet", tiny_definition(), tmp_path)
        assert path == tmp_path / "models" / "tinynet.json"
        registry.load_directory(tmp_path)
        assert "tinynet" in registry.models


class TestGeneration:
    def test_mutations_bump_generation(self, registry):
        start = registry.generation
        registry.models.register(tiny_definition())
        after_model = registry.generation
        assert after_model > start
        registry.boards.register(BOARD_DEF)
        after_board = registry.generation
        assert after_board > after_model
        registry.models.unregister("tinynet")
        assert registry.generation > after_board


class TestThreeRegistrationPathsAgree:
    """Acceptance: Python API, --model-file, and POST /models produce
    bit-identical reports (the service path is exercised in
    tests/service/test_service.py; here API and file agree, sharing cache
    entries because the fingerprints are content-derived)."""

    def test_api_and_file_reports_bit_identical(self, registry, tmp_path):
        from repro.api import evaluate
        from repro.core.cost.export import report_to_dict

        from repro.cnn.serialize import graph_from_dict

        # Identical definitions on both paths (reports embed the name).
        graph = graph_from_dict(tiny_definition())
        api_report = evaluate(graph, "zc706", "segmentedrr", ce_count=2)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_definition()))
        file_name = registry.models.register(path)
        file_report = evaluate(
            registry.model(file_name), "zc706", "segmentedrr", ce_count=2
        )
        assert report_to_dict(file_report) == report_to_dict(api_report)
