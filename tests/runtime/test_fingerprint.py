"""Tests for cache-key fingerprinting."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.cnn.graph import CNNGraph
from repro.cnn.zoo import available_models, load_model
from repro.core.architectures import build_template
from repro.core.notation import parse_notation
from repro.hw.boards import PAPER_BOARDS, get_board
from repro.hw.datatypes import DEFAULT_PRECISION, INT8, Precision
from repro.runtime import BatchEvaluator
from repro.runtime.fingerprint import (
    CACHE_SCHEMA_VERSION,
    context_fingerprint,
    fingerprint,
    spec_fingerprint,
)


@pytest.fixture(scope="module")
def context(roomy_board):
    from tests.conftest import build_tiny_cnn

    cnn = build_tiny_cnn()
    return cnn, roomy_board


class TestContextFingerprint:
    def test_deterministic(self, context):
        cnn, board = context
        a = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        b = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        assert a == b

    def test_rebuilt_graph_shares_context(self, context):
        from tests.conftest import build_tiny_cnn

        _, board = context
        a = context_fingerprint(build_tiny_cnn(), board, DEFAULT_PRECISION)
        b = context_fingerprint(build_tiny_cnn(), board, DEFAULT_PRECISION)
        assert a == b

    def test_board_changes_context(self, context, small_board):
        cnn, board = context
        a = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        b = context_fingerprint(cnn, small_board, DEFAULT_PRECISION)
        assert a != b

    def test_precision_changes_context(self, context):
        cnn, board = context
        a = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        b = context_fingerprint(
            cnn, board, Precision(weights=INT8, activations=INT8)
        )
        assert a != b

    def test_is_hex_digest(self, context):
        cnn, board = context
        digest = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        assert len(digest) == 64
        int(digest, 16)


class TestSpecFingerprint:
    def test_equal_specs_share_key(self, context):
        cnn, board = context
        ctx = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        a = parse_notation("{L1-L4: CE1, L5-Last: CE2}")
        b = parse_notation("{L1-L4: CE1, L5-Last: CE2}")
        assert a is not b
        assert spec_fingerprint(ctx, a) == spec_fingerprint(ctx, b)

    def test_different_specs_differ(self, context):
        cnn, board = context
        ctx = context_fingerprint(cnn, board, DEFAULT_PRECISION)
        a = parse_notation("{L1-L4: CE1, L5-Last: CE2}")
        b = parse_notation("{L1-L3: CE1, L4-Last: CE2}")
        assert spec_fingerprint(ctx, a) != spec_fingerprint(ctx, b)

    def test_templates_by_ce_count_differ(self, context):
        cnn, board = context
        specs = cnn.conv_specs()
        keys = {
            fingerprint(
                cnn, board, DEFAULT_PRECISION, build_template("segmented", specs, n)
            )
            for n in (2, 3, 4)
        }
        assert len(keys) == 3


#: Context digests recorded before the payload was built field by field;
#: every disk-cache key and served ``"fingerprint"`` derives from these.
PINNED_CONTEXTS = {
    ("squeezenet", "zc706"): "208dcf0c25c7d07a108a7c13f9e13238e33c382908bcf930bcf80832042019a7",
    ("resnet50", "vcu110"): "acd13b75af9188547d91e2559d1eb9990b16b4b5fd64856a2efb33c738e4d9e4",
    ("xception", "vcu110"): "9681ef3ead17085c6bff30f2336ed9368f46a07aa03a6ace3485a513cd208619",
}


def asdict_context_fingerprint(graph, board, precision):
    """The context digest with every dataclass rendered by ``asdict``."""
    board_payload = asdict(board)
    board_payload.pop("name")
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "conv_specs": [asdict(spec) for spec in graph.conv_specs()],
        "board": board_payload,
        "precision": asdict(precision),
    }
    canonical = json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        default=lambda kind: f"{type(kind).__name__}.{kind.name}",
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestContextBytes:
    @pytest.mark.parametrize("model, board", sorted(PINNED_CONTEXTS))
    def test_pinned_digests(self, model, board):
        digest = context_fingerprint(load_model(model), get_board(board), DEFAULT_PRECISION)
        assert digest == PINNED_CONTEXTS[(model, board)]

    @pytest.mark.parametrize("board", PAPER_BOARDS)
    @pytest.mark.parametrize("model", available_models())
    def test_matches_asdict_payload(self, model, board):
        graph = load_model(model)
        fpga = get_board(board)
        assert context_fingerprint(graph, fpga, DEFAULT_PRECISION) == (
            asdict_context_fingerprint(graph, fpga, DEFAULT_PRECISION)
        )

    def test_evaluator_reads_the_graph_once(self, monkeypatch):
        graph = load_model("squeezenet")
        calls = []
        original = CNNGraph.conv_specs

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CNNGraph, "conv_specs", counting)
        evaluator = BatchEvaluator(graph, get_board("zc706"), jobs=1)
        try:
            assert calls == [graph]
            assert evaluator.context == PINNED_CONTEXTS[("squeezenet", "zc706")]
        finally:
            evaluator.close()
