"""Stable fingerprints for evaluation requests.

A cache key must identify everything the cost model's output depends on:
the CNN's convolution workload, the FPGA resource budget, the arithmetic
precision, and the architecture spec being evaluated. The fingerprint is a
SHA-256 digest of a canonical JSON rendering of those inputs, so keys are

* stable across processes and python versions (no ``hash()`` randomization),
* insensitive to object identity (two equal specs share a key), and
* safe to use as on-disk file names.

``CACHE_SCHEMA_VERSION`` is folded into every digest; bump it whenever the
cost model's semantics change so stale on-disk caches invalidate themselves.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict, Sequence

from repro.cnn.graph import CNNGraph, ConvSpec
from repro.core.notation import ArchitectureSpec
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import Precision

#: Bump when CostReport semantics or the cost model change incompatibly.
#: v2: contexts derive from graph *content* (conv specs), not the model name,
#: so renamed custom models share cache entries and edited ones never collide.
CACHE_SCHEMA_VERSION = 2


def _spec_payload(spec: ArchitectureSpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "coarse_pipelined": spec.coarse_pipelined,
        "dual_tail": spec.dual_tail,
        "blocks": [
            [block.start_layer, block.end_layer, block.ce_count, block.ce_id]
            for block in spec.blocks
        ],
    }


#: ConvSpec's field names, in declaration order.
_CONV_SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(ConvSpec))


def context_payload(
    conv_specs: Sequence[ConvSpec], board: FPGABoard, precision: Precision
) -> Dict[str, Any]:
    """The per-(CNN, board, precision) part of every fingerprint.

    The CNN contributes only its full conv-spec list — the graph *content*
    the cost model consumes, never the model's display name. Two
    registrations of the same graph under different names therefore share
    every cache entry, and an edited graph re-registered under its old name
    can never collide with stale cached results. Each spec becomes the dict
    ``dataclasses.asdict`` would give, read field by field without its deep
    copies.
    """
    board_payload = asdict(board)
    # Same rule for boards: the resource budget is content, the name is not.
    board_payload.pop("name", None)
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "conv_specs": [
            {name: getattr(spec, name) for name in _CONV_SPEC_FIELDS} for spec in conv_specs
        ],
        "board": board_payload,
        "precision": asdict(precision),
    }


def _jsonify(value: Any) -> Any:
    """Canonical encoding for non-JSON leaves (enums, mostly)."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def _digest(payload: Any) -> str:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def conv_context_fingerprint(
    conv_specs: Sequence[ConvSpec], board: FPGABoard, precision: Precision
) -> str:
    """Digest of the evaluation context whose CNN has these conv specs."""
    return _digest(context_payload(conv_specs, board, precision))


def context_fingerprint(
    graph: CNNGraph, board: FPGABoard, precision: Precision
) -> str:
    """Digest of the evaluation context (CNN + board + precision)."""
    return conv_context_fingerprint(graph.conv_specs(), board, precision)


def spec_fingerprint(context: str, spec: ArchitectureSpec) -> str:
    """Cache key for one architecture spec under a context fingerprint."""
    return _digest({"context": context, "spec": _spec_payload(spec)})


def fingerprint(
    graph: CNNGraph,
    board: FPGABoard,
    precision: Precision,
    spec: ArchitectureSpec,
) -> str:
    """One-shot cache key; prefer the split form when batching many specs."""
    return spec_fingerprint(context_fingerprint(graph, board, precision), spec)
