"""First-class workload registry: user-defined models and boards.

Module-level functions operate on the process-wide :data:`REGISTRY`; the
:class:`WorkloadRegistry` class exists for isolated instances in tests.

>>> import repro
>>> repro.register_model("my_cnn.json")            # doctest: +SKIP
>>> repro.evaluate("my_cnn", "zc706", "segmentedrr", ce_count=2)  # doctest: +SKIP
"""

from __future__ import annotations

from typing import List, Optional

from repro.cnn.graph import CNNGraph
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import Precision
from repro.workloads.registry import (
    REGISTRY,
    WORKLOAD_DIR_ENV,
    BoardLike,
    ModelLike,
    WorkloadRegistry,
    board_from_dict,
    board_to_dict,
    default_workload_dir,
    load_workload_dir,
    save_workload,
)


def load_model(name: str) -> CNNGraph:
    """Resolve a registered model (built-in zoo or custom) by name."""
    return REGISTRY.model(name)


def get_board(name: str, *, precision: Optional[Precision] = None) -> FPGABoard:
    """Resolve a registered board by name (optionally precision-checked)."""
    return REGISTRY.board(name, precision=precision)


def available_models() -> List[str]:
    """Canonical names of every registered model (built-in and custom)."""
    return REGISTRY.models.names()


def available_boards() -> List[str]:
    """Canonical names of every registered board (built-in and custom)."""
    return REGISTRY.boards.names()


def register_model(model: ModelLike, **kwargs) -> str:
    """Register a custom CNN with the process-wide registry."""
    return REGISTRY.models.register(model, **kwargs)


def register_board(board: BoardLike, **kwargs) -> str:
    """Register a custom board with the process-wide registry."""
    return REGISTRY.boards.register(board, **kwargs)


def unregister_model(name: str) -> None:
    """Remove a custom model from the process-wide registry."""
    REGISTRY.models.unregister(name)


def unregister_board(name: str) -> None:
    """Remove a custom board from the process-wide registry."""
    REGISTRY.boards.unregister(name)


def generation() -> int:
    """The global registry's mutation counter (for cache invalidation)."""
    return REGISTRY.generation


__all__ = [
    "REGISTRY",
    "WORKLOAD_DIR_ENV",
    "WorkloadRegistry",
    "available_boards",
    "available_models",
    "board_from_dict",
    "board_to_dict",
    "default_workload_dir",
    "generation",
    "get_board",
    "load_model",
    "load_workload_dir",
    "register_board",
    "register_model",
    "save_workload",
    "unregister_board",
    "unregister_model",
]
