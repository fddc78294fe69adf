"""The process-wide workload registry: models and boards as *data*.

The paper evaluates MCCM on five Table III CNNs and four Table II boards;
the reproduction originally mirrored that with hard-coded dicts
(``cnn/zoo/_BUILDERS``, ``hw/boards.BOARDS``). This module turns both into
registry entries so arbitrary user workloads flow through the whole stack
— the batch runtime, the caches, DSE campaigns, and the HTTP service —
without any layer knowing whether a name is built-in or user-defined.

:class:`WorkloadRegistry` holds one generic
:class:`~repro.utils.registry.Registry` per kind (``.models``,
``.boards``); this module only contributes their codecs:

* Built-in zoo models and paper boards are pre-registered (lazily built;
  their names and the paper's abbreviations are reserved).
* Custom models arrive as :class:`~repro.cnn.graph.CNNGraph` objects, the
  JSON dict schema of :mod:`repro.cnn.serialize`, or paths to JSON files.
* Custom boards arrive as :class:`~repro.hw.boards.FPGABoard` objects or a
  JSON schema validated here (including optional ``supported_precisions``
  checked against :mod:`repro.hw.datatypes`).
* A *workload directory* (``$MCCM_WORKLOAD_DIR``, default
  ``~/.mccm/workloads``) persists registrations across CLI runs:
  ``repro models register`` atomically drops canonical JSON there and
  every CLI invocation loads it back.

Lookups raise :class:`~repro.utils.errors.UnknownWorkloadError` (a
``KeyError`` subclass carrying did-you-mean suggestions); registration
conflicts raise :class:`~repro.utils.errors.WorkloadConflictError`.
"""

from __future__ import annotations

import functools
import os
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.cnn.graph import CNNGraph
from repro.cnn.serialize import graph_from_dict, graph_to_dict
from repro.cnn.stats import collect_stats
from repro.cnn.zoo import ABBREVIATIONS, _BUILDERS
from repro.cnn.zoo import load_model as _zoo_load
from repro.hw.boards import BOARDS, DEFAULT_CLOCK_HZ, FPGABoard
from repro.hw.datatypes import DATATYPES, Precision, get_datatype
from repro.utils.errors import WorkloadError, reject_unknown_fields
from repro.utils.registry import Codec, Definition, Entry, Registry, save_definition
from repro.utils.units import mib_to_bytes

ModelLike = Union[CNNGraph, Mapping[str, Any], str, Path]
BoardLike = Union[FPGABoard, Mapping[str, Any], str, Path]

#: Registry names double as cache-file and URL path components.
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9._-]*\Z")

#: Environment override for the persistent workload directory.
WORKLOAD_DIR_ENV = "MCCM_WORKLOAD_DIR"


def _normalize_name(name: str, kind: str) -> str:
    key = str(name).strip().lower()
    if not _NAME_RE.match(key):
        raise WorkloadError(
            f"bad {kind} name {name!r}: names must be lowercase alphanumerics "
            "plus '._-' (they become cache keys, file names, and URL payloads)"
        )
    return key


# --- the board JSON schema ----------------------------------------------------

_BOARD_FIELDS = (
    "name",
    "dsp_count",
    "bram_bytes",
    "bram_mib",
    "bandwidth_gbps",
    "clock_hz",
    "clock_mhz",
    "supported_precisions",
)


def _positive_number(data: Mapping[str, Any], key: str, *, integer: bool = False):
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadError(f"board field {key!r} must be a number, got {value!r}")
    if integer and not isinstance(value, int):
        raise WorkloadError(f"board field {key!r} must be an integer, got {value!r}")
    if value <= 0:
        raise WorkloadError(f"board field {key!r} must be positive, got {value!r}")
    return value


def board_from_dict(data: Mapping[str, Any]) -> Tuple[FPGABoard, Optional[Tuple[str, ...]]]:
    """Validate the board JSON schema into ``(board, supported_precisions)``.

    Exactly one of ``bram_bytes`` / ``bram_mib`` and at most one of
    ``clock_hz`` / ``clock_mhz`` (default 200 MHz) may be given.
    ``supported_precisions`` names are validated against
    :data:`repro.hw.datatypes.DATATYPES`; ``None`` means "no restriction".
    """
    if not isinstance(data, Mapping):
        raise WorkloadError(
            f"board definition must be a JSON object, got {type(data).__name__}"
        )
    reject_unknown_fields(data, _BOARD_FIELDS, "board definition", WorkloadError)
    name = data.get("name")
    if not isinstance(name, str) or not name.strip():
        raise WorkloadError("board definition needs a non-empty 'name'")
    dsp_count = _positive_number(data, "dsp_count", integer=True)
    if ("bram_bytes" in data) == ("bram_mib" in data):
        raise WorkloadError(
            "board definition needs exactly one of 'bram_bytes' or 'bram_mib'"
        )
    if "bram_bytes" in data:
        bram_bytes = _positive_number(data, "bram_bytes", integer=True)
    else:
        bram_bytes = mib_to_bytes(_positive_number(data, "bram_mib"))
    bandwidth = _positive_number(data, "bandwidth_gbps")
    if "clock_hz" in data and "clock_mhz" in data:
        raise WorkloadError("give 'clock_hz' or 'clock_mhz', not both")
    if "clock_hz" in data:
        clock_hz = _positive_number(data, "clock_hz")
    elif "clock_mhz" in data:
        clock_hz = _positive_number(data, "clock_mhz") * 1e6
    else:
        clock_hz = DEFAULT_CLOCK_HZ
    precisions = data.get("supported_precisions")
    if precisions is not None:
        if not isinstance(precisions, (list, tuple)) or not precisions:
            raise WorkloadError(
                "board 'supported_precisions' must be a non-empty list of "
                f"datatype names from {sorted(DATATYPES)}"
            )
        seen: List[str] = []
        for entry in precisions:
            if not isinstance(entry, str):
                raise WorkloadError(
                    f"board 'supported_precisions' entries must be datatype "
                    f"name strings, got {entry!r}"
                )
            try:
                datatype = get_datatype(entry)
            except KeyError:
                raise WorkloadError(
                    f"board 'supported_precisions' names unknown datatype "
                    f"{entry!r}; available: {sorted(DATATYPES)}"
                ) from None
            if datatype.name not in seen:
                seen.append(datatype.name)
        precisions = tuple(seen)
    board = FPGABoard(
        name=str(name).strip(),
        dsp_count=dsp_count,
        bram_bytes=bram_bytes,
        bandwidth_gbps=float(bandwidth),
        clock_hz=float(clock_hz),
    )
    return board, precisions


def board_to_dict(
    board: FPGABoard, supported_precisions: Optional[Tuple[str, ...]] = None
) -> Dict[str, Any]:
    """The canonical JSON form of a board (inverse of :func:`board_from_dict`)."""
    payload: Dict[str, Any] = {
        "name": board.name,
        "dsp_count": board.dsp_count,
        "bram_bytes": board.bram_bytes,
        "bandwidth_gbps": board.bandwidth_gbps,
        "clock_hz": board.clock_hz,
    }
    if supported_precisions is not None:
        payload["supported_precisions"] = list(supported_precisions)
    return payload


# --- the per-kind codecs ------------------------------------------------------


def _parse_model(model: Any, name: Optional[str]) -> Tuple[str, CNNGraph, Definition]:
    if isinstance(model, CNNGraph):
        graph = model
    elif isinstance(model, Mapping):
        graph = graph_from_dict(dict(model))
    else:
        raise WorkloadError(
            "register_model accepts a CNNGraph, a model-schema dict, "
            f"or a JSON file path, got {type(model).__name__}"
        )
    key = _normalize_name(name if name is not None else graph.name, "model")
    # Canonicalize through the round-trip so the stored definition (and
    # its digest) never depends on user key order or defaults.
    return key, graph, graph_to_dict(graph)


def _parse_board(board: Any, name: Optional[str]) -> Tuple[str, FPGABoard, Definition]:
    precisions: Optional[Tuple[str, ...]] = None
    if isinstance(board, FPGABoard):
        parsed = board
    elif isinstance(board, Mapping):
        parsed, precisions = board_from_dict(board)
    else:
        raise WorkloadError(
            "register_board accepts an FPGABoard, a board-schema "
            f"dict, or a JSON file path, got {type(board).__name__}"
        )
    key = _normalize_name(name if name is not None else parsed.name, "board")
    return key, parsed, board_to_dict(parsed, precisions)


def _reserved_model_name(key: str) -> Optional[str]:
    if key in ABBREVIATIONS:
        return (
            f"model name {key!r} is reserved (paper abbreviation for "
            f"{ABBREVIATIONS[key]!r})"
        )
    return None


MODEL_CODEC: Codec[CNNGraph] = Codec(
    kind="model",
    error=WorkloadError,
    parse=_parse_model,
    define=graph_to_dict,
    # Bind through the zoo's lru-cached loader so the registry and direct
    # zoo users share graph objects.
    builtins=lambda: {name: functools.partial(_zoo_load, name) for name in _BUILDERS},
    builtin_source="zoo",
    builtin_owner="the built-in zoo",
    directory="workload directory",
    aliases=ABBREVIATIONS,
    reserved=_reserved_model_name,
)

BOARD_CODEC: Codec[FPGABoard] = Codec(
    kind="board",
    error=WorkloadError,
    parse=_parse_board,
    define=board_to_dict,
    builtins=lambda: {name: (lambda board=board: board) for name, board in BOARDS.items()},
    builtin_source="paper",
    builtin_owner="the paper's Table II",
    directory="workload directory",
)


class WorkloadRegistry:
    """Models and boards for the entire system: one generic registry each.

    One process-wide instance (:data:`REGISTRY`) backs the Python API, the
    CLI, the HTTP service, and DSE campaigns; fresh instances exist for
    tests. ``include_builtins=True`` (default) pre-registers the zoo models
    (with the paper's abbreviations as aliases) and the Table II boards.
    """

    def __init__(self, include_builtins: bool = True) -> None:
        self.models: Registry[CNNGraph] = Registry(MODEL_CODEC, include_builtins)
        self.boards: Registry[FPGABoard] = Registry(BOARD_CODEC, include_builtins)

    @property
    def generation(self) -> int:
        """Mutation counter over both kinds (each mutation bumps it)."""
        return self.models.generation + self.boards.generation

    def model(self, name: str) -> CNNGraph:
        """Build (or fetch the cached) model graph by name or abbreviation."""
        return self.models.get(name)

    def board(self, name: str, *, precision: Optional[Precision] = None) -> FPGABoard:
        """Look up a board; optionally enforce its precision restriction.

        A registered board may declare ``supported_precisions``; passing the
        request's :class:`Precision` here rejects unsupported datatypes with
        a :class:`WorkloadError` before any evaluation work happens.
        """
        entry = self.boards.entry(name)
        if precision is not None and "supported_precisions" in entry.definition:
            supported = entry.definition["supported_precisions"]
            for role in ("weights", "activations"):
                datatype = getattr(precision, role)
                if datatype.name not in supported:
                    raise WorkloadError(
                        f"board {entry.name!r} does not support {role} "
                        f"datatype {datatype.name!r}; supported: "
                        f"{sorted(supported)}"
                    )
        return entry.value

    def load_directory(self, path: Union[str, Path]) -> List[str]:
        """Register every ``models/*.json`` and ``boards/*.json`` under ``path``.

        Missing directories are a no-op; see
        :meth:`~repro.utils.registry.Registry.load_directory`.
        """
        root = Path(path)
        return self.models.load_directory(root / "models") + self.boards.load_directory(
            root / "boards"
        )


def model_summary(entry: Entry[CNNGraph]) -> Dict[str, Any]:
    """One model's ``GET /models`` / ``repro models list --json`` entry."""
    stats = collect_stats(entry.value)
    return {
        "name": entry.name,
        "display_name": stats.name,
        "conv_layers": stats.conv_layer_count,
        "gmacs": round(stats.gmacs, 3),
        "weights_millions": round(stats.weights_millions, 3),
        "custom": not entry.builtin,
    }


#: The process-wide registry every front-end shares.
REGISTRY = WorkloadRegistry()


def default_workload_dir() -> Path:
    """``$MCCM_WORKLOAD_DIR`` or ``~/.mccm/workloads``."""
    override = os.environ.get(WORKLOAD_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".mccm" / "workloads"


def load_workload_dir(
    path: Optional[Union[str, Path]] = None, *, registry: Optional[WorkloadRegistry] = None
) -> List[str]:
    """Load the persistent workload directory into the (global) registry."""
    target = registry if registry is not None else REGISTRY
    return target.load_directory(path if path is not None else default_workload_dir())


def save_workload(
    kind: str,
    name: str,
    definition: Mapping[str, Any],
    path: Optional[Union[str, Path]] = None,
) -> Path:
    """Atomically persist one canonical definition as ``<dir>/<kind>s/<name>.json``."""
    if kind not in ("model", "board"):
        raise WorkloadError(f"kind must be 'model' or 'board', got {kind!r}")
    root = Path(path) if path is not None else default_workload_dir()
    try:
        return save_definition(root / f"{kind}s" / f"{name}.json", definition)
    except OSError as error:
        raise WorkloadError(f"cannot save {kind} {name!r} to {root}: {error}") from None
