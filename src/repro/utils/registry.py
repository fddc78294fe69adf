"""One generic, thread-safe name registry for every kind of input-as-data.

MCCM takes its inputs as data: a CNN (Table III), a board budget
(Table II) and, in this reproduction, an SLO ruleset. All three live in a
:class:`Registry` — one instance per kind — that owns the shared
machinery: the lock, the generation counter derived state invalidates
against, sha256-digest idempotent re-registration, ``replace=True``
conflicts, reserved built-ins, did-you-mean lookups, and the persistent
directory each kind loads from. What differs per kind is a small
:class:`Codec`: how raw input parses into ``(key, object, canonical
definition)``, the built-ins, lookup aliases, reserved names and the
error class.

Policy, identical for every kind: re-registering content whose canonical
definition digests equal to the registered one is a no-op (built-ins
included); different content under a built-in or reserved name is a
:class:`~repro.utils.errors.WorkloadConflictError`, and under a custom
name it needs ``replace=True``. Unknown names raise
:class:`~repro.utils.errors.UnknownWorkloadError` with suggestions.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generic, List, Mapping, Optional, Tuple, Type, TypeVar, Union

from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError, UnknownWorkloadError, WorkloadConflictError

T = TypeVar("T")

Definition = Dict[str, Any]


@dataclass(frozen=True)
class Codec(Generic[T]):
    """Everything one kind of registry entry adds to the generic machinery."""

    #: ``"model"``, ``"board"`` or ``"ruleset"`` — used in every message.
    kind: str
    #: Raised for malformed input (unreadable files, bad schemas).
    error: Type[MCCMError]
    #: ``(object or schema dict, name override) -> (key, object, definition)``;
    #: validates and normalises the key and raises for unsupported input.
    parse: Callable[[Any, Optional[str]], Tuple[str, T, Definition]]
    #: The canonical definition of an object (used for lazy built-ins).
    define: Callable[[T], Definition]
    #: ``name -> zero-argument loader`` of the pre-registered entries.
    builtins: Callable[[], Mapping[str, Callable[[], T]]]
    #: Provenance recorded for built-ins, and who reserves their names.
    builtin_source: str
    builtin_owner: str
    #: Label of the persistent directory in load errors.
    directory: str
    #: Lookup aliases (``alias -> canonical name``).
    aliases: Mapping[str, str] = field(default_factory=dict)
    #: ``key -> conflict message`` for names that may never be registered.
    reserved: Callable[[str], Optional[str]] = lambda key: None


class Entry(Generic[T]):
    """One registered name: its object, canonical definition and provenance.

    Built-ins load their object (and derive their definition) on first use,
    so pre-registering the zoo costs nothing at import time.
    """

    def __init__(
        self,
        name: str,
        *,
        builtin: bool,
        source: str,
        lock: threading.RLock,
        load: Callable[[], T],
        define: Callable[[T], Definition],
        definition: Optional[Definition] = None,
    ) -> None:
        self.name = name
        self.builtin = builtin
        self.source = source
        self._lock = lock
        self._load = load
        self._define = define
        self._value: Optional[T] = None
        self._definition = definition

    @property
    def value(self) -> T:
        # Under the registry lock: concurrent first uses build one object.
        with self._lock:
            if self._value is None:
                self._value = self._load()
            return self._value

    @property
    def definition(self) -> Definition:
        """The canonical JSON dict (shared: copy before adding keys)."""
        with self._lock:
            if self._definition is None:
                self._definition = self._define(self.value)
            return self._definition


def _digest(definition: Mapping[str, Any]) -> str:
    canonical = json.dumps(definition, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_json_object(
    path: Union[str, Path], kind: str, error: Type[MCCMError]
) -> Definition:
    """Load one JSON object from ``path``, raising ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(
            f"{kind} file {path} must hold a JSON object, got {type(data).__name__}"
        )
    return data


def save_definition(target: Path, definition: Mapping[str, Any]) -> Path:
    """Atomically persist one definition as indented, key-sorted JSON.

    Raises :class:`OSError`; the directory savers wrap it in their own
    typed error.
    """
    data = json.dumps(definition, indent=2, sort_keys=True) + "\n"
    target.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(target, data.encode("utf-8"))
    return target


class Registry(Generic[T]):
    """Thread-safe name -> object resolution for one kind of input."""

    def __init__(self, codec: Codec[T], include_builtins: bool = True) -> None:
        self.codec = codec
        self._lock = threading.RLock()
        self._entries: Dict[str, Entry[T]] = {}
        self._generation = 0
        if include_builtins:
            for name, loader in codec.builtins().items():
                self._entries[name] = Entry(
                    name,
                    builtin=True,
                    source=codec.builtin_source,
                    lock=self._lock,
                    load=loader,
                    define=codec.define,
                )

    @property
    def generation(self) -> int:
        """Mutation counter: bumped on every (re)registration or removal.

        Derived state (the service's catalogs) caches against this and
        rebuilds when it moves.
        """
        with self._lock:
            return self._generation

    # --- resolution -----------------------------------------------------------
    def _key(self, name: str) -> str:
        key = str(name).strip().lower()
        return self.codec.aliases.get(key, key)

    def entry(self, name: str) -> Entry[T]:
        """The record for a name or alias; unknown names raise with hints."""
        with self._lock:
            entry = self._entries.get(self._key(name))
            if entry is None:
                raise UnknownWorkloadError(self.codec.kind, name, self._entries)
            return entry

    def get(self, name: str) -> T:
        """The registered object (built-ins are built on first use)."""
        return self.entry(name).value

    def canonical(self, name: str) -> str:
        """Resolve a name or alias to its registry key."""
        return self.entry(name).name

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return self._key(str(name)) in self._entries

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def customs(self) -> Dict[str, Definition]:
        """``name -> definition`` for every non-builtin entry (checkpoints)."""
        with self._lock:
            return {
                name: entry.definition
                for name, entry in sorted(self._entries.items())
                if not entry.builtin
            }

    # --- registration ---------------------------------------------------------
    def register(
        self,
        item: Any,
        *,
        name: Optional[str] = None,
        replace: bool = False,
        source: str = "api",
    ) -> str:
        """Register an object, its schema dict, or a JSON file path.

        ``name`` overrides the definition's own name as the registry key.
        Returns the canonical key; see the module docstring for the
        idempotence and conflict policy.
        """
        codec = self.codec
        if isinstance(item, (str, Path)):
            if source == "api":
                source = str(item)
            item = _read_json_object(item, codec.kind, codec.error)
        key, value, definition = codec.parse(item, name)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and _digest(existing.definition) == _digest(definition):
                return key  # idempotent re-registration
            reserved = codec.reserved(key)
            if reserved is not None:
                raise WorkloadConflictError(reserved)
            if existing is not None:
                if existing.builtin:
                    raise WorkloadConflictError(
                        f"{codec.kind} name {key!r} is reserved by {codec.builtin_owner}"
                    )
                if not replace:
                    raise WorkloadConflictError(
                        f"{codec.kind} {key!r} is already registered with different "
                        "content; pass replace=True to overwrite it"
                    )
            self._entries[key] = Entry(
                key,
                builtin=False,
                source=source,
                lock=self._lock,
                load=lambda: value,
                define=codec.define,
                definition=definition,
            )
            self._generation += 1
        return key

    def unregister(self, name: str) -> None:
        """Remove a custom entry (built-ins cannot be removed)."""
        with self._lock:
            entry = self.entry(name)
            if entry.builtin:
                raise WorkloadConflictError(
                    f"built-in {self.codec.kind} {entry.name!r} cannot be unregistered"
                )
            del self._entries[entry.name]
            self._generation += 1

    # --- the persistent directory ---------------------------------------------
    def load_directory(self, folder: Union[str, Path]) -> List[str]:
        """Register every ``*.json`` directly under ``folder``.

        A missing directory is a no-op. Files load in sorted order with
        ``replace=True`` (the directory is the source of truth for the
        names it holds); a malformed file raises the codec's error naming
        it, so users know exactly what to fix or delete.
        """
        folder = Path(folder)
        registered: List[str] = []
        if not folder.is_dir():
            return registered
        for file in sorted(folder.glob("*.json")):
            try:
                registered.append(self.register(file, replace=True, source=str(file)))
            except WorkloadConflictError:
                raise
            except MCCMError as error:
                raise self.codec.error(
                    f"{self.codec.directory} entry {file} failed to load: {error}"
                ) from None
        return registered
