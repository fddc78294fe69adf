"""Lazy package re-exports through a PEP 562 module ``__getattr__``.

A package init that imported every submodule it re-exports would make
``import repro.<anything>`` compile and keep the whole subsystem resident.
With :func:`lazy_exports` a package init is a table instead: importing one
submodule loads only it and what it imports, and each re-exported name
loads its module the first time something reads it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    ``exports`` maps each module path to the names ``package`` re-exports
    from it. The first read of a name imports its module and binds the
    name in ``package``, so later reads never reach this function.
    """
    homes = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(home), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
