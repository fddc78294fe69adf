"""Shared benchmark helpers.

Every paper benchmark module regenerates one table or figure: it computes
the full artifact once (module-scoped fixture), prints it, and checks it
byte for byte against its committed file in ``benchmarks/results/``
through the ``emit`` fixture. On a deliberate model change, rewrite the
artifacts and review the diff::

    pytest benchmarks --regen-golden
    git diff benchmarks/results/

Timings vary run to run, so the timing benchmarks only print theirs
(``show``; see them with ``pytest benchmarks -s``). perfbench
(``perfbench/``) is the timing harness.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Every test under benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def show(name: str, text: str) -> None:
    """Echo one result to stdout."""
    print(f"\n=== {name} ===\n{text}\n")


@pytest.fixture
def results_dir() -> Path:
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir, request):
    """``emit(name, text)``: print a regenerated artifact and fail unless
    it equals its committed file; ``--regen-golden`` rewrites the file."""

    def check(name: str, text: str) -> None:
        show(name, text)
        path = results_dir / name
        if request.config.getoption("--regen-golden"):
            path.write_text(text + "\n")
            return
        assert path.exists(), f"{path} is missing; generate it with --regen-golden"
        # Regenerated on the left: pytest marks committed lines "-" and
        # regenerated ones "+", as `git diff` would after --regen-golden.
        assert text + "\n" == path.read_text(), (
            f"regenerated {name} differs from {path}; if the change is "
            "deliberate, rerun with --regen-golden and review the diff"
        )

    return check
