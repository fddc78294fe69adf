"""The paper-artifact check itself: a committed artifact that drifted from
the regenerated one fails the benchmark suite, and ``--regen-golden``
rewrites it to the regenerated bytes.

Runs on a scratch copy of ``table3.txt`` (the cheapest artifact), so the
committed file is never touched.
"""

import shutil

import pytest

from repro.cnn.stats import collect_stats, stats_table
from repro.cnn.zoo import PAPER_MODELS, load_model
from benchmarks.conftest import RESULTS_DIR

NAME = "table3.txt"


@pytest.fixture
def results_dir(tmp_path):
    """Overrides the conftest fixture: ``emit`` checks this copy."""
    shutil.copy(RESULTS_DIR / NAME, tmp_path)
    return tmp_path


def test_drifted_artifact_fails_and_regen_restores_it(
    results_dir, emit, pytestconfig, monkeypatch
):
    text = stats_table([collect_stats(load_model(name)) for name in PAPER_MODELS])
    path = results_dir / NAME
    committed = path.read_text()
    path.write_text(committed.replace("ResNet50", "ResNet51", 1))

    monkeypatch.setattr(pytestconfig.option, "regen_golden", False)
    with pytest.raises(AssertionError, match="--regen-golden"):
        emit(NAME, text)

    monkeypatch.setattr(pytestconfig.option, "regen_golden", True)
    emit(NAME, text)
    assert path.read_text() == committed

    monkeypatch.setattr(pytestconfig.option, "regen_golden", False)
    emit(NAME, text)


def test_missing_artifact_fails_and_regen_writes_it(
    results_dir, emit, pytestconfig, monkeypatch
):
    path = results_dir / NAME
    committed = path.read_text()
    path.unlink()

    monkeypatch.setattr(pytestconfig.option, "regen_golden", False)
    with pytest.raises(AssertionError, match="is missing"):
        emit(NAME, committed[:-1])

    monkeypatch.setattr(pytestconfig.option, "regen_golden", True)
    emit(NAME, committed[:-1])
    assert path.read_text() == committed
