"""Repo-root pytest configuration.

Lives at the root (not ``tests/conftest.py``) because ``pytest_addoption``
must be in an *initial* conftest — one pytest loads before parsing the
command line — for the option to exist on every invocation, including a
bare ``pytest -x -q`` from the repo root.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the golden corpora in tests/data/ and the paper "
            "artifacts in benchmarks/results/ from current model output "
            "instead of diffing against them (review the diff before committing)"
        ),
    )
