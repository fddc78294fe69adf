"""Population-kernel acceptance: batched scoring vs the cold scalar path.

ROADMAP item 2: score whole populations (an NSGA-II generation, a sweep
grid) as array programs over precomputed per-segment cost tables instead
of one design at a time. This benchmark times the kernel's rungs on the
Fig. 10 setting (Xception, VCU110, seed 2025) and emits
``results/population_kernel.json``.

Each table-warm rung — the steady state of every DSE generation after
the first — must beat the cold scalar path by >= 2x, a floor host
contention cannot trip. Without numpy the numpy check *skips*, honestly:
there is no numpy number to check.

Correctness is asserted before any timing is trusted: all rungs' report
streams must be bit-identical.
"""

import pytest

from repro.runtime.bench import run_population_benchmark, write_hotpath_json
from repro.runtime.tensor import numpy_or_none

MODEL = "xception"
BOARD = "vcu110"
SAMPLES = 96
SEED = 2025


def _format(result: dict) -> str:
    lines = [
        f"MCCM population kernel: {result['model']} on {result['board']}, "
        f"{result['samples']} sampled designs (seed {result['seed']}), "
        f"numpy={'yes' if result['numpy_available'] else 'no'}",
        "",
    ]
    for key in ("cold_scalar", "table_build", "population_python", "population_numpy"):
        entry = result[key]
        if entry is None:
            lines.append(f"{key:18s}:      (numpy not installed)")
            continue
        lines.append(
            f"{key:18s}: {entry['ms_per_design']:8.3f} ms/design   "
            f"{entry['speedup_vs_cold']:6.1f}x vs cold"
        )
    lines.append("")
    lines.append(f"reports bit-identical across all rungs: {result['identical']}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def population_result(results_dir):
    result = run_population_benchmark(
        model=MODEL, board=BOARD, samples=SAMPLES, seed=SEED
    )
    write_hotpath_json(result, str(results_dir / "population_kernel.json"))
    print(f"\n=== population_kernel.json ===\n{_format(result)}\n")
    return result


def test_population_kernel_identity(population_result):
    """Correctness before speed: every rung reproduces the cold reports."""
    assert population_result["identical"] is True
    assert population_result["feasible"] > 0


def test_population_kernel_python_floor(population_result):
    """The stdlib fallback must still clearly beat the cold path."""
    speedup = population_result["population_python"]["speedup_vs_cold"]
    assert speedup >= 2.0, (
        f"python-backend population scoring only {speedup:.2f}x vs cold"
    )


def test_population_kernel_numpy_gate(population_result):
    """The ≥2x floor on the numpy rung (skips without numpy)."""
    if numpy_or_none() is None:
        pytest.skip("numpy not installed: the numpy rung cannot be measured")
    entry = population_result["population_numpy"]
    assert entry is not None
    speedup = entry["speedup_vs_cold"]
    assert speedup >= 2.0, (
        f"numpy population scoring only {speedup:.2f}x vs cold"
    )
    assert entry["kernel"].get("backend") == "numpy"
    assert entry["kernel"].get("vector_composed", 0) > 0
