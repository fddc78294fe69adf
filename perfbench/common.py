"""Checkout layout, host record, set-up timing and digests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

from perfbench import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 7


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    setup_seconds: List[float] = field(default_factory=list)
    #: Duration of every successful operation, in ms.
    op_ms: List[float] = field(default_factory=list)
    #: Designs per second of each batch of work (a sweep pass, a campaign,
    #: one second of requests); designs_per_s is their median, so a burst
    #: of host contention moves one batch, not the figure.
    throughputs: List[float] = field(default_factory=list)
    rss_peak_mib: float = 0.0
    #: The workload's own metric names (``sweep_ms_p50`` ...): name -> (value, unit).
    named: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> value.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Extra facts printed with the result (load-generator CPU, ...).
    record: Dict[str, Any] = field(default_factory=dict)


def program_env(workdir: Path) -> Dict[str, str]:
    """Environment for processes running the program from this checkout.

    Every path the program may write (temp dirs, the workload and rule
    directories it auto-loads) points inside the run's work directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    env["MCCM_WORKLOAD_DIR"] = str(workdir / "workloads")
    env["MCCM_RULE_DIR"] = str(workdir / "rules")
    env.pop("MCCM_POPULATION_KERNEL", None)
    env.pop("MCCM_TENSOR", None)
    return env


def host_record() -> Dict[str, Any]:
    try:
        import numpy  # noqa: F401  (selects the population-kernel backend)

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": has_numpy,
    }


def self_rss_peak_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_rss_peak_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def time_cold_setup(workdir: Path, models: Sequence[str], boards: Sequence[str]) -> List[float]:
    """Wall seconds for a fresh interpreter to import the program and build
    the workload's graphs — what a fresh ``repro`` process pays first."""
    snippet = (
        "from repro import api\n"
        f"for name in {list(models)!r}:\n"
        "    api.resolve_model(name).conv_specs()\n"
        f"for name in {list(boards)!r}:\n"
        "    api.resolve_board(name)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet],
            env=program_env(workdir),
            cwd=str(ROOT),
            check=True,
        )
        samples.append(time.perf_counter() - start)
    return samples


def warm_up(models: Sequence[str]) -> None:
    """Build (and let the registry cache) the graphs in this process too,
    and run one small sweep so lazy imports (the population kernel's
    backend) finish, before the first timed operation."""
    from repro import api

    for name in models:
        api.resolve_model(name).conv_specs()
    api.sweep("squeezenet", "zc706", jobs=1)


def canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical(payload)).hexdigest()


def load_expected(name: str) -> Dict[str, Any]:
    with open(EXPECTED_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_expected(name: str, payload: Dict[str, Any]) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def percentile_or_fail(samples: Sequence[float], pct: float, what: str) -> float:
    value = stats.percentile(samples, pct)
    if value is None:
        raise RuntimeError(
            f"{what}: {len(samples)} samples cannot support p{pct:g} "
            f"(needs {stats.min_samples_for(pct)})"
        )
    return value


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
