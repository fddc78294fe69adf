"""Table IV: MCCM estimation accuracy on VCU108 — 150 experiments
(3 architectures x 10 CE counts x 5 CNNs), validated against the
synthesis-substitute reference simulator via Eq. 10.
"""

import pytest

from repro.api import build_accelerator
from repro.cnn.zoo import PAPER_MODELS
from repro.core.architectures import PAPER_ARCHITECTURES, PAPER_CE_COUNTS
from repro.core.cost.model import default_model
from repro.synth.simulator import SynthesisSimulator
from repro.synth.validate import VALIDATION_METRICS, ValidationRecord, ValidationSummary
from repro.utils.errors import MCCMError

BOARD = "vcu108"


@pytest.fixture(scope="module")
def summary():
    result = ValidationSummary()
    model_mccm = default_model()
    for architecture in PAPER_ARCHITECTURES:
        for model in PAPER_MODELS:
            for ce_count in PAPER_CE_COUNTS:
                try:
                    accelerator = build_accelerator(
                        model, BOARD, architecture, ce_count=ce_count
                    )
                except MCCMError:
                    continue
                report = model_mccm.evaluate(accelerator)
                simulation = SynthesisSimulator(accelerator).run()
                result.add(
                    ValidationRecord.from_results(
                        architecture, model, ce_count, report, simulation
                    )
                )
    return result


def test_regenerate_table4(summary, emit):
    text = summary.table()
    text += f"\n\nexperiments: {len(summary.records)}"
    for metric in VALIDATION_METRICS:
        text += f"\noverall average {metric}: {summary.average(metric):.1f}%"
    emit("table4.txt", text)

    # Paper claims: average accuracy > 90% for every architecture, and
    # off-chip access estimation is exact.
    assert len(summary.records) == 150
    for architecture in summary.architectures():
        for metric in ("buffers", "latency", "throughput"):
            assert summary.stat(metric, architecture, "average") > 90.0
        assert summary.stat("accesses", architecture, "min") == pytest.approx(100.0)


def test_one_validation():
    accelerator = build_accelerator("mobilenetv2", BOARD, "hybrid", ce_count=4)
    report = default_model().evaluate(accelerator)
    simulation = SynthesisSimulator(accelerator).run()
    assert simulation.access_bytes == report.accesses.total_bytes
