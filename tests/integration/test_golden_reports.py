"""Golden-report regression corpus: byte-for-byte against checked-in JSON.

One canonical report per Table-5 architecture × board (SqueezeNet, 4 CEs
— small enough that the whole corpus evaluates in seconds) lives in
``tests/data/golden_reports/``. The test diffs the *serialized JSON
text*, not parsed structures: any change to a cost number, a field name,
or even float formatting is a regression (or a deliberate model change).

On a deliberate change, regenerate and review the diff:

    pytest tests/integration/test_golden_reports.py --regen-golden
    git diff tests/data/golden_reports/

The corpus is also a cross-path anchor: one batched, segment-cached
``BatchEvaluator`` pass per board must reproduce the same bytes, which
ties the golden files to the differential oracle's guarantee.
"""

import json
from pathlib import Path

import pytest

from repro.api import evaluate
from repro.core.architectures import PAPER_ARCHITECTURES
from repro.core.cost.export import report_to_json
from repro.hw.boards import PAPER_BOARDS
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.rules import RuleSet, attach_verdicts, evaluate_rules, strip_verdicts

GOLDEN_DIR = Path(__file__).parent.parent / "data" / "golden_reports"
VERDICT_DIR = Path(__file__).parent.parent / "data" / "golden_verdicts"
MODEL = "squeezenet"
CE_COUNT = 4

#: The canonical SLO ruleset the verdict corpus is judged under: every
#: metric kind, a board-family guard, and a precision allowlist. Frozen
#: here (not in the registry) so the corpus bytes depend only on this
#: file and the cost model.
SLO_RULESET = RuleSet.from_dict(
    {
        "name": "golden-slo",
        "description": "Canonical SLO for the golden verdict corpus.",
        "rules": [
            {"name": "latency", "metric": "latency_ms", "op": "<=", "threshold": 8},
            {
                "name": "throughput",
                "metric": "throughput_fps",
                "op": ">=",
                "threshold": 150,
                "severity": "warn",
            },
            {
                "name": "bram",
                "metric": "bram_used_frac",
                "op": "<=",
                "threshold": 80,
                "unit": "percent",
            },
            {"name": "fits", "metric": "fits_onchip", "op": "==", "threshold": True},
            {
                "name": "quantized",
                "metric": "precision",
                "op": "in",
                "threshold": ["int8", "int16"],
                "severity": "info",
            },
            {
                "name": "vcu-buffers",
                "metric": "buffer_mib",
                "op": "<=",
                "threshold": 4,
                "severity": "warn",
                "match": {"boards": ["vcu*"]},
            },
        ],
    }
)

CONFIGS = [
    (architecture, board)
    for architecture in PAPER_ARCHITECTURES
    for board in PAPER_BOARDS
]


def _golden_path(architecture: str, board: str) -> Path:
    return GOLDEN_DIR / f"{MODEL}_{architecture}_{board}_ce{CE_COUNT}.json"


def _current_text(architecture: str, board: str) -> str:
    report = evaluate(MODEL, board, architecture, ce_count=CE_COUNT)
    return report_to_json(report) + "\n"


@pytest.mark.parametrize("architecture,board", CONFIGS)
def test_golden_report(architecture, board, request):
    path = _golden_path(architecture, board)
    text = _current_text(architecture, board)
    if request.config.getoption("--regen-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"golden report missing: {path}\n"
        "generate it with: pytest tests/integration/test_golden_reports.py "
        "--regen-golden"
    )
    golden = path.read_text()
    assert text == golden, (
        f"report for {MODEL}/{architecture}/{board} diverged from "
        f"{path.name}; if the model change is deliberate, regenerate with "
        "--regen-golden and review the diff"
    )


def test_corpus_has_no_strays():
    """Every checked-in golden file corresponds to a tested config."""
    expected = {_golden_path(a, b).name for a, b in CONFIGS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def _verdict_path(architecture: str, board: str) -> Path:
    return VERDICT_DIR / f"{MODEL}_{architecture}_{board}_ce{CE_COUNT}.json"


def _current_verdict_text(architecture: str, board: str) -> str:
    report = evaluate(MODEL, board, architecture, ce_count=CE_COUNT)
    verdicts = evaluate_rules(
        report, SLO_RULESET, precision=DEFAULT_PRECISION
    )
    return (
        json.dumps(
            [verdict.to_dict() for verdict in verdicts], indent=2, sort_keys=True
        )
        + "\n"
    )


@pytest.mark.parametrize("architecture,board", CONFIGS)
def test_golden_verdicts(architecture, board, request):
    """The SLO verdicts over each golden cell are byte-stable too."""
    path = _verdict_path(architecture, board)
    text = _current_verdict_text(architecture, board)
    if request.config.getoption("--regen-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"golden verdicts missing: {path}\n"
        "generate them with: pytest tests/integration/test_golden_reports.py "
        "--regen-golden"
    )
    assert text == path.read_text(), (
        f"verdicts for {MODEL}/{architecture}/{board} diverged from "
        f"{path.name}; if the rule or model change is deliberate, regenerate "
        "with --regen-golden and review the diff"
    )


def test_verdict_corpus_has_no_strays():
    expected = {_verdict_path(a, b).name for a, b in CONFIGS}
    actual = {p.name for p in VERDICT_DIR.glob("*.json")}
    assert actual == expected


@pytest.mark.parametrize("architecture,board", CONFIGS)
def test_verdicts_never_perturb_golden_bytes(architecture, board, request):
    """Attaching and stripping verdicts reproduces the golden report bytes."""
    if request.config.getoption("--regen-golden"):
        pytest.skip("corpus being regenerated")
    report = evaluate(MODEL, board, architecture, ce_count=CE_COUNT)
    verdicts = evaluate_rules(report, SLO_RULESET, precision=DEFAULT_PRECISION)
    stripped = strip_verdicts(attach_verdicts(report, verdicts))
    golden = _golden_path(architecture, board).read_text()
    assert report_to_json(stripped) + "\n" == golden


def _template_specs(graph):
    from repro.core.architectures import build_template

    return [
        build_template(architecture, graph.conv_specs(), CE_COUNT)
        for architecture in PAPER_ARCHITECTURES
    ]


def _assert_golden(reports, board_name, path_name):
    for architecture, report in zip(PAPER_ARCHITECTURES, reports):
        golden = _golden_path(architecture, board_name).read_text()
        assert report_to_json(report) + "\n" == golden, (
            f"{path_name} evaluation diverged from golden "
            f"{MODEL}/{architecture}/{board_name}"
        )


@pytest.mark.parametrize("board_name", PAPER_BOARDS)
def test_golden_reports_match_batch_evaluation(board_name, request):
    """One batched evaluation per board reproduces the corpus bytes."""
    if request.config.getoption("--regen-golden"):
        pytest.skip("corpus being regenerated")
    from repro.api import resolve_board, resolve_model
    from repro.runtime.batch import BatchEvaluator

    graph = resolve_model(MODEL)
    evaluator = BatchEvaluator(graph, resolve_board(board_name), jobs=1)
    reports = evaluator.evaluate_specs(_template_specs(graph))
    _assert_golden(reports, board_name, "batched")


def test_golden_reports_match_pooled_evaluation(request):
    """Pool workers, each with its own kernel, reproduce the corpus bytes."""
    if request.config.getoption("--regen-golden"):
        pytest.skip("corpus being regenerated")
    from repro.api import resolve_board, resolve_model
    from repro.runtime.batch import BatchEvaluator

    graph = resolve_model(MODEL)
    specs = _template_specs(graph)
    for board_name in PAPER_BOARDS:
        with BatchEvaluator(graph, resolve_board(board_name), jobs=2) as evaluator:
            reports = evaluator.evaluate_specs(specs)
            assert evaluator.last_run.jobs == 2
        _assert_golden(reports, board_name, "pooled")
