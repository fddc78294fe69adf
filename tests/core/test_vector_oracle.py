"""Differential oracle: the batch evaluator and its kernel vs the cost model.

Every cache miss is evaluated by :class:`~repro.core.cost.vector.PopulationKernel`,
and every repeat is answered from the fingerprint cache; the contract is
*byte-identical* reports. Hypothesis generates random (CNN, board,
precision) contexts and random :class:`CustomDesign` populations (always
including the degenerate single-segment and max-CE designs), and every
example asserts that independent evaluation paths agree byte for byte on
``json.dumps(report_to_dict(...), sort_keys=True)``:

1. **scalar** — ``MultipleCEBuilder.build`` + ``MCCM.evaluate`` called
   directly, without the kernel or any cache: the reference;
2. **kernel** — the same population through one kernel;
3. **batch** — a :class:`BatchEvaluator` stream, and its replay answered
   from the fingerprint cache.

Infeasible members must agree too: same ``None`` report, same reason
string, on every path.

Strategies live in ``tests/conftest.py`` (shared, shrinking-friendly);
the example budget comes from the hypothesis profiles registered there
(``dev``: 25, ``ci``: 200 via ``--hypothesis-profile=ci``).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost.export import report_to_dict
from repro.hw.boards import FPGABoard
from repro.hw.datatypes import DEFAULT_PRECISION
from repro.runtime.batch import BatchEvaluator
from tests.conftest import (
    oracle_boards,
    oracle_cnns,
    oracle_populations,
    oracle_precisions,
)

pytestmark = pytest.mark.fuzz


def _canonical(item) -> str:
    """The byte string two paths must agree on for one population member."""
    if item.report is None:
        return json.dumps({"infeasible": item.reason}, sort_keys=True)
    return json.dumps(report_to_dict(item.report), sort_keys=True)


def _evaluate_and_replay(graph, board, precision, specs):
    """Canonical bytes of a cold batch stream and of its replay, which the
    fingerprint cache answers in full."""
    evaluator = BatchEvaluator(graph, board, precision, jobs=1)
    cold = [_canonical(item) for item in evaluator.stream(specs)]
    replayed = list(evaluator.stream(specs))
    assert all(item.cached for item in replayed)
    return cold, [_canonical(item) for item in replayed]


@given(oracle_cnns(), oracle_boards(), oracle_precisions(), st.data())
def test_fingerprint_replay_matches_cold(graph, board, precision, data):
    """A batch, its fingerprint replay and the bare cost model agree
    byte-for-byte on random populations."""
    population = data.draw(oracle_populations(len(graph.conv_specs())))
    specs = [design.to_spec() for design in population]

    cold, replay = _evaluate_and_replay(graph, board, precision, specs)
    assert replay == cold
    assert cold == _scalar_reference(graph, board, precision, specs)


@given(oracle_cnns(), st.data())
@settings(max_examples=10)
def test_infeasible_members_match_cold(graph, data):
    """A starved board marks members infeasible identically on every path."""
    population = data.draw(oracle_populations(len(graph.conv_specs())))
    starved = FPGABoard(
        name="starved", dsp_count=8, bram_bytes=16 * 1024, bandwidth_gbps=1.0
    )
    specs = [design.to_spec() for design in population]
    cold, replay = _evaluate_and_replay(graph, starved, DEFAULT_PRECISION, specs)
    assert replay == cold
    assert cold == _scalar_reference(graph, starved, DEFAULT_PRECISION, specs)


# --- the kernel against the cost model called directly -------------------------


def _scalar_reference(graph, board, precision, specs):
    """Canonical bytes from ``build`` + ``MCCM.evaluate``, no kernel, no cache."""
    from repro.core.builder import MultipleCEBuilder
    from repro.core.cost.model import default_model
    from repro.utils.errors import ResourceError

    builder = MultipleCEBuilder(graph, board, precision)
    model = default_model()
    canonical = []
    for spec in specs:
        try:
            report = model.evaluate(builder.build(spec))
        except ResourceError as error:
            canonical.append(
                json.dumps({"infeasible": f"ResourceError: {error}"}, sort_keys=True)
            )
        else:
            canonical.append(json.dumps(report_to_dict(report), sort_keys=True))
    return canonical


def _kernel_canonical(graph, board, precision, specs):
    from repro.core.builder import MultipleCEBuilder
    from repro.core.cost.vector import PopulationKernel

    kernel = PopulationKernel(MultipleCEBuilder(graph, board, precision))
    return [_canonical(outcome) for outcome in kernel.evaluate(specs)]


@given(oracle_cnns(), oracle_boards(), oracle_precisions(), st.data())
def test_population_kernel_matches_scalar(graph, board, precision, data):
    """The kernel matches the bare cost model."""
    population = data.draw(oracle_populations(len(graph.conv_specs())))
    specs = [design.to_spec() for design in population]

    scalar = _scalar_reference(graph, board, precision, specs)
    assert _kernel_canonical(graph, board, precision, specs) == scalar


@given(oracle_cnns(), st.data())
@settings(max_examples=10)
def test_population_kernel_infeasible_members(graph, data):
    """Kernel reasons read ``"ResourceError: <message>"`` like the bare model."""
    population = data.draw(oracle_populations(len(graph.conv_specs())))
    starved = FPGABoard(
        name="starved", dsp_count=8, bram_bytes=16 * 1024, bandwidth_gbps=1.0
    )
    specs = [design.to_spec() for design in population]
    scalar = _scalar_reference(graph, starved, DEFAULT_PRECISION, specs)
    kernel = _kernel_canonical(graph, starved, DEFAULT_PRECISION, specs)
    assert kernel == scalar


# --- deterministic kernel checks (no hypothesis) -------------------------------


def test_shared_ce_designs_match_scalar(tiny_cnn, roomy_board):
    """CE-sharing groups cost the same through the kernel, in a batch and
    replayed, as directly."""
    from repro.core.notation import ArchitectureSpec, BlockSpec

    num_layers = len(tiny_cnn.conv_specs())
    spec = ArchitectureSpec(
        name="SharedCE",
        blocks=(
            BlockSpec(1, 2, 1, ce_id=1),
            BlockSpec(3, num_layers, 1, ce_id=1),
        ),
        coarse_pipelined=True,
    )
    scalar = _scalar_reference(tiny_cnn, roomy_board, DEFAULT_PRECISION, [spec])
    assert "infeasible" not in scalar[0]
    cold = _kernel_canonical(tiny_cnn, roomy_board, DEFAULT_PRECISION, [spec])
    assert cold == scalar
    batch, replay = _evaluate_and_replay(
        tiny_cnn, roomy_board, DEFAULT_PRECISION, [spec, spec]
    )
    assert batch == replay == scalar * 2


def test_kernel_outcomes_keep_request_order(tiny_cnn):
    """Feasible and infeasible members come back in request order."""
    from repro.core.architectures import build_template
    from repro.core.builder import MultipleCEBuilder
    from repro.core.cost.vector import PopulationKernel

    starved = FPGABoard(
        name="starved", dsp_count=4, bram_bytes=4 * 1024, bandwidth_gbps=0.1
    )
    conv_specs = tiny_cnn.conv_specs()
    specs = [build_template("segmented", conv_specs, n) for n in (8, 2, 8, 3)]
    outcomes = PopulationKernel(MultipleCEBuilder(tiny_cnn, starved)).evaluate(specs)
    assert [outcome.feasible for outcome in outcomes] == [False, True, False, True]
    assert outcomes[0].reason == outcomes[2].reason
    assert outcomes[0].reason.startswith("ResourceError: ")
    assert "8 CEs exceed" in outcomes[0].reason
    assert all(outcome.reason is None for outcome in outcomes if outcome.feasible)
