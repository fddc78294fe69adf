"""Shared fixtures and hypothesis setup.

Three things live here:

* small synthetic CNNs / boards / cached zoo models (fixtures);
* the suite's **hypothesis profiles** — registered in exactly one place:
  ``dev`` (25 examples, the default for local runs and tier-1 CI) and
  ``ci`` (200 examples, selected by the differential-fuzz CI step via
  ``--hypothesis-profile=ci``);
* the **shrinking-friendly strategies** the differential cost oracle
  uses (:mod:`tests.core.test_vector_oracle`): random tiny CNNs, boards,
  precisions, and :class:`~repro.dse.space.CustomDesign` populations.
  Strategies shrink toward the smallest CNN, the fewest designs, and the
  degenerate single-segment design, so failures minimize readably.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.cnn.zoo import load_model
from repro.cnn.zoo.common import NetBuilder
from repro.dse.space import CustomDesign
from repro.hw.boards import FPGABoard, get_board
from repro.hw.datatypes import DEFAULT_PRECISION, FP32, INT8, INT16, Precision

# --- hypothesis profiles (the one registration site) --------------------------
# The suite has function-scoped autouse fixtures (``_isolated_workload_dir``),
# which @given tests legitimately share across examples — suppress that
# health check rather than sprinkling per-test settings.
#
# Registration happens at import (idempotent — this module is imported
# both as pytest's conftest and as ``tests.conftest`` by modules sharing
# the strategies). *Loading* a profile must NOT happen at import: the
# second import would clobber whatever ``--hypothesis-profile`` selected.
# It lives in ``pytest_configure`` below, which defers to the flag.
_SUPPRESSED = [HealthCheck.function_scoped_fixture]
settings.register_profile(
    "dev", max_examples=25, deadline=None, suppress_health_check=_SUPPRESSED
)
settings.register_profile(
    "ci", max_examples=200, deadline=None, suppress_health_check=_SUPPRESSED
)


def pytest_configure(config):
    # The hypothesis plugin honors --hypothesis-profile itself; only fall
    # back to the env var / dev default when no flag was given.
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _isolated_workload_dir(monkeypatch, tmp_path):
    """Keep every test hermetic w.r.t. the persistent workload directory.

    ``cli.main()`` loads ``$MCCM_WORKLOAD_DIR`` (default
    ``~/.mccm/workloads``) before every command; without this, files a
    developer registered on their machine would leak into — or break —
    unrelated CLI tests.
    """
    monkeypatch.setenv("MCCM_WORKLOAD_DIR", str(tmp_path / "mccm-workloads"))


@pytest.fixture(autouse=True)
def _isolated_rule_dir(monkeypatch, tmp_path):
    """Same hermeticity for the persistent constraint-ruleset directory.

    ``cli.main()`` loads ``$MCCM_RULE_DIR`` (default ``~/.mccm/rules``)
    right after the workload directory; ``repro rules register`` also
    saves there by default.
    """
    monkeypatch.setenv("MCCM_RULE_DIR", str(tmp_path / "mccm-rules"))


def build_tiny_cnn():
    """An 8-conv-layer CNN with one residual add, small enough for fast tests."""
    net = NetBuilder("TinyNet", (32, 32, 3))
    net.conv(16, kernel=3, stride=2, name="c1")
    entry = net.conv(32, kernel=3, name="c2")
    net.conv(32, kernel=1, name="c3", source=entry)
    main = net.conv(32, kernel=3, name="c4")
    net.residual_add(main, entry, name="res")
    net.conv(64, kernel=3, stride=2, name="c5")
    net.dwconv(kernel=3, name="c6_dw")
    net.conv(64, kernel=1, name="c6_pw")
    net.conv(128, kernel=3, stride=2, name="c7")
    net.global_pool(name="gap")
    net.dense(10, name="fc")
    return net.build()


@pytest.fixture(scope="session")
def tiny_cnn():
    return build_tiny_cnn()


@pytest.fixture(scope="session")
def tiny_specs(tiny_cnn):
    return tiny_cnn.conv_specs()


@pytest.fixture(scope="session")
def small_board():
    """A small FPGA budget that forces buffer pressure in tests."""
    return FPGABoard(
        name="testboard",
        dsp_count=128,
        bram_bytes=256 * 1024,
        bandwidth_gbps=2.0,
    )


@pytest.fixture(scope="session")
def roomy_board():
    """A budget large enough that everything fits on-chip."""
    return FPGABoard(
        name="roomyboard",
        dsp_count=1024,
        bram_bytes=64 * 1024 * 1024,
        bandwidth_gbps=25.0,
    )


@pytest.fixture(scope="session")
def zc706():
    return get_board("zc706")


@pytest.fixture(scope="session")
def vcu108():
    return get_board("vcu108")


@pytest.fixture(scope="session")
def resnet50():
    return load_model("resnet50")


@pytest.fixture(scope="session")
def mobilenetv2():
    return load_model("mobilenetv2")


@pytest.fixture(scope="session")
def precision():
    return DEFAULT_PRECISION


# --- strategies for the differential cost oracle -----------------------------


@st.composite
def oracle_cnns(draw):
    """A small random CNN: 2-10 conv layers, occasional depthwise pairs.

    Shrinks toward the 2-layer all-conv net. Channel counts and input
    sizes stay small so a single oracle example evaluates in
    milliseconds.
    """
    num_layers = draw(st.integers(2, 10))
    size = draw(st.sampled_from([16, 24, 32]))
    net = NetBuilder("OracleNet", (size, size, 3))
    channels = 3
    for index in range(num_layers):
        if channels > 4 and draw(st.booleans()) and draw(st.booleans()):
            net.dwconv(kernel=3, name=f"l{index}_dw")
        else:
            filters = draw(st.sampled_from([8, 12, 16, 24, 32]))
            stride = draw(st.sampled_from([1, 1, 1, 2]))
            kernel = draw(st.sampled_from([1, 3]))
            net.conv(filters, kernel=kernel, stride=stride, name=f"l{index}")
            channels = filters
    return net.build()


@st.composite
def oracle_boards(draw):
    """A random board: budgets span comfortable to starved (exercising
    both on-chip and spilled inter-segment interfaces)."""
    return FPGABoard(
        name="oracle",
        dsp_count=draw(st.sampled_from([64, 128, 256, 900])),
        bram_bytes=draw(st.sampled_from([64, 256, 1024, 4096])) * 1024,
        bandwidth_gbps=draw(st.sampled_from([1.0, 4.0, 12.8, 25.6])),
    )


@st.composite
def oracle_precisions(draw):
    """Weight/activation datatype combinations, shrinking to the default."""
    datatypes = [INT16, INT8, FP32]
    return Precision(
        weights=draw(st.sampled_from(datatypes)),
        activations=draw(st.sampled_from(datatypes)),
    )


@st.composite
def oracle_designs(draw, num_layers):
    """One valid :class:`CustomDesign` over ``num_layers`` layers.

    Draws the pipelined depth and cut set directly (not via the seeded
    space sampler) so hypothesis can shrink toward the degenerate
    single-segment design (``p=0``, no cuts).
    """
    pipelined = draw(st.integers(0, num_layers - 1))
    candidates = list(range(pipelined + 1, num_layers))
    cuts = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from(candidates), unique=True, max_size=len(candidates)
                )
            )
        )
        if candidates
        else []
    )
    return CustomDesign(
        pipelined_layers=pipelined, cuts=cuts, num_layers=num_layers
    )


@st.composite
def oracle_populations(draw, num_layers, max_size=8):
    """A population of designs, always including the two degenerate
    extremes: the single-segment design and the max-CE design (every
    layer pipelined where possible, otherwise maximally cut)."""
    population = draw(
        st.lists(oracle_designs(num_layers), min_size=1, max_size=max_size)
    )
    # Degenerate 1-segment design: no pipelined part, no cuts.
    population.append(
        CustomDesign(pipelined_layers=0, cuts=(), num_layers=num_layers)
    )
    # Max-CE design: all but the last layer pipelined, tail uncut —
    # num_layers CEs total (the space's upper extreme for this CNN).
    population.append(
        CustomDesign(
            pipelined_layers=num_layers - 1, cuts=(), num_layers=num_layers
        )
    )
    return population
