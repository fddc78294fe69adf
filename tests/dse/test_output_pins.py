"""Pinned DSE outputs: every search strategy's front, byte for byte.

``repro dse --json`` and ``POST /dse`` are checked elsewhere for shape and
for run-to-run determinism; here each one's Pareto front (designs and
lossless reports) and the deterministic search counters hash to committed
sha256 digests, so a refactor of the search plumbing that changes one
output byte fails. The budgets stay below ``AUTO_FORK_MIN_MISSES``, so the
default ``--jobs auto`` evaluates inline on any host and ``jobs`` reads 1.
The digests are the same on Python 3.9, 3.11 and 3.13.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.service import EvaluationService, ServiceClient

MODEL = "squeezenet"
BOARD = "zc706"

#: ``SampleStats`` fields that do not depend on timing.
DETERMINISTIC_STATS = ("evaluated", "failed", "cache_hits", "jobs")

#: strategy -> (CLI budget and seed, front digest, stats digest).
CLI_PINS = {
    "random": (
        ["--samples", "60", "--seed", "7"],
        "9886ff9c068a384fa8d48250b6e1abcfff69685135f1d7146aec14edd995f293",
        "9323b7b5a2902388dd93a35e620cc6e5c2f361b7aa3e3a4997a78d8cae8f5315",
    ),
    "guided": (
        ["--samples", "30", "--seed", "3"],
        "6b2ea0412684111a65f6b077024a31242ee55cb8740857efa6c505d9b3dde48a",
        "47b59e095ec19ab8ec1fd81016ee2025436506138e742d2a77c52e1e1eb6a1ac",
    ),
    "evolve": (
        ["--population", "16", "--generations", "5", "--seed", "2"],
        "84a1ec684d2d400fae7e438d5f6c7d87a84f301f3b8502cddba932fb31f30b44",
        "321244617f8d6e81154c1154302411d77ee045cb99c05a91eb409a945d5230e2",
    ),
}

DSE_REQUEST = {"model": MODEL, "board": BOARD, "samples": 30, "seed": 11}
DSE_FRONT_DIGEST = "07d251310a7d35ae99ff6b248955ecebbee9b7882dbc48d3a55387e635d6de62"


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("strategy", sorted(CLI_PINS))
def test_cli_front_and_stats_are_pinned(strategy, capsys):
    budget, front_digest, stats_digest = CLI_PINS[strategy]
    argv = ["dse", "--model", MODEL, "--board", BOARD, "--strategy", strategy]
    assert main([*argv, *budget, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    stats = {name: data["stats"][name] for name in DETERMINISTIC_STATS}
    assert data["front"]
    assert stats["jobs"] == 1
    assert (digest(data["front"]), digest(stats)) == (front_digest, stats_digest)


def test_service_dse_front_is_pinned():
    with EvaluationService(port=0) as service:
        result = ServiceClient(service.url, timeout=60.0).dse(**DSE_REQUEST)
    assert result.raw["front"]
    assert digest(result.raw["front"]) == DSE_FRONT_DIGEST
