"""Each entry point loads only the subsystems it runs.

A fresh interpreter runs one entry point and reports which ``repro``
modules it loaded. Package inits re-export lazily, only CLI commands and
service handlers import ``repro.dse``, ``repro.analysis``, ``repro.synth``
or ``repro.service``, and only worker pools and disk caches import
``multiprocessing`` and ``sqlite3`` (``docs/architecture.md``). Every
fresh process — each CLI command, each ``repro serve`` start — would
otherwise compile and keep all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Stdlib modules an entry point loads only when it needs them.
STDLIB = ("multiprocessing", "sqlite3", "http.server", "http.client", "ssl", "email")

#: Runs in the child after the entry point's code; prints what loaded.
REPORT = f"""
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith("repro") or name in {STDLIB!r}
)))
"""

#: Subsystems only entry points may load.
SUBSYSTEMS = ("repro.analysis", "repro.synth", "repro.service")


def _loaded(tmp_path, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env["MCCM_WORKLOAD_DIR"] = str(tmp_path / "workloads")
    env["MCCM_RULE_DIR"] = str(tmp_path / "rules")
    result = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _under(modules, package):
    return [name for name in modules if name == package or name.startswith(package + ".")]


def test_library_and_design_space_load_no_subsystem(tmp_path):
    """perfbench's set-up: the API plus the design space for its request mix."""
    loaded = _loaded(tmp_path, "from repro import api\nimport repro.dse.space\n")
    assert _under(loaded, "repro.dse") == ["repro.dse", "repro.dse.space"]
    for package in SUBSYSTEMS:
        assert _under(loaded, package) == [], package
    assert "multiprocessing" not in loaded
    assert "sqlite3" not in loaded


def test_campaign_engine_loads_only_the_pareto_analysis(tmp_path):
    loaded = _loaded(tmp_path, "import repro.dse.campaign\n")
    assert _under(loaded, "repro.analysis") == ["repro.analysis", "repro.analysis.pareto"]


def test_evaluate_command_loads_no_subsystem(tmp_path):
    code = (
        "from repro import cli\n"
        "status = cli.main(['evaluate', '--model', 'squeezenet', '--board', 'zc706',\n"
        "                   '--arch', 'segmentedrr', '--ces', '2'])\n"
        "assert status == 0\n"
    )
    loaded = _loaded(tmp_path, code)
    # The parser's --strategy choices come from the package init alone.
    assert _under(loaded, "repro.dse") == ["repro.dse"]
    for package in SUBSYSTEMS:
        assert _under(loaded, package) == [], package


def test_server_start_loads_no_search_or_client(tmp_path):
    loaded = _loaded(
        tmp_path, "import repro.cli, repro.service.server, repro.service.supervisor\n"
    )
    for module in ("campaign", "search", "evolve", "sampler"):
        assert f"repro.dse.{module}" not in loaded
    for package in ("repro.analysis", "repro.synth"):
        assert _under(loaded, package) == [], package
    assert "repro.service.loadtest" not in loaded
    assert "repro.service.client" not in loaded
    for module in ("http.server", "http.client", "ssl", "email"):
        assert module not in loaded, module
