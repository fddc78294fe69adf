"""The library runs on the standard library alone.

A fresh interpreter imports ``repro``, ``repro.cli`` and ``repro.service``
and runs a default sweep. Afterwards no module may have been loaded from
the site-packages directories (``purelib``/``platlib``) beyond what the
bare interpreter already loaded at startup (``.pth`` hooks such as
``_distutils_hack``), so the test-only packages installed next to the
library (pytest, hypothesis, ...) can never leak into its import graph.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs in the child interpreter; prints the offending top-level packages
#: as JSON. Modules named on its command line are imported after the sweep.
#: Kept Python 3.9-compatible (no ``sys.stdlib_module_names``).
PROBE = """
import json, os, sys, sysconfig
startup = set(sys.modules)
import repro, repro.cli, repro.service
repro.sweep("squeezenet", "zc706")
for extra in sys.argv[1:]:
    __import__(extra)
paths = sysconfig.get_paths()
roots = {os.path.join(os.path.realpath(paths[k]), "") for k in ("purelib", "platlib")}
leaked = set()
for name, module in list(sys.modules.items()):
    origin = getattr(module, "__file__", None)
    if name in startup or not origin:
        continue
    if any(os.path.realpath(origin).startswith(root) for root in roots):
        leaked.add(name.partition(".")[0])
print(json.dumps(sorted(leaked)))
"""


def _leaked(tmp_path, *extra_imports):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env["MCCM_WORKLOAD_DIR"] = str(tmp_path / "workloads")
    env["MCCM_RULE_DIR"] = str(tmp_path / "rules")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *extra_imports],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_library_loads_nothing_from_site_packages(tmp_path):
    leaked = _leaked(tmp_path)
    assert leaked == [], f"packages imported from site-packages: {leaked}"


def test_probe_reports_a_site_packages_import(tmp_path):
    """The probe is not vacuous: an installed test dependency is caught."""
    assert "hypothesis" in _leaked(tmp_path, "hypothesis")
