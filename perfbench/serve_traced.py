"""``repro serve`` with the benchmark's span recorder installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json [repro serve args...]``

The wrappers go in before the supervisor forks, so the worker inherits
them (route-table entries included). When the worker's ``run_worker``
returns after its graceful drain, it writes its spans to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracing.import_program()
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)

    from repro import cli
    from repro.service import supervisor

    run_worker = supervisor.run_worker

    def traced_run_worker(*args, **kwargs):
        try:
            return run_worker(*args, **kwargs)
        finally:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"spans": recorder.spans}, handle)

    supervisor.run_worker = traced_run_worker
    return cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
