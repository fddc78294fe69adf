"""The repository benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced on the same
inputs and prints the per-layer metrics, the tracing overhead among
them. The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it record the host and the workload's own
metric names. Exit status: 0 when every output checked correct, 1 when
some did not (or the run broke), 2 when the program is not in this
checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-cold", "dse-campaign", "http-evaluate")
END_TO_END_UNITS = {
    "setup_s": "s",
    "designs_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "rss_peak_mib": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb one expected output; the run must then report failures",
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="regenerate perfbench/expected/ from the current program",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so no peak RSS is inherited."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.negative_control:
            command.append("--negative-control")
        print(f"# {workload}", flush=True)
        status = max(status, subprocess.run(command, cwd=str(ROOT)).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # The checkout's program and the benchmark package, never this
    # directory's modules as top-level names.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, stats

    work_parent = ROOT / ".perfbench-work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    environment = common.program_env(workdir)
    os.environ.clear()
    os.environ.update(environment)
    tempfile.tempdir = str(workdir)
    try:
        from perfbench import http_evaluate, inproc

        if args.write_expected:
            inproc.write_sweep_digests()
            inproc.write_campaign_expected(workdir)
            return 0
        run = {
            "sweep-cold": inproc.sweep_cold,
            "dse-campaign": inproc.dse_campaign,
            "http-evaluate": http_evaluate.http_evaluate,
        }[args.workload]
        outcome = run(args.seed, args.seconds, bool(args.trace), workdir, args.negative_control)

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.trace:
            metrics = {
                entry["name"]: {
                    "value": float(outcome.layers.get(entry["name"], 0.0)),
                    "unit": entry["unit"],
                }
                for entry in spec["per_layer"]
            }
        else:
            values = {
                "setup_s": stats.median(outcome.setup_seconds),
                "designs_per_s": stats.median(outcome.throughputs),
                "op_ms_p50": stats.median(outcome.op_ms),
                "op_ms_p90": stats.percentile(outcome.op_ms, 90),
                "rss_peak_mib": outcome.rss_peak_mib,
            }
            metrics = {}
            for entry in spec["end_to_end"]:
                value = values[entry["name"]]
                if value is None or entry["unit"] != END_TO_END_UNITS[entry["name"]]:
                    raise RuntimeError(f"cannot report {entry['name']} ({entry['unit']})")
                metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(json.dumps({"host": common.host_record(), "workload": args.workload,
                          "seed": args.seed, "trace": args.trace, **outcome.record}))
        if outcome.named:
            print(json.dumps({"workload": args.workload, "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in outcome.named.items()
            }}))
        correct = outcome.failed == 0 and outcome.attempted > 0
        print(json.dumps({
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }), flush=True)
        return 0 if correct else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
