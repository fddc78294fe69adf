"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dse-campaign --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles and quartile spread as a share of
the median, next to the metric's bound in ``BENCHMARK.json``. A spread
above a third of the bound is marked: the benchmark is not steady enough
there to resolve a change of that size. ``--json FILE`` keeps the raw
values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write the raw per-run values here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    steady = True
    for entry in spec["end_to_end"]:
        q1, mid, q3 = statistics.quantiles(values[entry["name"]], n=4)
        spread = stats.quartile_spread(values[entry["name"]])
        mark = ""
        if spread > entry["bound"] / 3:
            mark = "  <-- above bound/3"
            if entry["name"] != "setup_s":  # set-up spread is reported, not gated
                steady = False
        print(f"{entry['name']:16s} median {mid:11.4f} {entry['unit']:5s} "
              f"q1 {q1:11.4f} q3 {q3:11.4f} spread {spread:6.3f} "
              f"bound {entry['bound']:.2f}{mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
