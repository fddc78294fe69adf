"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's use cases:

* ``evaluate`` — one accelerator, all four metrics (optionally JSON).
* ``sweep`` — the paper's architecture x CE-count grid: table, CSV, or JSON.
* ``validate`` — model vs reference-simulator accuracy (Eq. 10).
* ``dse`` — search the custom design space (random / guided / evolve
  strategies) and print the Pareto front.
* ``campaign`` — ``run`` / ``resume`` / ``status`` / ``watch`` of
  checkpointed, resumable multi-objective DSE campaigns with live
  telemetry (``docs/dse.md``).
* ``serve`` — the concurrent HTTP evaluation service (``docs/api.md``);
  ``--workers N`` pre-forks a supervised multi-worker fleet sharing one
  port and disk cache.
* ``loadtest`` — open-loop Poisson load generator for the service:
  saturation curve, p50/p95/p99 latency, error taxonomy.
* ``models`` / ``boards`` — ``list`` the registered CNNs and FPGAs or
  ``register`` user-defined JSON ones (persisted in the workload
  directory, ``$MCCM_WORKLOAD_DIR``); ``evaluate``/``sweep``/``dse``/
  ``validate`` also take one-shot ``--model-file``/``--board-file``.
* ``rules`` — ``list``/``register`` constraint rulesets (persisted in
  ``$MCCM_RULE_DIR``) or ``check`` a saved report JSON against one;
  ``evaluate --rules NAME`` attaches verdicts inline (``docs/rules.md``).

Bad inputs (unknown model/board names, malformed notation) exit with
status 2 and a one-line ``error:`` message instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.utils.atomic import write_atomic
from repro.utils.errors import MCCMError

from repro import rules as rules_registry
from repro import workloads
from repro.analysis.pareto import report_front
from repro.analysis.reporting import comparison_table
from repro.api import build_accelerator, evaluate, resolve_board, resolve_model, sweep
from repro.cnn.stats import collect_stats, stats_table
from repro.core.cost.export import report_from_json, report_to_json, reports_to_csv
from repro.core.cost.model import default_model
from repro.dse import (
    CustomDesignSpace,
    DesignEvaluator,
    EvolutionConfig,
    STRATEGY_NAMES,
    make_strategy,
)
from repro.dse.campaign import (
    CampaignSpec,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.rules.registry import ruleset_summary
from repro.synth.simulator import SynthesisSimulator
from repro.synth.validate import ValidationRecord
from repro.workloads.registry import model_summary


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", help="registered model name (zoo or custom), e.g. resnet50"
    )
    parser.add_argument(
        "--model-file",
        metavar="FILE",
        help="model JSON file (cnn/serialize schema); registered for this "
        "run under the file's model name",
    )
    parser.add_argument(
        "--board", help="registered board name (paper or custom), e.g. zc706"
    )
    parser.add_argument(
        "--board-file",
        metavar="FILE",
        help="board JSON file (see docs/api.md); registered for this run "
        "under the file's board name",
    )


def _selected_workloads(args: argparse.Namespace) -> tuple:
    """Resolve ``--model/--model-file`` and ``--board/--board-file`` to names.

    File arguments are validated and registered (``replace=True`` — the
    file on the command line is the source of truth for its name), so the
    rest of the pipeline sees plain registry names either way.
    """
    if args.model_file:
        if args.model:
            raise MCCMError("pass --model or --model-file, not both")
        model = workloads.register_model(args.model_file, replace=True)
    elif args.model:
        model = args.model
    else:
        raise MCCMError("one of --model / --model-file is required")
    if args.board_file:
        if args.board:
            raise MCCMError("pass --board or --board-file, not both")
        board = workloads.register_board(args.board_file, replace=True)
    elif args.board:
        board = args.board
    else:
        raise MCCMError("one of --board / --board-file is required")
    return model, board


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _population_int(text: str) -> int:
    """``--population`` parser: NSGA-II needs at least two individuals."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _jobs_value(text: str):
    """``--jobs`` parser: a non-negative worker count or ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    return _nonnegative_int(text)


def _add_runtime(parser: argparse.ArgumentParser, default_jobs=1) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs_value,
        default=default_jobs,
        help=(
            "worker processes for evaluation (0 = one per CPU; 'auto' = fork "
            "only when the host and batch size make it a win; "
            f"default {default_jobs})"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent evaluation-cache directory (reused across runs)",
    )


def _print_run_stats(stats) -> None:
    print(
        f"[runtime] {stats.evaluations} evaluated, {stats.cache_hits} cache hits "
        f"({100 * stats.hit_rate:.0f}%), {stats.elapsed_seconds:.2f}s "
        f"with {stats.jobs} job(s)",
        file=sys.stderr,
    )


def _print_verdicts(verdicts) -> None:
    for verdict in verdicts:
        status = "pass" if verdict.passed else verdict.severity.upper()
        print(f"[rules] {status:<5} {verdict.rule}: {verdict.message}", file=sys.stderr)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model, board = _selected_workloads(args)
    report = evaluate(
        model, board, args.arch, ce_count=args.ces, rules=args.rules or None
    )
    if args.json:
        # With --rules the dump gains a "verdicts" section; without it the
        # bytes are identical to the historical report JSON.
        print(report_to_json(report))
    else:
        print(report.summary())
        print(f"notation: {report.notation}")
        _print_verdicts(report.verdicts)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model, board = _selected_workloads(args)
    reports = sweep(
        model,
        board,
        architectures=args.arch or None,
        ce_counts=range(args.min_ces, args.max_ces + 1),
        jobs=args.jobs,
        cache_dir=args.cache,
    )
    if args.json:
        # Full dump — reports (lossless report_to_dict form), skipped
        # configurations with their reasons, and the runtime stats.
        print(json.dumps(reports.to_dict(), indent=2))
        return 0
    if args.csv:
        print(reports_to_csv(reports), end="")
    elif reports:
        print(comparison_table(reports))
    else:
        print("no feasible configurations in this sweep", file=sys.stderr)
    if reports.skipped:
        print(
            f"[runtime] skipped {len(reports.skipped)} infeasible configuration(s):",
            file=sys.stderr,
        )
        for skip in reports.skipped:
            print(
                f"[runtime]   {skip.architecture} x {skip.ce_count} CEs: {skip.reason}",
                file=sys.stderr,
            )
    _print_run_stats(reports.stats)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model, board = _selected_workloads(args)
    accelerator = build_accelerator(model, board, args.arch, ce_count=args.ces)
    report = default_model().evaluate(accelerator)
    simulation = SynthesisSimulator(accelerator).run()
    record = ValidationRecord.from_results(
        args.arch, model, args.ces, report, simulation
    )
    for metric, accuracy in record.accuracies.items():
        print(f"{metric:<12} {accuracy:6.1f}%")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.hw.datatypes import DEFAULT_PRECISION

    model_name, board_name = _selected_workloads(args)
    graph = resolve_model(model_name)
    # dse runs at the default precision; enforce a registered board's
    # supported_precisions restriction like every other command.
    board = resolve_board(board_name, precision=DEFAULT_PRECISION)
    space = CustomDesignSpace(graph.conv_specs())
    strategy = make_strategy(
        args.strategy,
        samples=args.samples,
        cost_metric=args.cost,
        evolution=EvolutionConfig(
            population=args.population,
            generations=args.generations,
            cost_metric=args.cost,
        )
        if args.strategy == "evolve"
        else None,
    )
    with DesignEvaluator(graph, board, jobs=args.jobs, cache_dir=args.cache) as evaluator:
        result = strategy.search(evaluator, space, seed=args.seed)
    if args.json:
        payload = result.to_dict()
        payload.update(
            {
                "model": model_name,
                "board": board_name,
                "strategy": args.strategy,
                "seed": args.seed,
                "space_size": space.size(),
            }
        )
        # Only the knobs that actually shaped this search's budget.
        if args.strategy == "evolve":
            payload["population"] = args.population
            payload["generations"] = args.generations
        else:
            payload["samples"] = args.samples
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"space {space.size():,} designs; evaluated {result.stats.evaluated} "
        f"at {result.stats.ms_per_design:.1f} ms/design "
        f"({result.stats.cache_hits} cache hits, {result.stats.jobs} job(s))"
    )
    # Evolution revisits designs across generations; collapse duplicates
    # before the front so each design prints once.
    unique = {}
    for _design, report in result.evaluated:
        unique.setdefault(report.notation, report)
    front = report_front(list(unique.values()), args.cost)
    for report in front:
        print(
            f"{report.accelerator_name:<22}{report.throughput_fps:>8.1f} FPS  "
            f"{report.metric(args.cost) / 2**20:>8.2f} MiB  {report.notation}"
        )
    return 0


def _print_campaign(result, verbose_front: bool = True) -> None:
    """Human-readable campaign standing (run/resume/status share it)."""
    spec = result.spec
    state = "done" if result.done else "in progress"
    print(
        f"campaign {spec.name!r}: {state} "
        f"(strategy {spec.strategy}, seed {spec.seed}, "
        f"{result.total_evaluations} evaluations)"
    )
    for cell in result.cells:
        progress = (
            f"gen {cell.generation}/{spec.generations}"
            if spec.strategy == "evolve"
            else cell.status
        )
        print(
            f"  {cell.cell.label:<24}{cell.status:<9}{progress:<12}"
            f"{cell.evaluations:>6} evals  archive {len(cell.front):>3}  "
            f"hypervolume {cell.hypervolume:.3e}"
        )
    if not verbose_front:
        return
    for cell in result.cells:
        if not cell.front:
            continue
        print(f"\n{cell.cell.label} Pareto front ({spec.cost_metric}):")
        for _design, report in cell.front:
            print(
                f"  {report.accelerator_name:<22}{report.throughput_fps:>8.1f} FPS  "
                f"{report.metric(spec.cost_metric) / 2**20:>8.2f} MiB  {report.notation}"
            )


def _write_output(path: str, text: str, what: str) -> None:
    """Write an ``--output``-style file atomically; failures exit 2."""
    try:
        write_atomic(path, text.encode("utf-8"))
    except OSError as error:
        raise MCCMError(f"cannot write {what} {path}: {error}") from None


def _finish_campaign(result, args: argparse.Namespace) -> int:
    if args.front_csv:
        _write_output(args.front_csv, result.front_csv(), "front CSV")
        print(f"[campaign] front written to {args.front_csv}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _print_campaign(result)
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_json(args.spec)
    result = run_campaign(
        spec, args.checkpoint, jobs=args.jobs, cache_dir=args.cache
    )
    return _finish_campaign(result, args)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    result = resume_campaign(args.checkpoint, jobs=args.jobs, cache_dir=args.cache)
    return _finish_campaign(result, args)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    result = campaign_status(args.checkpoint)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _print_campaign(result, verbose_front=False)
    return 0


def _render_campaign_event(event: dict) -> Optional[str]:
    """One human-readable line per telemetry event (``None`` = silent)."""
    etype = event.get("type")
    if etype == "campaign_start":
        cells = event.get("cells") or []
        return (
            f"campaign {event.get('name')!r} started: {len(cells)} cell(s) "
            f"[{', '.join(str(c) for c in cells)}], strategy {event.get('strategy')}, "
            f"seed {event.get('seed')}, budget {event.get('budget')} evaluations"
        )
    if etype == "generation_done":
        best_fps = event.get("best_throughput_fps")
        best_cost = event.get("best_cost")
        fps_text = f"{best_fps:>9.1f} FPS" if best_fps is not None else "  (no feasible)"
        cost_text = (
            f"{best_cost / 2**20:>8.2f} MiB" if best_cost is not None else ""
        )
        hit = event.get("cache_hit_rate") or 0.0
        return (
            f"  gen {event.get('generation', '?'):>3}  "
            f"{event.get('label', ''):<24}front {event.get('front_size', 0):>3}  "
            f"hv {event.get('hypervolume', 0.0):.3e}  best {fps_text} {cost_text}  "
            f"cache {hit:>6.1%}  {event.get('round_evaluations', 0)} evals "
            f"in {event.get('round_seconds', 0.0):.2f}s"
        )
    if etype == "cell_done":
        return (
            f"cell done  {event.get('label', '')}  "
            f"front {event.get('front_size', 0)}  "
            f"hv {event.get('hypervolume', 0.0):.3e}  "
            f"({event.get('evaluations', 0)} evals, "
            f"{event.get('elapsed_seconds', 0.0):.1f}s)"
        )
    if etype == "campaign_done":
        cells = event.get("cells") or []
        fronts = ", ".join(
            f"{cell.get('label')} hv {cell.get('hypervolume', 0.0):.3e}"
            for cell in cells
        )
        return (
            f"campaign done: {event.get('total_evaluations', 0)} evaluations; {fronts}"
        )
    if etype == "error":
        return f"error: {event.get('message')} ({event.get('error_type')})"
    return None  # generation_start: the table stays one row per finished round


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    if bool(args.url) == bool(args.log):
        raise MCCMError(
            "campaign watch needs exactly one source: --url URL --id ID "
            "(live service stream) or --log FILE (local event log)"
        )
    if args.url:
        if not args.id:
            raise MCCMError("campaign watch --url also needs --id CAMPAIGN_ID")
        from repro.service.client import ServiceClient

        events = ServiceClient(args.url, timeout=args.timeout).stream_campaign(
            args.id, after=args.after
        )
    else:
        from repro.dse.events import read_events

        # read_events reads a missing log as empty, which resume and stream
        # serving rely on; here it would hide a mistyped path.
        if not os.path.exists(args.log):
            raise MCCMError(f"cannot read event log {args.log}: no such file")
        events = (event.to_dict() for event in read_events(args.log, after=args.after))
    status = 0
    for event in events:
        if args.json:
            print(
                json.dumps(event, sort_keys=True, separators=(",", ":")), flush=True
            )
        else:
            line = _render_campaign_event(event)
            if line is not None:
                print(line, flush=True)
        if event.get("type") == "error":
            status = 1
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so plain CLI runs never pay for the service module.
    from repro.service.server import serve

    return serve(
        args.host,
        args.port,
        jobs=args.jobs,
        cache_dir=args.cache,
        workers=args.workers,
        max_inflight=args.max_inflight,
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service.loadtest import (
        format_loadtest,
        run_loadtest,
        run_worker_comparison,
    )

    try:
        rates = [float(rate) for rate in args.rates.split(",") if rate.strip()]
    except ValueError:
        raise MCCMError(
            f"--rates must be comma-separated numbers, got {args.rates!r}"
        ) from None
    if any(rate <= 0 for rate in rates):
        raise MCCMError(f"--rates must all be positive, got {args.rates!r}")
    if args.url is not None:
        result = run_loadtest(
            args.url,
            rates=rates,
            duration=args.duration,
            seed=args.seed,
            model=args.model,
            board=args.board,
            client_threads=args.client_threads,
        )
    else:
        try:
            worker_counts = [int(n) for n in args.workers.split(",") if n.strip()]
        except ValueError:
            raise MCCMError(
                f"--workers must be comma-separated integers, got {args.workers!r}"
            ) from None
        if not worker_counts or any(n < 1 for n in worker_counts):
            raise MCCMError(f"--workers needs counts >= 1, got {args.workers!r}")
        result = run_worker_comparison(
            worker_counts,
            rates=rates,
            duration=args.duration,
            seed=args.seed,
            model=args.model,
            board=args.board,
            client_threads=args.client_threads,
            jobs=args.jobs,
        )
    if args.output is not None:
        text = json.dumps(result, indent=2) + "\n"
        _write_output(args.output, text, "loadtest result")
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(format_loadtest(result), end="")
    return 0


def _cmd_models_list(args: argparse.Namespace) -> int:
    entries = [workloads.REGISTRY.models.entry(n) for n in workloads.available_models()]
    if getattr(args, "json", False):
        catalog = [{**model_summary(entry), "source": entry.source} for entry in entries]
        print(json.dumps({"models": catalog}, indent=2))
        return 0
    print(stats_table([collect_stats(entry.value) for entry in entries]))
    custom = [entry.name for entry in entries if not entry.builtin]
    if custom:
        print(f"custom: {', '.join(custom)}", file=sys.stderr)
    return 0


def _cmd_models_register(args: argparse.Namespace) -> int:
    name = workloads.register_model(args.file, replace=True)
    graph = workloads.load_model(name)
    line = f"registered model {name!r} ({graph.num_conv_layers} conv layers)"
    if not args.no_save:
        path = workloads.save_workload(
            "model", name, workloads.REGISTRY.models.entry(name).definition
        )
        line += f" -> {path}"
    print(line)
    return 0


def _cmd_boards_list(args: argparse.Namespace) -> int:
    entries = [workloads.REGISTRY.boards.entry(n) for n in workloads.available_boards()]
    if getattr(args, "json", False):
        print(json.dumps({"boards": [entry.definition for entry in entries]}, indent=2))
        return 0
    header = f"{'board':<12}{'DSPs':>8}{'BRAM MiB':>10}{'BW GB/s':>9}"
    print(header)
    print("-" * len(header))
    for entry in entries:
        board = entry.value
        suffix = "" if entry.builtin else "  (custom)"
        print(
            f"{entry.name:<12}{board.dsp_count:>8}{board.bram_bytes / 2**20:>10.1f}"
            f"{board.bandwidth_gbps:>9.1f}{suffix}"
        )
    return 0


def _cmd_boards_register(args: argparse.Namespace) -> int:
    name = workloads.register_board(args.file, replace=True)
    board = workloads.get_board(name)
    line = (
        f"registered board {name!r} ({board.dsp_count} DSPs, "
        f"{board.bram_bytes / 2**20:.1f} MiB BRAM, {board.bandwidth_gbps:g} GB/s)"
    )
    if not args.no_save:
        path = workloads.save_workload(
            "board", name, workloads.REGISTRY.boards.entry(name).definition
        )
        line += f" -> {path}"
    print(line)
    return 0


def _cmd_rules_list(args: argparse.Namespace) -> int:
    rulesets = rules_registry.REGISTRY
    entries = [rulesets.entry(name) for name in rulesets.names()]
    if getattr(args, "json", False):
        catalog = []
        for entry in entries:
            # The CLI listing also names each ruleset's source, just
            # before its definition.
            summary = ruleset_summary(entry)
            definition = summary.pop("definition")
            catalog.append({**summary, "source": entry.source, "definition": definition})
        print(json.dumps({"rulesets": catalog}, indent=2))
        return 0
    header = f"{'ruleset':<24}{'rules':>6}  description"
    print(header)
    print("-" * len(header))
    for entry in entries:
        summary = ruleset_summary(entry)
        suffix = "  (custom)" if summary["custom"] else ""
        print(
            f"{entry.name:<24}{summary['rule_count']:>6}  "
            f"{summary['description'][:60]}{suffix}"
        )
    return 0


def _cmd_rules_register(args: argparse.Namespace) -> int:
    name = rules_registry.register_ruleset(args.file, replace=True)
    definition = rules_registry.ruleset_definition(name)
    line = f"registered ruleset {name!r} ({len(definition['rules'])} rule(s))"
    if not args.no_save:
        path = rules_registry.save_ruleset(name, definition)
        line += f" -> {path}"
    print(line)
    return 0


def _cmd_rules_check(args: argparse.Namespace) -> int:
    """Judge a saved ``evaluate --json`` report against a ruleset.

    Exits 0 when every ``fail``-severity rule passes, 1 otherwise —
    scriptable as a CI gate over exported reports.
    """
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = report_from_json(handle.read())
    except OSError as error:
        print(f"error: cannot read report {args.report}: {error}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as error:
        print(
            f"error: {args.report} is not a report JSON dump "
            f"({type(error).__name__}: {error})",
            file=sys.stderr,
        )
        return 2
    verdicts = rules_registry.evaluate_rules(report, args.rules)
    if getattr(args, "json", False):
        print(json.dumps([verdict.to_dict() for verdict in verdicts], indent=2))
    else:
        _print_verdicts(verdicts)
    return 1 if rules_registry.has_failures(verdicts) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MCCM: analytical cost model for multiple-CE CNN accelerators",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("evaluate", help="evaluate one accelerator")
    _add_common(cmd)
    cmd.add_argument("--arch", required=True, help="template name or notation string")
    cmd.add_argument("--ces", type=int, default=None, help="CE count (templates)")
    cmd.add_argument("--json", action="store_true", help="emit the full JSON report")
    cmd.add_argument(
        "--rules",
        default=None,
        metavar="NAME",
        help="evaluate a registered constraint ruleset against the report "
        "and attach its verdicts (see `repro rules list`)",
    )
    cmd.set_defaults(func=_cmd_evaluate)

    cmd = commands.add_parser("sweep", help="architectures x CE counts grid")
    _add_common(cmd)
    cmd.add_argument("--arch", nargs="*", help="restrict architectures")
    cmd.add_argument("--min-ces", type=int, default=2)
    cmd.add_argument("--max-ces", type=int, default=11)
    cmd.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full JSON dump (reports + skipped configs + stats)",
    )
    _add_runtime(cmd, default_jobs="auto")
    cmd.set_defaults(func=_cmd_sweep)

    cmd = commands.add_parser("validate", help="accuracy vs reference simulator")
    _add_common(cmd)
    cmd.add_argument("--arch", required=True)
    cmd.add_argument("--ces", type=int, required=True)
    cmd.set_defaults(func=_cmd_validate)

    cmd = commands.add_parser("dse", help="explore the custom design space")
    _add_common(cmd)
    cmd.add_argument("--samples", type=int, default=500)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--cost", default="buffers", choices=["buffers", "access"])
    cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full JSON dump (Pareto front + stats)",
    )
    cmd.add_argument(
        "--strategy",
        default="random",
        choices=list(STRATEGY_NAMES),
        help="search strategy (default: random, the Fig. 10 experiment)",
    )
    cmd.add_argument(
        "--population",
        type=_population_int,
        default=32,
        help="evolve strategy: population per generation (>= 2)",
    )
    cmd.add_argument(
        "--generations",
        type=_nonnegative_int,
        default=10,
        help="evolve strategy: generations after the initial sample",
    )
    _add_runtime(cmd, default_jobs="auto")
    cmd.set_defaults(func=_cmd_dse)

    cmd = commands.add_parser(
        "campaign",
        help="resumable multi-objective DSE campaigns (see docs/dse.md)",
    )
    campaign_commands = cmd.add_subparsers(dest="campaign_command", required=True)

    sub = campaign_commands.add_parser(
        "run", help="start a campaign from a JSON spec (checkpointing as it goes)"
    )
    sub.add_argument("--spec", required=True, help="campaign spec JSON file")
    sub.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint JSON path (resumable after a crash/kill); "
        "refuses to overwrite an existing checkpoint",
    )
    sub.add_argument(
        "--front-csv", metavar="FILE", default=None,
        help="also export the final Pareto fronts as CSV",
    )
    sub.add_argument("--json", action="store_true", help="emit the full JSON result")
    _add_runtime(sub, default_jobs="auto")
    sub.set_defaults(func=_cmd_campaign_run)

    sub = campaign_commands.add_parser(
        "resume", help="finish a killed/interrupted campaign from its checkpoint"
    )
    sub.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    sub.add_argument(
        "--front-csv", metavar="FILE", default=None,
        help="also export the final Pareto fronts as CSV",
    )
    sub.add_argument("--json", action="store_true", help="emit the full JSON result")
    _add_runtime(sub, default_jobs="auto")
    sub.set_defaults(func=_cmd_campaign_resume)

    sub = campaign_commands.add_parser(
        "status", help="inspect a checkpoint without evaluating anything"
    )
    sub.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    sub.add_argument("--json", action="store_true", help="emit the full JSON status")
    sub.set_defaults(func=_cmd_campaign_status)

    sub = campaign_commands.add_parser(
        "watch",
        help="render the live telemetry event stream of a campaign "
        "(service stream or local event log)",
    )
    sub.add_argument(
        "--url", default=None,
        help="service base URL (e.g. http://127.0.0.1:8000); streams "
        "GET /campaign/<id>/events with reconnect-at-offset",
    )
    sub.add_argument(
        "--id", default=None, metavar="CAMPAIGN_ID",
        help="campaign id returned by POST /campaign (with --url)",
    )
    sub.add_argument(
        "--log", default=None, metavar="FILE",
        help="replay a local <checkpoint>.events NDJSON event log instead",
    )
    sub.add_argument(
        "--after", type=_nonnegative_int, default=0, metavar="SEQ",
        help="skip events with seq <= SEQ (offset resume)",
    )
    sub.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-request socket timeout in seconds (with --url)",
    )
    sub.add_argument(
        "--json", action="store_true",
        help="print each event as one canonical JSON line instead of the table",
    )
    sub.set_defaults(func=_cmd_campaign_watch)

    cmd = commands.add_parser(
        "serve", help="run the concurrent HTTP evaluation service"
    )
    cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    cmd.add_argument("--port", type=int, default=8100, help="bind port (0 = ephemeral)")
    cmd.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "pre-forked worker processes sharing the port and disk cache "
            "(supervisor restarts crashed workers; SIGTERM drains gracefully)"
        ),
    )
    cmd.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=64,
        metavar="N",
        help=(
            "per-worker bound on concurrent model-work requests before the "
            "service answers 429 backpressure (default 64)"
        ),
    )
    _add_runtime(cmd)
    cmd.set_defaults(func=_cmd_serve)

    cmd = commands.add_parser(
        "loadtest",
        help="open-loop Poisson load test against the HTTP service",
    )
    cmd.add_argument(
        "--url",
        default=None,
        help="measure a running service instead of spawning servers",
    )
    cmd.add_argument(
        "--workers",
        default="1",
        metavar="N[,N...]",
        help=(
            "worker counts to spawn and compare when no --url is given "
            "(e.g. '1,4'; default '1')"
        ),
    )
    cmd.add_argument(
        "--rates",
        default="50,100,200,400",
        metavar="R[,R...]",
        help="target request rates (req/s) for the ramp stages",
    )
    cmd.add_argument(
        "--duration",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds per ramp stage (default 2.0)",
    )
    cmd.add_argument("--seed", type=int, default=0, help="arrival-process seed")
    cmd.add_argument("--model", default="squeezenet", help="model for the request mix")
    cmd.add_argument("--board", default="zc706", help="board for the request mix")
    cmd.add_argument(
        "--client-threads",
        type=_positive_int,
        default=64,
        metavar="N",
        help="client threads firing requests (default 64)",
    )
    cmd.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the full result JSON to FILE",
    )
    cmd.add_argument(
        "--json", action="store_true", help="print the result JSON instead of the table"
    )
    cmd.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help="evaluation worker processes inside each spawned server",
    )
    cmd.set_defaults(func=_cmd_loadtest)

    cmd = commands.add_parser("models", help="list or register CNN models")
    cmd.set_defaults(func=_cmd_models_list)
    model_commands = cmd.add_subparsers(dest="models_command")
    sub = model_commands.add_parser("list", help="every registered model")
    sub.add_argument("--json", action="store_true", help="emit the JSON catalog")
    sub.set_defaults(func=_cmd_models_list)
    sub = model_commands.add_parser(
        "register", help="validate and register a model JSON file"
    )
    sub.add_argument("file", help="model JSON file (cnn/serialize schema)")
    sub.add_argument(
        "--no-save",
        action="store_true",
        help="validate/register for this process only instead of persisting "
        "into the workload directory ($MCCM_WORKLOAD_DIR)",
    )
    sub.set_defaults(func=_cmd_models_register)

    cmd = commands.add_parser("boards", help="list or register FPGA boards")
    cmd.set_defaults(func=_cmd_boards_list)
    board_commands = cmd.add_subparsers(dest="boards_command")
    sub = board_commands.add_parser("list", help="every registered board")
    sub.add_argument("--json", action="store_true", help="emit the JSON catalog")
    sub.set_defaults(func=_cmd_boards_list)
    sub = board_commands.add_parser(
        "register", help="validate and register a board JSON file"
    )
    sub.add_argument("file", help="board JSON file (see docs/api.md)")
    sub.add_argument(
        "--no-save",
        action="store_true",
        help="validate/register for this process only instead of persisting "
        "into the workload directory ($MCCM_WORKLOAD_DIR)",
    )
    sub.set_defaults(func=_cmd_boards_register)

    cmd = commands.add_parser(
        "rules", help="list, register, or check constraint rulesets"
    )
    cmd.set_defaults(func=_cmd_rules_list)
    rule_commands = cmd.add_subparsers(dest="rules_command")
    sub = rule_commands.add_parser("list", help="every registered ruleset")
    sub.add_argument("--json", action="store_true", help="emit the JSON catalog")
    sub.set_defaults(func=_cmd_rules_list)
    sub = rule_commands.add_parser(
        "register", help="validate and register a ruleset JSON file"
    )
    sub.add_argument("file", help="ruleset JSON file (see docs/rules.md)")
    sub.add_argument(
        "--no-save",
        action="store_true",
        help="validate/register for this process only instead of persisting "
        "into the rule directory ($MCCM_RULE_DIR)",
    )
    sub.set_defaults(func=_cmd_rules_register)
    sub = rule_commands.add_parser(
        "check",
        help="judge a saved `evaluate --json` report against a ruleset "
        "(exit 1 on fail verdicts)",
    )
    sub.add_argument("report", help="report JSON file (from evaluate --json)")
    sub.add_argument(
        "--rules",
        default=rules_registry.BUILTIN_RESOURCES,
        metavar="NAME",
        help="registered ruleset to check against (default: builtin:resources)",
    )
    sub.add_argument("--json", action="store_true", help="emit the JSON verdicts")
    sub.set_defaults(func=_cmd_rules_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Models/boards/rulesets persisted by `repro ... register` load
        # into their registries before any command resolves names.
        workloads.load_workload_dir()
        rules_registry.load_rule_dir()
        return args.func(args)
    except MCCMError as error:
        # Covers unknown model/board names too: the workload registry
        # raises UnknownWorkloadError, an MCCMError with suggestions.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
