"""Command-line interface.

Subcommands::

    python -m repro info                      # list games / design points / orders
    python -m repro render GAME [-o out.ppm]  # functional render to an image
    python -m repro replay GAME [-d NAME ...] # replay design points, print table
    python -m repro suite [-d NAME ...]       # whole-suite comparison
    python -m repro sweep [--grouping ...]    # design-space grid, table or CSV
    python -m repro animate GAME [--frames N] # multi-frame warm-cache run
    python -m repro schedule [--grouping ...] # visualize a schedule as ASCII
    python -m repro lint [PATHS ...]          # replint static checks
    python -m repro archcheck [--dot out.dot] # whole-program arch checks
    python -m repro faultcheck [--json ...]   # exception-flow analysis
    python -m repro perfcheck [--dot out.dot] # hot-path performance checks
    python -m repro check                     # all four analyzers, concurrently
    python -m repro sanitize GAME [-d NAME]   # runtime invariant sanitizer
    python -m repro chaos [--trials N]        # fault-injection campaign

Common options: ``--screen WxH`` picks the simulated resolution
(default 512x256; ``--screen paper`` = the Table II 1960x768), and
``--json`` switches tabular output to JSON for scripting.

Exit codes: 0 for clean success, 1 for lint findings or invariant
violations, 3 for a partial sweep (some design points failed but the
campaign completed), 2 for a fatal error (also what argparse uses for
invalid arguments).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, PAPER_CONFIGURATIONS, DTexLConfig
from repro.core.quad_grouping import GROUPINGS
from repro.core.subtile_assignment import ASSIGNMENTS
from repro.core.tile_order import TILE_ORDERS
from repro.errors import ConfigError, ReproError, UnknownWorkloadError
from repro.sim import ExperimentRunner, FrameRenderer, TraceReplayer
from repro.sim.stream import STREAM_DRIVERS
from repro.sim.export import run_result_to_dict, suite_result_to_dict
from repro.workloads import GAMES, build_game

#: Distinct exit codes for unattended campaign drivers.
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2
EXIT_PARTIAL = 3


def _parse_screen(value: str) -> GPUConfig:
    if value == "paper":
        return GPUConfig()
    try:
        width, height = value.lower().split("x")
        return GPUConfig(screen_width=int(width), screen_height=int(height))
    except (ValueError, TypeError) as error:
        # ArgumentTypeError messages are printed verbatim by argparse;
        # a plain ValueError's reason would be swallowed.
        raise argparse.ArgumentTypeError(
            f"invalid screen size {value!r} ({error}); "
            "expected WIDTHxHEIGHT or 'paper'"
        ) from error


def _games(value: Optional[str]) -> Optional[List[str]]:
    """Split and validate a ``--games A,B,...`` list."""
    if not value:
        return None
    aliases = [alias.strip() for alias in value.split(",") if alias.strip()]
    unknown = [alias for alias in aliases if alias not in GAMES]
    if unknown:
        raise UnknownWorkloadError(
            f"unknown game(s) {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(GAMES)}"
        )
    return aliases


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--screen", type=_parse_screen, default=_parse_screen("512x256"),
        metavar="WxH|paper", help="simulated screen size (default 512x256)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )


def _designs(names: Optional[List[str]]) -> List[DTexLConfig]:
    if not names:
        return [BASELINE, PAPER_CONFIGURATIONS["HLB-flp2"]]
    out = []
    for name in names:
        try:
            out.append(PAPER_CONFIGURATIONS[name])
        except KeyError:
            raise ConfigError(
                f"unknown design point {name!r}; see `python -m repro info`"
            ) from None
    return out


def cmd_info(_args) -> int:
    print("Games (Table I):")
    for alias, spec in GAMES.items():
        print(f"  {alias:4s} {spec.title} ({spec.scene_type}, "
              f"{spec.texture_footprint_mib} MiB)")
    print("\nDesign points (paper configurations):")
    for name, cfg in PAPER_CONFIGURATIONS.items():
        arch = "decoupled" if cfg.decoupled else "coupled"
        print(f"  {name:22s} {cfg.grouping:10s} {cfg.order:8s} "
              f"{cfg.assignment:6s} {arch}")
    print("\nQuad groupings:", ", ".join(sorted(GROUPINGS)))
    print("Tile orders:   ", ", ".join(sorted(TILE_ORDERS)))
    print("Assignments:   ", ", ".join(sorted(ASSIGNMENTS)))
    return 0


def cmd_render(args) -> int:
    config = args.screen
    workload = build_game(args.game, config)
    renderer = FrameRenderer(config)
    trace, framebuffer = renderer.render(workload, with_image=True)
    output = args.output or f"{args.game.lower()}_frame.ppm"
    with open(output, "wb") as handle:
        handle.write(framebuffer.to_ppm())
    stats = trace.stats
    print(
        f"wrote {output}: {stats.num_quads} quads, "
        f"overdraw {stats.overdraw_factor(config):.2f}, "
        f"Early-Z cull {stats.z_cull_rate:.0%}"
    )
    return 0


def _print_replay_profile(profiler, render_s: float, replay_s: float) -> None:
    """Per-phase wall times plus the hottest profile entries."""
    import pstats

    stats = pstats.Stats(profiler)
    # The pass-2 timing model, attributed from the profile: cumulative
    # time under RasterPipelineModel.simulate.
    timing_s = sum(
        ct
        for (filename, _line, name), (_cc, _nc, _tt, ct, _callers)
        in stats.stats.items()
        if name == "simulate" and "pipeline" in filename
    )
    print("\nprofile (phases)")
    print(f"  pass-1 render : {render_s:8.3f} s")
    print(f"  pass-2 replay : {replay_s:8.3f} s")
    print(f"    timing model: {timing_s:8.3f} s (within replay)")
    print("\nprofile (top functions by cumulative time)")
    stats.sort_stats("cumulative").print_stats(15)


def cmd_replay(args) -> int:
    config = args.screen
    designs = _designs(args.design)
    stream = getattr(args, "stream", "batch")
    profiling = getattr(args, "profile", False)
    if profiling:
        import time
        t0 = time.perf_counter()
    replayer = TraceReplayer(config)
    if stream == "batch":
        workload = build_game(args.game, config)
        trace, _ = FrameRenderer(config).render(workload)
    if profiling:
        import cProfile
        render_s = time.perf_counter() - t0
        profiler = cProfile.Profile()
        t1 = time.perf_counter()
        profiler.enable()
    if stream == "batch":
        results = [replayer.run(trace, design) for design in designs]
    else:
        # Streamed dataflows render inside the replay loop, so pass 1
        # is part of the profiled phase and each design point pays its
        # own (bounded-memory) render.
        runner = ExperimentRunner(config, games=[args.game], stream=stream)
        results = [runner.run(args.game, design) for design in designs]
    if profiling:
        profiler.disable()
        replay_s = time.perf_counter() - t1
        _print_replay_profile(profiler, render_s, replay_s)
    if args.json:
        import json
        print(json.dumps(
            [run_result_to_dict(r) for r in results], indent=2, sort_keys=True
        ))
        return 0
    base = results[0]
    rows = [
        [
            r.design_point, r.l2_accesses,
            r.l2_accesses / base.l2_accesses if base.l2_accesses else 0.0,
            r.frame_cycles, base.frame_cycles / r.frame_cycles,
            r.energy.total_mj,
        ]
        for r in results
    ]
    print(format_table(
        ["design point", "L2 accesses", "L2 norm.", "cycles",
         "speedup", "energy mJ"],
        rows,
        title=f"{args.game} at {config.screen_width}x{config.screen_height} "
              f"(speedup vs {base.design_point})",
    ))
    return 0


def cmd_suite(args) -> int:
    config = args.screen
    runner = ExperimentRunner(config, games=_games(args.games))
    designs = _designs(args.design)
    suites = [runner.run_suite(design) for design in designs]
    if args.json:
        import json
        print(json.dumps(
            [suite_result_to_dict(s) for s in suites], indent=2, sort_keys=True
        ))
        return 0
    base = suites[0]
    rows = [
        [
            suite.design_point,
            suite.total_l2_accesses,
            suite.mean_l2_decrease_vs(base),
            suite.mean_speedup_vs(base),
            suite.mean_energy_decrease_vs(base),
        ]
        for suite in suites
    ]
    print(format_table(
        ["design point", "L2 accesses", "L2 decrease %", "speedup",
         "energy decrease %"],
        rows,
        title=f"suite of {len(runner.games)} games vs {base.design_point}",
    ))
    return 0


def cmd_sweep(args) -> int:
    from repro.sim.resilience import ReplayBudget, RetryPolicy
    from repro.sim.sweep import DesignSweep, best_row, rows_to_csv

    if args.resume and not args.checkpoint_dir:
        raise ConfigError("--resume requires --checkpoint-dir")
    if args.max_retries < 0:
        raise ConfigError("--max-retries must be >= 0")
    if args.budget is not None and args.budget <= 0:
        raise ConfigError("--budget must be a positive quad count")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    runner = ExperimentRunner(
        args.screen,
        games=_games(args.games),
        budget=ReplayBudget(max_quads=args.budget),
        stream=args.stream,
    )
    sweep = DesignSweep(
        groupings=args.grouping,
        assignments=args.assignment,
        orders=args.order,
        decoupled=[False, True] if args.both_architectures else [True],
    )
    report = sweep.run(
        runner,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        jobs=args.jobs,
        task_timeout_s=args.task_timeout,
    )
    exit_code = {"success": EXIT_OK, "partial": EXIT_PARTIAL}.get(
        report.outcome, EXIT_FATAL
    )
    for failure in report.failures:
        print(
            f"FAILED {failure.design_point}"
            + (f" on {failure.game}" if failure.game else "")
            + f": {failure.error_type}: {failure.message}"
            + (f" (after {failure.attempts} attempts)"
               if failure.attempts > 1 else ""),
            file=sys.stderr,
        )
    if args.csv:
        print(rows_to_csv(report.rows), end="")
        return exit_code
    print(format_table(
        ["grouping", "assignment", "order", "decoupled", "L2 norm.",
         "speedup", "imbalance", "energy dec %"],
        [
            [r.grouping, r.assignment, r.order, r.decoupled,
             r.l2_normalized, r.speedup, r.quad_imbalance,
             r.energy_decrease_pct]
            for r in report.rows
        ],
        title=f"design-space sweep over {len(runner.games)} games",
    ))
    if report.resumed:
        print(f"\nresumed {len(report.resumed)} completed design point(s) "
              "from checkpoint")
    winner = best_row(report.rows, "speedup")
    if winner is not None:
        print(f"\nbest by speedup: {winner.grouping}/{winner.assignment}/"
              f"{winner.order} "
              f"({'decoupled' if winner.decoupled else 'coupled'})"
              f" at {winner.speedup:.3f}x")
    if report.failures:
        print(f"\n{len(report.failures)} design point failure(s); "
              "see stderr for details")
    return exit_code


def cmd_chaos(args) -> int:
    from repro.sim.chaos import run_chaos
    from repro.sim.resilience import RetryPolicy

    report = run_chaos(
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        config=args.screen,
        games=_games(args.games),
        task_timeout_s=args.task_timeout,
        retry_policy=RetryPolicy(max_retries=args.max_retries,
                                 seed=args.seed),
    )
    if args.json:
        import json
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return EXIT_OK if report.ok else EXIT_FINDINGS
    for trial in report.trials:
        status = "ok" if trial.ok else "DIVERGED"
        extras = []
        if trial.killed:
            extras.append("killed+resumed")
        if trial.fires:
            extras.append(f"{trial.fires} parent fire(s)")
        note = f" [{', '.join(extras)}]" if extras else ""
        print(f"trial {trial.index:3d} seed={trial.seed:<10d} "
              f"jobs={trial.jobs} {status:8s} {trial.plan}{note}")
        for problem in trial.problems:
            print(f"    {problem}", file=sys.stderr)
    verdict = ("all trials converged to the uninjected reference"
               if report.ok
               else f"{len(report.failed_trials)} trial(s) diverged")
    print(f"\nchaos: {len(report.trials)} trial(s), "
          f"{report.reference_rows} reference row(s), "
          f"{report.wall_time_s:.1f}s — {verdict}")
    return EXIT_OK if report.ok else EXIT_FINDINGS


def cmd_animate(args) -> int:
    from repro.sim.multiframe import AnimationSimulator
    from repro.workloads.animation import Animation

    animation = Animation.of_game(args.game, num_frames=args.frames)
    simulator = AnimationSimulator(args.screen)
    designs = _designs(args.design)
    results = [simulator.run(animation, design) for design in designs]
    rows = []
    for result in results:
        rows.append(
            [
                result.design_point,
                result.total_l2_accesses,
                sum(f.dram_accesses for f in result.frames),
                result.total_cycles,
                result.fps(args.screen.frequency_mhz),
                result.warmup_ratio(),
            ]
        )
    print(format_table(
        ["design point", "L2 accesses", "DRAM fills", "cycles",
         "FPS", "warm-up ratio"],
        rows,
        title=f"{args.frames}-frame animation of {args.game} "
              "(caches persist across frames)",
    ))
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.lint import (
        LintEngine,
        format_json,
        format_text,
        rule_ids,
    )

    if args.select:
        unknown = set(args.select) - rule_ids()
        if unknown:
            raise ConfigError(
                f"unknown lint rule(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"choose from {', '.join(sorted(rule_ids()))}"
            )
    engine = LintEngine(select=args.select or None)
    findings = engine.lint_paths([Path(p) for p in args.paths])
    if args.format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return EXIT_FINDINGS if findings else EXIT_OK


def cmd_archcheck(args) -> int:
    from pathlib import Path

    from repro.analysis.arch import (
        ArchCheck,
        Baseline,
        LayerContract,
        graph_to_json,
        to_dot,
    )
    from repro.analysis.checks_common import format_json, format_text

    contract = LayerContract.load(Path(args.contract))
    baseline = Baseline.load(Path(args.baseline))
    check = ArchCheck(contract, Path(args.src), baseline=baseline)
    report = check.run(update_baseline=args.update_baseline)
    if args.dot:
        dot = to_dot(report.graph, contract)
        if args.dot == "-":
            print(dot, end="")
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")
    if args.graph_json:
        graph = graph_to_json(report.graph, contract)
        if args.graph_json == "-":
            print(graph)
        else:
            Path(args.graph_json).write_text(graph + "\n", encoding="utf-8")
    summary = {
        "modules": len(report.graph.modules),
        "edges": len(report.graph.edges),
        "baselined": [f.as_dict() for f in report.baselined],
        "stale_baseline": report.stale,
    }
    if args.format == "json":
        print(format_json(report.findings, tool="archcheck", **summary))
    else:
        print(format_text(report.findings, tool="archcheck"))
        print(f"graph: {summary['modules']} modules, "
              f"{summary['edges']} internal edges")
        if report.baselined:
            print(f"baselined: {len(report.baselined)} pre-existing "
                  f"finding(s) waived by {args.baseline}")
        for fingerprint in report.stale:
            print(f"stale baseline entry (violation fixed? delete it): "
                  f"{fingerprint}")
        if args.update_baseline:
            print(f"baseline rewritten: {args.baseline}")
    return EXIT_FINDINGS if report.findings else EXIT_OK


def cmd_faultcheck(args) -> int:
    from pathlib import Path

    from repro.analysis.arch import Baseline
    from repro.analysis.checks_common import format_json, format_text
    from repro.analysis.flow import FaultCheck

    baseline = Baseline.load(Path(args.baseline))
    check = FaultCheck(
        Path(args.src), package=args.package, baseline=baseline
    )
    report = check.run(update_baseline=args.update_baseline)
    stats = report.stats()
    summary = {
        "stats": stats,
        "baselined": [f.as_dict() for f in report.baselined],
        "stale_baseline": report.stale,
    }
    rendered_json = format_json(
        report.findings, tool="faultcheck", **summary
    )
    if args.report:
        # Machine-readable copy for CI artifacts, independent of the
        # console format.
        Path(args.report).write_text(rendered_json + "\n", encoding="utf-8")
    if args.format == "json":
        print(rendered_json)
    else:
        print(format_text(report.findings, tool="faultcheck"))
        print(f"flow: {stats['modules']} modules, "
              f"{stats['exception_classes']} exception classes, "
              f"{stats['functions']} functions analyzed")
        if report.baselined:
            print(f"baselined: {len(report.baselined)} pre-existing "
                  f"finding(s) waived by {args.baseline}")
        for fingerprint in report.stale:
            print(f"stale baseline entry (violation fixed? delete it): "
                  f"{fingerprint}")
        if args.update_baseline:
            print(f"baseline rewritten: {args.baseline}")
    return EXIT_FINDINGS if report.findings else EXIT_OK


def cmd_perfcheck(args) -> int:
    from pathlib import Path

    from repro.analysis.arch import Baseline
    from repro.analysis.checks_common import format_json, format_text
    from repro.analysis.perf import (
        PerfCheck,
        PerfContract,
        hot_region_to_dot,
    )

    contract = PerfContract.load(Path(args.contract))
    baseline = Baseline.load(Path(args.baseline))
    check = PerfCheck(
        contract, Path(args.src), baseline=baseline,
        profile_path=Path(args.profile_json) if args.profile_json else None,
    )
    report = check.run(update_baseline=args.update_baseline)
    if args.dot:
        dot = hot_region_to_dot(
            report.callgraph, report.region, package=contract.package
        )
        if args.dot == "-":
            print(dot, end="")
        else:
            Path(args.dot).write_text(dot, encoding="utf-8")
    stats = report.stats()
    summary = {
        "stats": stats,
        "hot_region": report.region.members(),
        "baselined": [f.as_dict() for f in report.baselined],
        "stale_baseline": report.stale,
    }
    rendered_json = format_json(
        report.findings, tool="perfcheck", **summary
    )
    if args.report:
        # Machine-readable copy for CI artifacts, independent of the
        # console format.
        Path(args.report).write_text(rendered_json + "\n", encoding="utf-8")
    if args.format == "json":
        print(rendered_json)
    else:
        print(format_text(report.findings, tool="perfcheck"))
        print(f"hot region: {stats['hot_functions']} functions reachable "
              f"from {stats['entrypoints']} entry points")
        if report.baselined:
            print(f"baselined: {len(report.baselined)} pre-existing "
                  f"finding(s) waived by {args.baseline}")
        for fingerprint in report.stale:
            print(f"stale baseline entry (violation fixed? delete it): "
                  f"{fingerprint}")
        if args.update_baseline:
            print(f"baseline rewritten: {args.baseline}")
    return EXIT_FINDINGS if report.findings else EXIT_OK


def _run_check_gate(name: str, options: dict) -> tuple:
    """Run one analyzer gate, capturing its console output.

    Module-level with picklable arguments so ``repro check`` can fan
    the gates out to a process pool (faultcheck's worker-pickling rule
    holds the umbrella to the same standard as the sweeps).
    """
    import contextlib
    import io

    handlers = {
        "lint": cmd_lint,
        "archcheck": cmd_archcheck,
        "faultcheck": cmd_faultcheck,
        "perfcheck": cmd_perfcheck,
    }
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = handlers[name](argparse.Namespace(**options))
    except ReproError as error:
        # A broken contract or baseline fails its own gate, not the
        # whole umbrella run.
        buffer.write(f"error: {error}\n")
        code = EXIT_FATAL
    return name, code, buffer.getvalue()


def cmd_check(args) -> int:
    """Umbrella gate: all four analyzers, one exit code.

    The gates run concurrently in worker processes — wall clock is the
    slowest analyzer, not the sum — and their captured output is
    printed serially, in declared order, with a per-gate exit status.
    """
    gates = [
        ("lint", {
            "paths": [args.src], "format": args.format, "select": None,
        }),
        ("archcheck", {
            "src": args.src, "contract": args.contract,
            "baseline": args.arch_baseline, "format": args.format,
            "dot": None, "graph_json": None, "update_baseline": False,
        }),
        ("faultcheck", {
            "src": args.src, "package": args.package,
            "baseline": args.fault_baseline, "format": args.format,
            "update_baseline": False, "report": args.report,
        }),
        ("perfcheck", {
            "src": args.src, "contract": args.perf_contract,
            "baseline": args.perf_baseline, "format": args.format,
            "dot": None, "report": args.perf_report, "profile_json": None,
            "update_baseline": False,
        }),
    ]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=len(gates)) as pool:
            futures = [
                pool.submit(_run_check_gate, name, options)
                for name, options in gates
            ]
            results = [future.result() for future in futures]
    except (OSError, BrokenProcessPool):
        # No usable process pool (restricted sandbox, dead worker):
        # same gates, same output, serially.
        results = [_run_check_gate(name, options) for name, options in gates]
    statuses = {
        EXIT_OK: "clean", EXIT_FINDINGS: "findings", EXIT_FATAL: "fatal",
    }
    for index, (name, code, text) in enumerate(results):
        if index:
            print()
        print(f"== {name} ==")
        print(text, end="" if text.endswith("\n") else "\n")
        print(f"{name}: exit {code} "
              f"({statuses.get(code, 'unknown')})")
    failed = [code for _, code, _ in results if code != EXIT_OK]
    print(f"\ncheck: {len(results) - len(failed)}/{len(results)} "
          "gates clean")
    return EXIT_FINDINGS if failed else EXIT_OK


def cmd_sanitize(args) -> int:
    from repro.analysis.lint import TraceSanitizer
    from repro.sim.checkpoint import trace_digest

    config = args.screen
    designs = _designs(args.design)
    workload = build_game(args.game, config)
    trace, _ = FrameRenderer(config).render(workload)
    digest = trace_digest(trace)
    replayer = TraceReplayer(config)
    sanitizer = TraceSanitizer(config)
    rows = []
    clean = True
    for design in designs:
        result = replayer.run(trace, design)
        violations = sanitizer.check(
            trace, result, design, expected_digest=digest
        )
        clean = clean and not violations
        rows.append({
            "design_point": design.name,
            "ok": not violations,
            "violations": [
                {"invariant": v.invariant, "message": v.message}
                for v in violations
            ],
        })
    if args.json:
        import json
        print(json.dumps(
            {"game": args.game, "trace_digest": digest, "designs": rows},
            indent=2, sort_keys=True,
        ))
    else:
        for row in rows:
            status = "OK" if row["ok"] else "VIOLATED"
            print(f"{row['design_point']:24s} {status}")
            for violation in row["violations"]:
                print(f"    [{violation['invariant']}] "
                      f"{violation['message']}")
        print(
            f"\nsanitized {len(rows)} design point(s) on {args.game}: "
            + ("all invariants hold" if clean else "invariants violated")
        )
    return EXIT_OK if clean else EXIT_FINDINGS


def cmd_schedule(args) -> int:
    from repro.analysis.visualize import render_schedule_ascii

    config = args.screen
    design = DTexLConfig(
        name="cli",
        grouping=args.grouping,
        assignment=args.assignment,
        order=args.order,
    )
    scheduler = design.build_scheduler(config)
    print(render_schedule_ascii(scheduler, max_tiles=args.tiles))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DTexL (MICRO 2022) reproduction — TBR GPU simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list games, design points and knobs")

    p_render = sub.add_parser("render", help="render a game frame to PPM")
    p_render.add_argument("game", choices=sorted(GAMES))
    p_render.add_argument("-o", "--output")
    _add_common(p_render)

    p_replay = sub.add_parser("replay", help="replay design points on one game")
    p_replay.add_argument("game", choices=sorted(GAMES))
    p_replay.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    p_replay.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall times (render / replay / timing "
             "model) and the hottest profile entries",
    )
    p_replay.add_argument(
        "--stream", choices=STREAM_DRIVERS, default="batch",
        help="tile dataflow: batch materializes the whole trace, "
             "streaming renders/replays/drops one tile group at a time "
             "(bounded memory); results are bit-identical across both",
    )
    _add_common(p_replay)

    p_suite = sub.add_parser("suite", help="whole-suite comparison")
    p_suite.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    p_suite.add_argument(
        "--games", metavar="A,B,...", help="subset of game aliases"
    )
    _add_common(p_suite)

    p_sweep = sub.add_parser("sweep", help="evaluate a design-space grid")
    p_sweep.add_argument(
        "--grouping", nargs="+", default=["FG-xshift2", "CG-square"],
        choices=sorted(GROUPINGS),
    )
    p_sweep.add_argument(
        "--assignment", nargs="+", default=["const"],
        choices=sorted(ASSIGNMENTS),
    )
    p_sweep.add_argument(
        "--order", nargs="+", default=["zorder"], choices=sorted(TILE_ORDERS)
    )
    p_sweep.add_argument(
        "--both-architectures", action="store_true",
        help="sweep coupled AND decoupled (default: decoupled only)",
    )
    p_sweep.add_argument("--csv", action="store_true", help="emit CSV")
    p_sweep.add_argument("--games", metavar="A,B,...")
    p_sweep.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist traces, completed rows and a run manifest here",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="reuse rows completed by a previous run of this campaign "
             "(requires --checkpoint-dir)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="re-attempts for failures flagged transient (default 0)",
    )
    p_sweep.add_argument(
        "--budget", type=int, default=None, metavar="QUADS",
        help="kill any replay that processes more than QUADS quads",
    )
    p_sweep.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the replay fan-out (default 1: "
             "serial; results are identical either way)",
    )
    p_sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline for parallel workers: a task past it is "
             "killed and retried, then recorded as a failure (default: "
             "no deadline)",
    )
    p_sweep.add_argument(
        "--stream", choices=STREAM_DRIVERS, default="batch",
        help="tile dataflow for each replay (see `repro replay "
             "--help`); with --checkpoint-dir both drivers keep pass 1 "
             "as the same per-tile chunk sets, so later design points "
             "and resumed runs skip the render; rows are bit-identical "
             "across drivers",
    )
    _add_common(p_sweep)

    p_anim = sub.add_parser("animate", help="multi-frame warm-cache run")
    p_anim.add_argument("game", choices=sorted(GAMES))
    p_anim.add_argument("--frames", type=int, default=4)
    p_anim.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    _add_common(p_anim)

    p_lint = sub.add_parser(
        "lint", help="run the replint static checks over source paths"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is what CI gates on)",
    )
    p_lint.add_argument(
        "--select", nargs="+", metavar="RULE",
        help="run only the named rules (default: all)",
    )

    p_arch = sub.add_parser(
        "archcheck",
        help="whole-program layer-contract / call-graph / API checks",
    )
    p_arch.add_argument(
        "--src", default="src", metavar="DIR",
        help="source root to analyze (default: src)",
    )
    p_arch.add_argument(
        "--contract", default="archcontract.toml", metavar="FILE",
        help="layer contract file (default: archcontract.toml)",
    )
    p_arch.add_argument(
        "--baseline", default="archcheck-baseline.json", metavar="FILE",
        help="justified-waiver baseline (default: archcheck-baseline.json)",
    )
    p_arch.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is what CI gates on)",
    )
    p_arch.add_argument(
        "--dot", metavar="FILE",
        help="write the layer graph as Graphviz DOT ('-' for stdout)",
    )
    p_arch.add_argument(
        "--graph-json", metavar="FILE",
        help="write the full module graph as JSON ('-' for stdout)",
    )
    p_arch.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to current findings (new entries get "
             "a TODO justification that still fails the gate)",
    )

    p_fault = sub.add_parser(
        "faultcheck",
        help="whole-program exception-flow and fault-path checks",
    )
    p_fault.add_argument(
        "--src", default="src", metavar="DIR",
        help="source root to analyze (default: src)",
    )
    p_fault.add_argument(
        "--package", default="repro", metavar="NAME",
        help="top-level package under --src (default: repro)",
    )
    p_fault.add_argument(
        "--baseline", default="faultcheck-baseline.json", metavar="FILE",
        help="justified-waiver baseline "
             "(default: faultcheck-baseline.json)",
    )
    p_fault.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is what CI gates on)",
    )
    p_fault.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON report here (for CI artifacts)",
    )
    p_fault.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to current findings (new entries get "
             "a TODO justification that still fails the gate)",
    )

    p_perf = sub.add_parser(
        "perfcheck",
        help="whole-program hot-path performance checks",
    )
    p_perf.add_argument(
        "--src", default="src", metavar="DIR",
        help="source root to analyze (default: src)",
    )
    p_perf.add_argument(
        "--contract", default="perfcontract.toml", metavar="FILE",
        help="hot-path contract file (default: perfcontract.toml)",
    )
    p_perf.add_argument(
        "--baseline", default="perfcheck-baseline.json", metavar="FILE",
        help="justified-waiver baseline "
             "(default: perfcheck-baseline.json)",
    )
    p_perf.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is what CI gates on)",
    )
    p_perf.add_argument(
        "--report", metavar="FILE",
        help="also write the JSON report here (for CI artifacts)",
    )
    p_perf.add_argument(
        "--dot", metavar="FILE",
        help="write the hot-region graph as Graphviz DOT ('-' for stdout)",
    )
    p_perf.add_argument(
        "--profile-json", metavar="FILE",
        help="cross-check the contract against a benchmark profile "
             "(e.g. BENCH_replay.json)",
    )
    p_perf.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to current findings (new entries get "
             "a TODO justification that still fails the gate)",
    )

    p_check = sub.add_parser(
        "check",
        help="umbrella gate: lint + archcheck + faultcheck + perfcheck, "
             "run concurrently",
    )
    p_check.add_argument(
        "--src", default="src", metavar="DIR",
        help="source root to analyze (default: src)",
    )
    p_check.add_argument(
        "--package", default="repro", metavar="NAME",
        help="top-level package under --src (default: repro)",
    )
    p_check.add_argument(
        "--contract", default="archcontract.toml", metavar="FILE",
        help="layer contract file (default: archcontract.toml)",
    )
    p_check.add_argument(
        "--arch-baseline", default="archcheck-baseline.json",
        metavar="FILE",
        help="archcheck waiver baseline (default: archcheck-baseline.json)",
    )
    p_check.add_argument(
        "--fault-baseline", default="faultcheck-baseline.json",
        metavar="FILE",
        help="faultcheck waiver baseline "
             "(default: faultcheck-baseline.json)",
    )
    p_check.add_argument(
        "--perf-contract", default="perfcontract.toml", metavar="FILE",
        help="hot-path contract file (default: perfcontract.toml)",
    )
    p_check.add_argument(
        "--perf-baseline", default="perfcheck-baseline.json",
        metavar="FILE",
        help="perfcheck waiver baseline "
             "(default: perfcheck-baseline.json)",
    )
    p_check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format for every gate",
    )
    p_check.add_argument(
        "--report", metavar="FILE",
        help="also write the faultcheck JSON report here",
    )
    p_check.add_argument(
        "--perf-report", metavar="FILE",
        help="also write the perfcheck JSON report here",
    )

    p_sanitize = sub.add_parser(
        "sanitize", help="replay a game and check pipeline invariants"
    )
    p_sanitize.add_argument("game", choices=sorted(GAMES))
    p_sanitize.add_argument(
        "-d", "--design", action="append", metavar="NAME",
        help="design point (repeatable; default: baseline + HLB-flp2)",
    )
    _add_common(p_sanitize)

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized fault-injection campaign: inject, kill, resume, "
             "and diff against an uninjected reference",
    )
    p_chaos.add_argument(
        "--trials", type=int, default=20, metavar="N",
        help="number of randomized trials (default 20)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="campaign seed; same seed, same plans, same verdict "
             "(default 0)",
    )
    p_chaos.add_argument(
        "-j", "--jobs", type=int, default=2, metavar="N",
        help="max worker processes a trial may use; trials alternate "
             "between serial and parallel (default 2)",
    )
    p_chaos.add_argument(
        "--games", metavar="A,B,...",
        help="game aliases for the trial sweeps (default: SWa only)",
    )
    p_chaos.add_argument(
        "--task-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-task deadline used by the trial sweeps; injected "
             "hangs sleep past it on purpose (default 5)",
    )
    p_chaos.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="transient-failure retries granted to trial sweeps "
             "(default 2; 0 would make injected transients fatal)",
    )
    p_chaos.add_argument(
        "--screen", type=_parse_screen, default=_parse_screen("128x64"),
        metavar="WxH|paper",
        help="simulated screen size for trials (default 128x64: chaos "
             "exercises infrastructure, not the timing model)",
    )
    p_chaos.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )

    p_sched = sub.add_parser("schedule", help="visualize a quad schedule")
    p_sched.add_argument("--grouping", default="CG-square",
                         choices=sorted(GROUPINGS))
    p_sched.add_argument("--assignment", default="flp2",
                         choices=sorted(ASSIGNMENTS))
    p_sched.add_argument("--order", default="hilbert",
                         choices=sorted(TILE_ORDERS))
    p_sched.add_argument("--tiles", type=int, default=8,
                         help="how many tiles of the traversal to show")
    _add_common(p_sched)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "render": cmd_render,
        "replay": cmd_replay,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "animate": cmd_animate,
        "schedule": cmd_schedule,
        "lint": cmd_lint,
        "archcheck": cmd_archcheck,
        "faultcheck": cmd_faultcheck,
        "perfcheck": cmd_perfcheck,
        "check": cmd_check,
        "sanitize": cmd_sanitize,
        "chaos": cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Friendly one-liner instead of a traceback: bad names and bad
        # values are user input errors, not simulator crashes.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
