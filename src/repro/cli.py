"""Command-line interface: regenerate paper artifacts from a shell.

Commands
--------
``nws-repro run [--hosts H,H|all] [--seed S] [--hours H] [--jobs N] ...``
    Run (or warm the result cache for) testbed simulations and print a
    per-host summary plus the runner's cache statistics.
``nws-repro tables [--table N] [--seed S] [--hours H] [--with-paper]``
    Print reproduced Tables 1-6 (all by default).
``nws-repro figures [--figure N] [--seed S] [--out DIR]``
    ASCII-render reproduced Figures 1-4 and optionally export their data
    as CSV.

``run``, ``tables``, ``figures`` and ``report`` all accept ``--jobs N``
(simulate cache misses across N worker processes; output is byte-identical
to ``--jobs 1``), ``--cache-dir DIR`` (content-addressed on-disk result
cache, default ``artifacts/cache``) and ``--no-cache``.  Cache statistics
go to stderr so stdout stays byte-stable.
``nws-repro live [--interval SEC] [--count N] [--json]``
    Run the live /proc sensors on this machine and print readings
    (``--json`` emits JSON-lines matching the obs exporter format).
``nws-repro obs [--hours H] [--seed S] [--profiles P,P,...] [--format F]``
    Run an instrumented NWS deployment and render its observability
    output: ``dashboard`` (default), ``prometheus`` or ``json``.
``nws-repro sched-demo [--tasks N] [--seed S]``
    Run the grid-scheduling demonstration (mapper comparison).
``nws-repro report OUT_DIR [--seed S] [--hours H] [--figure3-days D]``
    Write every table (CSV + text, with the paper's values) and every
    figure (CSV panels + ASCII render) plus a REPORT.txt summary.
``nws-repro profile [TARGET] [--format table|folded|chrome] [--seed S] ...``
    Deterministic profiler over the span stream of an instrumented run.
    TARGET is ``nws`` (default: an instrumented NWS deployment), a
    testbed host name, or ``all`` (the full testbed through the parallel
    runner's telemetry merge).  ``table`` prints per-phase
    inclusive/exclusive sim-time; ``folded`` emits flamegraph.pl input;
    ``chrome`` emits Chrome trace_event JSON.  All three are byte-stable
    for a given seed.
``nws-repro chaos [--plan NAME] [--seed S] [--duration SEC] [--jobs N]``
    Replay the testbed under a named fault plan (``--list-plans`` shows
    them) against a fault-free baseline and report per-host
    prediction-error inflation plus every injected / absorbed / failed
    fault event.  Output is byte-identical for a given seed + plan,
    regardless of ``--jobs``.
``nws-repro serve [--host H] [--port P] [--tenants A,B] [--retention]``
    Run the multi-tenant forecast server (publish / fetch / query /
    register over versioned JSON; see the README's HTTP API table)
    until interrupted, with background retention + liveness maintenance.
    ``--state-dir DIR`` makes the server crash-safe: state persists as
    one append-only log per tenant and an existing state directory is restored on
    startup; ``--max-inflight N`` bounds concurrency and sheds the
    excess with HTTP 429 + ``Retry-After``.
``nws-repro recover --state-dir DIR``
    Restore a crash-safe state directory off-line and print a
    deterministic per-tenant summary (series / samples / registrations
    recovered) -- the smoke test for "would this server come back?".
``nws-repro loadtest [--url URL] [--series N] [--clients N] [--jobs N]``
    Drive a forecast service (a running ``serve`` via ``--url``, else an
    in-process core) with a seeded workload; the report is byte-identical
    for a given seed regardless of ``--jobs`` or transport.  ``--chaos
    PLAN`` routes publishes through a named fault plan.
"""

from __future__ import annotations

import argparse
import math
import sys

__all__ = ["main", "build_parser"]


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution flags (``--jobs``/``--cache-dir``/...)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulations (results identical to --jobs 1)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default="artifacts/cache",
        metavar="DIR",
        help="on-disk result cache directory (default: artifacts/cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (memory memoization only)",
    )


def _make_runner(args):
    """A Runner configured from the shared execution flags."""
    from repro.runner import Runner

    return Runner(jobs=args.jobs, cache=None if args.no_cache else args.cache_dir)


def _print_runner_stats(runner, *, file=None) -> None:
    stats = runner.stats
    print(
        f"runner: jobs={runner.jobs} {stats.summary()}",
        file=file if file is not None else sys.stderr,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nws-repro",
        description=(
            "Reproduction of 'Predicting the CPU Availability of "
            "Time-shared Unix Systems on the Computational Grid' "
            "(Wolski, Spring & Hayes, HPDC 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run (or warm the cache for) testbed simulations"
    )
    p_run.add_argument(
        "--hosts",
        type=str,
        default="all",
        help="comma-separated testbed hosts, or 'all' (default)",
    )
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--hours", type=float, default=24.0)
    p_run.add_argument(
        "--test-period", type=float, default=600.0, help="seconds between test processes"
    )
    p_run.add_argument(
        "--test-duration", type=float, default=10.0, help="test process length (s)"
    )
    _add_runner_args(p_run)

    p_tables = sub.add_parser("tables", help="regenerate paper tables")
    p_tables.add_argument("--table", type=int, choices=range(1, 7), default=None)
    p_tables.add_argument("--seed", type=int, default=7)
    p_tables.add_argument("--hours", type=float, default=24.0)
    p_tables.add_argument(
        "--with-paper", action="store_true", help="also print the paper's values"
    )
    _add_runner_args(p_tables)

    p_figures = sub.add_parser("figures", help="regenerate paper figures")
    p_figures.add_argument("--figure", type=int, choices=range(1, 5), default=None)
    p_figures.add_argument("--seed", type=int, default=7)
    p_figures.add_argument("--out", type=str, default=None, help="CSV output dir")
    _add_runner_args(p_figures)

    p_live = sub.add_parser("live", help="live /proc sensing on this machine")
    p_live.add_argument("--interval", type=float, default=2.0)
    p_live.add_argument("--count", type=int, default=10)
    p_live.add_argument(
        "--json",
        action="store_true",
        help="emit JSON-lines (the obs exporter metric shape plus a time field)",
    )

    p_obs = sub.add_parser(
        "obs", help="instrumented NWS run: metrics, spans, dashboard"
    )
    p_obs.add_argument("--hours", type=float, default=1.0)
    p_obs.add_argument("--seed", type=int, default=7)
    p_obs.add_argument(
        "--profiles",
        type=str,
        default="thing1,conundrum",
        help="comma-separated testbed profiles to monitor",
    )
    p_obs.add_argument(
        "--format",
        choices=("dashboard", "prometheus", "json"),
        default="dashboard",
        dest="output_format",
        help="output format (default: dashboard)",
    )

    p_sched = sub.add_parser("sched-demo", help="grid scheduling demonstration")
    p_sched.add_argument("--tasks", type=int, default=24)
    p_sched.add_argument("--seed", type=int, default=11)

    p_report = sub.add_parser(
        "report", help="write every table and figure into a directory"
    )
    p_report.add_argument("out", type=str, help="output directory")
    p_report.add_argument("--seed", type=int, default=7)
    p_report.add_argument("--hours", type=float, default=24.0)
    p_report.add_argument(
        "--figure3-days", type=float, default=7.0, help="Figure 3 trace length"
    )
    _add_runner_args(p_report)

    p_chaos = sub.add_parser(
        "chaos", help="replay the testbed under a fault plan, report error inflation"
    )
    p_chaos.add_argument(
        "--plan",
        type=str,
        default="dropout10-crash",
        help="named fault plan (see --list-plans; default: dropout10-crash)",
    )
    p_chaos.add_argument(
        "--list-plans", action="store_true", help="list built-in fault plans and exit"
    )
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument(
        "--duration", type=float, default=3600.0, help="simulated seconds per host"
    )
    p_chaos.add_argument(
        "--step", type=float, default=60.0, help="seconds between forecast queries"
    )
    p_chaos.add_argument(
        "--hosts",
        type=str,
        default="all",
        help="comma-separated testbed hosts, or 'all' (default)",
    )
    p_chaos.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (one per host; output identical to --jobs 1)",
    )

    p_profile = sub.add_parser(
        "profile", help="deterministic span profiler (table, folded stacks, chrome)"
    )
    p_profile.add_argument(
        "target",
        nargs="?",
        default="nws",
        help=(
            "'nws' (instrumented NWS deployment, default), a testbed host "
            "name, or 'all' (full testbed via the runner telemetry merge)"
        ),
    )
    p_profile.add_argument(
        "--format",
        choices=("table", "folded", "chrome"),
        default="table",
        dest="output_format",
        help="output format (default: table)",
    )
    p_profile.add_argument("--seed", type=int, default=7)
    p_profile.add_argument("--hours", type=float, default=1.0)
    p_profile.add_argument(
        "--profiles",
        type=str,
        default="thing1,conundrum",
        help="profiles for the 'nws' target (comma-separated)",
    )
    p_profile.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for testbed targets (output identical to 1)",
    )

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant forecast server until interrupted"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8123, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--tenants",
        default="default",
        metavar="A,B",
        help="comma-separated tenant names to serve (default: default)",
    )
    p_serve.add_argument(
        "--maintenance-interval",
        type=float,
        default=30.0,
        metavar="SEC",
        help="seconds between retention/liveness cycles (default: 30)",
    )
    p_serve.add_argument(
        "--retention",
        action="store_true",
        help="compact old history onto a coarse grid (RetentionPolicy defaults)",
    )
    p_serve.add_argument(
        "--directory",
        default=None,
        metavar="DIR",
        help="persistence directory for the per-tenant logs",
    )
    p_serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "crash-safe state directory: restored on startup when it holds "
            "a manifest, created fresh otherwise (supersedes --directory)"
        ),
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bound concurrent in-flight requests; the excess is shed with "
            "HTTP 429 + Retry-After (default: unbounded)"
        ),
    )

    p_recover = sub.add_parser(
        "recover", help="restore a crash-safe state directory and summarize it"
    )
    p_recover.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="state directory written by serve --state-dir",
    )

    p_load = sub.add_parser(
        "loadtest", help="seeded, byte-reproducible load test of the service"
    )
    p_load.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="forecast server URL (default: fresh in-process core)",
    )
    p_load.add_argument(
        "--series", type=int, default=1000, help="concurrent series (default: 1000)"
    )
    p_load.add_argument(
        "--clients", type=int, default=16, help="synthetic clients (default: 16)"
    )
    p_load.add_argument(
        "--operations",
        type=int,
        default=20000,
        help="total operations across clients (default: 20000)",
    )
    p_load.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    p_load.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker threads (report identical to --jobs 1)",
    )
    p_load.add_argument(
        "--tenants",
        default="default",
        metavar="A,B",
        help="tenants addressed round-robin (default: default)",
    )
    p_load.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="route publishes through a named fault plan (see chaos --list-plans)",
    )
    p_load.add_argument(
        "--horizon", type=int, default=1, help="forecast horizon for query ops"
    )

    return parser


def _cmd_run(args) -> int:
    from repro.experiments.testbed import TestbedConfig
    from repro.sensors.suite import METHODS
    from repro.workload.profiles import profile_names

    if args.hosts.strip().lower() == "all":
        hosts = profile_names()
    else:
        hosts = [h.strip() for h in args.hosts.split(",") if h.strip()]
    if not hosts:
        print("nws-repro run: no hosts given", file=sys.stderr)
        return 2
    unknown = sorted(set(hosts) - set(profile_names()))
    if unknown:
        print(
            f"nws-repro run: unknown hosts {unknown}; "
            f"choose from {profile_names()}",
            file=sys.stderr,
        )
        return 2
    config = TestbedConfig(
        duration=args.hours * 3600.0,
        seed=args.seed,
        test_period=args.test_period,
        test_duration=args.test_duration,
    )
    runner = _make_runner(args)
    runs = runner.run(hosts, config)
    print(f"{'host':12s} {'samples':>8s} {'tests':>6s} " + " ".join(f"{m:>12s}" for m in METHODS))
    for run in runs:
        means = " ".join(f"{run.values(m).mean():12.3f}" for m in METHODS)
        print(f"{run.host:12s} {len(run.values(METHODS[0])):8d} {len(run.observations):6d} {means}")
    runner.persist()
    _print_runner_stats(runner, file=sys.stdout)
    return 0


def _cmd_tables(args) -> int:
    from repro.experiments import table1, table2, table3, table4, table5, table6
    from repro.experiments.tables import require_table6_test
    from repro.experiments.testbed import TestbedConfig

    generators = {1: table1, 2: table2, 3: table3, 4: table4, 5: table5, 6: table6}
    wanted = [args.table] if args.table else sorted(generators)
    config = TestbedConfig(duration=args.hours * 3600.0, seed=args.seed)
    if 6 in wanted:
        # Checked before any simulation, so a too-short run fails fast.
        try:
            require_table6_test(config)
        except ValueError as exc:
            print(f"nws-repro tables: {exc}", file=sys.stderr)
            return 2
    runner = _make_runner(args)
    for n in wanted:
        table = generators[n](runner, config)
        print(table.render(with_paper=args.with_paper))
        print()
    runner.persist()
    _print_runner_stats(runner)
    return 0


def _cmd_figures(args) -> int:
    from repro.experiments import figure1, figure2, figure3, figure4
    from repro.report.export import export_figure_csv

    generators = {1: figure1, 2: figure2, 3: figure3, 4: figure4}
    wanted = [args.figure] if args.figure else sorted(generators)
    runner = _make_runner(args)
    for n in wanted:
        figure = generators[n](runner, seed=args.seed)
        print(figure.render())
        print()
        if args.out:
            paths = export_figure_csv(figure, args.out)
            for path in paths:
                print(f"wrote {path}")
    runner.persist()
    _print_runner_stats(runner)
    return 0


def _cmd_live(args) -> int:
    try:
        from repro.live import LiveMonitor
        monitor = LiveMonitor(
            measure_period=args.interval,
            probe_period=max(args.interval * 3, 3.0),
            probe_duration=min(0.5, args.interval / 2),
        )
    except RuntimeError as exc:
        print(f"live sensing unavailable: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        traces = monitor.run(args.count)
        host = next(iter(traces.values())).host
        for i in range(args.count):
            for method in ("load_average", "vmstat", "nws_hybrid"):
                trace = traces[method]
                event = {
                    "type": "metric",
                    "kind": "gauge",
                    "name": "repro_live_availability",
                    "labels": {"host": host, "method": method},
                    "time": float(trace.times[i]),
                    "value": float(trace.values[i]),
                }
                print(json.dumps(event, sort_keys=True, separators=(",", ":")))
        return 0
    print(f"sampling {args.count} readings every {args.interval:g}s ...")
    traces = monitor.run(args.count)
    la, vm, hy = (traces[m] for m in ("load_average", "vmstat", "nws_hybrid"))
    print(f"{'t (s)':>8s} {'loadavg':>8s} {'vmstat':>8s} {'hybrid':>8s}")
    for i in range(len(la)):
        print(
            f"{la.times[i]:8.1f} {la.values[i]:8.2f} "
            f"{vm.values[i]:8.2f} {hy.values[i]:8.2f}"
        )
    return 0


def _nws_system(args, command: str):
    """The validated ``NWSSystem`` behind ``obs`` / ``profile nws``.

    Returns None after printing one line to stderr when the profiles are
    missing, unknown or repeated, or ``--hours`` is negative or not
    finite; the caller exits 2.
    """
    from repro.nws import NWSSystem

    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    if not profiles:
        error = "no profiles given"
    elif not math.isfinite(args.hours) or args.hours < 0.0:
        error = f"--hours must be finite and non-negative, got {args.hours}"
    else:
        try:
            return NWSSystem(profiles, seed=args.seed)
        except ValueError as exc:
            error = str(exc)
    print(f"nws-repro {command}: {error}", file=sys.stderr)
    return None


def _cmd_obs(args) -> int:
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        installed,
        render_jsonl,
        render_prometheus,
        traced,
    )
    from repro.obs.dashboard import render_dashboard

    registry = MetricsRegistry()
    with installed(registry):
        # The registry must be live while the system is built: components
        # bind their metric handles at construction time.
        system = _nws_system(args, "obs")
        if system is None:
            return 2
        tracer = Tracer(clock=lambda: system.clock)
        with traced(tracer):
            system.advance(args.hours * 3600.0)
            reports = system.client().query_all()
        if args.output_format == "prometheus":
            print(render_prometheus(registry), end="")
        elif args.output_format == "json":
            print(render_jsonl(registry, tracer), end="")
        else:
            print(
                render_dashboard(
                    registry,
                    tracer=tracer,
                    memory=system.memory,
                    reports=reports,
                )
            )
    return 0


def _cmd_sched_demo(args) -> int:
    import numpy as np

    from repro.schedapp import (
        EqualSplitMapper,
        GridTask,
        PredictiveMapper,
        RandomMapper,
        SimGrid,
        self_schedule,
    )

    rng = np.random.default_rng(args.seed)
    tasks = [
        GridTask(i, float(w)) for i, w in enumerate(rng.uniform(20, 120, args.tasks))
    ]
    hosts = ["thing1", "thing2", "conundrum", "kongo"]
    print(f"{args.tasks} tasks over {hosts} (makespans in simulated seconds)")
    for mapper in (RandomMapper(), EqualSplitMapper(), PredictiveMapper()):
        grid = SimGrid(hosts, seed=args.seed)
        grid.advance(3600.0)
        assignment = mapper.assign(
            tasks, grid.forecasts(), rng=np.random.default_rng(args.seed)
        )
        result = grid.execute(assignment)
        print(f"  {mapper.name:15s} {result.makespan:8.1f}")
    grid = SimGrid(hosts, seed=args.seed)
    grid.advance(3600.0)
    wq = self_schedule(grid, tasks)
    print(f"  {'workqueue':15s} {wq.makespan:8.1f}   chunks={wq.chunks_per_host}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments import (
        figure1,
        figure2,
        figure3,
        figure4,
        table1,
        table2,
        table3,
        table4,
        table5,
        table6,
    )
    from repro.experiments.tables import require_table6_test
    from repro.experiments.testbed import TestbedConfig
    from repro.report.export import export_figure_csv, export_table_csv

    config = TestbedConfig(duration=args.hours * 3600.0, seed=args.seed)
    try:
        require_table6_test(config)
    except ValueError as exc:
        # A report writes every artifact, however short the run; a Table
        # 6 with nothing to score reads nan%, and stderr says why.
        print(f"nws-repro report: {exc}; its cells read nan%", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = _make_runner(args)

    summary_lines = []
    for n, fn in enumerate(
        (table1, table2, table3, table4, table5, table6), start=1
    ):
        table = fn(runner, config)
        export_table_csv(table, out / f"table{n}.csv")
        text = table.render(with_paper=True)
        (out / f"table{n}.txt").write_text(text + "\n")
        summary_lines.append(text)
        print(f"wrote table{n}.csv / table{n}.txt")

    figure_configs = {
        1: config,
        2: config,
        3: config.derive(duration=args.figure3_days * 86400.0),
        4: config,
    }
    for n, fn in ((1, figure1), (2, figure2), (3, figure3), (4, figure4)):
        figure = fn(runner, figure_configs[n])
        for path in export_figure_csv(figure, out):
            print(f"wrote {path.name}")
        (out / f"figure{n}.txt").write_text(figure.render() + "\n")
        summary_lines.append(f"{figure.figure_id}: {figure.title}")
        if figure.notes:
            summary_lines.append(f"  notes: {figure.notes}")

    (out / "REPORT.txt").write_text("\n\n".join(summary_lines) + "\n")
    print(f"wrote REPORT.txt -- all artifacts in {out}/")
    runner.persist()
    _print_runner_stats(runner)
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import MetricsRegistry, Tracer, installed, traced
    from repro.obs.profile import (
        profile_spans,
        render_chrome,
        render_folded,
        render_table,
    )

    registry = MetricsRegistry()
    if args.target == "nws":
        with installed(registry):
            system = _nws_system(args, "profile")
            if system is None:
                return 2
            tracer = Tracer(clock=lambda: system.clock)
            with traced(tracer):
                system.advance(args.hours * 3600.0)
                system.client().query_all()
    else:
        from repro.experiments.testbed import TestbedConfig
        from repro.runner import Runner
        from repro.workload.profiles import profile_names

        hosts = None if args.target == "all" else [args.target]
        if hosts is not None and args.target not in profile_names():
            print(
                f"nws-repro profile: unknown target {args.target!r}; "
                f"use 'nws', 'all' or one of {profile_names()}",
                file=sys.stderr,
            )
            return 2
        config = TestbedConfig(duration=args.hours * 3600.0, seed=args.seed)
        # No result cache: cache hits return stored arrays without
        # replaying telemetry, and the profiler needs the spans.
        tracer = Tracer(clock=lambda: 0.0)
        with installed(registry), traced(tracer):
            Runner(jobs=args.jobs).run(hosts, config)
    profile = profile_spans(tracer.spans)
    if args.output_format == "folded":
        print(render_folded(profile), end="")
    elif args.output_format == "chrome":
        print(render_chrome(profile), end="")
    else:
        print(render_table(profile), end="")
    return 0


def _split_rule_args(values: list[str] | None) -> list[str] | None:
    """Flatten repeated / comma-separated option values (e.g. ``--hosts``)."""
    if not values:
        return None
    return [token.strip() for value in values for token in value.split(",") if token.strip()]


def _cmd_chaos(args) -> int:
    from repro.experiments.chaos import run_chaos
    from repro.faults import named_plan, named_plans

    if args.list_plans:
        for name, plan in named_plans().items():
            print(f"{name}: {plan.describe()}")
        return 0

    try:
        plan = named_plan(args.plan)
    except KeyError as exc:
        print(f"nws-repro chaos: {exc.args[0]}", file=sys.stderr)
        return 2
    hosts = None if args.hosts == "all" else _split_rule_args([args.hosts])
    report = run_chaos(
        plan,
        profiles=hosts,
        seed=args.seed,
        duration=args.duration,
        step=args.step,
        jobs=args.jobs,
    )
    print(report.render(), end="")
    return 0


def _cmd_serve(args) -> int:
    import threading
    import time
    from pathlib import Path

    from repro.nws import ForecastServer, RetentionPolicy, ServiceCore

    tenants = [t.strip() for t in args.tenants.split(",") if t.strip()]
    if not tenants:
        print("nws-repro serve: no tenants given", file=sys.stderr)
        return 2
    retention = RetentionPolicy() if args.retention else None
    core = None
    if args.state_dir is not None:
        # --state-dir supersedes --directory: same persistence layer, plus
        # restore-on-startup when a manifest is already there.
        state_dir = Path(args.state_dir)
        try:
            try:
                core = ServiceCore.restore(
                    state_dir, clock=time.time, retention=retention
                )
            except FileNotFoundError:
                core = ServiceCore(
                    tuple(tenants),
                    clock=time.time,
                    directory=state_dir,
                    retention=retention,
                )
            else:
                print(
                    f"restored state from {state_dir} "
                    f"(tenants: {', '.join(core.tenant_names())})",
                    file=sys.stderr,
                )
                tenants = core.tenant_names()
        except (OSError, ValueError) as exc:
            print(f"nws-repro serve: {exc}", file=sys.stderr)
            return 2
    try:
        if core is not None:
            server = ForecastServer(
                core=core,
                host=args.host,
                port=args.port,
                maintenance_interval=args.maintenance_interval,
                max_inflight=args.max_inflight,
            )
        else:
            server = ForecastServer(
                host=args.host,
                port=args.port,
                maintenance_interval=args.maintenance_interval,
                max_inflight=args.max_inflight,
                tenants=tuple(tenants),
                clock=time.time,
                directory=args.directory,
                retention=retention,
            )
    except (OSError, ValueError) as exc:
        print(f"nws-repro serve: {exc}", file=sys.stderr)
        return 2
    with server:
        print(
            f"forecast server at {server.url} "
            f"(tenants: {', '.join(tenants)}; ctrl-c to stop)",
            file=sys.stderr,
        )
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
    print("forecast server stopped", file=sys.stderr)
    return 0


def _cmd_recover(args) -> int:
    from repro.nws import ServiceCore

    try:
        core = ServiceCore.restore(args.state_dir)
    except (OSError, ValueError) as exc:
        print(f"nws-repro recover: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"recovered state from {args.state_dir}")
        print(f"  {'tenant':<16} {'series':>8} {'samples':>10} {'registrations':>14}")
        for name in core.tenant_names():
            state = core.tenant(name)
            with state.lock:
                series = state.memory.series_names()
                samples = sum(state.memory.count(s) for s in series)
                registrations = len(state.nameserver.entries())
            print(f"  {name:<16} {len(series):>8} {samples:>10} {registrations:>14}")
    finally:
        core.close()
    return 0


def _cmd_loadtest(args) -> int:
    from repro.nws import NWSClient, ServiceCore
    from repro.nws.loadtest import LoadtestConfig, render, run_loadtest

    tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    try:
        config = LoadtestConfig(
            series=args.series,
            clients=args.clients,
            operations=args.operations,
            seed=args.seed,
            jobs=args.jobs,
            tenants=tenants,
            chaos=args.chaos,
            horizon=args.horizon,
        )
    except ValueError as exc:
        print(f"nws-repro loadtest: {exc}", file=sys.stderr)
        return 2
    if args.url is not None:
        base = NWSClient.connect(args.url)
    else:
        base = NWSClient.in_process(ServiceCore(tenants=tenants))
    try:
        report = run_loadtest(base.for_tenant, config)
    except KeyError as exc:
        # Unknown chaos plan name (named_plan raises at plan-build time).
        print(f"nws-repro loadtest: {exc.args[0]}", file=sys.stderr)
        return 2
    finally:
        base.close()
    print(render(report), end="")
    transport = "http" if args.url is not None else "in-process"
    print(
        f"wall: {report.wall_seconds:.3f} s at {report.wall_rps:.1f} req/s "
        f"(jobs={config.jobs}, transport={transport}, "
        f"shed retries={report.shed_retries})",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "tables": _cmd_tables,
        "figures": _cmd_figures,
        "live": _cmd_live,
        "obs": _cmd_obs,
        "sched-demo": _cmd_sched_demo,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
        "loadtest": _cmd_loadtest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
