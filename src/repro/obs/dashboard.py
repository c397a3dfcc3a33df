"""ASCII dashboard: one screenful of system health in a terminal.

Renders an instrumented run -- metric snapshot, forecaster battery
standings, availability sparkline, span summary -- using the same plotting
primitives as the paper figures (:mod:`repro.report.ascii`).  Everything
is derived from the deterministic snapshot, so dashboards of seeded runs
are reproducible too.
"""

from __future__ import annotations

from repro.report.ascii import line_plot

__all__ = ["render_dashboard"]

_BAR_WIDTH = 36


def _bars(items: list[tuple[str, float]], width: int = _BAR_WIDTH) -> list[str]:
    """Horizontal label/count bars (histogram-style, labelled buckets)."""
    if not items:
        return ["  (no data)"]
    peak = max(value for _, value in items) or 1.0
    label_width = max(len(label) for label, _ in items)
    out = []
    for label, value in items:
        bar = "#" * int(round(value / peak * width))
        out.append(f"  {label:<{label_width}s} | {bar} {value:g}")
    return out


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def render_dashboard(
    registry,
    *,
    tracer=None,
    memory=None,
    reports=None,
    width: int = 72,
) -> str:
    """Render the observability dashboard as plain text.

    Parameters
    ----------
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry` (or frozen snapshot
        dict).
    tracer:
        Optional tracer; adds a span summary section.
    memory:
        Optional :class:`~repro.nws.memory.MemoryStore`; the first series
        is plotted as an availability trace.
    reports:
        Optional ``{series: ForecastReport}`` (from
        :meth:`~repro.nws.forecaster.ForecasterService.query_all`).
    """
    snapshot = registry.snapshot() if hasattr(registry, "snapshot") else registry
    lines: list[str] = ["=" * width, "NWS-REPRO OBSERVABILITY DASHBOARD".center(width), "=" * width]

    sim_time = None
    metric = snapshot.get("repro_sim_time_seconds")
    if metric and metric["samples"]:
        sim_time = max(s["value"] for s in metric["samples"])
    if sim_time is not None:
        lines.append(f"simulated clock: {sim_time:.1f} s")

    if reports:
        lines.extend(_section("Forecasts (adaptive mixture)"))
        lines.append(
            f"  {'series':<28s} {'forecast':>8s} {'mae':>8s} "
            f"{'n':>6s}  method"
        )
        for series in sorted(reports):
            r = reports[series]
            error = f"{r.error:8.4f}" if r.error == r.error else "     n/a"
            lines.append(
                f"  {series:<28s} {r.forecast:8.4f} {error} "
                f"{r.n_measurements:6d}  {r.method}"
            )

    if memory is not None and memory.series_names():
        series = memory.series_names()[0]
        times, values = memory.fetch(series)
        if len(times) >= 2:
            lines.extend(_section(f"Availability trace: {series}"))
            lines.append(
                line_plot(times, values, width=width - 12, height=8, y_range=(0.0, 1.0))
            )

    wins = snapshot.get("repro_forecaster_wins")
    if wins and wins["samples"]:
        totals: dict[str, float] = {}
        for sample in wins["samples"]:
            member = sample["labels"].get("member", "?")
            totals[member] = totals.get(member, 0.0) + sample["value"]
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        lines.extend(_section("Forecaster battery: win counts"))
        lines.extend(_bars(ranked))

    counters = [
        (name, metric)
        for name, metric in snapshot.items()
        if metric["type"] == "counter"
    ]
    if counters:
        lines.extend(_section("Counters"))
        for name, metric in counters:
            total = sum(s["value"] for s in metric["samples"])
            lines.append(
                f"  {name:<44s} {total:>12g}  ({len(metric['samples'])} series)"
            )

    if tracer is not None and tracer.spans:
        by_name: dict[str, tuple[int, float]] = {}
        for span in tracer.spans:
            count, total = by_name.get(span.name, (0, 0.0))
            by_name[span.name] = (count + 1, total + span.duration)
        lines.extend(_section("Spans"))
        lines.append(f"  {'name':<24s} {'count':>8s} {'total (s)':>12s}")
        for name in sorted(by_name):
            count, total = by_name[name]
            lines.append(f"  {name:<24s} {count:>8d} {total:>12.2f}")
        if tracer.dropped:
            lines.append(f"  ({tracer.dropped} oldest spans dropped)")

    lines.append("=" * width)
    return "\n".join(lines)
