"""Snapshot exporters: Prometheus text format and JSON-lines event logs.

Both exporters consume :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
output (a plain dict) plus, optionally, a tracer's span list, and emit
deterministic text: names and label sets are sorted and floats are
formatted with a fixed rule, so two runs of the same seeded simulation
produce byte-identical documents (the property the obs acceptance test
pins down).

JSON-lines event shapes::

    {"type": "metric", "kind": "counter", "name": ..., "labels": {...},
     "value": ...}
    {"type": "metric", "kind": "histogram", "name": ..., "labels": {...},
     "sum": ..., "count": ..., "buckets": [[le, cumulative], ...]}
    {"type": "span", "name": ..., "start": ..., "end": ...,
     "status": "ok", "attrs": {...}}

``nws-repro live --json`` emits the same ``"metric"`` shape (plus a
``"time"`` field) for its per-reading samples, so live and simulated
output feed the same downstream tooling.
"""

from __future__ import annotations

import json
import math

from repro.obs.metrics import WALL_METRICS

__all__ = [
    "deterministic_view",
    "render_prometheus",
    "render_jsonl",
    "jsonl_events",
]


def _snapshot_of(registry_or_snapshot) -> dict:
    return (
        registry_or_snapshot.snapshot()
        if hasattr(registry_or_snapshot, "snapshot")
        else registry_or_snapshot
    )


def deterministic_view(registry_or_snapshot, *, exclude=WALL_METRICS) -> dict:
    """The snapshot with wall-clock metric families removed.

    Everything a seeded simulation records is bit-reproducible *except*
    the families in :data:`repro.obs.metrics.WALL_METRICS` (real
    per-host wall times and utilisation ratios).  Rendering this view
    yields byte-identical exporter output across reruns of the same
    seed.
    """
    snapshot = _snapshot_of(registry_or_snapshot)
    return {name: m for name, m in snapshot.items() if name not in exclude}


def _fmt(value: float) -> str:
    """Deterministic number formatting for the Prometheus exposition."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def render_prometheus(registry_or_snapshot) -> str:
    """The snapshot in the Prometheus text exposition format (0.0.4).

    Accepts either a registry (snapshotted here) or an already-frozen
    snapshot dict.
    """
    snapshot = _snapshot_of(registry_or_snapshot)
    lines: list[str] = []
    for name, metric in snapshot.items():
        kind = metric["type"]
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                for le, cumulative in sample["buckets"]:
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_str(labels, {'le': _fmt(le)})} "
                        f"{_fmt(cumulative)}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {_fmt(sample['sum'])}")
                lines.append(
                    f"{name}_count{_label_str(labels)} {_fmt(sample['count'])}"
                )
            else:
                lines.append(f"{name}{_label_str(labels)} {_fmt(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def _jsonsafe(value):
    """Replace non-finite floats with their exposition-format strings.

    JSON has no NaN/Inf; histogram upper bounds are +Inf by construction
    and unscored error gauges can be NaN, so both must round-trip as
    strings for the output to stay valid (and byte-stable) JSON.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value) if not math.isnan(value) else "NaN"
    if isinstance(value, dict):
        return {k: _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    return value


def jsonl_events(registry_or_snapshot, tracer=None) -> list[dict]:
    """The snapshot (and spans) as a list of plain event dicts."""
    snapshot = _snapshot_of(registry_or_snapshot)
    events: list[dict] = []
    for name, metric in snapshot.items():
        kind = metric["type"]
        for sample in metric["samples"]:
            event = {
                "type": "metric",
                "kind": kind,
                "name": name,
                "labels": sample["labels"],
            }
            if kind == "histogram":
                event["sum"] = sample["sum"]
                event["count"] = sample["count"]
                event["buckets"] = sample["buckets"]
            else:
                event["value"] = sample["value"]
            events.append(event)
    if tracer is not None:
        for span in tracer.spans:
            events.append(
                {
                    "type": "span",
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "status": span.status,
                    "attrs": span.attrs,
                }
            )
    return events


def render_jsonl(registry_or_snapshot, tracer=None) -> str:
    """One JSON object per line: every metric sample, then every span."""
    lines = [
        json.dumps(
            _jsonsafe(event), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        for event in jsonl_events(registry_or_snapshot, tracer)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
