"""Trace containers and persistence.

The NWS stored measurement histories as flat trace files; this subpackage
provides the equivalent: a timestamped series container, CSV/JSON-lines
persistence, and resampling onto regular grids.
"""

from repro._exports import lazy_exports

__all__ = [
    "TraceSeries",
    "load_trace_csv",
    "load_trace_jsonl",
    "resample_mean",
    "resample_nearest",
    "save_trace_csv",
    "save_trace_jsonl",
]

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.trace.io": (
            "load_trace_csv",
            "load_trace_jsonl",
            "save_trace_csv",
            "save_trace_jsonl",
        ),
        "repro.trace.resample": ("resample_mean", "resample_nearest"),
        "repro.trace.series": ("TraceSeries",),
    },
)
