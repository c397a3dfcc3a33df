"""Content-addressed on-disk cache for :class:`HostRun` results.

Layout (under the cache root, default ``artifacts/cache/``)::

    <root>/<digest[:2]>/<digest>.npz

Each entry is a single uncompressed ``.npz`` holding the run's series
arrays, ground-truth observation arrays, the one-step-ahead backtests the
tables computed from the run (``HostRun._forecasts``, all in one
``forecasts`` member), and a ``meta`` member (UTF-8 JSON as a ``uint8``
array -- no pickling anywhere, ``allow_pickle`` stays False on load).
The meta records which default mixture made the backtests
(:func:`~repro.core.mixture.default_mixture_record`); backtests made by
another mixture are dropped on load, so the tables recompute them, and
an entry without backtests loads as a run without any.

Writes are atomic: the entry is assembled in a temporary
file in the same directory and ``os.replace``-d into place, so a reader
never sees a half-written entry and concurrent writers of the same digest
simply last-write-wins with identical bytes.

Corrupt or truncated entries (killed writer predating the atomic rename,
disk trouble, format drift) are detected on load, deleted, and reported
as a ``"corrupt"`` outcome so the caller can re-simulate; a bad cache can
never poison results.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.core.mixture import default_mixture_record
from repro.experiments.testbed import HostRun, TestbedConfig
from repro.runner.keys import CACHE_FORMAT, canonical_config
from repro.sensors.suite import TestObservation
from repro.trace.series import TraceSeries

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache"]

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("artifacts") / "cache"

#: Exceptions that mean "this entry is unreadable", not "the code is wrong".
_CORRUPTION_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    TypeError,
    zipfile.BadZipFile,
    json.JSONDecodeError,
)


def _encode(run: HostRun) -> dict[str, np.ndarray]:
    """Flatten a :class:`HostRun` into named arrays plus a JSON meta blob."""
    methods = sorted(run.series)
    arrays: dict[str, np.ndarray] = {}
    for method in methods:
        series = run.series[method]
        arrays[f"times__{method}"] = series.times
        arrays[f"values__{method}"] = series.values
    arrays["obs_start"] = np.asarray(
        [o.start_time for o in run.observations], dtype=np.float64
    )
    arrays["obs_observed"] = np.asarray(
        [o.observed for o in run.observations], dtype=np.float64
    )
    for method in methods:
        arrays[f"obs_pre__{method}"] = np.asarray(
            [o.premeasurements[method] for o in run.observations], dtype=np.float64
        )
    # One member for all backtests, in key order: every member costs a
    # read on load.
    backtests = sorted(run._forecasts)
    if backtests:
        arrays["forecasts"] = np.concatenate([run._forecasts[k] for k in backtests])
    meta = {
        "format": CACHE_FORMAT,
        "host": run.host,
        "config": canonical_config(run.config),
        "methods": methods,
        "n_observations": len(run.observations),
        "mixture": default_mixture_record(),
        "backtests": backtests,
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    arrays["meta"] = np.frombuffer(blob.encode("utf-8"), dtype=np.uint8)
    return arrays


def _decode(data) -> HostRun:
    """Rebuild a :class:`HostRun` from a loaded ``.npz``; raises on damage."""
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    if meta["format"] != CACHE_FORMAT:
        raise ValueError(f"cache format {meta['format']} != {CACHE_FORMAT}")
    host = meta["host"]
    config = TestbedConfig(**meta["config"])
    methods = list(meta["methods"])
    series = {
        m: TraceSeries(host, m, data[f"times__{m}"], data[f"values__{m}"])
        for m in methods
    }
    n = int(meta["n_observations"])
    starts = data["obs_start"]
    observed = data["obs_observed"]
    pre = {m: data[f"obs_pre__{m}"] for m in methods}
    if not (starts.shape == observed.shape == (n,)) or any(
        pre[m].shape != (n,) for m in methods
    ):
        raise ValueError("observation arrays truncated")
    pre = {m: pre[m].tolist() for m in methods}
    observations = [
        TestObservation(
            start_time=start,
            premeasurements={m: pre[m][i] for m in methods},
            observed=seen,
        )
        for i, (start, seen) in enumerate(zip(starts.tolist(), observed.tolist()))
    ]
    run = HostRun(host=host, config=config, series=series, observations=observations)
    backtests = [tuple(key) for key in meta.get("backtests", ())]
    if backtests and meta["mixture"] == default_mixture_record():
        sizes = []
        for method, _engine, agg in backtests:
            if type(agg) is not int or agg < 1:
                raise ValueError(f"bad aggregation level {agg!r}")
            sizes.append(series[method].values.size // agg)
        flat = data["forecasts"]
        if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            raise ValueError("backtests truncated")
        flat.flags.writeable = False
        offset = 0
        for key, size in zip(backtests, sizes):
            run._forecasts[key] = flat[offset : offset + size]
            offset += size
    return run


class ResultCache:
    """Persistent store of simulated :class:`HostRun` results.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first store.  Safe to point
        several runners (or several processes) at the same root.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    # ------------------------------------------------------------- layout

    def path_for(self, digest: str) -> Path:
        """Entry path for one digest (two-level fan-out keeps dirs small)."""
        return self.root / digest[:2] / f"{digest}.npz"

    def entries(self) -> list[Path]:
        """Every entry currently on disk, sorted for determinism."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.npz"))

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------- access

    def lookup(self, digest: str) -> tuple[HostRun | None, str]:
        """``(run, outcome)`` where outcome is ``hit``/``miss``/``corrupt``.

        A corrupt or truncated entry is deleted on the spot so the next
        store can replace it cleanly.
        """
        path = self.path_for(digest)
        if not path.exists():
            return None, "miss"
        try:
            with np.load(path, allow_pickle=False) as data:
                return _decode(data), "hit"
        except _CORRUPTION_ERRORS:
            try:
                path.unlink()
            except OSError:
                pass
            return None, "corrupt"

    def get(self, digest: str) -> HostRun | None:
        """The cached run for ``digest``, or None (miss and corrupt alike)."""
        run, _ = self.lookup(digest)
        return run

    def store(self, digest: str, run: HostRun) -> Path:
        """Atomically persist ``run`` under ``digest``; returns the path."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **_encode(run))
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return path

    # ------------------------------------------------------------ hygiene

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for stray in self.root.glob("*/.*.tmp-*"):
                try:
                    stray.unlink()
                except OSError:
                    pass
        return removed
