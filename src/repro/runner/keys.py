"""Content-addressed cache keys for monitored runs.

A cached :class:`~repro.experiments.testbed.HostRun` is keyed by a SHA-256
digest over a canonical JSON rendering of everything the simulation output
depends on:

* the host name,
* every :class:`~repro.experiments.testbed.TestbedConfig` field (sorted by
  field name, so the digest is stable across dataclass field reordering),
* the package version (``repro.__version__``) -- a code change that could
  alter results ships with a version bump, which silently invalidates
  every old entry, and
* :data:`CACHE_FORMAT`, the serialization layout version.

The digest doubles as the on-disk filename, making the cache
content-addressed: equal inputs collide onto one entry, different inputs
never share a file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro import __version__
from repro.experiments.testbed import TestbedConfig

__all__ = ["CACHE_FORMAT", "canonical_config", "config_digest"]

#: On-disk layout version; bump when the serialization format (the stored
#: config included) changes so stale entries miss instead of loading
#: garbage.  Format 2 stores a config with one field fewer than format 1;
#: format 3 keys stored backtests by ``(method, agg)``, without an engine.
CACHE_FORMAT = 3


def canonical_config(config: TestbedConfig) -> dict:
    """The config as a plain dict with deterministically ordered keys.

    Field order in the dataclass definition (or in the constructor call)
    never affects the result: keys are sorted by name.
    """
    return dict(sorted(dataclasses.asdict(config).items()))


def config_digest(
    host: str, config: TestbedConfig, *, code_version: str | None = None
) -> str:
    """Stable hex digest identifying one ``(host, config, code)`` result.

    Parameters
    ----------
    host:
        Host name from the testbed.
    config:
        The run configuration.
    code_version:
        Override for the package version baked into the key (tests use
        this to simulate cross-version invalidation).
    """
    payload = {
        "format": CACHE_FORMAT,
        "code": code_version if code_version is not None else __version__,
        "host": host,
        "config": canonical_config(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
