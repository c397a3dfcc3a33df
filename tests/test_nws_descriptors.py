"""A publish that finds no file descriptor keeps nothing and fails typed.

A tenant's log keeps one ``O_APPEND`` descriptor, opened on its first
write, however many series the tenant holds, so a store serving more
series than the process may open files publishes to all of them.  When
no descriptor is left to open the log, the publish keeps nothing and
raises :class:`~repro.nws.errors.ServerOverloaded`
(``reason="descriptors"``, HTTP 429), never the catch-all 500.  Either
way ``sync``, ``stop()`` and ``recover`` still give back exactly what the
live store held.

Each case runs in a subprocess that lowers only its own soft
``RLIMIT_NOFILE``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

resource = pytest.importorskip("resource")

SRC = Path(repro.__file__).resolve().parents[1]

#: Shared by both programs: build a durable store of ``SERIES`` series
#: with one sample each, close it, and lower the soft descriptor limit.
_PRELUDE = """
import json, os, resource, sys
from pathlib import Path

from repro.nws import ForecastServer, ServiceCore
from repro.nws.wire import envelope_for_exception

state = Path(sys.argv[1])
SERIES = 300
names = [f"cpu.h{i:03d}" for i in range(SERIES)]
core = ServiceCore(("default",), directory=state)
for name in names:
    core.publish("default", name, 0.0, 0.5)
core.close()

def publish(server, series, time, value):
    try:
        status, payload = server.dispatch(
            "POST", "/v1/default/publish",
            {"series": series, "time": time, "value": value},
        )
    except Exception as exc:
        status, payload = envelope_for_exception(exc)
    return status, payload

def held(core):
    memory = core.tenant("default").memory
    return {
        name: [memory.fetch(name)[0].tolist(), memory.fetch(name)[1].tolist()]
        for name in memory.series_names()
    }

def lower_limit(soft):
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
"""

#: More series than descriptors: every publish must still succeed.
EVICTING = _PRELUDE + """
lower_limit(200)
server = ForecastServer(ServiceCore.restore(state))
statuses = [publish(server, name, 1.0, 0.25)[0] for name in names]
live = held(server.core)
server.stop()
recovered = held(ServiceCore.restore(state))
print(json.dumps({"statuses": statuses, "live": live, "recovered": recovered}))
"""

#: No descriptor left at all: the publish fails typed and keeps nothing.
EXHAUSTED = _PRELUDE + """
lower_limit(64)
server = ForecastServer(ServiceCore.restore(state))
before = held(server.core)
spare = []
while True:
    try:
        spare.append(os.open(os.devnull, os.O_RDONLY))
    except OSError:
        break
failed = [
    publish(server, names[0], 1.0, 0.25),
    publish(server, "cpu.new", 1.0, 0.25),
]
during = held(server.core)
for fd in spare:
    os.close(fd)
retried = publish(server, names[0], 1.0, 0.25)[0]
live = held(server.core)
server.stop()
recovered = held(ServiceCore.restore(state))
print(json.dumps({
    "failed": failed, "before": before, "during": during,
    "retried": retried,
    "live": live, "recovered": recovered,
}))
"""


def run(program: str, state: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(program), str(state)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_more_series_than_descriptors_all_publish(tmp_path):
    result = run(EVICTING, tmp_path)
    assert result["statuses"] == [200] * 300
    assert all(
        samples == [[0.0, 1.0], [0.5, 0.25]] for samples in result["live"].values()
    )
    assert result["recovered"] == result["live"]


def test_no_descriptor_left_is_a_typed_error_that_keeps_nothing(tmp_path):
    result = run(EXHAUSTED, tmp_path)
    for status, payload in result["failed"]:
        assert status == 429
        assert payload["error"]["code"] == "overloaded"
        assert payload["error"]["reason"] == "descriptors"
    assert result["during"] == result["before"]
    assert "cpu.new" not in result["recovered"]
    assert result["retried"] == 200
    assert result["live"]["cpu.h000"] == [[0.0, 1.0], [0.5, 0.25]]
    assert result["recovered"] == result["live"]
