"""Start-up cost: the report and the server import only what they run.

``scipy.stats`` (about 1 s and 60 MB) is needed only by
``compare_residuals``.  Every ``nws-repro`` process pays for what its
imports pull in, so these tests check the import graph of the report
set-up modules and the forecast service in a fresh interpreter: this
test process may already have imported scipy, which would hide a
regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The modules the report imports before it runs, plus the forecast
#: service; then a small real workload through the service and the
#: forecasting core.
PROGRAM = """
import sys

import repro.cli, repro.experiments, repro.runner, repro.report.export
import repro.nws
from repro import forecast_series
from repro.nws import ServiceCore

core = ServiceCore()
for i in range(50):
    core.publish("default", "cpu.host", 10.0 * i, 0.5 + 0.01 * (i % 7))
report = core.query("default", "cpu.host", horizon=3)
assert 0.0 <= report.forecast <= 1.0, report
forecasts = forecast_series([0.2, 0.4, 0.3, 0.5, 0.6, 0.55, 0.7, 0.65])
assert forecasts.shape == (8,)

heavy = sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.")
)
print("\\n".join(heavy))
"""


#: The report's set-up imports alone: the forecast service belongs to
#: ``serve``, ``obs`` and ``chaos``, not to ``report``, ``tables`` or
#: ``figures``.
REPORT_PROGRAM = """
import sys

import repro.cli, repro.experiments, repro.runner, repro.report.export

service = sorted(
    name for name in sys.modules
    if name == "repro.nws" or name.startswith("repro.nws.")
    or name == "http.client"
)
print("\\n".join(service))
"""


#: Both ends of the forecast wire frame HTTP/1.1 themselves: neither may
#: bring back the stdlib HTTP stack or the ``email`` header parser under it.
WIRE_PROGRAM = """
import sys

import repro.nws.server, repro.nws.client

stdlib_http = sorted(
    name for name in sys.modules
    if name in ("http.server", "http.client")
    or name == "email" or name.startswith("email.")
)
print("\\n".join(stdlib_http))
"""


def run_fresh(program: str) -> subprocess.CompletedProcess:
    """Run ``program`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_report_and_service_do_not_load_scipy():
    done = run_fresh(PROGRAM)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"imported at start-up:\n{done.stdout}"


def test_report_does_not_load_the_forecast_service():
    done = run_fresh(REPORT_PROGRAM)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"imported at start-up:\n{done.stdout}"


def test_wire_ends_load_no_stdlib_http_framing():
    done = run_fresh(WIRE_PROGRAM)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"imported by the wire ends:\n{done.stdout}"


def test_chaos_harness_loads_on_first_use():
    done = run_fresh(
        "import sys, repro.experiments\n"
        "assert 'repro.experiments.chaos' not in sys.modules\n"
        "from repro.experiments import run_chaos\n"
        "assert run_chaos.__module__ == 'repro.experiments.chaos'\n"
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "module",
    ["repro.runner", "repro.runner.cache", "repro.runner.engine", "repro.runner.keys"],
)
def test_runner_modules_import_first(module):
    # The runner imports the testbed, whose package imports the chaos
    # harness, which runs hosts through the runner: importing any runner
    # module before repro.experiments must not meet it half-initialized.
    done = run_fresh(f"import {module}")
    assert done.returncode == 0, done.stderr
