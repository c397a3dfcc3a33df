"""Start-up cost: the report and the server import only what they run.

``scipy.stats`` (about 1 s and 60 MB) is needed only by
``compare_residuals``.  Every ``nws-repro`` process pays for what its
imports pull in, so these tests check the import graph of the report
set-up modules and the forecast service in a fresh interpreter: this
test process may already have imported scipy, which would hide a
regression.

The forecast server loads only what it serves: ``nws-repro serve``'s
imports, a restore and one request of every kind load no numpy, and
none of the simulator, sensors, workload, analysis, experiment, runner,
batch-backtest or fault-plan code.  The packages resolve their exports
on first access, so importing one costs only its ``__init__``.
"""

from __future__ import annotations

import json
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


#: What ``nws-repro serve`` runs before and while it serves: the imports
#: of ``_cmd_serve``, a restore of the state directory in ``argv[1]``,
#: then every row of the operation table and the GET routes through
#: ``ForecastServer.dispatch``, each response encoded, and one
#: maintenance cycle.  Prints the number
#: of loaded modules once the server is built, and every loaded module
#: that serving does not need.
SERVE_PROGRAM = """
import json
import sys
import time

import repro.cli
from repro.nws import ForecastServer, RetentionPolicy, ServiceCore
from repro.nws.wire import OPERATIONS, canonical

core = ServiceCore.restore(sys.argv[1], clock=time.time, retention=RetentionPolicy())
server = ForecastServer(core)
ready = len(sys.modules)
bodies = {
    "publish": {"series": "cpu.host", "time": 1000.0, "value": 0.6},
    "fetch": {"series": "cpu.host", "limit": 5},
    "query": {"series": "cpu.host", "horizon": 3},
    "query_all": {},
    "register": {"name": "sensor.b", "kind": "sensor", "attributes": {"port": 5}},
    "refresh": {"name": "sensor.b", "ttl": 60.0},
    "lookup": {"kind": "sensor", "attributes": {"port": 5}},
    "recover": {"series": "cpu.host"},
}
assert sorted(bodies) == sorted(OPERATIONS), sorted(OPERATIONS)
requests = [("POST", f"/v1/default/{op}", body) for op, body in bodies.items()]
requests += [("GET", path, {}) for path in ("/v1/health", "/v1/metrics", "/v1/default/series")]
try:
    for method, path, body in requests:
        status, payload = server.dispatch(method, path, body)
        assert status == 200 and canonical(payload), (path, payload)
    server.maintain_once()
finally:
    server.stop()
unneeded = (
    "numpy", "repro.sim", "repro.sensors", "repro.workload", "repro.analysis",
    "repro.experiments", "repro.runner", "repro.core.batch", "repro.faults.plan",
)
loaded = sorted(
    name for name in sys.modules
    if any(name == root or name.startswith(root + ".") for root in unneeded)
)
print(json.dumps({"ready_modules": ready, "unneeded": loaded}))
"""


def run_fresh(program: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``program`` in a fresh interpreter that imports this ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def serve_startup(state_dir: Path) -> dict:
    """Run :data:`SERVE_PROGRAM` over a small state written to
    ``state_dir``: two tenants, one 20-sample series and one
    registration."""
    from repro.nws import ServiceCore

    core = ServiceCore(("default", "hpc"), directory=state_dir)
    for i in range(20):
        core.publish("default", "cpu.host", 10.0 * i, 0.5 + 0.01 * (i % 7))
    core.register("default", "sensor.host", "sensor", {"host": "h"})
    core.close()
    done = run_fresh(SERVE_PROGRAM, str(state_dir))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


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


def test_serve_loads_only_what_it_serves(tmp_path):
    startup = serve_startup(tmp_path / "state")
    assert startup["unneeded"] == [], "loaded by the server:\n" + "\n".join(
        startup["unneeded"]
    )


@pytest.mark.parametrize(
    "package", ["repro", "repro.core", "repro.nws", "repro.faults", "repro.trace"]
)
def test_package_exports_resolve_on_first_access(package):
    # Importing the package loads none of its modules; each export is
    # imported when first read, then held on the package.
    done = run_fresh(
        "import sys\n"
        f"import {package} as package\n"
        "early = sorted(m for m in sys.modules if m.startswith('repro.') "
        f"and m not in ({package!r}, 'repro._exports'))\n"
        "assert early == [], early\n"
        "for name in package.__all__:\n"
        "    value = getattr(package, name)\n"
        "    assert vars(package)[name] is value, name\n"
        f"from {package} import *\n"
    )
    assert done.returncode == 0, done.stderr


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
