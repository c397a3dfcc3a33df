"""Whole-program semantic analysis: symbols, call graph, and the three
interprocedural passes (DET002, UNIT002, THRD001).

Each pass has a seeded fixture proving a true positive its per-file
sibling cannot see: the violation only exists across a call boundary.
"""

from __future__ import annotations

import pytest

from repro.lint import check_source, project_from_sources
from repro.lint.semantic import (
    CrossBoundaryUnitRule,
    DeterminismTaintRule,
    SharedStateRaceRule,
    compute_taint,
    thread_entry_roots,
)

# ---------------------------------------------------------------- fixtures

CLOCK_HELPER = '''\
"""Helper outside the deterministic packages -- DET001 does not apply."""

import time


def wall_now():
    return time.time()
'''

SIM_USES_HELPER = '''\
"""Deterministic package module that launders a wall clock in."""

from repro.trace.clockutil import wall_now


def schedule():
    stamp = wall_now()
    return stamp
'''


def _findings(rule, project):
    return sorted(rule.check_project(project))


# ------------------------------------------------------- symbols/call graph


def test_symbol_table_indexes_functions_methods_and_nested():
    project = project_from_sources(
        {
            "repro.pkg.mod": (
                "class Store:\n"
                "    def publish(self, x):\n"
                "        def inner():\n"
                "            return x\n"
                "        return inner()\n"
                "def top():\n"
                "    return 1\n"
            )
        }
    )
    functions = project.symbols.functions
    assert "repro.pkg.mod.Store.publish" in functions
    assert "repro.pkg.mod.Store.publish.inner" in functions
    assert "repro.pkg.mod.top" in functions
    assert functions["repro.pkg.mod.Store.publish"].is_method
    assert not functions["repro.pkg.mod.top"].is_method


def test_callgraph_resolves_attribute_calls_through_attr_types():
    project = project_from_sources(
        {
            "repro.pkg.store": (
                "class Store:\n"
                "    def put(self, v):\n"
                "        return v\n"
            ),
            "repro.pkg.host": (
                "from repro.pkg.store import Store\n"
                "class Host:\n"
                "    def __init__(self, store: Store):\n"
                "        self.store = store\n"
                "    def push(self, v):\n"
                "        return self.store.put(v)\n"
            ),
        }
    )
    callees = project.callgraph.callees["repro.pkg.host.Host.push"]
    assert "repro.pkg.store.Store.put" in callees


def test_callgraph_never_guesses_unresolvable_calls():
    project = project_from_sources(
        {"repro.pkg.mod": "def f(x):\n    return x.anything()\n"}
    )
    (site,) = project.callgraph.sites["repro.pkg.mod.f"]
    assert site.callee is None


# ------------------------------------------------------------------ DET002


def test_det002_catches_laundered_wall_clock_that_det001_misses():
    project = project_from_sources(
        {
            "repro.trace.clockutil": CLOCK_HELPER,
            "repro.sim.engine": SIM_USES_HELPER,
        }
    )
    (finding,) = _findings(DeterminismTaintRule(), project)
    assert finding.rule_id == "DET002"
    assert finding.path.endswith("repro/sim/engine.py")
    assert "wall_now" in finding.message
    assert "time.time" in finding.message
    # The per-file determinism rule is silent on the same sim module: the
    # helper lives outside DET001's scope and the call site looks benign.
    per_file = check_source(
        SIM_USES_HELPER, module="repro.sim.engine", select=["DET001"]
    )
    assert per_file.findings == []


def test_det002_skips_direct_source_calls_in_det001_jurisdiction():
    project = project_from_sources(
        {
            "repro.sim.engine": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            )
        }
    )
    assert _findings(DeterminismTaintRule(), project) == []


def test_det002_flags_tainted_argument_flowing_into_protected_package():
    project = project_from_sources(
        {
            "repro.sim.engine": "def advance(until):\n    return until\n",
            "repro.experiments.driver": (
                "import time\n"
                "from repro.sim.engine import advance\n"
                "def run():\n"
                "    deadline = time.time() + 5.0\n"
                "    return advance(deadline)\n"
            ),
        }
    )
    (finding,) = _findings(DeterminismTaintRule(), project)
    assert finding.path.endswith("repro/experiments/driver.py")
    assert "advance" in finding.message


def test_det002_propagates_through_instance_attributes():
    project = project_from_sources(
        {
            "repro.trace.meta": (
                "import time\n"
                "class RunStamp:\n"
                "    def __init__(self):\n"
                "        self.started = time.time()\n"
                "    def start(self):\n"
                "        return self.started\n"
            ),
            "repro.core.predictorx": (
                "from repro.trace.meta import RunStamp\n"
                "def origin(stamp: RunStamp):\n"
                "    return stamp.start()\n"
            ),
        }
    )
    (finding,) = _findings(DeterminismTaintRule(), project)
    assert finding.path.endswith("repro/core/predictorx.py")


def test_det002_clean_when_values_are_injected():
    project = project_from_sources(
        {
            "repro.sim.engine": (
                "def advance(clock):\n"
                "    return clock()\n"
            ),
            "repro.experiments.driver": (
                "from repro.sim.engine import advance\n"
                "def run(now):\n"
                "    return advance(now)\n"
            ),
        }
    )
    assert _findings(DeterminismTaintRule(), project) == []


def test_compute_taint_records_provenance_chain():
    project = project_from_sources({"repro.trace.clockutil": CLOCK_HELPER})
    state = compute_taint(project)
    desc = state.tainted_returns["repro.trace.clockutil.wall_now"]
    assert "time.time" in desc
    assert "wall_now" in desc


# ------------------------------------------------------------------ UNIT002


def test_unit002_catches_cross_boundary_mixup_that_unit001_misses():
    callee = "def utilisation(cpu_pct):\n    return cpu_pct / 100.0\n"
    caller = (
        "from repro.analysis.report import utilisation\n"
        "def summarise(avail_frac):\n"
        "    return utilisation(avail_frac)\n"
    )
    project = project_from_sources(
        {"repro.analysis.report": callee, "repro.experiments.summary": caller}
    )
    (finding,) = _findings(CrossBoundaryUnitRule(), project)
    assert finding.rule_id == "UNIT002"
    assert "'frac'" in finding.message and "'pct'" in finding.message
    # UNIT001 sees each file alone and has no mixed-unit expression.
    assert check_source(callee, select=["UNIT001"]).findings == []
    assert check_source(caller, select=["UNIT001"]).findings == []


def test_unit002_accepts_matching_units_and_explicit_conversions():
    project = project_from_sources(
        {
            "repro.analysis.report": (
                "def utilisation(cpu_pct):\n    return cpu_pct\n"
            ),
            "repro.experiments.summary": (
                "from repro.analysis.report import utilisation\n"
                "def ok(load_pct, avail_frac):\n"
                "    utilisation(load_pct)\n"
                "    utilisation(avail_frac * 100.0)\n"
            ),
        }
    )
    assert _findings(CrossBoundaryUnitRule(), project) == []


def test_unit002_infers_fraction_from_ensure_fraction_contract():
    project = project_from_sources(
        {
            "repro.core.predictorx": (
                "from repro.contracts import ensure_fraction\n"
                "def predict(value):\n"
                "    return ensure_fraction(value)\n"
            ),
            "repro.experiments.driver": (
                "from repro.core.predictorx import predict\n"
                "def run(elapsed_seconds):\n"
                "    return predict(elapsed_seconds)\n"
            ),
        }
    )
    (finding,) = _findings(CrossBoundaryUnitRule(), project)
    assert "'seconds'" in finding.message and "'frac'" in finding.message


def test_unit002_checks_keyword_arguments():
    project = project_from_sources(
        {
            "repro.analysis.report": (
                "def window(span_seconds=10.0):\n    return span_seconds\n"
            ),
            "repro.experiments.driver": (
                "from repro.analysis.report import window\n"
                "def run(timeout_ms):\n"
                "    return window(span_seconds=timeout_ms)\n"
            ),
        }
    )
    (finding,) = _findings(CrossBoundaryUnitRule(), project)
    assert "span_seconds" in finding.message


# ------------------------------------------------------------------ THRD001


RACY_STORE = '''\
class Store:
    def __init__(self):
        self._items = {}
    def record(self, key, value):
        self._items[key] = value
'''


def test_thrd001_flags_unsynchronized_write_reached_from_executor():
    project = project_from_sources(
        {
            "repro.runner.store": RACY_STORE,
            "repro.runner.engine": (
                "from concurrent.futures import ThreadPoolExecutor\n"
                "from repro.runner.store import Store\n"
                "def _job(store: Store):\n"
                "    store.record('k', 1)\n"
                "def run(store):\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        pool.submit(_job, store)\n"
            ),
        }
    )
    (finding,) = _findings(SharedStateRaceRule(), project)
    assert finding.rule_id == "THRD001"
    assert "self._items" in finding.message
    assert "executor" in finding.message


def test_thrd001_exempts_lock_guarded_writes_and_init():
    project = project_from_sources(
        {
            "repro.runner.store": (
                "import threading\n"
                "class Store:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._items = {}\n"
                "    def record(self, key, value):\n"
                "        with self._lock:\n"
                "            self._items[key] = value\n"
            ),
            "repro.runner.engine": (
                "from concurrent.futures import ThreadPoolExecutor\n"
                "from repro.runner.store import Store\n"
                "def _job(store: Store):\n"
                "    store.record('k', 1)\n"
                "def run(store):\n"
                "    with ThreadPoolExecutor() as pool:\n"
                "        pool.submit(_job, store)\n"
            ),
        }
    )
    assert _findings(SharedStateRaceRule(), project) == []


def test_thrd001_thread_target_and_callback_are_roots():
    project = project_from_sources(
        {
            "repro.obs.collect": (
                "import threading\n"
                "_seen = {}\n"
                "def _collect(r):\n"
                "    _seen['n'] = 1\n"
                "def install(registry):\n"
                "    registry.register_callback(_collect)\n"
                "def spawn():\n"
                "    threading.Thread(target=_collect).start()\n"
            )
        }
    )
    roots = thread_entry_roots(project)
    assert "repro.obs.collect._collect" in roots
    findings = _findings(SharedStateRaceRule(), project)
    assert len(findings) == 1
    assert "'_seen'" in findings[0].message


def test_thrd001_nws_pump_is_a_root_by_convention():
    project = project_from_sources(
        {
            "repro.nws.hostx": (
                "class HostX:\n"
                "    def __init__(self):\n"
                "        self._rounds = []\n"
                "    def pump(self, until):\n"
                "        self._rounds.append(until)\n"
            )
        }
    )
    (finding,) = _findings(SharedStateRaceRule(), project)
    assert "self._rounds" in finding.message
    assert "pump" in finding.message


def test_thrd001_out_of_scope_packages_never_flagged():
    project = project_from_sources(
        {
            "repro.sim.hostx": (
                "class HostX:\n"
                "    def __init__(self):\n"
                "        self._events = []\n"
                "    def pump(self, until):\n"
                "        self._events.append(until)\n"
            )
        }
    )
    assert _findings(SharedStateRaceRule(), project) == []


# --------------------------------------------------------- runner plumbing


def test_semantic_findings_flow_through_check_source_and_suppressions():
    source = (
        "import time\n"
        "def helper():\n"
        "    return time.time()\n"
        "def schedule():\n"
        "    return helper()\n"
    )
    result = check_source(source, module="repro.sim.engine")
    # DET001 fires on the direct source call, DET002 on the laundered one.
    assert [f.rule_id for f in result.findings] == ["DET001", "DET002"]

    suppressed = source.replace(
        "    return time.time()",
        "    return time.time()  # lint: ignore[DET001] -- fixture",
    ).replace(
        "    return helper()",
        "    return helper()  # lint: ignore[DET002] -- fixture",
    )
    result = check_source(suppressed, module="repro.sim.engine")
    assert result.findings == []
    assert sorted(f.rule_id for f in result.suppressed) == ["DET001", "DET002"]


def test_semantic_rules_selectable_by_id():
    source = (
        "import time\n"
        "def helper():\n"
        "    return time.time()\n"
        "def schedule():\n"
        "    return helper()\n"
    )
    selected = check_source(source, module="repro.sim.engine", select=["DET002"])
    assert [f.rule_id for f in selected.findings] == ["DET002"]
    ignored = check_source(source, module="repro.sim.engine", ignore=["DET002"])
    assert [f.rule_id for f in ignored.findings] == ["DET001"]


def test_duplicate_rule_id_registration_rejected():
    from repro.lint.registry import Rule, register

    with pytest.raises(ValueError, match="duplicate rule id"):

        @register
        class Clash(Rule):  # pragma: no cover - never runs
            rule_id = "DET002"
            title = "clash"

            def check(self, ctx):
                return iter(())
