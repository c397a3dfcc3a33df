"""Whole-program semantic analysis: symbols, call graph, and THRD001.

THRD001's fixtures prove true positives no per-file rule can see: the
racy write and the thread entry point that reaches it sit in different
functions, often in different modules.
"""

from __future__ import annotations

import pytest

from repro.lint import check_source, project_from_sources
from repro.lint.semantic import SharedStateRaceRule, thread_entry_roots

# ---------------------------------------------------------------- fixtures


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
    # Seeded defect: NameServer.refresh checks the entry under the lock
    # but writes it back outside.  No test or report run races on it.
    project = project_from_sources(
        {
            "repro.nws.nameserver": (
                "import threading\n"
                "class NameServer:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._entries = {}\n"
                "    def _require_live(self, name):\n"
                "        with self._lock:\n"
                "            return self._entries[name]\n"
                "    def refresh(self, name, *, ttl):\n"
                "        entry = self._require_live(name)\n"
                "        self._entries[name] = entry\n"
                "        return entry\n"
            )
        }
    )
    (finding,) = _findings(SharedStateRaceRule(), project)
    assert "self._entries" in finding.message
    assert "refresh" in finding.message


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


RACY_PUMP = (
    "class HostX:\n"
    "    def __init__(self):\n"
    "        self._rounds = []\n"
    "    def pump(self, path):\n"
    "        path.write_text('x')\n"
    "        self._rounds.append(path)\n"
)


def test_semantic_findings_flow_through_check_source_and_suppressions():
    result = check_source(RACY_PUMP, module="repro.nws.hostx")
    # DUR001 is a per-file rule, THRD001 a whole-program one.
    assert [f.rule_id for f in result.findings] == ["DUR001", "THRD001"]

    suppressed = RACY_PUMP.replace(
        "path.write_text('x')",
        "path.write_text('x')  # lint: ignore[DUR001] -- fixture",
    ).replace(
        "self._rounds.append(path)",
        "self._rounds.append(path)  # lint: ignore[THRD001] -- fixture",
    )
    result = check_source(suppressed, module="repro.nws.hostx")
    assert result.findings == []
    assert sorted(f.rule_id for f in result.suppressed) == ["DUR001", "THRD001"]


def test_semantic_rules_selectable_by_id():
    selected = check_source(RACY_PUMP, module="repro.nws.hostx", select=["THRD001"])
    assert [f.rule_id for f in selected.findings] == ["THRD001"]
    ignored = check_source(RACY_PUMP, module="repro.nws.hostx", ignore=["THRD001"])
    assert [f.rule_id for f in ignored.findings] == ["DUR001"]


def test_duplicate_rule_id_registration_rejected():
    from repro.lint.registry import Rule, register

    with pytest.raises(ValueError, match="duplicate rule id"):

        @register
        class Clash(Rule):  # pragma: no cover - never runs
            rule_id = "THRD001"
            title = "clash"

            def check(self, ctx):
                return iter(())
