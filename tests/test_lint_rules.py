"""Per-rule positive/negative fixtures for the domain linter.

Every rule gets at least one snippet that must fire and one that must
stay silent; fixtures go through :func:`repro.lint.check_source`, i.e.
the same ``ast.parse`` + scoping + suppression path as real files.
"""

from __future__ import annotations

import textwrap

from repro.lint import check_source
from repro.lint.runner import PARSE_RULE_ID


def findings(source: str, *, module: str = "", select: list[str] | None = None):
    result = check_source(textwrap.dedent(source), module=module, select=select)
    return result


def rule_ids(source: str, *, module: str = "", select: list[str] | None = None):
    return [f.rule_id for f in findings(source, module=module, select=select).findings]


# -----------------------------------------------------------------------
# PROTO001 -- forecaster protocol
# -----------------------------------------------------------------------

class TestForecasterProtocol:
    def test_missing_forecast_flagged(self):
        src = """
        class Broken(Forecaster):
            __slots__ = ("_x",)

            def update(self, value):
                self._x = value
        """
        ids = rule_ids(src)
        assert ids == ["PROTO001"]
        assert "forecast" in findings(src).findings[0].message

    def test_forecast_with_positional_arg_flagged(self):
        src = """
        class Broken(Forecaster):
            __slots__ = ()

            def update(self, value):
                pass

            def forecast(self, horizon):
                return 0.0
        """
        assert rule_ids(src) == ["PROTO001"]

    def test_missing_slots_flagged(self):
        src = """
        class Broken(Forecaster):
            def update(self, value):
                pass

            def forecast(self):
                return 0.0
        """
        # Seeded defect: LastValue without its __slots__ still forecasts
        # the same values, so no test or report diff notices the
        # per-instance __dict__ it grows.
        last_value = """
        class LastValue(Forecaster):
            name = "last_value"

            def __init__(self):
                self._last = None

            def update(self, value):
                self._last = float(value)

            def forecast(self):
                return self._last
        """
        for source in (src, last_value):
            ids = rule_ids(source)
            assert ids == ["PROTO001"]
            assert "__slots__" in findings(source).findings[0].message

    def test_complete_subclass_ok(self):
        src = """
        class Fine(Forecaster):
            __slots__ = ("_last",)

            def update(self, value):
                self._last = value

            def forecast(self):
                return self._last
        """
        assert rule_ids(src) == []

    def test_methods_inherited_from_intermediate_base_ok(self):
        src = """
        class _Base(Forecaster):
            __slots__ = ("_v",)

            def update(self, value):
                self._v = value

            def forecast(self):
                return self._estimate()

        class Leaf(_Base):
            __slots__ = ()

            def _estimate(self):
                return self._v
        """
        assert rule_ids(src) == []

    def test_unrelated_class_ignored(self):
        src = """
        class NotAForecaster:
            def forecast(self, a, b):
                return a + b
        """
        assert rule_ids(src) == []


# -----------------------------------------------------------------------
# EXC001 -- bare except / swallowed errors
# -----------------------------------------------------------------------

class TestSwallowedErrors:
    def test_bare_except_flagged_in_nws(self):
        src = """
        def publish(memory):
            try:
                memory.flush()
            except:
                raise RuntimeError("flush failed")
        """
        assert rule_ids(src, module="repro.nws.fake") == ["EXC001"]

    def test_swallowing_handler_flagged_in_live(self):
        src = """
        def sample(path):
            try:
                return open(path).read()
            except OSError:
                pass
        """
        assert rule_ids(src, module="repro.live.fake") == ["EXC001"]
        # Seeded defect: the sensor host drops a rejected publish without
        # tallying it; every test and the report still pass.
        guarded = """
        class SensorHost:
            def _publish_guarded(self, series, time, value):
                try:
                    self.memory.publish(series, time, value)
                except ValueError:
                    pass
        """
        assert rule_ids(guarded, module="repro.nws.sensorhost") == ["EXC001"]

    def test_handled_exception_ok(self):
        src = """
        def sample(path):
            try:
                return open(path).read()
            except OSError as exc:
                return f"unavailable: {exc}"
        """
        assert rule_ids(src, module="repro.nws.fake") == []

    def test_out_of_scope_module_not_flagged(self):
        src = """
        def quiet():
            try:
                return 1
            except ValueError:
                pass
        """
        assert rule_ids(src, module="repro.sim.fake") == []


# -----------------------------------------------------------------------
# FAULT001 -- resilience discipline
# -----------------------------------------------------------------------

class TestResilience:
    def test_broad_except_continue_flagged_in_runner(self):
        src = """
        def collect(futures):
            out = []
            for future in futures:
                try:
                    out.append(future.result())
                except Exception:
                    continue
            return out
        """
        assert rule_ids(src, module="repro.runner.fake") == ["FAULT001"]

    def test_bare_except_continue_flagged_in_nws(self):
        src = """
        def pump(rounds):
            for row in rounds:
                try:
                    publish(row)
                except:
                    continue
        """
        # EXC001 also fires on the bare except (shared repro.nws scope).
        assert sorted(rule_ids(src, module="repro.nws.fake")) == [
            "EXC001",
            "FAULT001",
        ]

    def test_broad_tuple_pass_only_flagged(self):
        src = """
        def drain(queue):
            while queue:
                try:
                    queue.pop()
                except (ValueError, Exception):
                    pass
        """
        assert rule_ids(src, module="repro.runner.fake") == ["FAULT001"]

    def test_sleep_in_loop_flagged(self):
        src = """
        import time

        def wait_for(check):
            for _ in range(5):
                if check():
                    return True
                time.sleep(1.0)
            return False
        """
        # Seeded defect: the runner's serial retry hand-rolled with a real
        # sleep.  It still counts retries and raises the typed error, so
        # every test and the report pass -- only slower, and unseeded.
        retry = """
        import time

        def simulate(self, name, config):
            for attempt in range(MAX_HOST_RETRIES + 1):
                try:
                    return _simulate_one(name, config)
                except Exception as exc:
                    if attempt == MAX_HOST_RETRIES:
                        raise HostSimulationError(name, attempt + 1, exc) from exc
                    self.stats.retries += 1
                    time.sleep(0.01 * 2**attempt)
        """
        for source in (src, retry):
            assert rule_ids(source, module="repro.runner.fake") == ["FAULT001"]

    def test_specific_except_continue_silent(self):
        src = """
        def recover(lines):
            out = []
            for line in lines:
                try:
                    out.append(parse(line))
                except (ValueError, KeyError):
                    continue
            return out
        """
        assert rule_ids(src, module="repro.runner.fake") == []

    def test_broad_except_with_real_handling_silent(self):
        src = """
        def collect(futures):
            out, failed = [], {}
            for key, future in futures:
                try:
                    result = future.result()
                except Exception as exc:
                    failed[key] = exc
                else:
                    out.append(result)
            return out, failed
        """
        assert rule_ids(src, module="repro.runner.fake") == []

    def test_nested_loop_continue_belongs_to_inner_loop(self):
        src = """
        def outer(groups):
            for group in groups:
                try:
                    handle(group)
                except Exception as exc:
                    for item in group:
                        if not item:
                            continue
                        record(item, exc)
                    raise
        """
        assert rule_ids(src, module="repro.runner.fake") == []

    def test_sleep_outside_loop_silent(self):
        src = """
        import time

        def settle():
            time.sleep(0.5)
        """
        assert rule_ids(src, module="repro.runner.fake") == []

    def test_out_of_scope_module_silent(self):
        src = """
        import time

        def poll(check):
            while not check():
                time.sleep(1.0)
        """
        assert rule_ids(src, module="repro.live.fake") == []


# -----------------------------------------------------------------------
# OBS002 -- metric naming and inventory
# -----------------------------------------------------------------------

class TestMetricInventory:
    def test_bad_scheme_flagged(self):
        src = """
        def instrument(registry):
            registry.counter("my_ticks_total").inc()
        """
        result = findings(src, module="repro.sim.fake", select=["OBS002"])
        assert [f.rule_id for f in result.findings] == ["OBS002"]
        assert "repro_<layer>_<name>" in result.findings[0].message

    def test_two_segment_name_flagged(self):
        src = """
        def instrument(registry):
            registry.gauge("repro_jobs").set(1)
        """
        ids = rule_ids(src, module="repro.runner.fake", select=["OBS002"])
        assert "OBS002" in ids

    def test_counter_without_total_suffix_flagged(self):
        src = """
        def instrument(registry):
            registry.counter("repro_sim_ticks").inc()
        """
        result = findings(src, module="repro.sim.fake", select=["OBS002"])
        assert any("_total" in f.message for f in result.findings)

    def test_gauge_with_total_suffix_flagged(self):
        src = """
        def instrument(registry):
            registry.gauge("repro_sim_ticks_total").set(1)
        """
        result = findings(src, module="repro.sim.fake", select=["OBS002"])
        assert any("reserved for counters" in f.message for f in result.findings)

    def test_undocumented_metric_flagged(self):
        src = """
        def instrument(registry):
            registry.counter("repro_sim_undocumented_widget_total").inc()
        """
        # Seeded defect: a new memory-store counter nobody documented.
        memory = """
        class MemoryStore:
            def __init__(self, registry):
                self._obs_rejects = registry.counter("repro_memory_rejected_total")
        """
        for source, module in ((src, "repro.sim.fake"), (memory, "repro.nws.memory")):
            result = findings(source, module=module, select=["OBS002"])
            assert [f.rule_id for f in result.findings] == ["OBS002"]
            assert "inventory" in result.findings[0].message

    def test_inventoried_metrics_pass(self):
        src = """
        def instrument(registry):
            registry.counter("repro_sim_ticks_total").inc()
            registry.gauge("repro_sim_load_average", host="a").set(0.5)
            registry.histogram("repro_runner_host_seconds", host="a").observe(1.0)
        """
        assert rule_ids(src, module="repro.sim.fake", select=["OBS002"]) == []

    def test_dynamic_names_skipped(self):
        # Only literal first arguments are checkable statically.
        src = """
        def instrument(registry, name):
            registry.counter(name).inc()
        """
        assert rule_ids(src, module="repro.sim.fake", select=["OBS002"]) == []

    def test_out_of_scope_module_ignored(self):
        src = """
        def instrument(registry):
            registry.counter("whatever").inc()
        """
        assert rule_ids(src, module="somepkg.fake", select=["OBS002"]) == []


# -----------------------------------------------------------------------
# Suppressions, selection, parse errors
# -----------------------------------------------------------------------

class TestMachinery:
    SRC = """
    import json

    def save(path, state):
        path.write_text(json.dumps(state))  # lint: ignore[DUR001] -- fixture exercising suppression
    """

    def test_targeted_suppression(self):
        result = findings(self.SRC, module="repro.nws.fake")
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["DUR001"]

    def test_blanket_suppression(self):
        src = self.SRC.replace("ignore[DUR001]", "ignore")
        result = findings(src, module="repro.nws.fake")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_wrong_rule_in_suppression_keeps_finding(self):
        src = self.SRC.replace("ignore[DUR001]", "ignore[EXC001]")
        result = findings(src, module="repro.nws.fake")
        assert [f.rule_id for f in result.findings] == ["DUR001"]

    def test_select_limits_rules(self):
        src = """
        def save(path):
            path.write_text("x")
        """
        assert rule_ids(src, module="repro.nws.fake", select=["EXC001"]) == []
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == [
            "DUR001"
        ]

    def test_syntax_error_reported(self):
        result = findings("def broken(:\n")
        assert [f.rule_id for f in result.findings] == [PARSE_RULE_ID]

    def test_findings_carry_location(self):
        src = self.SRC.replace(
            "  # lint: ignore[DUR001] -- fixture exercising suppression", ""
        )
        (finding,) = findings(src, module="repro.nws.fake").findings
        assert finding.line == 5
        assert finding.rule_id == "DUR001"
        assert "write_text" in finding.message


# -----------------------------------------------------------------------
# DUR001 -- durability discipline
# -----------------------------------------------------------------------

class TestDurability:
    def test_bare_write_open_flagged_in_nws(self):
        src = """
        def save(path, data):
            with open(path, "w") as f:
                f.write(data)
        """
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == [
            "DUR001"
        ]

    def test_mode_keyword_and_path_open_flagged(self):
        src = """
        def save(path, data):
            with open(path, mode="wb") as f:
                f.write(data)
            with path.open("x") as f:
                f.write(data)
        """
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == [
            "DUR001",
            "DUR001",
        ]

    def test_write_text_and_write_bytes_flagged(self):
        src = """
        def save(path):
            path.write_text("boom")
            path.write_bytes(b"boom")
        """
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == [
            "DUR001",
            "DUR001",
        ]
        # Seeded defect: a journal checkpoint rewritten in place.  Only a
        # crash mid-write tears it, which no test or report run does.
        checkpoint = """
        class MemoryStore:
            def _checkpoint_locked(self, series):
                path = self.journal_path(series)
                self._journal.invalidate(path)
                path.write_bytes(self._encoded(series))
        """
        assert rule_ids(
            checkpoint, module="repro.nws.memory", select=["DUR001"]
        ) == ["DUR001"]

    def test_read_modes_are_fine(self):
        src = """
        def load(path):
            with open(path) as f:
                body = f.read()
            with open(path, "rb") as f:
                raw = f.read()
            text = path.read_text()
            return body, raw, text
        """
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == []

    def test_durable_module_itself_is_exempt(self):
        src = """
        def helper(path, data):
            with open(path, "wb") as f:
                f.write(data)
        """
        assert rule_ids(src, module="repro.nws.durable", select=["DUR001"]) == []

    def test_out_of_scope_packages_untouched(self):
        src = """
        def save(path, data):
            with open(path, "w") as f:
                f.write(data)
        """
        assert rule_ids(src, module="repro.runner.fake", select=["DUR001"]) == []

    def test_nonliteral_mode_is_not_guessed(self):
        src = """
        def save(path, data, mode):
            with open(path, mode) as f:
                f.write(data)
        """
        assert rule_ids(src, module="repro.nws.fake", select=["DUR001"]) == []
