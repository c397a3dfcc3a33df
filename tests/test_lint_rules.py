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
# DET001 -- determinism
# -----------------------------------------------------------------------

class TestDeterminism:
    def test_wall_clock_flagged_in_sim(self):
        src = """
        import time

        def stamp():
            return time.time()
        """
        assert rule_ids(src, module="repro.sim.fake") == ["DET001"]

    def test_from_import_alias_flagged(self):
        src = """
        from time import time as now

        def stamp():
            return now()
        """
        assert rule_ids(src, module="repro.core.fake") == ["DET001"]

    def test_datetime_now_flagged(self):
        src = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert rule_ids(src, module="repro.analysis.fake") == ["DET001"]

    def test_global_numpy_rng_flagged(self):
        src = """
        import numpy as np

        def noise():
            np.random.seed(3)
            return np.random.uniform()
        """
        assert rule_ids(src, module="repro.sim.fake") == ["DET001", "DET001"]

    def test_module_level_random_flagged(self):
        src = """
        import random

        def pick():
            return random.random()
        """
        assert rule_ids(src, module="repro.sim.fake") == ["DET001"]

    def test_unseeded_default_rng_flagged(self):
        src = """
        import numpy as np

        def make():
            return np.random.default_rng()
        """
        assert rule_ids(src, module="repro.core.fake") == ["DET001"]

    def test_injected_generator_ok(self):
        src = """
        import numpy as np

        def draw(rng: np.random.Generator) -> float:
            return rng.uniform()

        def make(seed):
            return np.random.default_rng(np.random.SeedSequence(seed))
        """
        assert rule_ids(src, module="repro.sim.fake") == []

    def test_out_of_scope_module_not_flagged(self):
        src = """
        import time

        def stamp():
            return time.monotonic()
        """
        assert rule_ids(src, module="repro.live.probe2") == []
        assert rule_ids(src, module="") == []


# -----------------------------------------------------------------------
# UNIT001 -- unit safety
# -----------------------------------------------------------------------

class TestUnitSafety:
    def test_mixed_unit_addition_flagged(self):
        src = """
        def total(duration_seconds, timeout_ms):
            return duration_seconds + timeout_ms
        """
        assert rule_ids(src) == ["UNIT001"]

    def test_pct_vs_frac_comparison_flagged(self):
        src = """
        def busy(cpu_pct, idle_frac):
            return cpu_pct > idle_frac
        """
        assert rule_ids(src) == ["UNIT001"]

    def test_availability_literal_out_of_range_flagged(self):
        src = """
        def usable(availability):
            return availability > 30
        """
        assert rule_ids(src) == ["UNIT001"]

    def test_same_unit_and_conversion_ok(self):
        src = """
        def fine(run_seconds, wait_seconds, avail_frac):
            total_seconds = run_seconds + wait_seconds
            pct = avail_frac * 100.0
            return total_seconds if avail_frac > 0.3 else pct
        """
        assert rule_ids(src) == []


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
        ids = rule_ids(src)
        assert ids == ["PROTO001"]
        assert "__slots__" in findings(src).findings[0].message

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
# MUT001 -- mutable default arguments
# -----------------------------------------------------------------------

class TestMutableDefaults:
    def test_list_literal_default_flagged(self):
        assert rule_ids("def f(x=[]):\n    return x\n") == ["MUT001"]

    def test_constructor_call_default_flagged(self):
        assert rule_ids("def f(*, x=dict()):\n    return x\n") == ["MUT001"]

    def test_none_default_ok(self):
        src = """
        def f(x=None, y=(), z="s"):
            return x, y, z
        """
        assert rule_ids(src) == []


# -----------------------------------------------------------------------
# HEAP001 -- heap stability
# -----------------------------------------------------------------------

class TestHeapStability:
    def test_tuple_without_tiebreaker_flagged(self):
        src = """
        import heapq

        def push(heap, deadline, callback):
            heapq.heappush(heap, (deadline, callback))
        """
        assert rule_ids(src) == ["HEAP001"]

    def test_non_tuple_push_flagged(self):
        src = """
        import heapq

        def push(heap, deadline):
            heapq.heappush(heap, deadline)
        """
        assert rule_ids(src) == ["HEAP001"]

    def test_next_counter_tiebreaker_ok(self):
        src = """
        import heapq

        def push(heap, deadline, counter, callback):
            heapq.heappush(heap, (deadline, next(counter), callback))
        """
        assert rule_ids(src) == []

    def test_from_import_with_counter_name_ok(self):
        src = """
        from heapq import heappush

        def push(heap, deadline, seq, callback):
            heappush(heap, (deadline, seq, callback))
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
# OBS001 -- observability hygiene
# -----------------------------------------------------------------------

class TestObservability:
    def test_unmanaged_span_flagged(self):
        src = """
        def query(tracer):
            span = tracer.span("nws.query")
            span.__enter__()
            return 1
        """
        assert rule_ids(src, module="repro.nws.fake") == ["OBS001"]

    def test_context_managed_span_ok(self):
        src = """
        def query(tracer):
            with tracer.span("nws.query") as span:
                span.annotate(hit=True)
        """
        assert rule_ids(src, module="repro.nws.fake") == []

    def test_span_in_multi_item_with_ok(self):
        src = """
        def query(tracer, lock):
            with lock, tracer.span("nws.query"):
                return 1
        """
        assert rule_ids(src, module="repro.nws.fake") == []

    def test_print_flagged_in_instrumented_layers(self):
        src = """
        def debug(x):
            print(x)
        """
        for module in ("repro.sim.fake", "repro.nws.fake", "repro.core.fake"):
            assert rule_ids(src, module=module) == ["OBS001"], module

    def test_print_allowed_outside_instrumented_layers(self):
        src = """
        def show(x):
            print(x)
        """
        assert rule_ids(src, module="repro.report.fake") == []
        assert rule_ids(src, module="repro.sensors.fake") == []

    def test_non_span_attribute_calls_ignored(self):
        src = """
        def f(obj):
            return obj.spawn("x")
        """
        assert rule_ids(src, module="repro.nws.fake") == []


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
        assert rule_ids(src, module="repro.runner.fake") == ["FAULT001"]

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
        result = findings(src, module="repro.sim.fake", select=["OBS002"])
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
    import time

    def stamp():
        return time.time()  # lint: ignore[DET001] -- fixture exercising suppression
    """

    def test_targeted_suppression(self):
        result = findings(self.SRC, module="repro.sim.fake")
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["DET001"]

    def test_blanket_suppression(self):
        src = self.SRC.replace("ignore[DET001]", "ignore")
        result = findings(src, module="repro.sim.fake")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_wrong_rule_in_suppression_keeps_finding(self):
        src = self.SRC.replace("ignore[DET001]", "ignore[MUT001]")
        result = findings(src, module="repro.sim.fake")
        assert [f.rule_id for f in result.findings] == ["DET001"]

    def test_select_limits_rules(self):
        src = """
        def f(x=[]):
            return x
        """
        assert rule_ids(src, select=["DET001"]) == []
        assert rule_ids(src, select=["MUT001"]) == ["MUT001"]

    def test_syntax_error_reported(self):
        result = findings("def broken(:\n")
        assert [f.rule_id for f in result.findings] == [PARSE_RULE_ID]

    def test_findings_carry_location(self):
        result = findings(self.SRC.replace("  # lint: ignore[DET001] -- fixture exercising suppression", ""), module="repro.sim.fake")
        (finding,) = result.findings
        assert finding.line == 5
        assert finding.rule_id == "DET001"
        assert "time.time" in finding.message


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
