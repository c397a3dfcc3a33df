"""Unit tests for repro.faults: plans, compiled injectors, retry policy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults import (
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    FaultSpec,
    RetryError,
    RetryPolicy,
    named_plan,
    named_plans,
    seed_entropy,
)
from repro.nws.memory import MemoryStore
from repro.obs import MetricsRegistry, installed


class TestSeedEntropy:
    def test_int_and_sequence_forms(self):
        assert seed_entropy(7) == (7,)
        assert seed_entropy([7, 3]) == (7, 3)
        assert seed_entropy(np.random.SeedSequence(7)) == (7,)
        assert seed_entropy(np.random.SeedSequence([7, 3])) == (7, 3)

    def test_int_matches_list_seeding(self):
        # The system wraps seeds as SeedSequence(list(entropy)); an int
        # seed must produce the same stream it always did.
        a = np.random.SeedSequence(7).generate_state(4)
        b = np.random.SeedSequence(list(seed_entropy(7))).generate_state(4)
        np.testing.assert_array_equal(a, b)


class TestFaultPlan:
    def test_builders_return_new_plans(self):
        base = FaultPlan("p")
        grown = base.sensor_dropout(0.1)
        assert base.specs == ()
        assert len(grown.specs) == 1
        assert grown.name == "p"

    def test_host_scoping(self):
        plan = FaultPlan("p").crash(start=10.0, duration=5.0, host="thing1")
        assert plan.for_host("thing1") == plan.specs
        assert plan.for_host("kongo") == ()

    def test_spec_window_semantics(self):
        spec = FaultSpec("sensor_dropout", rate=0.5, start=10.0, stop=20.0)
        assert not spec.active(9.9)
        assert spec.active(10.0)
        assert spec.active(19.9)
        assert not spec.active(20.0)

    def test_validation(self):
        plan = FaultPlan("p")
        with pytest.raises(ValueError, match="rate"):
            plan.sensor_dropout(1.5)
        with pytest.raises(ValueError, match="max_delay"):
            plan.publish_delay(0.1, max_delay=0.0)
        with pytest.raises(ValueError, match="duration"):
            plan.crash(start=0.0, duration=0.0)
        with pytest.raises(ValueError, match="keep_fraction"):
            plan.journal_truncate(at=0.0, keep_fraction=1.0)
        with pytest.raises(ValueError, match="lines"):
            plan.journal_corrupt(at=0.0, lines=0)

    def test_describe_lists_every_clause(self):
        text = named_plan("grid-storm").describe()
        for kind in (
            "sensor_dropout",
            "publish_loss",
            "publish_delay",
            "publish_duplicate",
            "clock_skew",
            "crash",
        ):
            assert kind in text

    def test_named_plans_registry(self):
        assert set(named_plans()) == {
            "none",
            "dropout10",
            "dropout10-crash",
            "grid-storm",
        }
        with pytest.raises(KeyError, match="dropout10"):
            named_plan("bogus")


def compiled(plan, *, seed=7, host_index=0, host="thing1"):
    return plan.compile(seed=seed, host_index=host_index, host=host)


class TestRouting:
    def test_clean_passthrough(self):
        faults = compiled(FaultPlan("none"))
        assert faults.route("s", 10.0, 0.5) == [(10.0, 0.5)]
        assert faults.tallies == {}

    def test_dropout_publishes_nan_gap(self):
        faults = compiled(FaultPlan("p").sensor_dropout(1.0))
        [(t, v)] = faults.route("s", 10.0, 0.5)
        assert t == 10.0 and math.isnan(v)
        assert faults.counts("injected") == {"sensor_dropout": 1}

    def test_loss_drops_the_publish(self):
        faults = compiled(FaultPlan("p").publish_loss(1.0))
        assert faults.route("s", 10.0, 0.5) == []
        assert faults.counts("injected") == {"publish_loss": 1}

    def test_duplicate_publishes_twice(self):
        faults = compiled(FaultPlan("p").publish_duplicate(1.0))
        assert faults.route("s", 10.0, 0.5) == [(10.0, 0.5), (10.0, 0.5)]

    def test_skew_offsets_timestamp(self):
        faults = compiled(FaultPlan("p").clock_skew(2.5, start=0.0, stop=20.0))
        assert faults.route("s", 10.0, 0.5) == [(12.5, 0.5)]
        # Outside the window the offset vanishes.
        assert faults.route("s", 30.0, 0.5) == [(30.0, 0.5)]

    def test_delay_buffers_and_flushes_with_original_stamp(self):
        faults = compiled(FaultPlan("p").publish_delay(1.0, max_delay=45.0))
        assert faults.route("s", 10.0, 0.5) == []
        assert faults.flush(10.0) == []  # not due yet
        flushed = faults.flush(60.0)
        assert flushed == [("s", 10.0, 0.5)]
        assert faults.flush(60.0) == []  # delivered exactly once

    def test_crash_kills_buffered_deliveries(self):
        plan = (
            FaultPlan("p")
            .publish_delay(1.0, max_delay=45.0)
            .crash(start=15.0, duration=10.0)
        )
        faults = compiled(plan)
        faults.route("s", 10.0, 0.5)
        assert faults.flush(60.0) == []
        assert faults.counts("injected")["crash_lost"] == 1

    def test_crash_window_predicate(self):
        faults = compiled(FaultPlan("p").crash(start=10.0, duration=5.0))
        assert not faults.crashed(9.9)
        assert faults.crashed(10.0)
        assert faults.crashed(14.9)
        assert not faults.crashed(15.0)

    def test_inactive_window_never_fires(self):
        faults = compiled(FaultPlan("p").sensor_dropout(1.0, start=100.0))
        assert faults.route("s", 10.0, 0.5) == [(10.0, 0.5)]


class TestDeterminism:
    def _decisions(self, *, seed, host_index):
        faults = compiled(
            FaultPlan("p").sensor_dropout(0.3).publish_loss(0.3),
            seed=seed,
            host_index=host_index,
        )
        return [faults.route("s", float(t), 0.5) for t in range(200)]

    def test_same_seed_same_stream(self):
        a = self._decisions(seed=7, host_index=0)
        b = self._decisions(seed=7, host_index=0)
        assert repr(a) == repr(b)

    def test_host_index_separates_streams(self):
        a = self._decisions(seed=7, host_index=0)
        b = self._decisions(seed=7, host_index=1)
        assert repr(a) != repr(b)

    def test_seed_separates_streams(self):
        a = self._decisions(seed=7, host_index=0)
        b = self._decisions(seed=8, host_index=0)
        assert repr(a) != repr(b)


class TestJournalFaults:
    def _store(self, tmp_path, n=20):
        store = MemoryStore(capacity=100, directory=tmp_path)
        for i in range(n):
            store.publish("s", float(i), 0.5)
        return store

    def test_corrupt_then_recover(self, tmp_path):
        store = self._store(tmp_path)
        faults = compiled(FaultPlan("p").journal_corrupt(at=100.0, lines=3))
        faults.tick(200.0, store, ["s"])
        assert faults.counts("injected") == {"journal_corrupt": 1}
        assert faults.counts("absorbed") == {"journal_recovered": 1}
        # Recovery replayed the valid lines; garbage was skipped.
        times, _ = store.fetch("s")
        assert times.size == 20

    def test_truncate_then_recover_loses_tail(self, tmp_path):
        store = self._store(tmp_path)
        faults = compiled(FaultPlan("p").journal_truncate(at=100.0, keep_fraction=0.5))
        faults.tick(200.0, store, ["s"])
        assert faults.counts("absorbed") == {"journal_recovered": 1}
        times, _ = store.fetch("s")
        assert 0 < times.size < 20

    def test_event_is_one_shot(self, tmp_path):
        store = self._store(tmp_path)
        faults = compiled(FaultPlan("p").journal_corrupt(at=100.0))
        faults.tick(200.0, store, ["s"])
        faults.tick(300.0, store, ["s"])
        assert faults.counts("injected") == {"journal_corrupt": 1}

    def test_not_due_yet(self, tmp_path):
        store = self._store(tmp_path)
        faults = compiled(FaultPlan("p").journal_corrupt(at=100.0))
        faults.tick(50.0, store, ["s"])
        assert faults.tallies == {}

    def test_unpersisted_memory_is_a_failed_fault(self):
        faults = compiled(FaultPlan("p").journal_truncate(at=0.0))
        faults.tick(10.0, MemoryStore(), ["s"])
        assert faults.counts("failed") == {"journal_unpersisted": 1}


class TestTallyMetrics:
    def test_tallies_mirror_registry_counters(self):
        with installed(MetricsRegistry()) as registry:
            faults = compiled(FaultPlan("p").sensor_dropout(1.0))
            faults.route("s", 0.0, 0.5)
            faults.route("s", 10.0, 0.5)
        assert faults.counts("injected") == {"sensor_dropout": 2}
        snap = registry.snapshot()
        sample = snap["repro_faults_injected_total"]["samples"][0]
        assert sample["labels"] == {"host": "thing1", "kind": "sensor_dropout"}
        assert sample["value"] == 2.0


class TestRetryPolicy:
    def test_success_needs_no_retry(self):
        policy = RetryPolicy(retries=2)
        assert policy.call(lambda: 42) == 42
        assert policy.attempts == 1
        assert policy.retries_used == 0

    def test_retries_until_success(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0)
        assert policy.call(flaky) == "ok"
        assert policy.retries_used == 2

    def test_exhaustion_raises_chained_retryerror(self):
        def always_fail():
            raise OSError("dead")

        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryError, match="thing failed after 3 attempt") as info:
            policy.call(always_fail, describe="thing")
        assert isinstance(info.value.__cause__, OSError)

    def test_attempts_used_shrinks_budget(self):
        calls = {"n": 0}

        def always_fail():
            calls["n"] += 1
            raise OSError("dead")

        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryError):
            policy.call(always_fail, attempts_used=1)
        assert calls["n"] == 2  # in-call budget: 3 total - 1 already used
        assert policy.retries_used == 2
        with pytest.raises(ValueError, match="exhausts"):
            policy.call(always_fail, attempts_used=3)

    def test_on_retry_reports_global_attempt_numbers(self):
        seen = []

        def always_fail():
            raise OSError("dead")

        policy = RetryPolicy(retries=2, base_delay=0.0, jitter=0.0)
        with pytest.raises(RetryError):
            policy.call(
                always_fail,
                on_retry=lambda n, exc, delay: seen.append(n),
                attempts_used=1,
            )
        assert seen == [1, 2]

    def test_backoff_shape_and_cap(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, max_delay=5.0, jitter=0.0)
        assert [policy.next_delay(k) for k in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_is_seeded(self):
        a = RetryPolicy(jitter=0.5, seed=3)
        b = RetryPolicy(jitter=0.5, seed=3)
        assert [a.next_delay(k) for k in range(5)] == [
            b.next_delay(k) for k in range(5)
        ]

    def test_injected_sleep_receives_delays(self):
        waits = []
        state = {"n": 0}

        def flaky():
            state["n"] += 1
            if state["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(
            retries=2, base_delay=1.0, factor=2.0, jitter=0.0, sleep=waits.append
        )
        assert policy.call(flaky) == "ok"
        assert waits == [1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


def breaker(**kwargs):
    """A breaker on an injectable clock; returns (breaker, clock dict)."""
    clock = {"t": 0.0}
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("cooldown", 10.0)
    kwargs.setdefault("jitter", 0.0)
    return CircuitBreaker(clock=lambda: clock["t"], **kwargs), clock


class TestCircuitBreaker:
    def test_starts_closed_and_stays_closed_below_threshold(self):
        cb, _ = breaker()
        for _ in range(2):
            cb.before_call()
            cb.record_failure()
        assert cb.state == "closed"

    def test_threshold_consecutive_failures_open_it(self):
        cb, _ = breaker()
        for _ in range(3):
            cb.before_call()
            cb.record_failure()
        assert cb.state == "open"
        with pytest.raises(CircuitOpenError) as info:
            cb.before_call()
        assert info.value.retry_in == pytest.approx(10.0)

    def test_success_resets_the_consecutive_count(self):
        cb, _ = breaker()
        for _ in range(2):
            cb.before_call()
            cb.record_failure()
        cb.before_call()
        cb.record_success()
        cb.before_call()
        cb.record_failure()
        assert cb.state == "closed"

    def test_cooldown_elapses_into_half_open_and_success_closes(self):
        cb, clock = breaker()
        for _ in range(3):
            cb.before_call()
            cb.record_failure()
        clock["t"] = 10.0
        cb.before_call()  # admitted probe
        assert cb.state == "half_open"
        cb.record_success()
        assert cb.state == "closed"
        assert cb.transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_half_open_probe_budget_fast_fails_the_rest(self):
        cb, clock = breaker(probe_budget=1)
        for _ in range(3):
            cb.before_call()
            cb.record_failure()
        clock["t"] = 10.0
        cb.before_call()  # takes the only probe slot
        with pytest.raises(CircuitOpenError, match="probe budget"):
            cb.before_call()

    def test_failed_probe_reopens_with_a_fresh_cooldown(self):
        cb, clock = breaker()
        for _ in range(3):
            cb.before_call()
            cb.record_failure()
        clock["t"] = 10.0
        cb.before_call()
        cb.record_failure()
        assert cb.state == "open"
        with pytest.raises(CircuitOpenError):
            cb.before_call()  # cooldown restarted at t=10
        clock["t"] = 20.0
        cb.before_call()
        assert cb.state == "half_open"

    def test_cooldown_jitter_is_seeded(self):
        a, clock_a = breaker(jitter=0.5, seed=3)
        b, clock_b = breaker(jitter=0.5, seed=3)
        for cb in (a, b):
            for _ in range(3):
                cb.before_call()
                cb.record_failure()
        with pytest.raises(CircuitOpenError) as info_a:
            a.before_call()
        with pytest.raises(CircuitOpenError) as info_b:
            b.before_call()
        assert info_a.value.retry_in == info_b.value.retry_in
        assert 10.0 <= info_a.value.retry_in <= 15.0

    def test_call_convenience_wraps_the_state_machine(self):
        cb, _ = breaker(failure_threshold=1)
        with pytest.raises(OSError):
            cb.call(_raise_oserror)
        assert cb.state == "open"
        with pytest.raises(CircuitOpenError):
            cb.call(lambda: "never runs")

    def test_transitions_and_fastfails_are_tallied(self):
        with installed(MetricsRegistry()) as registry:
            cb, clock = breaker(failure_threshold=1)
            cb.before_call()
            cb.record_failure()
            with pytest.raises(CircuitOpenError):
                cb.before_call()
            clock["t"] = 10.0
            cb.before_call()
            cb.record_success()
        snap = registry.snapshot()
        fastfails = snap["repro_client_breaker_fastfails_total"]
        assert fastfails["samples"][0]["value"] == 1
        transitions = {
            tuple(sorted(s["labels"].items()))[0][1]: s["value"]
            for s in snap["repro_client_breaker_transitions_total"]["samples"]
        }
        assert transitions == {
            "closed->open": 1.0,
            "open->half_open": 1.0,
            "half_open->closed": 1.0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_budget=0)
        with pytest.raises(ValueError):
            CircuitBreaker(jitter=-0.5)


def _raise_oserror():
    raise OSError("dead")
