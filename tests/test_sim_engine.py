"""Tests for repro.sim.engine (the event queue)."""

import pytest

from repro.sim.engine import EventQueue


class TestEventQueue:
    def test_fifo_within_same_deadline(self):
        q = EventQueue()
        order = []
        q.schedule(1.0, lambda: order.append("a"))
        q.schedule(1.0, lambda: order.append("b"))
        q.schedule(1.0, lambda: order.append("c"))
        for cb in q.pop_due(1.0):
            cb()
        assert order == ["a", "b", "c"]

    def test_deadline_order(self):
        q = EventQueue()
        order = []
        q.schedule(3.0, lambda: order.append(3))
        q.schedule(1.0, lambda: order.append(1))
        q.schedule(2.0, lambda: order.append(2))
        for cb in q.pop_due(10.0):
            cb()
        assert order == [1, 2, 3]

    def test_pop_due_leaves_future_events(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(5.0, lambda: None)
        assert len(q.pop_due(2.0)) == 1
        assert len(q) == 1
        assert q.next_time() == 5.0

    def test_next_time_empty_is_inf(self):
        assert EventQueue().next_time() == float("inf")

    def test_clear(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.clear()
        assert len(q) == 0

    def test_invalid_times_rejected(self):
        # NaN in particular would silently corrupt the heap invariant (it
        # compares false against everything), so schedule() must refuse it
        # loudly rather than let later events pop out of order.
        q = EventQueue()
        for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                q.schedule(bad, lambda: None)
            assert len(q) == 0

    def test_n_scheduled_counts_accepted_events_only(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        with pytest.raises(ValueError):
            q.schedule(float("nan"), lambda: None)
        assert q.n_scheduled == 2
        q.pop_due(5.0)
        assert q.n_scheduled == 2  # lifetime tally, not queue depth

    def test_len(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i + 1), lambda: None)
        assert len(q) == 5


class TestHorizonDiscipline:
    """Monotonic pops and no scheduling into the past (the batch engine's
    fused loops depend on both never happening silently)."""

    def test_non_monotonic_pop_rejected(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        q.pop_due(5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            q.pop_due(2.0)

    def test_schedule_behind_horizon_rejected(self):
        q = EventQueue()
        q.pop_due(100.0)
        with pytest.raises(ValueError, match="into the past"):
            q.schedule(50.0, lambda: None)
        assert q.n_scheduled == 0

    def test_immediate_events_at_horizon_accepted(self):
        # The kernel pops with now = time + eps and schedules "immediate"
        # events at time itself -- one epsilon behind the horizon must
        # stay legal.
        q = EventQueue()
        q.pop_due(10.0 + 1e-9)
        q.schedule(10.0, lambda: None)
        assert len(q) == 1

    def test_equal_pop_times_accepted(self):
        q = EventQueue()
        q.pop_due(5.0)
        assert q.pop_due(5.0) == []
