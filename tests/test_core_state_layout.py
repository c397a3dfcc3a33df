"""The list windows and the flat mixture error ring against deque references.

:mod:`repro.core.windows` keeps each window in a plain ``list`` and
:class:`repro.core.mixture.ForecasterBank` keeps every member's recent
errors in one flat ``array('d')`` ring, so that per-series state grows
with the samples held.  Both must compute exactly what the earlier
layouts computed: one ``collections.deque`` per window, and one
deque-backed running-mean window per battery member.  Those layouts are
copied here as references, and generated inputs -- capacities across
the eviction boundary, ties, signed zeros, constants and NaN gaps --
must give bit-identical results.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, insort
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forecasters import default_battery
from repro.core.mixture import SWITCH_HISTORY, ForecasterBank
from repro.core.windows import RingMean, RingMedian, RingTrimmedMean


def bits(x: float) -> bytes:
    """A float's IEEE-754 bytes: tells -0.0 from 0.0, and NaN equals NaN."""
    return struct.pack("<d", x)


# ---------------------------------------------------------------- references


class DequeMean:
    """The deque-backed RingMean the list window replaced."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._buffer: deque[float] = deque()
        self._total = 0.0
        self._base = 0.0

    def push(self, value: float) -> None:
        self._buffer.append(value)
        self._total += value
        if len(self._buffer) > self._capacity:
            self._base += self._buffer.popleft()

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def mean(self) -> float:
        return (self._total - self._base) / len(self._buffer)

    def values(self) -> list[float]:
        return list(self._buffer)


class DequeMedian:
    """The deque-backed RingMedian the list window replaced."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._buffer: deque[float] = deque()
        self._sorted: list[float] = []

    def push(self, value: float) -> None:
        self._buffer.append(value)
        insort(self._sorted, value)
        if len(self._buffer) > self._capacity:
            oldest = self._buffer.popleft()
            del self._sorted[bisect_left(self._sorted, oldest)]

    @property
    def median(self) -> float:
        n = len(self._sorted)
        mid = n // 2
        if n % 2:
            return self._sorted[mid]
        return 0.5 * (self._sorted[mid - 1] + self._sorted[mid])

    def quantile(self, q: float) -> float:
        return self._sorted[min(int(q * len(self._sorted)), len(self._sorted) - 1)]

    def values(self) -> list[float]:
        return list(self._buffer)


class DequeTrimmedMean(DequeMedian):
    def __init__(self, capacity: int, trim: int):
        super().__init__(capacity)
        self._trim = trim

    @property
    def trimmed_mean(self) -> float:
        if len(self._sorted) > 2 * self._trim:
            kept = self._sorted[self._trim : len(self._sorted) - self._trim]
        else:
            kept = self._sorted
        return sum(kept) / len(kept)


class DequeBank:
    """ForecasterBank's scoring as it was: one DequeMean per member."""

    def __init__(self, forecasters, error_window: int):
        self.forecasters = forecasters
        self.errors = [DequeMean(error_window) for _ in forecasters]
        self.pending = None
        self.count = 0
        self.cum_abs = [0.0] * len(forecasters)
        self.n_scored = 0
        self.wins = [0] * len(forecasters)
        self.best = 0
        self.switches: list[tuple[int, str, str]] = []

    def update(self, value: float) -> None:
        if value != value:
            return
        scored = self.pending is not None
        if scored:
            for i, (ring, predicted) in enumerate(zip(self.errors, self.pending)):
                err = abs(predicted - value)
                ring.push(err)
                self.cum_abs[i] += err
            self.n_scored += 1
        for forecaster in self.forecasters:
            forecaster.update(value)
        self.pending = [f.forecast() for f in self.forecasters]
        self.count += 1
        if scored:
            best = 0
            best_error = float("inf")
            for i, ring in enumerate(self.errors):
                if len(ring) and ring.mean < best_error:
                    best_error = ring.mean
                    best = i
            self.wins[best] += 1
            if best != self.best:
                self.switches.append(
                    (self.count, self.forecasters[self.best].name, self.forecasters[best].name)
                )
                self.best = best

    def recent_errors(self) -> list[float]:
        return [ring.mean if len(ring) else math.nan for ring in self.errors]

    def cumulative_mae(self) -> list[float]:
        return [c / self.n_scored if self.n_scored else math.nan for c in self.cum_abs]


# ---------------------------------------------------------------- strategies

#: Few distinct values, signed zeros among them: sorted windows full of ties.
TIES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5000000000000001, 1.0, -3.0])
SPREAD = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def window_cases(draw):
    capacity = draw(st.integers(min_value=1, max_value=60))
    # Up to three windows' worth, so runs end before, at and past eviction.
    length = draw(st.integers(min_value=1, max_value=3 * capacity + 2))
    kind = draw(st.sampled_from(["spread", "ties", "constant"]))
    if kind == "constant":
        values = [draw(st.one_of(TIES, SPREAD))] * length
    else:
        element = SPREAD if kind == "spread" else TIES
        values = draw(st.lists(element, min_size=length, max_size=length))
    return capacity, values


@st.composite
def mixture_cases(draw):
    error_window = draw(st.sampled_from([1, 2, 50]))
    length = draw(st.integers(min_value=1, max_value=120))
    element = st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        TIES,
        st.just(math.nan),
    )
    kind = draw(st.sampled_from(["mixed", "constant", "square"]))
    if kind == "constant":
        values = [draw(TIES)] * length
    elif kind == "square":
        # Alternating levels make the winner change often, past the
        # retained switch history.
        values = [0.05 if i % 2 else 0.95 for i in range(length)]
    else:
        values = draw(st.lists(element, min_size=length, max_size=length))
    return error_window, values


# --------------------------------------------------------------------- tests


class TestListWindowsMatchDeques:
    @given(window_cases())
    @settings(max_examples=300, deadline=None)
    def test_ring_mean(self, case):
        capacity, values = case
        ring, reference = RingMean(capacity), DequeMean(capacity)
        for v in values:
            ring.push(v)
            reference.push(v)
            assert len(ring) == len(reference)
            assert list(map(bits, ring.values())) == list(map(bits, reference.values()))
            assert bits(ring.mean) == bits(reference.mean)

    @given(window_cases(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_ring_median(self, case, q):
        capacity, values = case
        ring, reference = RingMedian(capacity), DequeMedian(capacity)
        for v in values:
            ring.push(v)
            reference.push(v)
            assert list(map(bits, ring.values())) == list(map(bits, reference.values()))
            assert bits(ring.median) == bits(reference.median)
            assert bits(ring.quantile(q)) == bits(reference.quantile(q))

    @given(window_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ring_trimmed_mean(self, case, data):
        capacity, values = case
        trim = data.draw(st.integers(min_value=0, max_value=(capacity - 1) // 2))
        ring = RingTrimmedMean(capacity, trim)
        reference = DequeTrimmedMean(capacity, trim)
        for v in values:
            ring.push(v)
            reference.push(v)
            assert list(map(bits, ring.values())) == list(map(bits, reference.values()))
            assert bits(ring.trimmed_mean) == bits(reference.trimmed_mean)
            assert bits(ring.median) == bits(reference.median)


class TestFlatErrorRingMatchesPerMemberWindows:
    @given(mixture_cases())
    @settings(max_examples=120, deadline=None)
    def test_bank(self, case):
        error_window, values = case
        bank = ForecasterBank(default_battery(), error_window=error_window)
        reference = DequeBank(default_battery(), error_window)
        for v in values:
            bank.update(v)
            reference.update(v)
            if reference.pending is None:
                continue
            assert list(map(bits, bank.forecasts().values())) == list(
                map(bits, reference.pending)
            )
            assert list(map(bits, bank.recent_errors().values())) == list(
                map(bits, reference.recent_errors())
            )
            assert bank.best_name() == reference.forecasters[reference.best].name
        assert bank.n_switches == len(reference.switches)
        assert bank.switch_events == reference.switches[-SWITCH_HISTORY:]
        telemetry = bank.telemetry()
        assert [row["wins"] for row in telemetry.values()] == reference.wins
        assert [bits(row["cumulative_mae"]) for row in telemetry.values()] == list(
            map(bits, reference.cumulative_mae())
        )
        assert [bits(row["recent_mae"]) for row in telemetry.values()] == list(
            map(bits, reference.recent_errors())
        )
        assert all(row["n_scored"] == reference.n_scored for row in telemetry.values())

    def test_switch_history_is_bounded_and_the_count_exact(self):
        bank = ForecasterBank(default_battery(), error_window=1)
        reference = DequeBank(default_battery(), 1)
        for i in range(400):
            v = 0.05 if i % 2 else 0.95
            bank.update(v)
            reference.update(v)
        assert len(reference.switches) > SWITCH_HISTORY
        assert bank.n_switches == len(reference.switches)
        assert bank.switch_events == reference.switches[-SWITCH_HISTORY:]

    def test_error_window_below_one_is_rejected(self):
        for window in (0, -1):
            with pytest.raises(ValueError, match="error_window"):
                ForecasterBank(error_window=window)
