"""Bounded, seeded retry and circuit-breaking policies.

Ad-hoc retry loops are how distributed systems hide failures: they spin
forever, sleep off the simulated clock, and leave no trace of how often
they fired.  :class:`RetryPolicy` is the one sanctioned way to retry in
the service layer (``tests/test_invariants.py`` holds ``repro.nws`` and
``repro.runner`` to it): attempts are bounded, backoff delays come from a
seeded generator so runs stay bit-reproducible, waiting is injected (a
sim-clock sleep, or nothing at all for in-process re-execution), and
every retry is tallied on the installed metrics registry.

:class:`CircuitBreaker` is the layer above: where a retry policy decides
how one operation recovers, the breaker decides whether new operations
should be attempted *at all* after a run of failures -- closed (normal),
open (fail fast for a seeded cooldown), half-open (a bounded probe
budget tests whether the server came back).
:class:`~repro.nws.client.NWSClient` composes both: breaker outside,
retries inside.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.obs.metrics import get_registry

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryError",
    "RetryPolicy",
    "seed_entropy",
]

#: Domain separator (b"RETR") keeping jitter draws independent of every
#: other stream derived from the same root seed.
_JITTER_STREAM = 0x52455452

#: Domain separator (b"BRKR") for circuit-breaker cooldown jitter.
_BREAKER_STREAM = 0x42524B52


def seed_entropy(seed) -> tuple[int, ...]:
    """Normalise an int / int-sequence / SeedSequence seed to entropy ints."""
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (int, np.integer)):
            return (int(entropy),)
        return tuple(int(x) for x in entropy)
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(x) for x in seed)


class RetryError(RuntimeError):
    """Every attempt of a retried operation failed.

    ``__cause__`` carries the last underlying exception.
    """


class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter.

    The *k*-th retry waits ``min(base_delay * factor**k, max_delay) *
    (1 + jitter * u_k)`` where ``u_k`` is uniform on [0, 1) from the
    policy's own seeded generator -- jittered like production backoff, but
    reproducible.

    Parameters
    ----------
    retries:
        Retries after the first attempt (so ``retries + 1`` attempts in
        total).
    base_delay / factor / max_delay:
        Exponential backoff shape, in (simulated) seconds.
    jitter:
        Fractional jitter amplitude (0 disables it).
    seed:
        Root seed (int, int sequence, or SeedSequence) for the jitter
        stream.
    sleep:
        One-argument callable that performs the wait -- typically a
        sim-clock advance.  ``None`` (default) retries without waiting,
        which is right for in-process re-execution (e.g. re-simulating a
        host after a worker crash).
    """

    def __init__(
        self,
        *,
        retries: int = 2,
        base_delay: float = 1.0,
        factor: float = 2.0,
        max_delay: float = 60.0,
        jitter: float = 0.5,
        seed=0,
        sleep: Callable[[float], None] | None = None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if base_delay < 0.0:
            raise ValueError(f"base_delay must be >= 0, got {base_delay}")
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if max_delay < base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.retries = int(retries)
        self.base_delay = float(base_delay)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self._sleep = sleep
        self._rng = np.random.default_rng(
            np.random.SeedSequence((*seed_entropy(seed), _JITTER_STREAM))
        )
        self.attempts = 0
        self.failures = 0
        self.retries_used = 0
        registry = get_registry()
        self._obs_retries = registry.counter("repro_faults_retries_total")
        self._obs_exhausted = registry.counter("repro_faults_retry_exhausted_total")

    def next_delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based); consumes one draw."""
        delay = min(self.base_delay * self.factor**retry_index, self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * float(self._rng.random())
        return delay

    def call(
        self,
        fn: Callable,
        *args,
        describe: str = "operation",
        on_retry: Callable[[int, BaseException | None, float], None] | None = None,
        attempts_used: int = 0,
        **kwargs,
    ):
        """Invoke ``fn(*args, **kwargs)``, retrying on ``Exception``.

        Parameters
        ----------
        describe:
            Human label for the operation, used in the failure message.
        on_retry:
            Called before each retry with ``(attempt_number,
            last_exception, delay)``; attempt numbers are 1-based over the
            whole operation.
        attempts_used:
            Attempts already consumed out-of-band -- e.g. the first try
            ran in a worker pool -- shrinking the in-call budget so the
            total stays ``retries + 1``.  When positive, every in-call
            attempt counts (and waits) as a retry.

        Raises
        ------
        RetryError
            After the budget is exhausted; chained from the last failure.
        """
        attempts_used = int(attempts_used)
        budget = self.retries + 1 - attempts_used
        if budget < 1:
            raise ValueError(
                f"attempts_used={attempts_used} exhausts the budget of "
                f"{self.retries + 1} attempts"
            )
        last: BaseException | None = None
        for attempt in range(budget):
            if attempt or attempts_used:
                delay = self.next_delay(attempts_used + attempt - 1)
                self.retries_used += 1
                self._obs_retries.inc()
                if on_retry is not None:
                    on_retry(attempts_used + attempt, last, delay)
                if self._sleep is not None and delay > 0.0:
                    self._sleep(delay)
            self.attempts += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                last = exc
                self.failures += 1
        self._obs_exhausted.inc()
        raise RetryError(
            f"{describe} failed after {self.retries + 1} attempt(s): {last!r}"
        ) from last


class CircuitOpenError(RuntimeError):
    """Fast failure: the circuit breaker refused to attempt the call.

    Attributes
    ----------
    retry_in:
        Seconds until the breaker will transition to half-open and allow
        a probe (0.0 when it is half-open but the probe budget is taken).
    """

    def __init__(self, message: str, *, retry_in: float = 0.0):
        self.retry_in = float(retry_in)
        super().__init__(message)


class CircuitBreaker:
    """Seeded closed / open / half-open circuit breaker.

    State machine:

    * **closed** -- calls flow; ``failure_threshold`` *consecutive*
      failures open the circuit.
    * **open** -- every call fails fast with :class:`CircuitOpenError`
      until a jittered cooldown elapses.  The cooldown is drawn from the
      breaker's own seeded generator (``cooldown * (1 + jitter * u)``),
      so a fleet of clients sharing a seed base still de-synchronizes
      its retry stampede reproducibly.
    * **half-open** -- at most ``probe_budget`` concurrent probe calls
      are admitted; one success closes the circuit, one failure reopens
      it (with a fresh cooldown draw).

    Thread-safe; transitions are tallied as
    ``repro_client_breaker_transitions_total{transition="closed->open"}``
    and fast-fails as ``repro_client_breaker_fastfails_total``.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) that open the circuit.
    cooldown:
        Base open-state duration in clock seconds.
    probe_budget:
        Concurrent trial calls admitted while half-open.
    jitter / seed:
        Cooldown jitter amplitude and its seed stream.
    clock:
        Zero-argument monotonic time source (injectable for tests and
        sim clocks; defaults to :func:`time.monotonic`).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 1.0,
        probe_budget: int = 1,
        jitter: float = 0.5,
        seed=0,
        clock: Callable[[], float] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0.0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        if probe_budget < 1:
            raise ValueError(f"probe_budget must be >= 1, got {probe_budget}")
        if jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self.probe_budget = int(probe_budget)
        self.jitter = float(jitter)
        self._clock = clock if clock is not None else time.monotonic
        self._rng = np.random.default_rng(
            np.random.SeedSequence((*seed_entropy(seed), _BREAKER_STREAM))
        )
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._open_for = 0.0
        self._probes_inflight = 0
        self.transitions: list[tuple[str, str]] = []
        registry = get_registry()
        self._obs_transitions: dict[str, object] = {}
        self._obs_fastfails = registry.counter(
            "repro_client_breaker_fastfails_total"
        )

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition_locked(self, new_state: str) -> None:
        old = self._state
        self._state = new_state
        self.transitions.append((old, new_state))
        label = f"{old}->{new_state}"
        counter = self._obs_transitions.get(label)
        if counter is None:
            counter = get_registry().counter(
                "repro_client_breaker_transitions_total", transition=label
            )
            self._obs_transitions[label] = counter
        counter.inc()

    def _open_locked(self) -> None:
        self._opened_at = self._clock()
        self._open_for = self.cooldown
        if self.jitter:
            self._open_for *= 1.0 + self.jitter * float(self._rng.random())
        self._consecutive_failures = 0
        self._probes_inflight = 0
        self._transition_locked(self.OPEN)

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when refused.

        An admitted call MUST be concluded with :meth:`record_success`
        or :meth:`record_failure` (half-open probe slots are returned
        there).
        """
        with self._lock:
            if self._state == self.OPEN:
                remaining = self._opened_at + self._open_for - self._clock()
                if remaining > 0.0:
                    self._obs_fastfails.inc()
                    raise CircuitOpenError(
                        f"circuit open; retry in {remaining:.3f}s",
                        retry_in=remaining,
                    )
                self._transition_locked(self.HALF_OPEN)
            if self._state == self.HALF_OPEN:
                if self._probes_inflight >= self.probe_budget:
                    self._obs_fastfails.inc()
                    raise CircuitOpenError(
                        "circuit half-open and probe budget is taken"
                    )
                self._probes_inflight += 1

    def record_success(self) -> None:
        """Conclude an admitted call that succeeded."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._probes_inflight = 0
                self._transition_locked(self.CLOSED)

    def record_failure(self) -> None:
        """Conclude an admitted call that failed."""
        with self._lock:
            if self._state == self.HALF_OPEN:
                # The probe proved the server is still down: reopen with
                # a fresh cooldown draw.
                self._open_locked()
            elif self._state == self.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._open_locked()

    def call(self, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` guarded by the breaker."""
        self.before_call()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
