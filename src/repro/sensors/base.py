"""Sensor interface and reading record."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.contracts import ensure_fraction
from repro.sim.kernel import Kernel

__all__ = ["CPUSensor", "SensorReading", "clamp_fraction"]


def clamp_fraction(value: float) -> float:
    """Clamp a derived availability into [0, 1].

    Sensor formulas can overshoot marginally (bias correction, float
    noise); availability is a fraction by definition.
    """
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


@dataclass(frozen=True)
class SensorReading:
    """One availability measurement.

    Attributes
    ----------
    time:
        Simulated timestamp of the reading.
    availability:
        Fraction of the CPU a new full-priority process is predicted to
        obtain, in [0, 1].
    """

    time: float
    availability: float


class CPUSensor(ABC):
    """A CPU availability measurement method.

    Sensors are attached to one kernel, then polled via :meth:`read`; they
    may keep internal state between reads (vmstat differences counters, the
    hybrid applies probe bias).  ``last_reading`` is the most recent value,
    used by the test-process harness to grab "the measurement taken most
    immediately before the test process executes" (paper Section 2.2).
    """

    #: Short method name used as a column key in tables.
    name: str = "base"

    def __init__(self):
        self._last: SensorReading | None = None

    @abstractmethod
    def _measure(self, kernel: Kernel) -> float:
        """Compute the current availability fraction."""

    def read(self, kernel: Kernel) -> SensorReading:
        """Take a measurement now and remember it.

        The clamp bounds overshoot; :func:`~repro.contracts.ensure_fraction`
        then catches what a clamp cannot -- NaN from a broken formula would
        otherwise poison every downstream forecast (disable via
        ``REPRO_CONTRACTS=0``).
        """
        availability = ensure_fraction(
            clamp_fraction(self._measure(kernel)),
            name=f"sensor {self.name!r} reading",
        )
        reading = SensorReading(kernel.time, availability)
        self._last = reading
        return reading

    @property
    def last_reading(self) -> SensorReading:
        """Most recent reading.

        Raises
        ------
        ValueError
            If the sensor has never been read.
        """
        if self._last is None:
            raise ValueError(f"sensor {self.name!r} has no readings yet")
        return self._last
