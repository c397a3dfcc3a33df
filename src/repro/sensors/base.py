"""Sensor interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.contracts import ensure_fraction
from repro.sim.kernel import Kernel

__all__ = ["CPUSensor", "clamp_fraction"]


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


class CPUSensor(ABC):
    """A CPU availability measurement method.

    Sensors are attached to one kernel, then polled via
    :meth:`read_availability`; they may keep internal state between reads
    (vmstat differences counters, the hybrid applies probe bias).
    :attr:`last_availability` is the most recent value, used by the
    test-process harness to grab "the measurement taken most immediately
    before the test process executes" (paper Section 2.2).
    """

    #: Short method name used as a column key in tables.
    name: str = "base"

    def __init__(self):
        self._last: float | None = None

    @abstractmethod
    def _measure(self, kernel: Kernel) -> float:
        """Compute the current availability fraction."""

    def read_availability(self, kernel: Kernel) -> float:
        """Take a measurement now, remember it and return the availability.

        The clamp bounds overshoot; :func:`~repro.contracts.ensure_fraction`
        then catches what a clamp cannot -- NaN from a broken formula would
        otherwise poison every downstream forecast.
        """
        availability = self._measure(kernel)
        if not 0.0 <= availability <= 1.0:  # the clamp is a no-op inside
            availability = clamp_fraction(availability)
            if not 0.0 <= availability <= 1.0:  # NaN
                ensure_fraction(availability, name=f"sensor {self.name!r} reading")
        self._last = availability
        return availability

    @property
    def last_availability(self) -> float:
        """Availability of the most recent reading.

        Raises
        ------
        ValueError
            If the sensor has never been read.
        """
        value = self._last
        if value is None:
            raise ValueError(f"sensor {self.name!r} has no readings yet")
        return value
