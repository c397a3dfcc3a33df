"""The NWS CPU availability sensors (paper Section 2).

Three measurement methods, all non-privileged in the original system:

* :class:`LoadAverageSensor` -- paper Equation 1: a new full-priority
  process on a machine with one-minute load average L should obtain
  ``1 / (L + 1)`` of the CPU.
* :class:`VmstatSensor` -- paper Equation 2: the process is entitled to all
  idle time plus a fair share of user time and a user-proportional share of
  system time, ``idle + (user + w * sys) / (rq + 1)`` with ``w = user``.
* :class:`HybridSensor` -- both of the above, arbitrated and bias-corrected
  once per minute by a short (1.5 s) CPU probe: whichever method read
  closest to what the probe experienced is believed for the next five
  10-second readings, shifted by ``bias = probe - method``.

Ground truth comes from :class:`TestProcessRunner` -- the paper's
"test process": a full-priority CPU-bound process that reports the ratio of
CPU time received to wall-clock time elapsed (``getrusage()`` style).

:class:`MeasurementSuite` wires all of this onto one simulated host and
records the streams the experiment harness consumes.
"""

from repro.sensors.base import CPUSensor
from repro.sensors.hybrid import HybridSensor
from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.probe import ProbeRunner
from repro.sensors.suite import MeasurementSuite, TestObservation
from repro.sensors.testprocess import TestProcessRunner
from repro.sensors.vmstat import VmstatSensor

__all__ = [
    "CPUSensor",
    "HybridSensor",
    "LoadAverageSensor",
    "MeasurementSuite",
    "ProbeRunner",
    "TestObservation",
    "TestProcessRunner",
    "VmstatSensor",
]
