"""The NWS hybrid CPU sensor (paper Section 2.1).

The hybrid combines the two cheap methods with an occasional probe:

1. Every measurement period (10 s) the suite reads the load-average and
   vmstat sensors; the hybrid consumes those readings (it does not re-read
   the underlying sensors, because a second vmstat read would corrupt the
   counter-differencing interval -- the real NWS likewise derives all three
   reports from one measurement pass).
2. Once per probe period (60 s) a 1.5 s CPU probe runs.  When it finishes,
   the cheap method whose latest reading is *closest* to what the probe
   experienced becomes the trusted method for subsequent readings, and the
   difference ``bias = probe - method`` is recorded.
3. Every subsequent reading reports ``trusted_method_reading + bias``,
   clamped to [0, 1].

The bias is the hybrid's answer to nice'd background processes (which the
cheap methods wrongly count as load: the probe preempts them and pushes the
reported availability back up), and also its downfall on kongo (the probe
preempts a *full-priority* long-running job too, biasing readings upward
when the truth for a 10 s process is much lower).
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.sensors.base import CPUSensor
from repro.sensors.loadavg import LoadAverageSensor
from repro.sensors.probe import ProbeResult, ProbeRunner
from repro.sensors.vmstat import VmstatSensor
from repro.sim.kernel import Kernel

__all__ = ["HybridSensor"]


class HybridSensor(CPUSensor):
    """Probe-arbitrated, bias-corrected combination of both cheap methods.

    Parameters
    ----------
    loadavg, vmstat:
        The constituent sensors.  The hybrid only consults their
        ``last_availability``; the measurement suite is responsible for reading
        them once per period *before* reading the hybrid.
    probe:
        The :class:`~repro.sensors.probe.ProbeRunner` used for arbitration.

    Notes
    -----
    The sensor does not schedule its own probes -- call :meth:`run_probe`
    (the measurement suite does this once per minute).  Until the first
    probe completes, the hybrid trusts the load-average method with zero
    bias.
    """

    name = "nws_hybrid"

    def __init__(
        self,
        loadavg: LoadAverageSensor,
        vmstat: VmstatSensor,
        probe: ProbeRunner | None = None,
    ):
        super().__init__()
        self.loadavg = loadavg
        self.vmstat = vmstat
        self.probe = probe if probe is not None else ProbeRunner()
        self._trusted: CPUSensor = self.loadavg
        self._bias = 0.0
        #: (time, trusted method name, bias) per arbitration, for analysis.
        self.arbitrations: list[tuple[float, str, float]] = []
        registry = get_registry()
        self._obs_arbitrations = {
            sensor.name: registry.counter(
                "repro_sensor_arbitrations_total", method=sensor.name
            )
            for sensor in (self.loadavg, self.vmstat)
        }

    @property
    def trusted_method(self) -> str:
        """Name of the method currently believed."""
        return self._trusted.name

    @property
    def bias(self) -> float:
        """Additive correction currently applied."""
        return self._bias

    def run_probe(self, kernel: Kernel) -> None:
        """Launch one arbitration probe now."""

        def arbitrate(result: ProbeResult):
            la = self.loadavg.last_availability
            vm = self.vmstat.last_availability
            truth = result.availability
            if abs(la - truth) <= abs(vm - truth):
                self._trusted = self.loadavg
                method_value = la
            else:
                self._trusted = self.vmstat
                method_value = vm
            self._bias = truth - method_value
            self.arbitrations.append((kernel.time, self._trusted.name, self._bias))
            self._obs_arbitrations[self._trusted.name].inc()

        self.probe.launch(kernel, arbitrate)

    def _measure(self, kernel: Kernel) -> float:
        # read_availability clamps the sum into [0, 1].
        return self._trusted.last_availability + self._bias
