#!/usr/bin/env python
"""Full circle: record a real trace, replay it in the simulator.

1. Sample this machine's availability with the live /proc sensors (or, on
   non-Linux platforms, synthesize a plausible trace instead).
2. Replay the recorded availability as background load on a simulated
   host (the replay inverts Equation 1 into a run-queue reconstruction).
3. Run the full NWS suite against the replayed machine and check the
   sensed availability tracks the recording.

This is how archival NWS traces — or your own production measurements —
can be studied under the simulator's controlled conditions.

Run:  python examples/trace_replay.py
"""

import numpy as np

from repro.sensors import MeasurementSuite
from repro.sim import SimHost
from repro.trace.series import TraceSeries
from repro.workload import TraceReplayWorkload


def record_or_synthesize(samples: int = 12) -> TraceSeries:
    try:
        from repro.live import LiveMonitor

        print(f"recording {samples} live samples from this machine ...")
        monitor = LiveMonitor(measure_period=0.5, probe_period=None)
        return monitor.run(samples)["load_average"]
    except RuntimeError:
        print("no /proc here; synthesizing a trace instead")
        rng = np.random.default_rng(0)
        values = np.clip(0.7 + 0.15 * rng.standard_normal(samples), 0.05, 1.0)
        return TraceSeries("synthetic", "load_average",
                           0.5 * np.arange(samples), values)


def main() -> None:
    recorded = record_or_synthesize()
    print(f"recorded from {recorded.host!r}: "
          f"{[f'{100 * v:.0f}%' for v in recorded.values]}")

    # Stretch the recording to minutes so the simulated load average can
    # settle at each level (the live demo samples fast to stay snappy).
    stretched = TraceSeries(
        recorded.host, recorded.method,
        300.0 * np.arange(len(recorded)), recorded.values,
    )

    host = SimHost("replayed-" + recorded.host, seed=1)
    host.attach(TraceReplayWorkload(stretched))
    suite = MeasurementSuite(test_period=None, warmup=0.0).attach(host)
    host.run_until(stretched.duration + 300.0)

    times, sensed = suite.series("load_average")
    print("\nreplay fidelity (availability at the end of each segment):")
    print(f"{'segment':>8s} {'recorded':>9s} {'replayed':>9s}")
    errors = []
    for i, target in enumerate(stretched.values):
        at = stretched.times[i] + 290.0
        j = int(np.searchsorted(times, at)) - 1
        sensed_value = sensed[max(j, 0)]
        errors.append(abs(sensed_value - target))
        print(f"{i:8d} {100 * target:8.1f}% {100 * sensed_value:8.1f}%")
    print(f"\nmean absolute replay error: {100 * np.mean(errors):.1f}%")


if __name__ == "__main__":
    main()
