#!/usr/bin/env python
"""The NWS as a system: name server, memory, forecaster, sensors.

Deploys the (in-process) Network Weather Service over four simulated
hosts, lets it monitor them for two simulated hours, then plays the role
of a grid scheduler client -- everything through the one public API,
:class:`repro.nws.NWSClient`:

1. discover CPU sensors through the name server;
2. query the forecaster for each host's availability with its error bar;
3. place a task on the best host and check how the forecast did;
4. demonstrate memory persistence: a durable core journals every
   publish, so the history survives a "restart" of the memory
   component (``client.recover``).

Run:  python examples/nws_service_demo.py
"""

import tempfile

from repro.nws import NWSClient, NWSSystem, ServiceCore


def main() -> None:
    system = NWSSystem(["thing1", "thing2", "conundrum", "kongo"], seed=5)
    print("monitoring 4 hosts for 2 simulated hours ...")
    system.advance(2 * 3600.0)

    # The client queries the service core the sensors publish into; the
    # same calls would work over HTTP via NWSClient.connect(url) against
    # `nws-repro serve`.
    client = system.client()

    print("\nname-server discovery:")
    for registration in client.lookup("sensor", resource="cpu"):
        print(f"  {registration.name}")
    registrations = client.lookup()
    print(f"  ({len(registrations)} live components total, incl. "
          f"memory.main and forecaster.main)")

    print(f"\n{'host':12s} {'forecast':>9s} {'error bar':>10s} "
          f"{'method':>20s} {'samples':>8s}")
    hosts = [h.profile for h in system.hosts]
    reports = {
        host: client.query(system.series_name(host, "load_average"))
        for host in hosts
    }
    for host, report in reports.items():
        print(f"{host:12s} {100 * report.forecast:8.1f}% "
              f"{100 * report.error:9.2f}% {report.method:>20s} "
              f"{report.n_measurements:8d}")

    best = max(reports, key=lambda h: reports[h].forecast)
    print(f"\na scheduler would place the next task on: {best}")
    print("(note kongo/conundrum read ~50% through load average; the")
    print(" hybrid view would say otherwise -- try method='nws_hybrid')")

    # --- persistence: replay a series into a durable core (what
    # `nws-repro serve --state-dir` runs), "restart" its memory and
    # recover the series from the journal.
    series = system.series_name("thing1", "load_average")
    times, values = client.fetch(series)
    with tempfile.TemporaryDirectory() as tmp:
        core = ServiceCore(directory=tmp)
        durable = NWSClient.in_process(core)
        for t, v in zip(times, values):
            durable.publish(series, time=float(t), value=float(v))
        recovered = durable.recover(series)
        core.close()
    print(f"\nmemory restart: {recovered} of {len(times)} samples "
          f"recovered from the journal")
    assert recovered == len(times)


if __name__ == "__main__":
    main()
