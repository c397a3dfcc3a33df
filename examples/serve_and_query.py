#!/usr/bin/env python
"""The NWS as a service: one server process, clients over HTTP.

Starts a :class:`repro.nws.ForecastServer` on an ephemeral port (the
same server ``nws-repro serve`` runs), then talks to it the way a remote
grid scheduler would -- through :class:`repro.nws.NWSClient.connect`,
whose API is exactly the in-process client's:

1. register this "sensor" with the server's name server (TTL'd);
2. publish a morning of CPU-availability measurements;
3. query forecasts with error bars, at horizon 1 and horizon 30;
4. trip the typed error envelopes: an unknown series comes back as the
   same :class:`~repro.nws.SeriesUnavailable` the in-process transport
   raises (HTTP 404 on the wire), an unknown tenant as
   :class:`~repro.nws.UnknownTenant` (403).

Run:  python examples/serve_and_query.py
"""

import math

import numpy as np

from repro.nws import (
    ForecastServer,
    NWSClient,
    SeriesUnavailable,
    ServiceCore,
    UnknownTenant,
)


def main() -> None:
    with ForecastServer(ServiceCore(tenants=("default", "hpc"))) as server:
        print(f"forecast server at {server.url} "
              f"(tenants: {', '.join(server.core.tenant_names())})")

        with NWSClient.connect(server.url) as client:
            client.register(
                "sensor.example", "sensor",
                {"resource": "cpu", "host": "example"}, ttl=3600.0,
            )

            # A morning of 10-second measurements: mostly-idle machine
            # with a periodic background job eating CPU.
            rng = np.random.default_rng(11)
            series = "cpu.example.nws_hybrid"
            for i in range(1080):
                t = 10.0 * i
                value = 0.9 - 0.35 * (math.sin(t / 600.0) > 0.6)
                value = min(1.0, max(0.0, value + rng.normal(0.0, 0.02)))
                client.publish(series, time=t, value=value)

            for horizon in (1, 30):
                report = client.query(series, horizon=horizon)
                print(f"horizon {horizon:>2}: forecast "
                      f"{100 * report.forecast:5.1f}% +/- "
                      f"{100 * report.error:4.2f}% "
                      f"({report.method}, n={report.n_measurements})")

            sensors = client.lookup("sensor", resource="cpu")
            print(f"registered sensors: {[r.name for r in sensors]}")

            try:
                client.query("cpu.nonexistent.nws_hybrid")
            except SeriesUnavailable as exc:
                print(f"typed 404 over the wire: {exc}")

            try:
                client.for_tenant("nobody").series_names()
            except UnknownTenant as exc:
                print(f"typed 403 over the wire: {exc}")

            # Tenants are isolated: "hpc" has its own empty data plane.
            print(f"tenant 'hpc' series: "
                  f"{client.for_tenant('hpc').series_names()}")
            print(f"health: {client.health()}")

    print("server stopped")


if __name__ == "__main__":
    main()
