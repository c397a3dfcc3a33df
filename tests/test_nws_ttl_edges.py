"""TTL edge cases of the name server: expiry is the NWS crash detector,
so behaviour exactly at the deadline and across lapse/restart matters."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.nws.errors import RegistrationLapsed
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer
from repro.nws.sensorhost import SensorHost
from repro.nws.system import NWSSystem
from repro.obs import MetricsRegistry, installed


def clocked():
    clock = {"t": 0.0}
    return clock, NameServer(clock=lambda: clock["t"])


class TestExpiryBoundary:
    def test_refresh_exactly_at_expiry_is_dead(self):
        # Expiry is inclusive (expires_at <= now): at t == expires_at the
        # registration has lapsed and cannot be refreshed -- a sensor that
        # arrives exactly on the deadline missed it.
        clock, ns = clocked()
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        clock["t"] = 30.0
        with pytest.raises(RegistrationLapsed, match="sensor.cpu.a"):
            ns.refresh("sensor.cpu.a", ttl=30.0)

    def test_refresh_one_tick_before_expiry_lives(self):
        clock, ns = clocked()
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        clock["t"] = 29.999
        ns.refresh("sensor.cpu.a", ttl=30.0)
        clock["t"] = 59.0
        assert ns.get("sensor.cpu.a").expires_at == pytest.approx(59.999)

    def test_lookup_racing_expiry_purges_the_entry(self):
        clock, ns = clocked()
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        clock["t"] = 30.0
        assert ns.lookup("sensor") == []
        # The lookup garbage-collected the lapsed entry, not just hid it.
        assert len(ns._entries) == 0
        with pytest.raises(RegistrationLapsed):
            ns.get("sensor.cpu.a")

    def test_len_counts_only_live(self):
        clock, ns = clocked()
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        ns.register("memory.main", "memory")  # no TTL: immortal
        assert len(ns) == 2
        clock["t"] = 30.0
        assert len(ns) == 1

    def test_reregistration_after_lapse_restores_discovery(self):
        clock, ns = clocked()
        ns.register("sensor.cpu.a", "sensor", {"v": "1"}, ttl=30.0)
        clock["t"] = 45.0
        assert ns.lookup("sensor") == []
        # register() is the restart path: lapsed names are not poisoned.
        ns.register("sensor.cpu.a", "sensor", {"v": "2"}, ttl=30.0)
        (entry,) = ns.lookup("sensor")
        assert entry.attributes["v"] == "2"
        assert entry.expires_at == pytest.approx(75.0)


class TestSensorHostLapseRecovery:
    def test_pump_reregisters_after_lapse_and_counts_it(self):
        # Advance steps coarser than the TTL lapse the registration
        # between pumps; the host must detect that and re-register.
        with installed(MetricsRegistry()) as registry:
            clock = {"t": 0.0}
            ns = NameServer(clock=lambda: clock["t"])
            host = SensorHost("thing1", ns, MemoryStore(), seed=3)
            assert ns.get(host.sensor_name)  # registered at construction
            clock["t"] = 120.0  # TTL is 30 s: long lapsed
            with pytest.raises(RegistrationLapsed):
                ns.get(host.sensor_name)
            host.pump(120.0)
            assert ns.get(host.sensor_name).expires_at == pytest.approx(150.0)
        snap = registry.snapshot()
        lapses = snap["repro_nws_ttl_lapses_total"]["samples"][0]
        assert lapses["labels"] == {"host": "thing1"}
        assert lapses["value"] >= 1.0

    def test_crash_window_lapses_then_restart_reregisters(self):
        plan = FaultPlan("p").crash(start=100.0, duration=100.0, host="thing1")
        system = NWSSystem(["thing1"], seed=3, fault_plan=plan)
        system.advance(90.0)
        assert system.cpu_sensors() == ["sensor.cpu.thing1"]
        system.advance(150.0)  # mid-crash: TTL (30 s) has lapsed
        assert system.cpu_sensors() == []
        system.advance(260.0)  # restarted: pump re-registers
        assert system.cpu_sensors() == ["sensor.cpu.thing1"]
        faults = system.hosts[0].faults
        assert faults.counts("absorbed").get("ttl_reregistered", 0) >= 1
        assert faults.counts("injected").get("crash_lost", 0) > 0
