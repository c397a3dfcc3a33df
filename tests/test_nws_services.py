"""Tests for repro.nws (the NWS service architecture)."""

import threading
import time

import numpy as np
import pytest

from repro.nws.errors import RegistrationLapsed, SeriesUnavailable
from repro.nws.forecaster import ForecasterService
from repro.nws.memory import MemoryStore
from repro.nws.nameserver import NameServer
from repro.nws.system import NWSSystem


class TestNameServer:
    def test_register_and_lookup(self):
        ns = NameServer()
        ns.register("sensor.cpu.a", "sensor", {"host": "a", "resource": "cpu"})
        ns.register("sensor.cpu.b", "sensor", {"host": "b", "resource": "cpu"})
        ns.register("memory.main", "memory")
        assert len(ns.lookup("sensor")) == 2
        assert [r.name for r in ns.lookup("sensor", host="b")] == ["sensor.cpu.b"]
        assert len(ns) == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            NameServer().register("x", "scheduler")

    def test_ttl_expiry(self):
        clock = {"t": 0.0}
        ns = NameServer(clock=lambda: clock["t"])
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        assert len(ns.lookup("sensor")) == 1
        clock["t"] = 31.0
        assert ns.lookup("sensor") == []
        with pytest.raises(RegistrationLapsed):
            ns.get("sensor.cpu.a")

    def test_refresh_extends_ttl(self):
        clock = {"t": 0.0}
        ns = NameServer(clock=lambda: clock["t"])
        ns.register("sensor.cpu.a", "sensor", ttl=30.0)
        clock["t"] = 25.0
        ns.refresh("sensor.cpu.a", ttl=30.0)
        clock["t"] = 50.0
        assert len(ns.lookup("sensor")) == 1

    def test_refresh_dead_rejected(self):
        clock = {"t": 0.0}
        ns = NameServer(clock=lambda: clock["t"])
        ns.register("sensor.cpu.a", "sensor", ttl=10.0)
        clock["t"] = 20.0
        with pytest.raises(RegistrationLapsed):
            ns.refresh("sensor.cpu.a", ttl=10.0)

    def test_reregistration_replaces(self):
        ns = NameServer()
        ns.register("sensor.cpu.a", "sensor", {"v": "1"})
        ns.register("sensor.cpu.a", "sensor", {"v": "2"})
        assert ns.get("sensor.cpu.a").attributes["v"] == "2"
        assert len(ns) == 1

    def test_unregister_idempotent(self):
        ns = NameServer()
        ns.register("m", "memory")
        ns.unregister("m")
        ns.unregister("m")
        assert len(ns) == 0

    @pytest.mark.usefixtures("lock_ownership")
    def test_concurrent_refresh_loses_no_registration(self):
        # Registrars re-register their sensors with a new attribute each
        # time while other threads refresh every sensor and look them up.
        # The clock yields to other threads, as a slow clock source would:
        # a refresh that read an entry, then wrote it back after a newer
        # register, would bring the old attributes back.
        def clock():
            time.sleep(1e-6)
            return 0.0

        ns = NameServer(clock=clock)
        names = [f"sensor.cpu.{k}" for k in range(3)]
        rounds = 300
        stale: list[tuple[str, int, str]] = []
        done = threading.Event()

        def registrar(name):
            for i in range(rounds):
                ns.register(name, "sensor", {"v": str(i)}, ttl=1e9)
                seen = ns.get(name).attributes["v"]
                if seen != str(i):
                    stale.append((name, i, seen))

        def refresher():
            while not done.is_set():
                for name in names:
                    try:
                        ns.refresh(name, ttl=1e9)
                    except RegistrationLapsed:
                        pass  # not registered yet

        def looker():
            while not done.is_set():
                ns.lookup("sensor")

        helpers = [threading.Thread(target=f) for f in (refresher, refresher, looker)]
        registrars = [threading.Thread(target=registrar, args=(n,)) for n in names]
        try:
            for thread in helpers + registrars:
                thread.start()
            for thread in registrars:
                thread.join()
        finally:
            done.set()
            for thread in helpers:
                thread.join()
        assert stale == []
        assert {e.name: e.attributes["v"] for e in ns.lookup("sensor")} == {
            name: str(rounds - 1) for name in names
        }


class TestMemoryStore:
    def test_publish_and_fetch(self):
        mem = MemoryStore()
        for i in range(5):
            mem.publish("cpu.a", 10.0 * i, 0.1 * i)
        times, values = mem.fetch("cpu.a")
        assert times.size == 5
        assert values[-1] == pytest.approx(0.4)

    def test_bounded_retention(self):
        mem = MemoryStore(capacity=3)
        for i in range(10):
            mem.publish("s", float(i), float(i))
        times, values = mem.fetch("s")
        np.testing.assert_allclose(times, [7.0, 8.0, 9.0])

    def test_out_of_order_rejected(self):
        mem = MemoryStore()
        mem.publish("s", 10.0, 0.5)
        with pytest.raises(ValueError, match="out-of-order"):
            mem.publish("s", 5.0, 0.5)

    def test_fetch_filters(self):
        mem = MemoryStore()
        for i in range(10):
            mem.publish("s", float(i), float(i))
        times, _ = mem.fetch("s", start=5.0)
        assert times[0] == 5.0
        times, _ = mem.fetch("s", stop=3.0)
        assert times[-1] == 3.0
        times, _ = mem.fetch("s", limit=2)
        np.testing.assert_allclose(times, [8.0, 9.0])

    def test_unknown_series_rejected(self):
        with pytest.raises(SeriesUnavailable, match="nope"):
            MemoryStore().fetch("nope")

    def test_persistence_roundtrip(self, tmp_path):
        mem = MemoryStore(capacity=100, directory=tmp_path)
        for i in range(5):
            mem.publish("cpu.a", float(i), 0.5)
        fresh = MemoryStore(capacity=100, directory=tmp_path)
        assert fresh.recover("cpu.a") == 5
        times, values = fresh.fetch("cpu.a")
        assert times.size == 5

    def test_recover_respects_capacity(self, tmp_path):
        mem = MemoryStore(capacity=100, directory=tmp_path)
        for i in range(50):
            mem.publish("s", float(i), 0.5)
        small = MemoryStore(capacity=10, directory=tmp_path)
        assert small.recover("s") == 10

    def test_recover_without_directory_rejected(self):
        with pytest.raises(ValueError):
            MemoryStore().recover("s")

    def test_as_trace(self):
        mem = MemoryStore()
        mem.publish("cpu.a", 0.0, 0.5)
        mem.publish("cpu.a", 10.0, 0.6)
        trace = mem.as_trace("cpu.a", host="a", method="load_average")
        assert trace.host == "a" and len(trace) == 2


class TestForecasterService:
    def test_query_tracks_series(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        for i in range(30):
            mem.publish("cpu.a", 10.0 * i, 0.7)
        report = svc.query("cpu.a")
        assert report.forecast == pytest.approx(0.7)
        assert report.n_measurements == 30
        assert report.as_of == pytest.approx(290.0)
        assert report.method

    def test_incremental_consumption(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        for i in range(10):
            mem.publish("s", float(i), 0.5)
        first = svc.query("s")
        for i in range(10, 15):
            mem.publish("s", float(i), 0.9)
        second = svc.query("s")
        assert second.n_measurements == 15
        assert second.forecast > first.forecast  # saw the jump to 0.9

    def test_error_bar_reported(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        rng = np.random.default_rng(0)
        for i in range(100):
            mem.publish("s", float(i), float(np.clip(0.5 + rng.normal(0, 0.1), 0, 1)))
        report = svc.query("s")
        assert 0.0 < report.error < 0.5

    def test_query_all(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        mem.publish("a", 0.0, 0.5)
        mem.publish("b", 0.0, 0.6)
        out = svc.query_all()
        assert set(out) == {"a", "b"}

    def test_unknown_series(self):
        with pytest.raises(SeriesUnavailable):
            ForecasterService(MemoryStore()).query("nope")

    def test_degrades_to_last_known_good(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        for i in range(30):
            mem.publish("s", 10.0 * i, 0.7 + 0.05 * (i % 3))
        fresh = svc.query("s")
        assert not fresh.stale
        assert fresh.error > 0.0
        mem.forget("s")
        degraded = svc.query("s")
        assert degraded.stale
        assert degraded.forecast == pytest.approx(fresh.forecast)
        assert degraded.error == pytest.approx(2.0 * fresh.error)
        # The widening doubles per consecutive miss, capped at 32x.
        for expected in (4.0, 8.0, 16.0, 32.0, 32.0):
            assert svc.query("s").error == pytest.approx(expected * fresh.error)

    def test_degraded_then_recovered(self):
        mem = MemoryStore()
        svc = ForecasterService(mem)
        for i in range(20):
            mem.publish("s", 10.0 * i, 0.5)
        svc.query("s")
        mem.forget("s")
        assert svc.query("s").stale
        for i in range(20, 25):
            mem.publish("s", 10.0 * i, 0.5)
        recovered = svc.query("s")
        assert not recovered.stale

    def test_stale_data_widens_error_by_age(self):
        clock = {"t": 0.0}
        mem = MemoryStore()
        svc = ForecasterService(mem, clock=lambda: clock["t"], stale_after=30.0)
        for i in range(20):
            mem.publish("s", 10.0 * i, 0.5)
        clock["t"] = 190.0  # as_of also 190.0 at the last publish
        fresh = svc.query("s")
        assert not fresh.stale
        clock["t"] = 250.0  # two full horizons past as_of
        stale = svc.query("s")
        assert stale.stale
        assert stale.error == pytest.approx(4.0 * fresh.error)
        assert stale.forecast == pytest.approx(fresh.forecast)


class TestNWSSystem:
    @pytest.fixture(scope="class")
    def system(self):
        system = NWSSystem(["thing1", "kongo"], seed=5)
        system.advance(1800.0)
        return system

    def test_discovery(self, system):
        assert system.cpu_sensors() == ["sensor.cpu.kongo", "sensor.cpu.thing1"]

    def test_memory_filled(self, system):
        assert system.memory.count("cpu.thing1.load_average") > 100
        assert system.memory.count("cpu.kongo.nws_hybrid") > 100

    def test_availability_queries(self, system):
        report = system.client().query(
            system.series_name("kongo", "load_average")
        )
        # kongo's hog pins availability near 0.5.
        assert report.forecast == pytest.approx(0.5, abs=0.1)
        assert report.n_measurements > 100

    def test_one_composition(self, system):
        # The sensors, system.memory and the client all address the one
        # ServiceCore tenant -- there is no second copy of the data plane.
        tenant = system.core.tenant("default")
        assert tenant.memory is system.memory
        assert tenant.forecaster is system.forecaster
        assert tenant.nameserver is system.nameserver
        assert system.client().transport.core is system.core
        assert system.core.query_all("default") == system.client().query_all()

    def test_unknown_host(self, system):
        with pytest.raises(KeyError):
            system.series_name("nonesuch")

    def test_validation(self):
        with pytest.raises(ValueError):
            NWSSystem([])
        system = NWSSystem(["gremlin"], seed=1)
        system.advance(100.0)
        with pytest.raises(ValueError):
            system.advance(50.0)

    def test_repeated_profile_rejected_at_construction(self):
        # Both hosts would publish to cpu.thing1.*: reject up front
        # instead of failing mid-run with an out-of-order measurement.
        with pytest.raises(ValueError, match="repeated profiles"):
            NWSSystem(["thing1", "kongo", "thing1"])

    def test_unknown_profile_rejected_as_value_error(self):
        with pytest.raises(ValueError, match="unknown profiles"):
            NWSSystem(["thing1", "nonesuch"])

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), -3600.0])
    def test_bad_until_leaves_clock_alone(self, until):
        system = NWSSystem(["gremlin"], seed=1)
        with pytest.raises(ValueError):
            system.advance(until)
        assert system.clock == 0.0
