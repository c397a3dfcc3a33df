"""Runner wall-clock telemetry seen from the parent process.

A pool run records one ``repro_runner_host_seconds`` observation per
simulated host into the parent's registry; those wall-clock families
are real time, so :func:`repro.obs.deterministic_view` drops them and
nothing else.
"""

from repro.experiments.testbed import TestbedConfig
from repro.obs import MetricsRegistry, WALL_METRICS, deterministic_view, installed
from repro.runner import Runner

TINY = TestbedConfig(duration=1500.0, warmup=300.0)
HOSTS = ("thing1", "conundrum", "thing2", "gremlin")


def _parallel_run(jobs: int) -> MetricsRegistry:
    """Run the four-host testbed on a pool; return the parent's registry."""
    registry = MetricsRegistry()
    with installed(registry):
        Runner(jobs=jobs).run(HOSTS, TINY)
    return registry


class TestParallelSerialParity:
    def test_wall_metrics_present_but_excluded_from_view(self):
        snapshot = _parallel_run(jobs=4).snapshot()
        assert "repro_runner_host_seconds" in snapshot
        view = deterministic_view(snapshot)
        assert not WALL_METRICS & set(view)
        # The view drops only wall families, nothing else.
        assert set(snapshot) - set(view) <= WALL_METRICS


class TestHostSecondsHistogram:
    def test_one_observation_per_simulated_host(self):
        samples = _parallel_run(jobs=2).snapshot()["repro_runner_host_seconds"][
            "samples"
        ]
        by_host = {s["labels"]["host"]: s["count"] for s in samples}
        assert by_host == {host: 1 for host in HOSTS}
        assert all(
            s["sum"] > 0.0 for s in samples
        ), "wall time per host must be positive"
