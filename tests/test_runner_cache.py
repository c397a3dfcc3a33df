"""Tests for the content-addressed disk cache and its keys."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.testbed import TestbedConfig, simulate_host
from repro.runner import ResultCache, canonical_config, config_digest

TINY = TestbedConfig(duration=1800.0, seed=31)


@pytest.fixture(scope="module")
def tiny_run():
    return simulate_host("thing1", TINY)


class TestKeys:
    def test_digest_is_hex_sha256(self):
        digest = config_digest("thing1", TINY)
        assert len(digest) == 64
        int(digest, 16)

    def test_digest_stable_across_field_ordering(self):
        a = TestbedConfig(duration=1800.0, seed=31, warmup=600.0)
        b = TestbedConfig(warmup=600.0, seed=31, duration=1800.0)
        assert config_digest("thing1", a) == config_digest("thing1", b)

    def test_digest_varies_with_inputs(self):
        base = config_digest("thing1", TINY)
        assert config_digest("thing2", TINY) != base
        assert config_digest("thing1", TINY.derive(seed=32)) != base
        assert config_digest("thing1", TINY, code_version="0.0.0") != base

    def test_canonical_config_keys_sorted(self):
        keys = list(canonical_config(TINY))
        assert keys == sorted(keys)
        # Round-trips through JSON without custom encoders.
        json.dumps(canonical_config(TINY))


class TestRoundTrip:
    def test_store_then_load_reproduces_run(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path)
        digest = config_digest(tiny_run.host, tiny_run.config)
        cache.store(digest, tiny_run)

        # A second ResultCache instance models a fresh interpreter: no
        # shared state except the files on disk.
        loaded, outcome = ResultCache(tmp_path).lookup(digest)
        assert outcome == "hit"
        assert loaded.host == tiny_run.host
        assert loaded.config == tiny_run.config
        for method in tiny_run.series:
            np.testing.assert_array_equal(
                loaded.series[method].times, tiny_run.series[method].times
            )
            np.testing.assert_array_equal(
                loaded.series[method].values, tiny_run.series[method].values
            )
            np.testing.assert_array_equal(
                loaded.premeasurements(method), tiny_run.premeasurements(method)
            )
        np.testing.assert_array_equal(loaded.observed(), tiny_run.observed())

    def test_miss_on_unknown_digest(self, tmp_path):
        run, outcome = ResultCache(tmp_path).lookup("ab" * 32)
        assert run is None
        assert outcome == "miss"

    def test_store_is_idempotent(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path)
        digest = config_digest(tiny_run.host, tiny_run.config)
        path1 = cache.store(digest, tiny_run)
        path2 = cache.store(digest, tiny_run)
        assert path1 == path2
        assert len(cache) == 1

    def test_no_stray_tmp_files_after_store(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path)
        cache.store(config_digest(tiny_run.host, tiny_run.config), tiny_run)
        strays = [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".npz"]
        assert strays == []


class TestCorruptionRecovery:
    def _stored(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path)
        digest = config_digest(tiny_run.host, tiny_run.config)
        path = cache.store(digest, tiny_run)
        return cache, digest, path

    def test_garbage_entry_deleted_and_reported(self, tmp_path, tiny_run):
        cache, digest, path = self._stored(tmp_path, tiny_run)
        path.write_bytes(b"not an npz at all")
        run, outcome = cache.lookup(digest)
        assert run is None
        assert outcome == "corrupt"
        assert not path.exists()

    def test_truncated_entry_recovered(self, tmp_path, tiny_run):
        cache, digest, path = self._stored(tmp_path, tiny_run)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        run, outcome = cache.lookup(digest)
        assert run is None
        assert outcome == "corrupt"
        assert not path.exists()

    def test_format_drift_treated_as_corrupt(self, tmp_path, tiny_run, monkeypatch):
        cache, digest, path = self._stored(tmp_path, tiny_run)
        monkeypatch.setattr("repro.runner.cache.CACHE_FORMAT", 999)
        run, outcome = cache.lookup(digest)
        assert run is None
        assert outcome == "corrupt"

    def test_runner_resimulates_after_corruption(self, tmp_path, tiny_run):
        from repro.runner import Runner

        cache, digest, path = self._stored(tmp_path, tiny_run)
        path.write_bytes(b"garbage")
        runner = Runner(cache=cache)
        run = runner.run("thing1", TINY)
        runner.persist()
        assert runner.stats.corrupt == 1
        assert runner.stats.misses == 1
        np.testing.assert_array_equal(
            run.values("load_average"), tiny_run.values("load_average")
        )
        # ... and the re-simulated result replaced the bad entry.
        assert cache.lookup(digest)[1] == "hit"


class TestHygiene:
    def test_clear_counts_entries(self, tmp_path, tiny_run):
        cache = ResultCache(tmp_path)
        cache.store(config_digest("thing1", TINY), tiny_run)
        cache.store(config_digest("thing1", TINY.derive(seed=99)), tiny_run)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_empty_root_is_zero(self, tmp_path):
        assert ResultCache(tmp_path / "never-created").clear() == 0
