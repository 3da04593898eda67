"""Cache GC: the max-size LRU sweep over the store (REPRO_CACHE_MAX_MB)."""

import os

import numpy as np
import pytest

from repro.runtime import cache_max_bytes, env, store
from repro.runtime.cache import ResultCache

pytestmark = pytest.mark.smoke


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path / "cells"), enabled=True)


def write_entry(cache, name, payload, age_s):
    """One cache entry whose recency is ``age_s`` seconds in the past."""
    cache.save_json(name, {"k": name}, payload)
    path = cache.path(name, {"k": name}, "json")
    stamp = os.stat(path).st_mtime - age_s
    os.utime(path, (stamp, stamp))
    return path


class TestBudgetResolution:
    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(env.CACHE_MAX_MB.name, raising=False)
        assert cache_max_bytes() is None

    def test_megabytes_to_bytes(self, monkeypatch):
        monkeypatch.setenv(env.CACHE_MAX_MB.name, "2")
        assert cache_max_bytes() == 2 * 1024 * 1024

    def test_non_positive_disables(self, monkeypatch):
        monkeypatch.setenv(env.CACHE_MAX_MB.name, "0")
        assert cache_max_bytes() is None

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(env.CACHE_MAX_MB.name, "lots")
        with pytest.raises(ValueError):
            cache_max_bytes()


class TestSweep:
    def test_noop_without_budget(self, cache, monkeypatch):
        monkeypatch.delenv(env.CACHE_MAX_MB.name, raising=False)
        write_entry(cache, "a", {"x": 1}, age_s=100)
        assert cache.sweep() == 0

    def test_noop_under_budget(self, cache):
        write_entry(cache, "a", {"x": 1}, age_s=100)
        assert cache.sweep(max_bytes=10 ** 6) == 0
        assert cache.load_json("a", {"k": "a"}) == {"x": 1}

    def test_missing_root_is_harmless(self, tmp_path):
        empty = ResultCache(root=str(tmp_path / "nope"), enabled=True)
        assert empty.sweep(max_bytes=1) == 0

    def test_evicts_oldest_first(self, cache):
        old = write_entry(cache, "old", {"pad": "x" * 4000}, age_s=1000)
        new = write_entry(cache, "new", {"pad": "y" * 4000}, age_s=10)
        evicted = cache.sweep(max_bytes=os.path.getsize(new) + 100)
        assert evicted == 1
        assert not os.path.exists(old)
        assert os.path.exists(new)

    def test_evicts_until_budget_holds(self, cache):
        for i in range(6):
            write_entry(cache, f"e{i}", {"pad": "z" * 2000}, age_s=600 - i)
        size = os.path.getsize(cache.path("e0", {"k": "e0"}, "json"))
        assert cache.sweep(max_bytes=2 * size + 100) == 4
        survivors = sorted(os.listdir(cache.root))
        assert len(survivors) == 2  # the two most recent (e4, e5)
        assert cache.load_json("e5", {"k": "e5"}) is not None

    def test_tmp_files_ignored(self, cache):
        write_entry(cache, "a", {"x": 1}, age_s=0)
        tmp = os.path.join(cache.root, "half-written.json.tmp")
        with open(tmp, "w") as handle:
            handle.write("x" * 10000)
        assert cache.sweep(max_bytes=10 ** 6) == 0
        assert os.path.exists(tmp)

    def test_load_refreshes_recency(self, cache):
        touched = write_entry(cache, "touched", {"pad": "x" * 4000},
                              age_s=1000)
        fresh = write_entry(cache, "fresh", {"pad": "y" * 4000}, age_s=500)
        # Loading the older entry marks it used: the *other* one is now LRU.
        assert cache.load_json("touched", {"k": "touched"}) is not None
        assert cache.sweep(max_bytes=os.path.getsize(touched) + 100) == 1
        assert os.path.exists(touched)
        assert not os.path.exists(fresh)

    def test_grid_sweep_honours_env(self, cache, monkeypatch):
        # The GridRunner calls sweep() after every run; with the env budget
        # set tiny, a populated cache shrinks.
        for i in range(4):
            write_entry(cache, f"g{i}", {"pad": "w" * 50000}, age_s=100 - i)
        monkeypatch.setenv(env.CACHE_MAX_MB.name, "0.05")  # 50 KB
        assert cache.sweep() >= 2

    def test_model_checkpoints_are_entries_but_in_flight_state_is_not(
            self, cache):
        # A zoo checkpoint is an ordinary (evictable) store entry ...
        old = write_entry(cache, "cell", {"pad": "x" * 4000}, age_s=1000)
        model = cache.path("regressor", {"v": 6}, "npz")
        store.save_state(model, {"w": np.zeros(1000, dtype=np.float32)})
        stamp = os.stat(model).st_mtime - 2000
        os.utime(model, (stamp, stamp))
        # ... but training snapshots, run journals and quarantined evidence
        # are never swept, however old or large.
        protected = [model + ".ckpt.npz",
                     os.path.join(cache.root, "runs", "run-0001",
                                  "journal.jsonl"),
                     os.path.join(cache.root, "quarantine", "dead.npz")]
        for path in protected:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(b"x" * 50000)
            os.utime(path, (1.0, 1.0))
        assert cache.sweep(max_bytes=1) == 2
        assert not os.path.exists(old) and not os.path.exists(model)
        assert all(os.path.exists(path) for path in protected)
