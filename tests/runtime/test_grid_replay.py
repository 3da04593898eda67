"""Journal-driven resume: completed cells replay with zero re-execution."""

import os

import numpy as np
import pytest

from repro.runtime import GridRunner, journal, store
from repro.runtime.cache import ResultCache


@pytest.fixture
def run_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    journal.set_journal(None)
    yield str(tmp_path)
    journal.set_journal(None)


def _grid(cache, calls, name="demo"):
    grid = GridRunner(name, cache=cache)
    for key in ("a", "b", "c"):
        def fn(key=key):
            calls.append(key)
            return {"cell": key, "value": len(key)}
        grid.add(key, fn, config={"cell": key, "v": 1})
    return grid


def test_resumed_grid_re_executes_zero_cells(run_env):
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)

    calls = []
    first = _grid(cache, calls).run()
    assert sorted(calls) == ["a", "b", "c"]
    statuses = [e["status"] for e in log.events() if e["event"] == "cell"]
    assert statuses == ["done"] * 3
    # every journaled completion carries its artifact path + codec
    for event in log.events():
        if event["event"] == "cell":
            assert os.path.exists(event["artifact"])
            assert event["codec"] == "json"

    # resume: a fresh journal object over the same file, fresh grid
    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    calls = []
    second = _grid(cache, calls).run()
    assert calls == []                      # ZERO re-executed cells
    assert second == first
    replay = [e["status"] for e in journal.get_journal().events()
              if e["event"] == "cell"][3:]
    assert replay == ["replayed"] * 3


def test_changed_config_invalidates_journal_replay(run_env):
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    calls = []
    _grid(cache, calls).run()

    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    calls = []
    grid = GridRunner("demo", cache=cache)
    for key in ("a", "b", "c"):
        def fn(key=key):
            calls.append(key)
            return {"cell": key, "value": len(key)}
        grid.add(key, fn, config={"cell": key, "v": 2})  # bumped version
    grid.run()
    # the journaled artifact no longer matches the config's path: recompute
    assert sorted(calls) == ["a", "b", "c"]


def test_lost_artifact_recomputes_loudly(run_env):
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    calls = []
    _grid(cache, calls).run()
    for event in log.events():
        if event["event"] == "cell":
            os.remove(event["artifact"])

    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    calls = []
    _grid(cache, calls).run()
    assert sorted(calls) == ["a", "b", "c"]
    statuses = [e["status"] for e in journal.get_journal().events()
                if e["event"] == "cell"]
    assert statuses.count("lost") == 3
    assert statuses[-3:] != ["lost"] * 3    # recompute journaled "done" after


def test_npz_cells_replay_from_journal(run_env):
    cache = ResultCache(os.path.join(run_env, "cells"))
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)

    calls = []

    def build():
        grid = GridRunner("imgs", cache=cache)
        def fn():
            calls.append("x")
            return np.arange(12, dtype=np.float32).reshape(3, 4)
        grid.add("x", fn, config={"v": 1}, codec="npz")
        return grid

    first = build().run()
    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    calls.clear()
    second = build().run()
    assert calls == []
    np.testing.assert_array_equal(first["x"], second["x"])


def test_uncacheable_cells_are_never_journaled_lost(run_env):
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    for _ in range(2):
        grid = GridRunner("demo", cache=ResultCache())
        grid.add("uncacheable", lambda: {"value": 1}, config=None)
        grid.run()
    statuses = [e["status"] for e in log.events() if e["event"] == "cell"]
    assert statuses == ["done", "done"]


def test_replaying_a_stale_codec_artifact_quarantines_it(run_env):
    cache = ResultCache()
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    calls = []
    _grid(cache, calls).run()
    # Re-seal cell "a" with a codec tag no decoder knows: digest-valid, but
    # a stale layout.
    path = next(e["artifact"] for e in log.events()
                if e["event"] == "cell" and e["cell"] == "a")
    store.save_json(path, {"__kind__": "retired-kind", "payload": {}})
    store.clear_fault_events()

    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    calls = []
    _grid(cache, calls).run()
    assert calls == ["a"]
    assert [(f.kind, f.path) for f in store.fault_events()] == \
        [("stale", path)]
    assert os.path.exists(os.path.join(os.path.dirname(path), "quarantine",
                                       os.path.basename(path)))


def test_replay_refreshes_lru_recency(run_env):
    cache = ResultCache()
    log = journal.RunJournal("run-0001", os.path.join(run_env, "runs",
                                                      "run-0001"))
    journal.set_journal(log)
    _grid(cache, []).run()
    paths = [e["artifact"] for e in log.events() if e["event"] == "cell"]
    for path in paths:
        os.utime(path, (1000.0, 1000.0))

    journal.set_journal(journal.RunJournal("run-0001", log.directory))
    _grid(cache, []).run()
    assert all(os.stat(path).st_mtime > 1000.0 for path in paths)
