"""Fork supervisor: one worker mechanism under parallel_map and ReplicaPool."""

import pytest

from repro.faults import RuntimeFaultPlan
from repro.runtime import env, parallel_map
from repro.runtime.supervisor import (Respawn, Supervisor, Task,
                                      fork_available, planned_outcome)
from repro.serving import ReplicaPool, slot_scope

pytestmark = [pytest.mark.faults, pytest.mark.serving]

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")

REASON_KINDS = ("raised", "worker died", "timed out")


def _square(x):
    return x * x


def _reason_kind(reason):
    return next(kind for kind in REASON_KINDS if reason.startswith(kind))


def _faulted_map(workers):
    faults = []
    out = parallel_map(_square, range(5), workers=workers, timeout=1.0,
                       on_fault=lambda i, a, r: faults.append(
                           (i, a, _reason_kind(r))))
    return out, sorted(faults)


@pytest.fixture
def plan_env(monkeypatch):
    def set_plan(spec):
        monkeypatch.setenv(env.FAULT_PLAN.name, spec)
    return set_plan


@pytest.fixture
def respawn_log(monkeypatch):
    """Every call through ``Supervisor.respawn``, as (slot, kind, key)."""
    calls = []
    original = Supervisor.respawn

    def spy(self, slot, kind, key):
        calls.append((slot, kind, key))
        original(self, slot, kind, key)

    monkeypatch.setattr(Supervisor, "respawn", spy)
    return calls


@needs_fork
def test_serial_and_forked_grids_report_the_same_faults(plan_env):
    plan_env("raise@0,crash@1,hang@2")
    serial = _faulted_map(workers=1)
    forked = _faulted_map(workers=2)
    assert serial == forked
    assert serial == ([0, 1, 4, 9, 16],
                      [(0, 0, "raised"), (1, 0, "worker died"),
                       (2, 0, "timed out")])


@needs_fork
def test_grid_and_replica_crashes_share_one_respawn_path(plan_env,
                                                         respawn_log):
    plan_env(f"crash@1,crash@{slot_scope(0)}:attempt=7")
    assert parallel_map(_square, range(3), workers=2) == [0, 1, 4]
    assert [(kind, key) for _, kind, key in respawn_log] == [("crashed", 1)]
    with ReplicaPool(_square, n_replicas=1, wall_timeout=5.0,
                     forked=True) as pool:
        assert pool.call(0, 7, 3).status == "crashed"
        assert pool.call(0, 8, 3).value == 9
        assert pool.events == [Respawn(slot=0, kind="crashed", key=7)]
    assert respawn_log[1:] == [(0, "crashed", 7)]


def test_serial_hang_is_lost_only_under_a_timeout(plan_env):
    plan_env("hang@1")
    faults = []
    assert parallel_map(_square, range(3), workers=1,
                        on_fault=lambda *f: faults.append(f)) == [0, 1, 4]
    assert faults == []
    assert parallel_map(_square, range(3), workers=1, timeout=1.0,
                        on_fault=lambda *f: faults.append(f)) == [0, 1, 4]
    assert [(i, a) for i, a, _ in faults] == [(1, 0)]


def test_planned_outcome_takes_the_first_planned_target():
    plan = RuntimeFaultPlan.parse("raise@a,crash@b,hang@c:attempt=2,"
                                  "torn-write@d")
    assert planned_outcome(plan, ("a", "b"), 0).kind == "raise"
    assert planned_outcome(plan, ("b", "a"), 0).kind == "crash"
    assert planned_outcome(plan, ("c",), 0) is None
    assert planned_outcome(plan, ("c",), 2).kind == "hang"
    assert planned_outcome(plan, ("d",), 0) is None  # disk kinds never fire


def test_inline_supervisor_synthesizes_and_records(plan_env):
    plan_env("crash@x:attempt=1,hang@x:attempt=2,raise@x:attempt=3")
    supervisor = Supervisor(_square, 1, forked=False)
    statuses = [supervisor.call(0, Task(a, 3, ("x",), a), 1.0).status
                for a in range(4)]
    assert statuses == ["ok", "crashed", "hung", "raised"]
    assert [(r.kind, r.key) for r in supervisor.respawns] == [
        ("crashed", 1), ("hung", 2)]
    assert supervisor.ping(0, 1.0)


@needs_fork
def test_forked_ping_and_close():
    supervisor = Supervisor(_square, 2)
    assert supervisor.ping(0, 5.0) and supervisor.ping(1, 5.0)
    processes = [worker.process for worker in supervisor.workers]
    supervisor.close()
    supervisor.close()  # idempotent
    assert not any(process.is_alive() for process in processes)
    assert supervisor.respawns == []
