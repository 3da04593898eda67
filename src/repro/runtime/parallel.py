"""Process-parallel map over independent experiment cells, hardened.

The experiment grids (attack × defense × model) are embarrassingly parallel:
every cell constructs its own attack/defense objects with fixed seeds and
only *reads* the shared models.  :func:`parallel_map` fans such cells across
``fork``\\ ed worker processes:

* **supervised** — :class:`~repro.runtime.supervisor.Supervisor` owns the
  workers (private pipes, crash detection, respawn, shutdown), as it owns
  the serving layer's replicas; this module keeps only the scheduling
  policy on top: the pending queue, retries and the per-cell timeout.
* **deterministic** — cells carry their own seeds, so scheduling order
  cannot change results; the output list is always in input order and
  bit-identical to the serial path (asserted in
  ``tests/runtime/test_grid_equivalence.py``).
* **robust** — a dynamic task queue with per-cell heartbeats: a worker that
  *crashes* (OOM kill, segfault) or *hangs* past ``REPRO_CELL_TIMEOUT`` is
  detected, its in-flight cell is retried up to ``REPRO_MAX_RETRIES`` times
  (cells are deterministic, so a retry is bit-identical to an uninterrupted
  run), and its worker is respawned.  ``REPRO_FAULT_PLAN``
  (:mod:`repro.faults.runtime`) injects deliberate crashes/hangs/raises so
  this machinery is itself testable.
* **checkpointable** — ``on_result`` fires in the parent as each cell
  completes, letting :class:`~repro.runtime.grid.GridRunner` persist
  results incrementally; a killed run resumes from the result cache.
* **graceful fallback** — ``REPRO_WORKERS=1``, a single-item batch, or a
  platform without ``fork`` (Windows spawn cannot ship closures) all run
  the cells in-process under the same retry policy.  A planned crash, or a
  planned hang while a timeout is set, is synthesized there as a lost
  attempt, so a serial grid reports the same faults as a forked one.

Worker count resolution: explicit argument > ``REPRO_WORKERS`` env var >
``os.cpu_count()``.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Set, TypeVar

from . import env as _env
from .supervisor import Reply, Supervisor, Task, fork_available

Item = TypeVar("Item")
Result = TypeVar("Result")

logger = logging.getLogger(__name__)

#: how often the grid wakes to check per-cell timeouts.
_POLL_S = 0.05


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count (>= 1)."""
    if workers is not None:
        return max(1, int(workers))
    value = _env.WORKERS.get()
    if value is not None:
        return max(1, value)
    return os.cpu_count() or 1


def cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock budget in seconds; ``None`` disables the monitor.

    Explicit argument > ``REPRO_CELL_TIMEOUT`` env var > disabled.
    """
    if timeout is not None:
        return float(timeout) if timeout > 0 else None
    value = _env.CELL_TIMEOUT.get()
    if value is not None:
        return value if value > 0 else None
    return None


def max_retries(retries: Optional[int] = None) -> int:
    """How many times a failed/crashed/hung cell is re-attempted (>= 0)."""
    if retries is not None:
        return max(0, int(retries))
    return max(0, _env.MAX_RETRIES.get())


class WorkerError(RuntimeError):
    """A cell failed in a worker after exhausting retries."""

    def __init__(self, index: int, remote_traceback: str):
        super().__init__(
            f"parallel_map item {index} failed in worker:\n{remote_traceback}")
        self.index = index
        self.remote_traceback = remote_traceback


OnResult = Callable[[int, Result], None]
#: fired in the parent whenever an attempt is lost (raise/crash/hang):
#: ``on_fault(index, attempt, reason)`` — the run journal's hook.
OnFault = Callable[[int, int, str], None]


def parallel_map(fn: Callable[[Item], Result], items: Sequence[Item],
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 on_result: Optional[OnResult] = None,
                 on_fault: Optional[OnFault] = None) -> List[Result]:
    """``[fn(item) for item in items]``, fanned across forked processes.

    Results are returned in input order.  A cell that raises, whose worker
    dies (hard crash / OOM kill), or that exceeds the per-cell ``timeout``
    is retried up to ``retries`` times; once the budget is exhausted the
    parent raises :class:`WorkerError` carrying the remote traceback (or a
    synthesized one for crashes/hangs) — or, on the serial path, re-raises
    the cell's own exception.  ``on_result(index, result)`` runs in the
    parent as each item completes — the checkpoint hook;
    ``on_fault(index, attempt, reason)`` runs in the parent as each lost
    attempt is detected — the journal hook.
    """
    items = list(items)
    n_workers = min(worker_count(workers), len(items))
    budget = max_retries(retries)
    timeout = cell_timeout(timeout)
    pending: Deque[Task] = deque(Task(index, index, (index,))
                                 for index in range(len(items)))
    results: List = [None] * len(items)
    unfinished: Set[int] = set(range(len(items)))
    failure: Optional[BaseException] = None

    def settle(task: Task, reply: Reply) -> None:
        nonlocal failure
        index, attempt = task.key, task.attempt
        if index not in unfinished:
            return  # never settle a cell twice
        if reply.status == "ok":
            unfinished.discard(index)
            results[index] = reply.value
            if on_result is not None:
                on_result(index, reply.value)
            return
        reason = (f"raised: {reply.detail}" if reply.status == "raised"
                  else reply.detail)
        if on_fault is not None:
            on_fault(index, attempt, reason)
        if attempt < budget:
            logger.warning("cell %d %s on attempt %d; retrying", index,
                           reason, attempt)
            pending.appendleft(task._replace(attempt=attempt + 1))
        elif isinstance(reply.value, Exception):
            failure = reply.value  # serial: the cell's own exception
        else:
            if reply.status == "raised":
                reason = f"raised:\n{reply.value}"
            failure = WorkerError(index, f"{reason} (after {attempt + 1} "
                                         f"attempts, no retries left)")

    forked = n_workers > 1 and fork_available()
    with Supervisor(lambda index: fn(items[index]), n_workers,
                    forked=forked) as supervisor:
        while unfinished and failure is None:
            if not forked:
                task = pending.popleft()
                settle(task, supervisor.call(0, task, timeout))
                continue
            for slot, worker in enumerate(supervisor.workers):
                if worker.task is None and pending:
                    task = pending.popleft()
                    lost = supervisor.submit(slot, task)
                    if lost is not None:
                        settle(task, lost)
            for slot in supervisor.ready(_POLL_S):
                task = supervisor.workers[slot].task
                settle(task, supervisor.collect(slot))
            if timeout is not None:
                for slot in supervisor.overdue(timeout):
                    task = supervisor.workers[slot].task
                    logger.warning("cell %d exceeded %.1fs heartbeat "
                                   "timeout; killing its worker", task.key,
                                   timeout)
                    settle(task, supervisor.lose(
                        slot, "hung", f"timed out after {timeout:.1f}s"))
    if failure is not None:
        raise failure
    return results
