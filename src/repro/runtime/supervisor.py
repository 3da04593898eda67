"""Fork supervisor: the one owner of worker processes and their pipes.

Two clients drive forked workers —
:func:`repro.runtime.parallel.parallel_map` drains a grid of experiment
cells, and :class:`repro.serving.replica.ReplicaPool` serves perception
requests slot by slot — and both need the same mechanism, which lives here:

* **fork, private duplex pipes** — handlers are closures over live models
  and datasets, which fork inherits for free; only task payloads and
  results cross the process boundary.  Each worker owns its pipe, so a
  worker dying mid-operation cannot wedge its siblings on a shared lock.
* **one child loop** — take a :class:`Task`, answer a ping, fire the fault
  the ``REPRO_FAULT_PLAN`` schedules for the task's targets and attempt
  (:mod:`repro.faults.runtime`), call the handler, and send back either
  the value or the traceback.
* **one respawn path** — a crashed or hung worker is killed and replaced
  in its slot, and every replacement is kept as one :class:`Respawn`
  record.
* **one shutdown** — send ``None`` to every worker, join them under a
  shared deadline, then kill whatever is left.
* **one in-process fallback** — ``forked=False`` runs the handler in the
  caller's process.  A planned crash (``os._exit``) or hang (an hour's
  sleep) cannot be survived there, so :func:`planned_outcome` names the
  planned fault and the fallback *synthesizes* its observable outcome
  instead, keeping serial and forked runs bit-identical.

Every call resolves to a :class:`Reply` whose status is ``ok`` (the
handler returned), ``raised`` (the handler raised; the worker lives on),
``crashed`` (the worker died: EOF on its pipe) or ``hung`` (no answer in
time; the worker was killed).  The clients own the policy on top: retries
and per-cell timeouts for the grid, deadlines and breakers for serving.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import (TYPE_CHECKING, Any, Callable, List, NamedTuple, Optional,
                    Tuple, Union)

if TYPE_CHECKING:  # imported lazily at runtime: faults.sensor needs
    from ..faults.runtime import RuntimeFault, RuntimeFaultPlan  # this package

logger = logging.getLogger(__name__)

#: payload the child loop answers itself (a liveness probe).
PING = "__supervisor_ping__"
#: how long :meth:`Supervisor.close` waits for workers to exit cleanly.
SHUTDOWN_S = 5.0


def fork_available() -> bool:
    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class Task(NamedTuple):
    """One unit of work for a worker, as it crosses the pipe."""

    key: int                    # grid item index / request sequence number
    payload: Any
    #: fault-plan targets the task answers to (item indices, scope names)
    targets: Tuple[Union[int, str], ...] = ()
    attempt: int = 0


@dataclass(frozen=True)
class Reply:
    status: str                 # "ok" | "raised" | "crashed" | "hung"
    #: the handler's result (ok); the exception in-process or the remote
    #: traceback text (raised)
    value: Any = None
    detail: str = ""


@dataclass(frozen=True)
class Respawn:
    """One worker replacement, kept for journaling and tests."""

    slot: int
    kind: str                   # "crashed" | "hung" | "probe-failed"
    key: int                    # task that exposed it (-1: a probe)


def planned_outcome(plan: "RuntimeFaultPlan", targets, attempt: int
                    ) -> Optional["RuntimeFault"]:
    """The fault a worker would fire for this task, if any.

    Targets fire in order and the first planned fault ends the task, so
    only the first target with a planned raise/crash/hang counts.
    """
    from ..faults.runtime import EXEC_KINDS

    for target in targets:
        fault = plan.lookup(target, attempt)
        if fault is not None and fault.kind in EXEC_KINDS:
            return fault
    return None


def _child_loop(conn, handler: Callable[[Any], Any]) -> None:
    """Worker: answer tasks from the parent's pipe until EOF or ``None``."""
    from ..faults.runtime import RuntimeFaultPlan

    plan = RuntimeFaultPlan.from_env()
    while True:
        try:
            task = conn.recv()
        except EOFError:  # parent is gone
            return
        if task is None:
            return
        if isinstance(task.payload, str) and task.payload == PING:
            conn.send((task.key, True, "pong"))
            continue
        try:
            for target in task.targets:
                plan.maybe_inject(target, task.attempt)
            value = handler(task.payload)
        except BaseException:
            conn.send((task.key, False, traceback.format_exc()))
        else:
            conn.send((task.key, True, value))


class _Worker:
    """Parent-side handle: process, private pipe, task in flight."""

    def __init__(self, ctx, handler):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_child_loop,
                                   args=(child, handler), daemon=True)
        self.process.start()
        child.close()
        self.task: Optional[Task] = None
        self.started_at = 0.0

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


class Supervisor:
    """``n_workers`` slots running ``handler(payload)``, forked or inline."""

    def __init__(self, handler: Callable[[Any], Any], n_workers: int,
                 forked: bool = True):
        from ..faults.runtime import RuntimeFaultPlan

        self.handler = handler
        self.forked = forked
        self.plan = RuntimeFaultPlan.from_env()
        self.respawns: List[Respawn] = []
        self._ctx = mp.get_context("fork") if forked else None
        self.workers: List[_Worker] = ([_Worker(self._ctx, handler)
                                        for _ in range(n_workers)]
                                       if forked else [])

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + SHUTDOWN_S
        for worker in self.workers:
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            worker.kill()
        self.workers = []

    def respawn(self, slot: int, kind: str, key: int) -> None:
        """Record a lost worker and, when forked, replace it in its slot."""
        self.respawns.append(Respawn(slot=slot, kind=kind, key=key))
        if self.forked:
            self.workers[slot].kill()
            self.workers[slot] = _Worker(self._ctx, self.handler)
            logger.warning("worker %d %s on task %d; respawned", slot, kind,
                           key)

    # -- asynchronous protocol (grid) -----------------------------------
    def submit(self, slot: int, task: Task) -> Optional[Reply]:
        """Hand ``task`` to a forked slot; a :class:`Reply` only if lost."""
        worker = self.workers[slot]
        worker.task = task
        worker.started_at = time.monotonic()
        try:
            worker.conn.send(task)
        except (BrokenPipeError, OSError):
            return self.lose(slot, "crashed", "pipe closed on send")
        return None

    def ready(self, timeout: float) -> List[int]:
        """Busy slots whose answer (or EOF) is waiting, within ``timeout``."""
        busy = {worker.conn: slot for slot, worker in enumerate(self.workers)
                if worker.task is not None}
        if not busy:
            return []
        return [busy[conn] for conn in
                mp_connection.wait(list(busy), timeout=timeout)]

    def overdue(self, timeout: float) -> List[int]:
        """Busy slots whose task has run longer than ``timeout`` seconds."""
        now = time.monotonic()
        return [slot for slot, worker in enumerate(self.workers)
                if worker.task is not None
                and now - worker.started_at > timeout]

    def collect(self, slot: int) -> Reply:
        """Read a ready slot's answer; EOF means the worker died."""
        worker = self.workers[slot]
        try:
            key, ok, value = worker.conn.recv()
        except (EOFError, OSError):  # hard crash (OOM kill, segfault)
            worker.kill()
            return self.lose(slot, "crashed", "worker died (exit code "
                             f"{worker.process.exitcode})")
        task, worker.task = worker.task, None
        if key != task.key:
            return Reply("raised", detail="stale reply")
        if ok:
            return Reply("ok", value=value)
        return Reply("raised", value=value, detail=value.splitlines()[-1])

    def lose(self, slot: int, status: str, detail: str) -> Reply:
        """Give up on a slot's task: respawn the worker, report ``status``."""
        task = self.workers[slot].task
        self.respawn(slot, "probe-failed" if task.payload is PING else status,
                     task.key)
        return Reply(status, detail=detail)

    # -- synchronous protocol (requests, serial fallbacks) --------------
    def call(self, slot: int, task: Task, timeout: Optional[float]) -> Reply:
        """Run one task on ``slot`` and wait up to ``timeout`` for it.

        Forked, this is one send, one poll and one receive.  Inline, a
        planned crash is synthesized, and so is a planned hang whenever a
        ``timeout`` would have caught it.
        """
        if not self.forked:
            return self._call_inline(slot, task, timeout)
        lost = self.submit(slot, task)
        if lost is not None:
            return lost
        if not self.workers[slot].conn.poll(timeout):
            return self.lose(slot, "hung", f"timed out after {timeout:.1f}s")
        return self.collect(slot)

    def ping(self, slot: int, timeout: Optional[float]) -> bool:
        """Liveness probe; a dead or wedged worker is respawned."""
        if not self.forked:
            return True
        return self.call(slot, Task(-1, PING), timeout).status == "ok"

    def _call_inline(self, slot: int, task: Task,
                     timeout: Optional[float]) -> Reply:
        fault = planned_outcome(self.plan, task.targets, task.attempt)
        if fault is not None and fault.kind == "crash":
            self.respawn(slot, "crashed", task.key)
            return Reply("crashed", detail=f"worker died (injected "
                                           f"crash@{fault.index})")
        if fault is not None and fault.kind == "hang":
            if timeout is not None:
                self.respawn(slot, "hung", task.key)
                return Reply("hung", detail=f"timed out after {timeout:.1f}s "
                                            f"(injected hang@{fault.index})")
            logger.warning("planned hang@%s ignored in-process: no timeout "
                           "would catch it", fault.index)
        try:
            if fault is not None and fault.kind == "raise":
                self.plan.maybe_inject(fault.index, task.attempt)
            value = self.handler(task.payload)
        except Exception as error:
            return Reply("raised", value=error,
                         detail=f"{type(error).__name__}: {error}")
        return Reply("ok", value=value)
