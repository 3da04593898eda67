"""Replica pool: N perception workers with health probes and auto-respawn.

Each replica is a worker slot of :class:`~repro.runtime.supervisor.Supervisor`
— a ``fork``\\ ed process on a private duplex pipe, the same supervisor
that runs :func:`repro.runtime.parallel.parallel_map`'s grid workers — but
serves *requests* instead of draining a batch: the broker addresses a
specific slot, ships one payload, and waits for that slot's answer under a
wall-clock timeout.

Failure taxonomy seen by the broker (:class:`~repro.runtime.supervisor.Reply`
``.status``):

* ``ok``      — the handler returned a value,
* ``raised``  — the handler raised; the replica is still alive,
* ``crashed`` — the replica process died mid-request (EOF on its pipe);
  the pool respawns the slot immediately,
* ``hung``    — no answer within the wall timeout; the replica is killed
  and respawned.

Chaos hooks: each request answers to the fault-plan scopes
``serve.replica.<slot>`` (one slot) and ``serve.replica`` (all slots),
with the broker's global request sequence number as the attempt — so
``REPRO_FAULT_PLAN="crash@serve.replica.0:attempt=0+"`` produces a
persistently crashing replica 0.  On platforms without ``fork`` (or with
``forked=False`` for fast deterministic tests) the pool runs in-process
and the supervisor *synthesizes* the planned crash/hang outcomes instead
of executing them, so serve runs produce bit-identical outcome streams in
both modes.

The wall timeout is real time (hang detection cannot work otherwise) but
never enters results: request *latencies* are virtual, drawn by the
broker's :class:`~repro.serving.policy.LatencyModel`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..runtime import env
from ..runtime.supervisor import (Reply, Respawn, Supervisor, Task,
                                  fork_available)

#: scope consulted for faults hitting any replica.
REPLICA_SCOPE = "serve.replica"


def slot_scope(slot: int) -> str:
    """Fault-plan scope targeting one replica slot."""
    return f"{REPLICA_SCOPE}.{slot}"


class ReplicaPool:
    """N replicas answering one request at a time per slot.

    ``handler(payload) -> value`` runs inside each replica; it is shipped
    by fork, so closures over live models are fine.  ``forked=None``
    auto-selects: forked when ``fork`` exists, in-process otherwise.
    """

    def __init__(self, handler: Callable[[Any], Any],
                 n_replicas: Optional[int] = None,
                 wall_timeout: Optional[float] = None,
                 forked: Optional[bool] = None):
        self.handler = handler
        self.n_replicas = max(1, (env.SERVE_REPLICAS.get()
                                  if n_replicas is None else int(n_replicas)))
        self.wall_timeout = (env.SERVE_WALL_TIMEOUT.get()
                             if wall_timeout is None else float(wall_timeout))
        self.forked = fork_available() if forked is None else bool(forked)
        self._supervisor = Supervisor(handler, self.n_replicas,
                                      forked=self.forked)

    @property
    def events(self) -> List[Respawn]:
        """Every respawn so far (``crashed``, ``hung``, ``probe-failed``)."""
        return self._supervisor.respawns

    @property
    def respawns(self) -> int:
        return len(self._supervisor.respawns)

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._supervisor.close()

    # -- requests -------------------------------------------------------
    def call(self, slot: int, seq: int, payload: Any) -> Reply:
        """Send ``payload`` to ``slot`` as request ``seq``; wait for it.

        Never raises for replica-side trouble — every failure mode comes
        back as a :class:`~repro.runtime.supervisor.Reply` so the broker
        owns the policy (retry, hedge, trip the breaker).
        """
        if not 0 <= slot < self.n_replicas:
            raise IndexError(f"no replica slot {slot}")
        task = Task(seq, payload, (slot_scope(slot), REPLICA_SCOPE), seq)
        return self._supervisor.call(slot, task, self.wall_timeout)

    def probe(self, slot: int) -> bool:
        """Health probe: does the replica answer a ping in time?

        A dead or wedged replica fails the probe and is respawned, so the
        pool self-heals even between requests.
        """
        return self._supervisor.ping(slot, self.wall_timeout)
