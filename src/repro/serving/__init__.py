"""Fault-tolerant perception serving: pool, broker, breakers, router.

The serving layer turns the single-process perception pipeline into a
replicated, chaos-testable service: a :class:`ReplicaPool` of perception
workers, a :class:`RequestBroker` owning deadlines / retries / hedging /
circuit breakers / load shedding, a :class:`DefenseRouter` steering
suspected-adversarial frames onto a defended model variant, and
:func:`run_serve` closing the loop into the watchdog's coasting ladder.
All policy decisions run on a deterministic virtual clock (see
:mod:`repro.serving.policy`), so serve runs are bit-reproducible even
under injected replica crashes and hangs.
"""

from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .broker import BrokerConfig, BrokerResult, RequestBroker
from .loop import (PerceptionServer, ServeConfig, ServeReport, ServeTick,
                   run_serve)
from .policy import LatencyModel, LatencyTracker, RetryPolicy
from .replica import REPLICA_SCOPE, ReplicaPool, slot_scope
from .router import (DEFENDED_PATH, FAST_PATH, SCORER_SCOPE, AdmissionScorer,
                     DefenseRouter, RouteDecision)
from .traffic import TrafficTrace

__all__ = [
    "AdmissionScorer", "BreakerConfig", "BreakerState", "BrokerConfig",
    "BrokerResult", "CircuitBreaker", "DefenseRouter", "DEFENDED_PATH",
    "FAST_PATH", "LatencyModel", "LatencyTracker", "PerceptionServer",
    "REPLICA_SCOPE", "ReplicaPool",
    "RequestBroker", "RetryPolicy", "RouteDecision", "run_serve",
    "SCORER_SCOPE", "ServeConfig", "ServeReport", "ServeTick",
    "slot_scope", "TrafficTrace",
]
