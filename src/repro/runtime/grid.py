"""GridRunner: declare experiment cells, execute them in parallel, cached.

A *cell* is one independent unit of an experiment grid — "generate the
Auto-PGD adversarial frames", "evaluate attack X under defense Y" — declared
as a zero-argument closure plus an optional cache configuration:

::

    grid = GridRunner("table1")
    for name in attacks:
        grid.add(name, lambda name=name: evaluate(name),
                 config={"attack": name, "model": model_fp, "v": 1})
    rows = grid.run()          # {cell key: result}

``run()`` resolves each cell against the result cache, fans the misses
across forked workers via :func:`repro.runtime.parallel.parallel_map`
(serial when ``REPRO_WORKERS=1``), stores fresh results, and records a
:class:`~repro.runtime.instrument.CellRecord` per cell — including the nn
forward/backward passes measured *inside* the worker that ran it.

Cells must be independent and deterministic given their own seeds; results
must be picklable (numpy arrays and the metric dataclasses are).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional

import numpy as np

from ..nn import hooks
from . import instrument, journal
from .cache import ResultCache
from .parallel import parallel_map

#: codec name -> (store, load) against the ResultCache
_CODECS = ("json", "npz")


@dataclass
class _Cell:
    key: Hashable
    fn: Callable[[], Any]
    config: Optional[dict]
    codec: str

    @property
    def label(self) -> str:
        if isinstance(self.key, tuple):
            return "/".join(str(part) for part in self.key)
        return str(self.key)


class GridRunner:
    """Parallel, cached, instrumented execution of one experiment grid."""

    def __init__(self, name: str, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 instrumentation: Optional[instrument.Instrumentation] = None):
        self.name = name
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.instrumentation = (instrumentation if instrumentation is not None
                                else instrument.get_instrumentation())
        self._cells: List[_Cell] = []

    def add(self, key: Hashable, fn: Callable[[], Any],
            config: Optional[dict] = None, codec: str = "json") -> None:
        """Declare a cell.  ``config=None`` makes the cell uncacheable.

        ``codec="npz"`` is for cells returning a single ``np.ndarray`` (image
        batches); ``codec="json"`` for metric-shaped results.
        """
        if codec not in _CODECS:
            raise ValueError(f"unknown codec {codec!r}")
        if any(cell.key == key for cell in self._cells):
            raise ValueError(f"duplicate cell key {key!r} in grid {self.name!r}")
        self._cells.append(_Cell(key=key, fn=fn, config=config, codec=codec))

    def __len__(self) -> int:
        return len(self._cells)

    # -- cache plumbing -------------------------------------------------
    def _cache_name(self, cell: _Cell) -> str:
        return f"{self.name}-{cell.label}".replace(" ", "_").replace("/", "_")

    def _load_cached(self, cell: _Cell) -> Optional[Any]:
        if cell.config is None:
            return None
        if cell.codec == "npz":
            arrays = self.cache.load_arrays(self._cache_name(cell), cell.config)
            if arrays is not None and "array" in arrays:
                return arrays["array"]
            return None
        return self.cache.load_json(self._cache_name(cell), cell.config)

    def _store(self, cell: _Cell, result: Any) -> None:
        if cell.config is None or result is None:
            return
        if cell.codec == "npz":
            self.cache.save_arrays(self._cache_name(cell), cell.config,
                                   {"array": np.asarray(result)})
        else:
            self.cache.save_json(self._cache_name(cell), cell.config, result)

    def _artifact_path(self, cell: _Cell) -> Optional[str]:
        """Where this cell's result lives in the cache (None: uncacheable)."""
        if cell.config is None or not self.cache.enabled:
            return None
        return self.cache.path(self._cache_name(cell), cell.config,
                               cell.codec)

    # -- execution ------------------------------------------------------
    def run(self) -> Dict[Hashable, Any]:
        """Execute every declared cell; returns ``{key: result}``.

        Results are checkpointed into the cache *as each cell completes*
        (the ``on_result`` hook fires in the parent), so a run killed or
        crashed mid-grid resumes from the completed cells on the next
        invocation — and, cells being deterministic, the resumed grid is
        bit-identical to an uninterrupted one.

        Under an active run journal every cell's fate is appended as it is
        decided: ``replayed`` (a cache hit on the very artifact the journal
        recorded for this cell, so a changed model fingerprint or bumped
        cell version never replays a stale result), ``cached`` (any other
        cache hit), ``done`` (freshly computed, with its artifact path
        journaled for the next resume), ``lost`` (a cacheable cell the
        journal says finished once, but whose artifact is gone — recomputed
        loudly, never silently).  Uncacheable cells are never ``lost``:
        they never had an artifact.
        """
        log = journal.get_journal()
        completed = (log.completed_cells(self.name) if log is not None
                     else set())
        artifacts = (log.artifacts(self.name) if log is not None else {})
        if log is not None:
            log.append({"event": "grid-start", "grid": self.name,
                        "cells": len(self._cells)})

        def journal_cell(cell: _Cell, status: str) -> None:
            if log is None:
                return
            event = {"event": "cell", "grid": self.name, "cell": cell.label,
                     "status": status}
            path = self._artifact_path(cell)
            if path is not None and status in ("done", "cached", "replayed"):
                event["artifact"] = path
                event["codec"] = cell.codec
            log.append(event)

        results: Dict[Hashable, Any] = {}
        pending: List[_Cell] = []
        for cell in self._cells:
            # One load path for fresh runs and resumes alike; the journal
            # only decides whether the hit counts as a replay.
            result = self._load_cached(cell)
            path = self._artifact_path(cell)
            if result is not None:
                results[cell.key] = result
                self.instrumentation.record_cell(instrument.CellRecord(
                    grid=self.name, cell=cell.label, seconds=0.0,
                    forward_passes=0, backward_passes=0, cached=True))
                journaled = {"artifact": path, "codec": cell.codec}
                journal_cell(cell, "replayed"
                             if artifacts.get(cell.label) == journaled
                             else "cached")
            else:
                if (log is not None and path is not None
                        and cell.label in completed):
                    log.append({"event": "cell", "grid": self.name,
                                "cell": cell.label, "status": "lost"})
                pending.append(cell)

        if pending:
            def checkpoint(index: int, outcome) -> None:
                self._store(pending[index], outcome[0])
                journal_cell(pending[index], "done")

            def cell_fault(index: int, attempt: int, reason: str) -> None:
                if log is not None:
                    log.append({"event": "cell-fault", "grid": self.name,
                                "cell": pending[index].label,
                                "attempt": attempt, "reason": reason})

            outcomes = parallel_map(_execute_cell, pending,
                                    workers=self.workers,
                                    on_result=checkpoint,
                                    on_fault=cell_fault)
            for cell, (result, record) in zip(pending, outcomes):
                record.grid = self.name
                results[cell.key] = result
                self.instrumentation.record_cell(record)
        self.cache.sweep()
        if log is not None:
            log.append({"event": "grid-end", "grid": self.name,
                        "cells": len(self._cells)})
        return results


def _execute_cell(cell: _Cell):
    """Run one cell, measuring wall-clock and nn passes in *this* process.

    Top-level (not a closure) so the serial path and the forked path execute
    byte-for-byte the same code; the measured counters are per-process, which
    makes the deltas exact in workers too.
    """
    start_forward, start_backward = hooks.snapshot()
    start = time.perf_counter()
    result = cell.fn()
    elapsed = time.perf_counter() - start
    end_forward, end_backward = hooks.snapshot()
    record = instrument.CellRecord(
        grid="", cell=cell.label, seconds=elapsed,
        forward_passes=end_forward - start_forward,
        backward_passes=end_backward - start_backward)
    return result, record
