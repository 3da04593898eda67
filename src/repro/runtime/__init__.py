"""``repro.runtime`` — parallel, cached, instrumented experiment execution.

The paper's tables are attack × defense × model grids whose cells are
independent; this package is the engine every experiment runs on:

* :func:`parallel_map` / :class:`GridRunner` — fork-based fan-out with a
  deterministic serial fallback (``REPRO_WORKERS=1``), on the worker
  processes of :mod:`~repro.runtime.supervisor`;
* :class:`ResultCache` — the one content-addressed artifact store: model
  checkpoints, ``.npz`` image batches and tagged-JSON metrics as
  ``<name>-<fingerprint>.<ext>`` entries under ``$REPRO_CACHE_DIR``, written
  through the checksummed atomic :mod:`~repro.runtime.store`, with one LRU
  sweep;
* :mod:`~repro.runtime.digest` — every SHA-256 in the repo: cache keys,
  embedded artifact digests, weight fingerprints and :func:`stable_seed`;
* :mod:`~repro.runtime.instrument` — per-cell wall-clock and nn
  forward/backward counters, exported as ``BENCH_runtime.json``.

Every ``REPRO_*`` environment knob is declared in :mod:`repro.runtime.env`
(the central registry — name, type, default, docstring); reads anywhere
else are flagged by lint rule R003, and the README's env-var table is
generated from the registry.
"""

from . import env
from .cache import ResultCache, cache_enabled, cache_max_bytes, cache_root
from .digest import array_fingerprint, fingerprint, stable_seed
from .grid import GridRunner
from .instrument import (CellRecord, Instrumentation, export_bench,
                         get_instrumentation, scope)
from .parallel import (WorkerError, cell_timeout, fork_available, max_retries,
                       parallel_map, worker_count)

__all__ = [
    "env",
    "GridRunner", "ResultCache", "parallel_map", "worker_count",
    "fork_available", "stable_seed", "WorkerError", "cell_timeout",
    "max_retries",
    "array_fingerprint", "cache_enabled", "cache_max_bytes", "cache_root",
    "fingerprint",
    "CellRecord", "Instrumentation", "export_bench", "get_instrumentation",
    "scope",
]
