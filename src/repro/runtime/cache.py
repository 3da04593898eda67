"""Content-addressed artifact store: model checkpoints and cell results.

Every artifact the experiments cache is one entry of this store, named
``<root>/<name>-<fingerprint>.<ext>`` where ``<fingerprint>`` is
:func:`~repro.runtime.digest.fingerprint` of its configuration dict:

* **model checkpoints** (the zoo's base models, diffusion priors and every
  retrained defense variant) as ``.npz`` state dicts,
* **array batches** (adversarial image sets) as ``.npz`` archives, and
* **metrics** (range errors, detection triples, ablation rows) as tagged
  JSON (see :mod:`repro.runtime.codecs`).

Cell configurations embed the *weights fingerprint* of every model they
depend on, so re-running a table recomputes only the cells whose inputs
changed.  Entries are written and read through the crash-consistent store
(:mod:`repro.runtime.store`): atomic fsync'd rename with an embedded content
digest; corrupt, torn or stale entries are quarantined to
``<root>/quarantine/`` with a logged fault event before degrading to a miss.

The root is ``$REPRO_CACHE_DIR`` (default ``<repo>/.cache``), shared with
the run journals under ``runs/``.  ``REPRO_RESULT_CACHE=0`` disables cell
results only: the model zoo opens its own always-enabled view, so it never
retrains a model.  The store grows monotonically by default; set
``REPRO_CACHE_MAX_MB`` to bound it — :meth:`ResultCache.sweep` (run after
every grid) evicts least-recently-used entries until the budget holds.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Callable, Dict, Optional

import numpy as np

from . import codecs, env, store
from .digest import fingerprint

logger = logging.getLogger(__name__)


def cache_root() -> str:
    """The store root (``$REPRO_CACHE_DIR`` or ``<repo>/.cache``)."""
    path = env.CACHE_DIR.get()
    if path is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        path = os.path.join(root, ".cache")
    return path


def cache_enabled() -> bool:
    return bool(env.RESULT_CACHE.get())


def cache_max_bytes() -> Optional[int]:
    """Size budget for the store from ``REPRO_CACHE_MAX_MB``.

    ``None`` (unset or non-positive) disables the GC sweep.
    """
    megabytes = env.CACHE_MAX_MB.get()
    if megabytes is None or megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _sweepable(name: str) -> bool:
    """Whether the LRU sweep may evict a file at the store root.

    Half-written ``*.tmp*`` files belong to an in-flight write and
    ``*.ckpt.npz`` snapshots to an in-flight training.
    """
    return ".tmp" not in name and not name.endswith(".ckpt.npz")


class ResultCache:
    """The filesystem artifact store (``enabled`` gates cell results)."""

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None):
        self.root = root if root is not None else cache_root()
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        return cache_enabled() if self._enabled is None else self._enabled

    def path(self, name: str, config: Dict[str, Any], ext: str) -> str:
        return os.path.join(self.root, f"{name}-{fingerprint(config)}.{ext}")

    # -- npz: state dicts and adversarial image batches -----------------
    def load_arrays(self, name: str, config: Dict[str, Any]
                    ) -> Optional[Dict[str, np.ndarray]]:
        if not self.enabled:
            return None
        return store.try_load_state(self.path(name, config, "npz"))

    def save_arrays(self, name: str, config: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]) -> None:
        if not self.enabled:
            return
        store.save_state(self.path(name, config, "npz"), arrays)

    def memo_array(self, name: str, config: Dict[str, Any],
                   compute: Callable[[], np.ndarray]) -> np.ndarray:
        """Single-array convenience: cache hit or compute-and-store."""
        cached = self.load_arrays(name, config)
        if cached is not None and "array" in cached:
            return cached["array"]
        array = compute()
        self.save_arrays(name, config, {"array": array})
        return array

    # -- json: metrics --------------------------------------------------
    def load_json(self, name: str, config: Dict[str, Any]) -> Optional[Any]:
        if not self.enabled:
            return None
        path = self.path(name, config, "json")
        payload = store.try_load_json(path)
        if payload is None:
            return None
        try:
            return codecs.from_jsonable(payload)
        except (KeyError, ValueError) as error:
            # Digest-valid JSON whose codec tag no longer decodes: a stale
            # layout, quarantined like any other defective artifact.
            store.quarantine(path, "stale",
                             f"{type(error).__name__}: {error}")
            return None

    def save_json(self, name: str, config: Dict[str, Any], value: Any) -> None:
        if not self.enabled:
            return
        store.save_json(self.path(name, config, "json"),
                        codecs.to_jsonable(value))

    # -- GC: max-size LRU sweep -----------------------------------------
    def sweep(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits the budget.

        Budget: explicit ``max_bytes`` > ``REPRO_CACHE_MAX_MB`` env var >
        disabled.  Only files at the root are entries, so ``runs/`` and
        ``quarantine/`` are never touched, and neither are in-flight
        ``*.tmp*`` writes or ``*.ckpt.npz`` training snapshots.  Recency is
        ``max(atime, mtime)`` — every store load touches its artifact, so
        the ordering is LRU even on ``relatime``/``noatime`` mounts.
        Evictions are atomic per entry (``os.remove``); races with
        concurrent writers/readers degrade to cache misses, never to
        corruption.  Returns the number of evicted entries.
        """
        if max_bytes is None:
            max_bytes = cache_max_bytes()
        if max_bytes is None:
            return 0
        entries = []
        total = 0
        try:
            with os.scandir(self.root) as scan:
                for entry in scan:
                    if not entry.is_file() or not _sweepable(entry.name):
                        continue
                    stat = entry.stat()
                    recency = max(stat.st_atime, stat.st_mtime)
                    entries.append((recency, stat.st_size, entry.path))
                    total += stat.st_size
        except OSError:
            return 0
        if total <= max_bytes:
            return 0
        evicted = 0
        for recency, size, path in sorted(entries):
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            logger.info("cache GC: evicted %d LRU entries (%.1f MB now "
                        "under the %.1f MB budget)", evicted,
                        total / 2 ** 20, max_bytes / 2 ** 20)
        return evicted
