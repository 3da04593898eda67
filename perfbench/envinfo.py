"""Pin and record the environment a benchmark run depends on.

Nothing is inherited from the ambient shell: :func:`pin_native_threads`
fixes the BLAS/OpenMP thread counts before numpy is imported, and
:func:`pin_repro_knobs` clears every ``REPRO_*`` variable and sets the ones
the run depends on explicitly.  Grid workers and serving replicas are each
capped at ``nproc`` and every process runs one BLAS thread, so processes ×
BLAS threads never exceeds ``nproc`` (two BLAS threads per grid worker made
the FGSM cell 2.8× slower on a 2-core host).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from typing import Dict

BLAS_THREADS = 1
MAX_REPLICAS = 3   # the serving default (REPRO_SERVE_REPLICAS)

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_native_threads() -> None:
    """Fix native thread pools; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_native_threads() must run before numpy is "
                           "imported")
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def worker_counts() -> Dict[str, int]:
    cores = nproc()
    return {"grid_workers": cores, "serve_replicas": min(MAX_REPLICAS, cores)}


def pin_repro_knobs(cache_dir: str) -> Dict[str, str]:
    """Clear ambient ``REPRO_*`` variables and set the ones the run uses.

    Values are the registry defaults except: the result cache and model
    cache live in the run's private ``cache_dir``, the GC sweep and the
    hang monitor are off, no fault plan, sanitizer or journal is active,
    and the worker/replica counts are the capped ones above.
    """
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    counts = worker_counts()
    knobs = {
        "REPRO_WORKERS": str(counts["grid_workers"]),
        "REPRO_RESULT_CACHE": "1",
        "REPRO_CACHE_DIR": cache_dir,
        "REPRO_CACHE_MAX_MB": "0",
        "REPRO_CELL_TIMEOUT": "0",
        "REPRO_MAX_RETRIES": "2",
        "REPRO_FAULT_PLAN": "",
        "REPRO_SANITIZE": "",
        "REPRO_CKPT_EVERY": "1",
        "REPRO_RUN_ID": "",
        "REPRO_SERVE_REPLICAS": str(counts["serve_replicas"]),
        "REPRO_SERVE_DEADLINE_MS": "45.0",
        "REPRO_SERVE_RETRIES": "2",
        "REPRO_SERVE_HEDGE_PCT": "95.0",
        "REPRO_SERVE_QUEUE_MS": "120.0",
        "REPRO_SERVE_WALL_TIMEOUT": "10.0",
    }
    os.environ.update(knobs)
    return knobs


def blas_threads() -> int:
    """Thread count reported by numpy's bundled OpenBLAS (-1: unknown)."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return -1


def record(knobs: Dict[str, str]) -> Dict[str, object]:
    """Everything the timings depend on, for the run report."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts = worker_counts()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
        "grid_workers": counts["grid_workers"],
        "serve_replicas": counts["serve_replicas"],
        "repro_knobs": {name: value for name, value in knobs.items()
                        if name != "REPRO_CACHE_DIR"},
        "machine": platform.machine(),
    }


def cpu_times():
    """Aggregate CPU jiffies from ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return None
    return [int(value) for value in fields]


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two samples: host
    contention that slows every timing without showing in the guest."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0
