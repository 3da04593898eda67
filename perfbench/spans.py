"""Timing from outside the program: operation clocks, spans and statistics.

The benchmark changes nothing inside ``repro``.  It times the program by
wrapping calls into its public functions, and restores every wrapped
attribute afterwards (:class:`Patches`).

* :class:`OpClock` stamps the start and end of each user-visible operation
  (a tick, a request, a training step).  It is the only wrapper present in
  an untraced run: two ``perf_counter`` reads per operation.
* :class:`Tracer` records one span per wrapped call, with its name, start,
  end and parent, in memory.  It is installed only in the traced run.  A
  span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter


class Patches:
    """Replace attributes on classes or modules; undo them all on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, attr: str,
             make_wrapper: Callable[[Callable], Callable]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class OpClock:
    """Start and end stamps of one kind of operation, in wall time and in
    the calling thread's CPU time."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.cpu_starts: List[float] = []
        self.cpu_ends: List[float] = []

    def before(self, original: Callable) -> Callable:
        """Wrapper factory: stamp an operation start, then call."""
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.cpu_starts.append(time.thread_time())
            self.starts.append(clock())
            return original(*args, **kwargs)
        return wrapper

    def after(self, original: Callable) -> Callable:
        """Wrapper factory: call, then stamp the operation end."""
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.ends.append(clock())
            self.cpu_ends.append(time.thread_time())
            return result
        return wrapper

    def cpu_ms(self) -> List[float]:
        """CPU milliseconds the calling thread spent in each operation."""
        return [(end - start) * 1000.0
                for start, end in zip(self.cpu_starts, self.cpu_ends)]

    def intervals(self) -> List[Tuple[float, float]]:
        if len(self.starts) != len(self.ends):
            raise RuntimeError(f"unbalanced operation stamps: "
                               f"{len(self.starts)} starts, "
                               f"{len(self.ends)} ends")
        return list(zip(self.starts, self.ends))

    def durations_ms(self) -> List[float]:
        return [(end - start) * 1000.0 for start, end in self.intervals()]


class Tracer:
    """In-memory span recorder fed by wrapped public functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.attrs: Dict[int, dict] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        if attrs:
            self.attrs[index] = attrs
        self._stack.append(index)
        self.starts.append(clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = clock()
        self._stack.pop()

    def traced(self, name: str,
               name_of: Optional[Callable[..., str]] = None,
               attrs_of: Optional[Callable[..., dict]] = None
               ) -> Callable[[Callable], Callable]:
        """Wrapper factory recording one span per call.

        ``name_of(*args, **kwargs)`` overrides the span name per call and
        ``attrs_of(*args, **kwargs)`` attaches attributes (a batch size).
        """
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = self.open(
                    name if name_of is None else name_of(*args, **kwargs),
                    None if attrs_of is None else attrs_of(*args, **kwargs))
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)
            return wrapper
        return make

    # -- analysis -------------------------------------------------------
    def layer_table(self, first: int = 0, last: Optional[int] = None
                    ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms and self ms over spans
        ``first:last`` (a contiguous block recorded by one pass)."""
        last = len(self.names) if last is None else last
        child_ms = [0.0] * (last - first)
        for index in range(first, last):
            parent = self.parents[index]
            if parent >= first:
                child_ms[parent - first] += self._ms(index)
        table: Dict[str, Dict[str, float]] = {}
        for index in range(first, last):
            row = table.setdefault(self.names[index],
                                   {"calls": 0, "total_ms": 0.0,
                                    "self_ms": 0.0})
            duration = self._ms(index)
            row["calls"] += 1
            row["total_ms"] += duration
            row["self_ms"] += duration - child_ms[index - first]
        return table

    def covered_ms(self, intervals: Sequence[Tuple[float, float]],
                   first: int = 0, last: Optional[int] = None) -> float:
        """Milliseconds of ``intervals`` covered by top-level spans.

        Spans never straddle an operation boundary here (each wrapped
        call runs inside one operation), so summing the top-level spans
        whose start falls inside an interval is exact.
        """
        last = len(self.names) if last is None else last
        roots = sorted((self.starts[i], self._ms(i))
                       for i in range(first, last) if self.parents[i] < first)
        starts = [start for start, _ in roots]
        total = 0.0
        for begin, end in intervals:
            lo = int(np.searchsorted(starts, begin, side="left"))
            hi = int(np.searchsorted(starts, end, side="left"))
            total += sum(duration for _, duration in roots[lo:hi])
        return total

    def batch_sum(self, name: str, key: str, first: int = 0,
                  last: Optional[int] = None) -> Tuple[float, int]:
        """(total ms, summed attribute ``key``) over spans called ``name``."""
        last = len(self.names) if last is None else last
        total_ms, count = 0.0, 0
        for index in range(first, last):
            if self.names[index] == name:
                total_ms += self._ms(index)
                count += int(self.attrs.get(index, {}).get(key, 0))
        return total_ms, count

    def _ms(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) * 1000.0

    def dump(self, path: str, origin: float) -> None:
        """Write every span as ``[name id, start µs, end µs, parent]``."""
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        rows = [[ids[self.names[i]],
                 round((self.starts[i] - origin) * 1e6, 1),
                 round((self.ends[i] - origin) * 1e6, 1),
                 self.parents[i]] for i in range(len(self.names))]
        with open(path, "w") as handle:
            json.dump({"names": names,
                       "columns": ["name", "start_us", "end_us", "parent"],
                       "spans": rows,
                       "attrs": {str(k): v for k, v in self.attrs.items()}},
                      handle, separators=(",", ":"))


def chunk_rates(intervals: Sequence[Tuple[float, float]],
                size: int) -> List[float]:
    """Operations per second over consecutive chunks of ``size``
    operations (a trailing partial chunk is dropped)."""
    return [size / (intervals[i + size - 1][1] - intervals[i][0])
            for i in range(0, len(intervals) - size + 1, size)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that
    has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    ordered = sorted(values)
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n
