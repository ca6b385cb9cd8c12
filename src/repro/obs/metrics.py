"""Process-wide metrics primitives: counters, gauges, histograms.

The registry is deliberately small and dependency-free.  All metric
types are thread-safe; counters reject negative increments so a reader
can rely on monotonicity.  Histograms keep exact count/sum/min/max plus
cumulative counts in fixed log-scale buckets (:data:`BOUNDS`), from
which percentile summaries are interpolated, so a histogram's memory
is the same after a thousand values and after a billion, and two
histograms merge exactly.

Exporters:

* :meth:`MetricsRegistry.snapshot` — plain nested dict;
* :meth:`MetricsRegistry.to_json` — the snapshot as JSON;
* :meth:`MetricsRegistry.to_text` — a Prometheus-style text page
  (``name{label="value"} 12``).
"""

from __future__ import annotations

import json
import math
import threading
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(key: LabelKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically non-decreasing integer metric."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A metric that can move in both directions."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


#: Bucket upper bounds (seconds) shared by every :class:`Histogram`:
#: eight per octave, ``2 ** (k / 8)`` for ``k`` from -160 to 80, so
#: from 2**-20 s (0.95 us) to 2**10 s (1,024 s).  A bucket is at most
#: 9.05 % wider than its lower bound; bucket ``i`` holds the values in
#: ``(BOUNDS[i - 1], BOUNDS[i]]`` (``bisect_left``), and the two edge
#: buckets everything below the first bound and above the last.
BOUNDS: Tuple[float, ...] = tuple(2.0 ** (k / 8) for k in range(-160, 81))
#: Number of buckets: one more than there are bounds.
N_BUCKETS = len(BOUNDS) + 1


class Histogram:
    """Fixed log-scale buckets (:data:`BOUNDS`) plus exact sum/min/max.

    ``count`` is exact (the counts sum to it), so is ``total``; memory
    is one fixed array of :data:`N_BUCKETS` counts however many values
    were observed.  Quantiles are interpolated within a bucket and
    clamped to ``[min, max]``; :meth:`merge` adds another histogram in,
    so shards and replicas sum to exactly the histogram of all their
    values.

    :meth:`observe` takes the histogram's lock.  A histogram only one
    thread ever writes may be written inline by that thread instead,
    as the controller's loop records each device batch (no call per
    value)::

        h.counts[bisect_left(BOUNDS, v)] += 1
        h.total += v
        if v < h.min: h.min = v
        if v > h.max: h.max = v

    Readers on other threads may then see one value half-recorded.
    """

    __slots__ = ("_lock", "counts", "total", "min", "max")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts = array("Q", bytes(8 * N_BUCKETS))
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(BOUNDS, value)] += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s values to this histogram; returns ``self``."""
        with other._lock:
            counts = array("Q", other.counts)
            total, lo, hi = other.total, other.min, other.max
        with self._lock:
            mine = self.counts
            for i, n in enumerate(counts):
                if n:
                    mine[i] += n
            self.total += total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)
        return self

    def quantile(self, pct: float) -> float:
        """The ``pct`` percentile (``pct`` in [0, 100]) as
        :func:`repro.analysis.stats.percentile` interpolates it between
        the two values ranked around it — each value placed evenly
        within its bucket.  0.0 when nothing was observed."""
        if not 0 <= pct <= 100:
            raise ValueError(f"pct must be in [0, 100], got {pct}")
        with self._lock:
            counts = list(self.counts)
            lo, hi = self.min, self.max
        n = sum(counts)
        if not n:
            return 0.0
        rank = pct / 100 * (n - 1)
        low = int(rank)
        value = _ranked(counts, n, low, lo, hi)
        frac = rank - low
        if frac:
            value += frac * (_ranked(counts, n, low + 1, lo, hi) - value)
        return min(max(value, lo), hi)

    def summary(self) -> dict:
        with self._lock:
            count, total = sum(self.counts), self.total
            lo, hi = self.min, self.max
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": lo if count else None,
            "max": hi if count else None,
        }
        if count:
            for pct in (50, 90, 99):
                out[f"p{pct}"] = self.quantile(pct)
        return out


def _ranked(
    counts: List[int], n: int, rank: int, lo: float, hi: float
) -> float:
    """Where the value of 0-based ``rank`` sits: the first is ``lo`` and
    the last ``hi`` (the observed min and max), any other the ``k``-th
    of the ``c`` values in its bucket, at ``(k + 0.5) / c`` of the
    bucket's span cut to ``[lo, hi]``."""
    if rank == 0:
        return lo
    if rank == n - 1:
        return hi
    seen = 0
    for i, c in enumerate(counts):
        if rank < seen + c:
            low = max(BOUNDS[i - 1], lo) if i else lo
            high = min(BOUNDS[i], hi) if i < len(BOUNDS) else hi
            return low + (rank - seen + 0.5) / c * (high - low)
        seen += c
    return hi


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    ``generation`` increments on every :meth:`reset`; hot callers may
    cache metric handles keyed on it instead of re-resolving name +
    labels per event (see ``Runtime._apply``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[LabelKey, object] = {}
        self.generation = 0

    def _get(self, cls, name: str, labels: Dict[str, str]):
        key = (name, ()) if not labels else _key(name, labels)
        # Lock-free fast path: dict reads are atomic under the GIL, and
        # an existing entry is never replaced, so a hit needs no lock.
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls()
                    self._metrics[key] = metric
        if type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def _items(self) -> List[Tuple[LabelKey, object]]:
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key, metric in self._items():
            rendered = _render_key(key)
            if isinstance(metric, Counter):
                out["counters"][rendered] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][rendered] = metric.value
            elif isinstance(metric, Histogram):
                out["histograms"][rendered] = metric.summary()
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        lines: List[str] = []
        for key, metric in self._items():
            rendered = _render_key(key)
            if isinstance(metric, Counter):
                lines.append(f"{rendered} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"{rendered} {metric.value}")
            elif isinstance(metric, Histogram):
                summary = metric.summary()
                name, labels = key
                for field in ("count", "sum", "p50", "p90", "p99"):
                    if field not in summary:
                        continue
                    lines.append(
                        f"{_render_key((f'{name}_{field}', labels))} "
                        f"{summary[field]}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.generation += 1
