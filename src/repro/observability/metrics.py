"""The process-wide metrics registry: counters, gauges, histograms.

Before this module existed, telemetry was fragmented: ``ReliableLLM``
kept ad-hoc integer counters, the scheduler kept a ``SchedulerStats``
dataclass, the executor kept ``NodeStats`` — three shapes, three
snapshot methods, and no way to answer "what did this process do?" in
one call. The registry is the single surface those components now also
publish into (their legacy ``metrics()``/``stats()`` methods remain as
compatibility shims over per-instance state).

Design rules
------------
* **Get-or-create**: ``registry.counter("llm.cache_hits")`` returns the
  same instrument every time; re-registering a name as a different kind
  raises. Instrument names are dotted (``subsystem.metric``), so the
  snapshot groups naturally by prefix.
* **Aggregate semantics**: instruments are shared across instances (two
  ``ReliableLLM`` clients both increment ``llm.cache_hits``), exactly
  like a Prometheus counter. Per-instance numbers stay available on the
  instances themselves.
* **Exact counts, sampled distributions**: counters and gauges are
  exact under concurrency; histograms keep exact count/sum/min/max and
  compute percentiles from a bounded reservoir of recent observations.
* **Consistent snapshots**: :meth:`MetricsRegistry.snapshot` holds the
  registration lock while reading, so a snapshot never sees a
  half-registered instrument and every read of a single instrument is
  atomic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

#: Guards the value of every instrument. An update holds it for a few
#: bytecodes, so sharing it costs nothing, and a caller that moves
#: several instruments per event (one LLM call moves six) can do so
#: under one acquisition: :meth:`MetricsRegistry.add_all`.
_VALUES = threading.Lock()

#: How many recent observations a histogram keeps for its percentiles.
HISTOGRAM_SAMPLES = 1024


class Counter:
    """A monotonically increasing value (float increments allowed)."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def inc(self, amount: "int | float" = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        with _VALUES:
            self._add(amount)

    def _add(self, amount: "int | float") -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def value(self) -> float:
        """Current cumulative value."""
        with _VALUES:
            return self._value

    def _reset(self) -> None:
        with _VALUES:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depth, pool size)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    def set(self, value: "int | float") -> None:
        """Set the gauge to an absolute value."""
        with _VALUES:
            self._value = float(value)

    def inc(self, amount: "int | float" = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with _VALUES:
            self._value += amount

    def value(self) -> float:
        """Current value."""
        with _VALUES:
            return self._value

    def _reset(self) -> None:
        with _VALUES:
            self._value = 0.0


class Histogram:
    """A distribution: exact count/sum/min/max, sampled percentiles.

    The percentile estimate comes from a bounded reservoir of the most
    recent :data:`HISTOGRAM_SAMPLES` observations (deterministic — no
    random sampling — so tests can assert on it).
    """

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: Deque[float] = deque(maxlen=HISTOGRAM_SAMPLES)

    def observe(self, value: "int | float") -> None:
        """Record one observation."""
        with _VALUES:
            self._add(value)

    def _add(self, value: "int | float") -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._samples.append(value)

    def value(self) -> Dict[str, float]:
        """Snapshot: count, sum, min, max, mean, p50/p90/p99."""
        with _VALUES:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
            samples = list(self._samples)
        samples.sort()
        result: Dict[str, float] = {
            "count": count,
            "sum": round(total, 6),
            "min": round(lo, 6) if lo is not None else 0.0,
            "max": round(hi, 6) if hi is not None else 0.0,
            "mean": round(total / count, 6) if count else 0.0,
        }
        for percentile in (50, 90, 99):
            result[f"p{percentile}"] = round(_nearest_rank(samples, percentile), 6)
        return result

    def _reset(self) -> None:
        with _VALUES:
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
            self._samples.clear()


def _nearest_rank(sorted_samples: List[float], percentile: int) -> float:
    """Nearest-rank percentile over an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, -(-len(sorted_samples) * percentile // 100))  # ceil
    return sorted_samples[rank - 1]


class MetricsRegistry:
    """Named instruments, get-or-create, one consistent snapshot.

    Components accept a ``registry`` parameter defaulting to the
    process-global registry (:func:`get_registry`), so a test that wants
    isolation constructs its own and passes it down.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, Counter | Gauge | Histogram]" = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(name, Histogram)

    def _get_or_create(self, name: str, cls: type) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as "
                    f"{instrument.kind}, not {cls.kind}"
                )
            return instrument

    @staticmethod
    def add_all(updates: "Iterable[Tuple[Counter | Histogram, int | float]]") -> None:
        """``inc`` each counter and ``observe`` each histogram by the
        amount paired with it, all under one lock acquisition."""
        with _VALUES:
            for instrument, amount in updates:
                instrument._add(amount)

    def names(self) -> List[str]:
        """Sorted names of all registered instruments."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """A consistent point-in-time read of every instrument.

        Counters and gauges map to their value; histograms map to their
        summary dict. ``prefix`` filters by name prefix.
        """
        with self._lock:
            instruments = [
                instrument
                for name, instrument in sorted(self._instruments.items())
                if name.startswith(prefix)
            ]
            return {
                instrument.name: instrument.value() for instrument in instruments
            }

    def reset(self) -> None:
        """Zero every instrument (keeps registrations)."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument._reset()


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry components publish into by default."""
    return _GLOBAL_REGISTRY
