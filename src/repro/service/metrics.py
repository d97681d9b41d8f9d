"""Lightweight run metrics for the batch service.

A :class:`MetricsRegistry` is a thread-safe bag of named **counters**
(monotonic totals: jobs succeeded, cache hits, retries, ...) and
**timers** (count / total / min / max / mean plus p50/p95/p99 tail
percentiles of observed durations: whole-job latency,
per-pipeline-step latency aggregated from
:attr:`~repro.types.InferenceResult.step_seconds`).  It deliberately has
no external dependencies and no background machinery: callers record,
:meth:`~MetricsRegistry.snapshot` renders one JSON-ready dict, done.

Percentiles come from a bounded reservoir per timer (Vitter's
Algorithm R over a deterministically seeded picker), so memory stays
constant no matter how many observations arrive while the quantile
estimates remain unbiased over the full series.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..exceptions import ConfigurationError

#: Default number of samples each timer retains for percentile estimates.
DEFAULT_RESERVOIR_CAPACITY = 512

#: The tail percentiles every timer reports (p50/p95/p99).
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass
class TimerStats:
    """Aggregate of one named duration series.

    Besides the exact running aggregates (count/total/min/max), a
    bounded reservoir of at most ``reservoir_capacity`` samples supports
    approximate percentiles: below capacity the reservoir is exact;
    beyond it each observation replaces a uniformly random slot
    (Algorithm R), keeping every past observation equally likely to be
    represented.  The replacement picker is seeded deterministically so
    identical observation sequences yield identical percentile reports.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY
    _samples: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.reservoir_capacity < 1:
            raise ConfigurationError(
                f"reservoir_capacity must be >= 1, got {self.reservoir_capacity}"
            )
        self._picker = random.Random(0x5EED)

    def observe(self, seconds: float) -> None:
        """Fold one observation into the aggregate."""
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)
        if len(self._samples) < self.reservoir_capacity:
            self._samples.append(seconds)
        else:
            slot = self._picker.randrange(self.count)
            if slot < self.reservoir_capacity:
                self._samples[slot] = seconds

    def copy(self) -> "TimerStats":
        """An independent clone (own reservoir and picker state)."""
        dup = TimerStats(
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
            reservoir_capacity=self.reservoir_capacity,
            _samples=list(self._samples),
        )
        dup._picker.setstate(self._picker.getstate())
        return dup

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (in (0, 100]) over the reservoir.

        Returns 0.0 before the first observation.  Exact while fewer
        than ``reservoir_capacity`` observations were made; an unbiased
        estimate afterwards.
        """
        if not 0 < q <= 100:
            raise ConfigurationError(f"percentile must be in (0, 100], got {q}")
        return _nearest_rank(sorted(self._samples), q)

    def percentiles(self) -> Dict[str, float]:
        """The reported tail percentiles as ``{"p50": ..., ...}``."""
        ordered = sorted(self._samples)
        return {
            f"p{q:g}": _nearest_rank(ordered, q) for q in REPORTED_PERCENTILES
        }

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready view, with a derived mean and tail percentiles."""
        payload = {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "min": round(self.min, 6) if self.count else 0.0,
            "max": round(self.max, 6),
        }
        for name, value in self.percentiles().items():
            payload[name] = round(value, 6)
        return payload


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of sorted ``ordered`` (0.0 when
    empty)."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class MetricsRegistry:
    """Thread-safe counters + timers with a JSON snapshot.

    Naming convention (dots as separators): ``jobs.succeeded``,
    ``cache.hits``, ``retry.attempts``, timer ``job.seconds``, timers
    ``step.<pipeline step>`` for the Fig.-4 style breakdown, and
    ``http.*`` for the serving layer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, TimerStats] = {}

    def increment(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        if not name:
            raise ConfigurationError("counter name must be non-empty")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer ``name``."""
        if not name:
            raise ConfigurationError("timer name must be non-empty")
        if seconds < 0:
            raise ConfigurationError("duration must be non-negative")
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:  # built on first use: it seeds a picker
                stats = self._timers[name] = TimerStats()
            stats.observe(seconds)

    def observe_steps(self, step_seconds: Mapping[str, float]) -> None:
        """Fold a result's per-step timings into ``step.<name>`` timers."""
        for step, seconds in step_seconds.items():
            self.observe(f"step.{step}", seconds)

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def timer(self, name: str) -> TimerStats:
        """A point-in-time copy of one timer (empty when never observed).

        Taken under the registry lock, so percentile computations on the
        returned object never race concurrent ``observe`` calls mutating
        the live reservoir.
        """
        with self._lock:
            stats = self._timers.get(name)
            return stats.copy() if stats is not None else TimerStats()

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready dict: counters, timers, derived rates.

        Derived values currently include ``cache_hit_rate`` — cache hits
        over all cache lookups — whenever any lookup was recorded.
        """
        with self._lock:
            counters = dict(self._counters)
            timers = {
                name: stats.as_dict() for name, stats in self._timers.items()
            }
        derived: Dict[str, float] = {}
        lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
        if lookups:
            derived["cache_hit_rate"] = round(
                counters.get("cache.hits", 0) / lookups, 6
            )
        return {"counters": counters, "timers": timers, "derived": derived}
