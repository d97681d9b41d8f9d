"""Unit tests for the service metrics registry."""

import hashlib
import json
import random
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.service import MetricsRegistry, TimerStats


class TestCounters:
    def test_increment_and_read(self):
        metrics = MetricsRegistry()
        metrics.increment("jobs.total")
        metrics.increment("jobs.total", 2)
        assert metrics.counter("jobs.total") == 3
        assert metrics.counter("never.touched") == 0

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().increment("")


class TestTimers:
    def test_observe_aggregates(self):
        metrics = MetricsRegistry()
        for seconds in (0.1, 0.3, 0.2):
            metrics.observe("job.seconds", seconds)
        timer = metrics.snapshot()["timers"]["job.seconds"]
        assert timer["count"] == 3
        assert timer["total"] == pytest.approx(0.6)
        assert timer["mean"] == pytest.approx(0.2)
        assert timer["min"] == pytest.approx(0.1)
        assert timer["max"] == pytest.approx(0.3)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().observe("t", -0.1)

    def test_observe_steps_prefixes(self):
        metrics = MetricsRegistry()
        metrics.observe_steps({"truth_discovery": 0.4, "search": 1.2})
        timers = metrics.snapshot()["timers"]
        assert set(timers) == {"step.truth_discovery", "step.search"}


class TestPercentiles:
    def test_exact_below_reservoir_capacity(self):
        stats = TimerStats()
        for value in range(1, 101):          # 1..100 in order
            stats.observe(float(value))
        assert stats.percentile(50) == 50.0  # nearest-rank: ceil(0.5*100)
        assert stats.percentile(95) == 95.0
        assert stats.percentile(99) == 99.0
        assert stats.percentiles() == {"p50": 50.0, "p95": 95.0,
                                       "p99": 99.0}

    def test_insertion_order_is_irrelevant(self):
        forward, backward = TimerStats(), TimerStats()
        for value in range(1, 101):
            forward.observe(float(value))
            backward.observe(float(101 - value))
        assert forward.percentiles() == backward.percentiles()

    def test_reservoir_stays_bounded(self):
        stats = TimerStats(reservoir_capacity=16)
        for value in range(10_000):
            stats.observe(float(value))
        assert len(stats._samples) == 16
        assert stats.count == 10_000
        # Estimates stay inside the observed range.
        assert 0.0 <= stats.percentile(50) <= 9999.0

    def test_reservoir_replacement_is_deterministic(self):
        def run():
            stats = TimerStats(reservoir_capacity=8)
            for value in range(1000):
                stats.observe(float(value % 37))
            return stats.percentiles()

        assert run() == run()

    def test_empty_timer_reports_zero(self):
        stats = TimerStats()
        assert stats.percentile(95) == 0.0
        assert stats.as_dict()["p95"] == 0.0

    def test_invalid_quantile_rejected(self):
        stats = TimerStats()
        stats.observe(1.0)
        for bad in (0, -5, 101):
            with pytest.raises(ConfigurationError):
                stats.percentile(bad)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            TimerStats(reservoir_capacity=0)

    def test_snapshot_carries_percentiles(self):
        metrics = MetricsRegistry()
        for value in (0.1, 0.2, 0.3, 0.4):
            metrics.observe("job.seconds", value)
        timer = metrics.snapshot()["timers"]["job.seconds"]
        assert timer["p50"] == pytest.approx(0.2)
        assert timer["p95"] == pytest.approx(0.4)
        assert timer["p99"] == pytest.approx(0.4)


class TestSnapshot:
    def test_cache_hit_rate_derived(self):
        metrics = MetricsRegistry()
        metrics.increment("cache.hits", 3)
        metrics.increment("cache.misses", 1)
        assert metrics.snapshot()["derived"]["cache_hit_rate"] == 0.75

    def test_no_lookups_no_rate(self):
        assert "cache_hit_rate" not in MetricsRegistry().snapshot()["derived"]

    def test_snapshot_is_a_copy(self):
        metrics = MetricsRegistry()
        metrics.increment("a")
        snap = metrics.snapshot()
        snap["counters"]["a"] = 999
        assert metrics.counter("a") == 1

    def test_seeded_series_snapshot_is_byte_identical(self):
        """A fixed observation series, past the reservoir's capacity on
        one timer, renders exactly the bytes it rendered when every
        observation built a throwaway timer and each percentile sorted
        the reservoir again (digest recorded from that code)."""
        metrics = MetricsRegistry()
        draw = random.Random(20261019)
        names = ["job.seconds", "batch.seconds", "step.truth",
                 "http.request.seconds"]
        for index in range(3000):
            metrics.observe(names[index % 4] if index % 7 else names[0],
                            draw.expovariate(40.0))
            if index % 5 == 0:
                metrics.increment("cache.hits" if index % 3
                                  else "cache.misses")
        text = json.dumps(metrics.snapshot(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "aad649717d025db4d20ebb6cc72498252a8d673a52da720bfcbc7374bf926b72"
        )

    def test_timer_is_a_point_in_time_copy(self):
        metrics = MetricsRegistry()
        metrics.observe("t", 1.0)
        view = metrics.timer("t")
        # Later observations never leak into the copy (so percentile
        # sorts cannot race concurrent writers on the live reservoir)...
        metrics.observe("t", 9.0)
        assert view.count == 1
        assert view.percentile(50) == 1.0
        assert metrics.timer("t").count == 2
        # ...and mutating the copy never touches the registry.
        view.observe(100.0)
        assert metrics.timer("t").max == 9.0

    def test_timer_copy_preserves_reservoir_determinism(self):
        # The copy carries the picker state, so a copy taken mid-series
        # (after replacement began) continues exactly like the original.
        original = TimerStats(reservoir_capacity=8)
        for i in range(20):
            original.observe(float(i))
        clone = original.copy()
        for i in range(20, 60):
            original.observe(float(i))
            clone.observe(float(i))
        assert clone._samples == original._samples
        assert clone.percentiles() == original.percentiles()


def test_thread_safety_under_contention():
    metrics = MetricsRegistry()

    def hammer():
        for _ in range(1000):
            metrics.increment("contended")
            metrics.observe("contended.seconds", 0.001)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert metrics.counter("contended") == 8000
    assert metrics.snapshot()["timers"]["contended.seconds"]["count"] == 8000
