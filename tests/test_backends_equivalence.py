"""Differential equivalence suite for the execution backends.

The serial backend is the oracle: every result below must be
*bit-identical* on the thread and process backends — rankings, move
counters, pipeline metadata, batch job results.  This is the contract
that makes the backend choice a pure performance knob: switching
``--backend`` may change wall-clock, never answers.

The property that makes it hold is order preservation — every backend
returns results in input order, so deterministic reductions (SAPS's
"first minimum wins" across restarts) see the same sequence no matter
how execution interleaved.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import PipelineConfig, SAPSConfig
from repro.exceptions import ConfigurationError
from repro.inference import RankingPipeline
from repro.inference.saps import saps_search_report
from repro.server import ServerConfig
from repro.service.executor import BatchExecutor
from repro.service.jobs import RankingJob, ScenarioSpec
from repro.workers import parallel_map
from repro.workers.backends import (
    BACKEND_CHOICES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)

from tests.oracles import reference_search_report

BACKENDS = ("serial", "thread", "process")


def _square(x: int) -> int:
    """Module-level so the process backend can pickle it by reference."""
    return x * x


def _preference_matrix(n: int, seed: int) -> np.ndarray:
    """A random consistent preference matrix (M[i,j] + M[j,i] == 1)."""
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.05, 0.95, size=(n, n))
    matrix = np.triu(upper, 1)
    matrix = matrix + np.tril(1.0 - matrix.T, -1)
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestParallelMapEquivalence:
    def test_results_match_serial_oracle(self):
        items = list(range(23))
        expected = parallel_map(_square, items, max_workers=1,
                                backend="serial")
        for backend in BACKENDS:
            assert parallel_map(_square, items, max_workers=4,
                                backend=backend) == expected

    def test_width_does_not_change_results(self):
        items = list(range(11))
        expected = [x * x for x in items]
        for backend in BACKENDS:
            for width in (1, 2, 7):
                assert parallel_map(_square, items, max_workers=width,
                                    backend=backend) == expected


class TestSAPSEquivalence:
    @pytest.mark.parametrize("kernel", ["incremental", "reference"])
    def test_rankings_bit_identical(self, kernel):
        """Production SAPS and the reference oracle both fan restarts
        out through ``parallel_map``; neither may see the backend."""
        search = (saps_search_report if kernel == "incremental"
                  else reference_search_report)
        matrix = _preference_matrix(18, seed=5)
        reports = {}
        for backend in BACKENDS:
            config = SAPSConfig(
                iterations=600, restarts=3, scale_with_objects=False,
                parallel_restarts=3, backend=backend,
            )
            reports[backend] = search(matrix, config, rng=99)
        oracle = reports["serial"]
        for backend in ("thread", "process"):
            report = reports[backend]
            assert report.ranking == oracle.ranking
            assert report.log_preference == oracle.log_preference
            assert report.accepted_moves == oracle.accepted_moves
            assert report.proposed_moves == oracle.proposed_moves

    def test_backend_instance_accepted(self):
        matrix = _preference_matrix(10, seed=2)
        config = SAPSConfig(iterations=300, restarts=2,
                            scale_with_objects=False, parallel_restarts=2)
        oracle = saps_search_report(matrix, config, rng=4)
        for instance in (SerialBackend(), ThreadBackend(), ProcessBackend()):
            got = saps_search_report(
                matrix,
                SAPSConfig(iterations=300, restarts=2,
                           scale_with_objects=False, parallel_restarts=2,
                           backend=instance.name),
                rng=4,
            )
            assert got.ranking == oracle.ranking


class TestPipelineEquivalence:
    def test_full_pipeline_metadata_identical(self, medium_votes):
        results = {}
        for backend in BACKENDS:
            config = PipelineConfig(
                saps=SAPSConfig(iterations=800, restarts=2,
                                parallel_restarts=2, backend=backend),
            )
            results[backend] = RankingPipeline(config).run(
                medium_votes, np.random.default_rng(7)
            )
        oracle = results["serial"]
        for backend in ("thread", "process"):
            result = results[backend]
            assert result.ranking == oracle.ranking
            assert result.log_preference == oracle.log_preference
            assert result.metadata == oracle.metadata
            assert result.worker_quality == oracle.worker_quality
            assert result.direct_preferences == oracle.direct_preferences


class TestExecutorEquivalence:
    def test_job_results_identical(self):
        jobs = [
            RankingJob(
                job_id=f"j{i}",
                scenario=ScenarioSpec(n_objects=10, selection_ratio=0.5,
                                      n_workers=8),
                seed=50 + i,
            )
            for i in range(3)
        ]
        outputs = {}
        for backend in BACKENDS:
            report = BatchExecutor(workers=2, backend=backend).run(jobs)
            assert report.ok, [r.error for r in report.results]
            outputs[backend] = [
                (r.job_id, r.status, tuple(r.result.ranking.order),
                 r.result.log_preference, r.extras)
                for r in report.results
            ]
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]


@pytest.mark.slow
class TestLargeScaleEquivalence:
    """A paper-scale differential run (n = 200, the benchmark setting
    the acceptance speedup is measured at) — too heavy for tier-1."""

    @staticmethod
    def _config(backend):
        return SAPSConfig(
            iterations=4000, restarts=4, scale_with_objects=False,
            parallel_restarts=4, backend=backend,
        )

    def test_large_instance_identical(self):
        matrix = _preference_matrix(200, seed=11)
        oracle = saps_search_report(matrix, self._config("serial"), rng=17)
        for backend in ("thread", "process"):
            report = saps_search_report(matrix, self._config(backend),
                                        rng=17)
            assert report.ranking == oracle.ranking
            assert report.log_preference == oracle.log_preference

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 cores; thread and "
                               "process are both serial on a small host")
    def test_process_beats_thread_on_multicore(self):
        # The acceptance bar of the backend layer: at n = 200 with 4
        # parallel restarts of the pure-Python kernel, real parallelism
        # must beat the GIL by >= 2x while returning the same ranking.
        matrix = _preference_matrix(200, seed=11)
        timings = {}
        rankings = {}
        for backend in ("thread", "process"):
            start = time.perf_counter()
            report = saps_search_report(matrix, self._config(backend),
                                        rng=17)
            timings[backend] = time.perf_counter() - start
            rankings[backend] = report.ranking
        assert rankings["process"] == rankings["thread"]
        assert timings["thread"] / timings["process"] >= 2.0, timings


class TestBackendSelection:
    def test_env_var_fills_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend(None).name == "serial"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None).name == "thread"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend("process").name == "process"
        assert resolve_backend(ThreadBackend()).name == "thread"

    def test_unknown_backend_rejected_everywhere(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")
        with pytest.raises(ConfigurationError):
            SAPSConfig(backend="gpu")
        with pytest.raises(ConfigurationError):
            ServerConfig(backend="gpu")
        with pytest.raises(ConfigurationError):
            BatchExecutor(backend="gpu")

    def test_registry_is_the_closed_choice_set(self):
        assert set(BACKEND_CHOICES) == {"serial", "thread", "process"}
