"""Unit tests for repro.graphs.closure (propagation kernels)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.closure import (
    _reachability,
    propagate_exact_paths,
    propagate_walks,
)


def weight_matrix(n, edges):
    """Dense ``(n, n)`` weights from ``(u, v, w)`` triples."""
    weights = np.zeros((n, n))
    for u, v, w in edges:
        weights[u, v] = w
    return weights


def path_matrix(n, weight):
    """The chain ``0 -> 1 -> ... -> n-1`` with one weight throughout."""
    return weight_matrix(n, [(i, i + 1, weight) for i in range(n - 1)])


@pytest.fixture
def chain():
    """0 -> 1 -> 2 -> 3 with distinct weights."""
    return weight_matrix(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)])


class TestTransitiveClosureBool:
    """The boolean transitive closure, as ``_reachability`` computes it
    on the weight matrix."""

    def test_chain_reachability(self, chain):
        closure = _reachability(chain)
        assert closure[0, 3]
        assert closure[0, 2]
        assert not closure[3, 0]
        assert not closure[0, 0]

    def test_cycle_reaches_everything(self):
        cycle = weight_matrix(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        closure = _reachability(cycle)
        off_diagonal = ~np.eye(3, dtype=bool)
        assert closure[off_diagonal].all()


class TestPropagateExactPaths:
    def test_chain_products(self, chain):
        indirect = propagate_exact_paths(chain)
        assert indirect[0, 2] == pytest.approx(0.9 * 0.8)
        assert indirect[0, 3] == pytest.approx(0.9 * 0.8 * 0.7)
        # Direct edges (length-1) are excluded.
        assert indirect[0, 1] == 0.0

    def test_multiple_paths_summed(self):
        """Two parallel 2-hop paths from 0 to 3."""
        graph = weight_matrix(4, [(0, 1, 0.5), (1, 3, 0.5), (0, 2, 0.4),
                                  (2, 3, 0.4)])
        indirect = propagate_exact_paths(graph)
        assert indirect[0, 3] == pytest.approx(0.5 * 0.5 + 0.4 * 0.4)

    def test_length_cap_respected(self, chain):
        indirect = propagate_exact_paths(chain, max_length=2)
        assert indirect[0, 2] > 0.0
        assert indirect[0, 3] == 0.0  # needs 3 hops

    def test_simple_paths_only(self):
        """A cycle must not contribute revisiting paths."""
        graph = weight_matrix(3, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5)])
        indirect = propagate_exact_paths(graph)
        # Only path 0 -> 1 -> 2 (0 -> 1 -> 0 -> 1 -> 2 revisits).
        assert indirect[0, 2] == pytest.approx(0.25)

    def test_size_guard(self):
        with pytest.raises(GraphError):
            propagate_exact_paths(np.zeros((20, 20)), max_vertices=14)

    def test_bad_length(self, chain):
        with pytest.raises(GraphError):
            propagate_exact_paths(chain, max_length=1)

    @pytest.mark.parametrize("weights", [
        np.zeros((3, 4)),
        np.array([[0.0, -0.5], [0.5, 0.0]]),
        np.array([[0.0, np.nan], [0.5, 0.0]]),
        np.array([[0.5, 0.5], [0.5, 0.0]]),
    ], ids=["non_square", "negative", "nan", "nonzero_diagonal"])
    def test_matrix_validation(self, weights):
        with pytest.raises(GraphError):
            propagate_exact_paths(weights)


class TestPropagateWalks:
    def test_matches_exact_on_dag(self, chain):
        """On a DAG all walks are simple paths, so kernels agree."""
        walks = propagate_walks(chain, max_hops=3)
        exact = propagate_exact_paths(chain)
        assert np.allclose(walks, exact)

    def test_walks_include_revisits_on_cycles(self):
        """The 3-hop walk 1 -> 0 -> 1 -> 2 revisits vertex 1, so the walk
        kernel sees evidence for (1, 2) that simple-path enumeration
        excludes."""
        graph = weight_matrix(4, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.5),
                                  (2, 3, 0.5)])
        walks = propagate_walks(graph, max_hops=3)
        exact = propagate_exact_paths(graph)
        assert walks[1, 2] > exact[1, 2]

    def test_hop_bound(self, chain):
        walks = propagate_walks(chain, max_hops=2)
        assert walks[0, 3] == 0.0
        walks3 = propagate_walks(chain, max_hops=3)
        assert walks3[0, 3] > 0.0

    def test_ensure_coverage_extends(self):
        """A 6-chain at max_hops=2 misses the far pair unless coverage
        extension kicks in."""
        n = 6
        graph = path_matrix(n, 0.9)
        limited = propagate_walks(graph, 2, ensure_coverage=False)
        assert limited[0, n - 1] == 0.0
        covered = propagate_walks(graph, 2, ensure_coverage=True)
        assert covered[0, n - 1] > 0.0

    def test_ensure_coverage_matches_per_hop_recheck(self):
        """The hoisted loop-invariant reachability must not change the
        result: extend hop by hop with a per-iteration uncovered-pair
        check and compare."""
        n = 9
        weights = path_matrix(n, 0.8)
        weights[4, 1] = 0.3  # a back edge so walks can revisit
        max_hops = 2

        # Pre-hoist semantics: re-derive the uncovered set every
        # extension hop (reachability itself is loop-invariant).
        reachable = _reachability(weights) & ~np.eye(n, dtype=bool)
        power = weights.copy()
        expected = np.zeros_like(weights)
        hop = 1
        while hop < max_hops:
            power = power @ weights
            hop += 1
            expected += power
        while hop < n - 1 and bool(
            np.any(reachable & (expected + weights <= 0.0))
        ):
            power = power @ weights
            hop += 1
            expected += power
        np.fill_diagonal(expected, 0.0)

        covered = propagate_walks(weights, max_hops, ensure_coverage=True)
        assert np.array_equal(covered, expected)

    def test_ensure_coverage_computes_reachability_once(self, monkeypatch):
        """Reachability is loop-invariant: one call per propagate_walks,
        no matter how many extension hops run."""
        import repro.graphs.closure as closure_mod

        n = 10
        calls = {"count": 0}
        real = closure_mod._reachability

        def counting(weights):
            calls["count"] += 1
            return real(weights)

        monkeypatch.setattr(closure_mod, "_reachability", counting)
        covered = propagate_walks(path_matrix(n, 0.9), 2,
                                  ensure_coverage=True)
        # The 10-chain needs many extension hops to cover (0, 9) ...
        assert covered[0, n - 1] > 0.0
        # ... yet reachability was derived exactly once.
        assert calls["count"] == 1

    def test_zero_diagonal(self, chain):
        walks = propagate_walks(chain, max_hops=3)
        assert np.all(np.diagonal(walks) == 0.0)

    def test_validation(self):
        with pytest.raises(GraphError):
            propagate_walks(np.ones((2, 3)), 2)
        with pytest.raises(GraphError):
            propagate_walks(np.zeros((3, 3)), 1)
