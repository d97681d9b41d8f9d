"""Unit tests for repro.inference.propagation (Step 3)."""

import numpy as np
import pytest

from repro.config import PropagationConfig
from repro.exceptions import InferenceError
from repro.graphs import PreferenceGraph
from repro.inference.propagation import propagate_matrix


@pytest.fixture
def smoothed_chain():
    """Strongly connected smoothed chain 0 -> 1 -> 2 -> 3 (0.9/0.1)."""
    graph = PreferenceGraph(4)
    for i in range(3):
        graph.add_edge(i, i + 1, 0.9)
        graph.add_edge(i + 1, i, 0.1)
    return graph.weight_matrix()


def closure_graph(smoothed, config=None):
    """Step 3's closure as a :class:`PreferenceGraph`."""
    return PreferenceGraph.from_matrix(propagate_matrix(smoothed, config))


class TestPropagateMatrix:
    def test_output_is_complete_and_normalised(self, smoothed_chain):
        matrix = propagate_matrix(smoothed_chain)
        n = 4
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert matrix[i, j] == 0.0
                else:
                    assert 0.0 < matrix[i, j] < 1.0
        off = ~np.eye(n, dtype=bool)
        assert np.allclose((matrix + matrix.T)[off], 1.0)

    def test_transitivity_direction(self, smoothed_chain):
        """The hidden pair (0, 3) must lean the transitive way."""
        matrix = propagate_matrix(smoothed_chain)
        assert matrix[0, 3] > 0.5
        assert matrix[3, 0] < 0.5

    def test_direct_edges_dominate_with_alpha_one(self, smoothed_chain):
        matrix = propagate_matrix(
            smoothed_chain, PropagationConfig(alpha=1.0, max_hops=3)
        )
        assert matrix[0, 1] == pytest.approx(0.9, abs=1e-6)

    def test_alpha_zero_uses_only_indirect(self, smoothed_chain):
        """With alpha=0 a directly compared pair is still scored via its
        2-hop walks, not its direct edge."""
        full = propagate_matrix(
            smoothed_chain, PropagationConfig(alpha=0.0, max_hops=3)
        )
        assert full[0, 1] != pytest.approx(0.9, abs=1e-3)
        assert 0.0 < full[0, 1] < 1.0

    def test_exact_and_walk_methods_agree_on_direction(self, smoothed_chain):
        exact = propagate_matrix(
            smoothed_chain, PropagationConfig(method="exact", max_hops=3)
        )
        walks = propagate_matrix(
            smoothed_chain, PropagationConfig(method="walks", max_hops=3)
        )
        assert np.array_equal(exact > 0.5, walks > 0.5)

    def test_auto_selects_exact_for_small_n(self, smoothed_chain):
        auto = propagate_matrix(
            smoothed_chain,
            PropagationConfig(method="auto", exact_threshold=9, max_hops=3),
        )
        exact = propagate_matrix(
            smoothed_chain, PropagationConfig(method="exact", max_hops=3)
        )
        assert np.allclose(auto, exact)

    def test_single_object_rejected(self):
        with pytest.raises(InferenceError):
            propagate_matrix(np.zeros((1, 1)))

    def test_no_evidence_pair_gets_half(self):
        """Two disconnected contested pairs: cross pairs have no paths at
        all, so they normalise to 0.5."""
        graph = PreferenceGraph(4)
        graph.add_edge(0, 1, 0.8)
        graph.add_edge(1, 0, 0.2)
        graph.add_edge(2, 3, 0.8)
        graph.add_edge(3, 2, 0.2)
        matrix = propagate_matrix(graph.weight_matrix(),
                                  PropagationConfig(max_hops=3))
        assert matrix[0, 2] == pytest.approx(0.5)
        assert matrix[1, 3] == pytest.approx(0.5)

    def test_subnormal_pair_total_stays_normalised(self):
        """A subnormal alpha on a pair with no indirect evidence leaves
        a subnormal pair total; normalising must still give
        w_ij + w_ji = 1 in the evidence's direction (found by the
        Theorem 5.1 property: both directions used to hit the clip)."""
        smoothed = np.array([[0.0, 0.9504637], [0.14415961, 0.0]])
        closure = propagate_matrix(
            smoothed, PropagationConfig(alpha=5e-324, method="walks")
        )
        assert closure[0, 1] + closure[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert closure[0, 1] > closure[1, 0]


    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("method, bad", [
        ("walks", np.inf), ("walks", np.nan), ("exact", np.inf),
    ])
    def test_non_finite_matrix_is_an_inference_error(self, smoothed_chain,
                                                     method, bad):
        """A non-finite entry, as an overflowing walk sum leaves, is
        refused; its pair used to normalise to 0.5 without a word (the
        exact kernel refuses a NaN input itself)."""
        smoothed = smoothed_chain.copy()
        smoothed[0, 1] = bad
        with pytest.raises(InferenceError, match="not finite"):
            propagate_matrix(smoothed, PropagationConfig(method=method))

    def test_small_lollipop_ranks_in_truth_order(self):
        """A fully compared 6-clique with an 8-chain off its last
        member, each pair won by the lower id 3 votes to 0: the walk
        sums stay finite and every pair keeps its direction."""
        from repro.inference import RankingPipeline
        from repro.types import Vote, VoteSet

        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        pairs += [(k, k + 1) for k in range(5, 13)]
        votes = VoteSet.from_votes(14, [
            Vote(worker=w, winner=i, loser=j)
            for i, j in pairs for w in range(3)
        ])
        result = RankingPipeline().run(votes, np.random.default_rng(1))
        assert list(result.ranking.order) == list(range(14))


class TestPropagatePreferences:
    def test_returns_complete_graph(self, smoothed_chain):
        closure = closure_graph(smoothed_chain)
        assert closure.is_complete()
        closure.validate(smoothed=True)

    def test_theorem_5_1_hp_always_exists(self, smoothed_chain):
        """A complete graph is always Hamiltonian."""
        from repro.graphs.hamiltonian import has_hamiltonian_path

        closure = closure_graph(smoothed_chain)
        assert has_hamiltonian_path(closure)

    def test_matches_matrix_form(self, smoothed_chain):
        closure = closure_graph(smoothed_chain)
        matrix = propagate_matrix(smoothed_chain)
        assert np.array_equal(closure.weight_matrix(), matrix)
