"""Unit tests for repro.datasets (synthetic, images, amt)."""

import numpy as np
import pytest

from repro.datasets import (
    load_votes_csv,
    make_image_study,
    make_scenario,
    save_votes_csv,
)
from repro.exceptions import ConfigurationError, DataFormatError
from repro.types import Vote, VoteSet
from repro.workers import QualityLevel, UniformQuality


class TestMakeScenario:
    def test_basic_fields(self):
        scenario = make_scenario(15, 0.4, n_workers=10, workers_per_task=3,
                                 rng=0)
        assert scenario.n_objects == 15
        assert len(scenario.pool) == 10
        assert scenario.selection_ratio == 0.4
        assert scenario.workers_per_task == 3
        assert "Gaussian" in scenario.quality_name

    def test_uniform_family(self):
        scenario = make_scenario(10, 0.5, quality="uniform",
                                 level=QualityLevel.LOW, rng=0)
        assert "Uniform" in scenario.quality_name

    def test_explicit_distribution(self):
        scenario = make_scenario(10, 0.5,
                                 distribution=UniformQuality(0.0, 0.05),
                                 rng=0)
        assert scenario.pool.sigmas().max() <= 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_scenario(1, 0.5)
        with pytest.raises(ConfigurationError):
            make_scenario(10, 0.0)
        with pytest.raises(ConfigurationError):
            make_scenario(10, 0.5, n_workers=2, workers_per_task=5)
        with pytest.raises(ConfigurationError):
            make_scenario(10, 0.5, quality="exponential")

    def test_deterministic(self):
        a = make_scenario(10, 0.5, rng=4)
        b = make_scenario(10, 0.5, rng=4)
        assert a.ground_truth == b.ground_truth
        assert np.allclose(a.pool.sigmas(), b.pool.sigmas())


class TestImageStudy:
    def test_paper_rank_gap_constraint(self):
        study = make_image_study(10, rng=0)
        assert study.max_adjacent_rank_gap() <= 46

    def test_sizes(self):
        for n in (10, 20):
            study = make_image_study(n, rng=1)
            assert study.n_images == n
            assert len(study.ground_truth) == n

    def test_ground_truth_matches_scores(self):
        study = make_image_study(10, rng=2)
        ordered_scores = [study.scores[obj] for obj in study.ground_truth]
        assert all(a >= b for a, b in zip(ordered_scores, ordered_scores[1:]))

    def test_votes_collected_per_pair_and_worker(self):
        study = make_image_study(5, rng=3)
        pairs = [(0, 1), (2, 3)]
        votes = study.collect_votes(pairs, n_workers=4, rng=3)
        assert len(votes) == len(pairs) * 4
        assert set(votes.pairs()) == {(0, 1), (2, 3)}

    def test_close_images_get_conflicting_votes(self):
        """The entire point of the near-tie selection: enough noise that
        real disagreement appears."""
        study = make_image_study(10, rng=4)
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        votes = study.collect_votes(pairs, n_workers=30, rng=4)
        shares = {}
        for vote in votes:
            i, j = vote.pair
            shares.setdefault((i, j), []).append(vote.value_for(i, j))
        conflicted = sum(1 for values in shares.values()
                         if 0.0 < np.mean(values) < 1.0)
        assert conflicted > len(pairs) * 0.3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_image_study(1)
        with pytest.raises(ConfigurationError):
            make_image_study(10, catalogue_size=5)
        with pytest.raises(ConfigurationError):
            make_image_study(100, catalogue_size=100, max_rank_gap=46)
        study = make_image_study(5, rng=0)
        with pytest.raises(ConfigurationError):
            study.collect_votes([(0, 9)], n_workers=2)
        with pytest.raises(ConfigurationError):
            study.collect_votes([(1, 1)], n_workers=2)
        with pytest.raises(ConfigurationError):
            study.collect_votes([(0, 1)], n_workers=0)


class TestAmtCsv:
    def test_round_trip(self, tmp_path, tiny_votes):
        path = tmp_path / "votes.csv"
        save_votes_csv(tiny_votes, path)
        loaded = load_votes_csv(path, n_objects=4)
        assert loaded.n_objects == 4
        assert list(loaded) == list(tiny_votes)

    def test_n_objects_inferred(self, tmp_path, tiny_votes):
        path = tmp_path / "votes.csv"
        save_votes_csv(tiny_votes, path)
        assert load_votes_csv(path).n_objects == 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,2\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("worker_id,winner,loser\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "nonint.csv"
        path.write_text("worker_id,winner,loser\n0,x,2\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_self_comparison(self, tmp_path):
        path = tmp_path / "self.csv"
        path.write_text("worker_id,winner,loser\n0,2,2\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_negative_id(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("worker_id,winner,loser\n-1,0,1\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "fields.csv"
        path.write_text("worker_id,winner,loser\n0,1\n")
        with pytest.raises(DataFormatError):
            load_votes_csv(path)

    def test_declared_universe_too_small(self, tmp_path, tiny_votes):
        path = tmp_path / "votes.csv"
        save_votes_csv(tiny_votes, path)
        with pytest.raises(DataFormatError):
            load_votes_csv(path, n_objects=2)

    @pytest.mark.parametrize("row", ["10" + "0" * 29 + ",0,1",
                                     "0,1," + str(2**63)])
    def test_id_beyond_int64(self, tmp_path, row):
        path = tmp_path / "huge.csv"
        path.write_text(f"worker_id,winner,loser\n0,0,1\n{row}\n")
        with pytest.raises(DataFormatError, match="beyond int64"):
            load_votes_csv(path)

    def test_n_objects_beyond_int64(self, tmp_path):
        path = tmp_path / "top.csv"
        path.write_text(f"worker_id,winner,loser\n0,{2**63 - 1},0\n")
        with pytest.raises(DataFormatError, match="beyond int64"):
            load_votes_csv(path)
        with pytest.raises(DataFormatError, match="beyond int64"):
            load_votes_csv(path, n_objects=10**30)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("worker_id,winner,loser\n0,0,1\n\n1,1,0\n")
        assert len(load_votes_csv(path)) == 2
