"""Unit tests for repro.config validation."""

import pytest

from repro.config import (
    FAST_PIPELINE,
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
    SmoothingConfig,
    TAPSConfig,
    TruthDiscoveryConfig,
)
from repro.exceptions import ConfigurationError


class TestTruthDiscoveryConfig:
    def test_defaults_valid(self):
        config = TruthDiscoveryConfig()
        assert config.max_iterations >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"tolerance": 1.5},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"min_error": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TruthDiscoveryConfig(**kwargs)


class TestSmoothingConfig:
    def test_defaults_valid(self):
        assert SmoothingConfig().mode == "expected"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"sigma_floor": 0.0},
            {"sigma_floor": 3.0, "sigma_cap": 2.0},
            {"min_weight": 0.0},
            {"min_weight": 0.6},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SmoothingConfig(**kwargs)

    def test_sampled_mode_accepted(self):
        assert SmoothingConfig(mode="sampled").mode == "sampled"


class TestPropagationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.1},
            {"max_hops": 1},
            {"method": "magic"},
            {"exact_threshold": 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PropagationConfig(**kwargs)

    def test_alpha_bounds_inclusive(self):
        assert PropagationConfig(alpha=0.0).alpha == 0.0
        assert PropagationConfig(alpha=1.0).alpha == 1.0


class TestSAPSConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"temperature": 0.0},
            {"cooling_rate": 0.0},
            {"cooling_rate": 1.0},
            {"restarts": 0},
            {"resync_every": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SAPSConfig(**kwargs)

    def test_restarts_none_means_all_vertices(self):
        assert SAPSConfig(restarts=None).restarts is None


class TestTAPSConfig:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            TAPSConfig(max_objects=1)
        with pytest.raises(ConfigurationError):
            TAPSConfig(max_objects=12)


class TestPipelineConfig:
    def test_default_search_is_saps(self):
        assert PipelineConfig().search == "saps"

    def test_unknown_search_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(search="dijkstra")

    def test_with_replaces_fields(self):
        config = PipelineConfig().with_(search="taps")
        assert config.search == "taps"
        assert PipelineConfig().search == "saps"

    def test_fast_preset_valid(self):
        assert FAST_PIPELINE.saps.iterations < PipelineConfig().saps.iterations
