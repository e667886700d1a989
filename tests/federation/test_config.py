"""Tests for FederationConfig and FederationFaultConfig validation."""

import pytest

from repro.federation.config import (
    ROUTING_POLICIES,
    FederationConfig,
    FederationFaultConfig,
)
from repro.experiments.common import LightweightConfig
from repro.workload.clusters import CLUSTER_B


def cell_template(**overrides) -> LightweightConfig:
    return LightweightConfig(
        preset=CLUSTER_B.scaled(0.05),
        architecture="omega",
        horizon=900.0,
        seed=0,
        **overrides,
    )


class TestFederationFaultConfig:
    def test_default_injects_nothing(self):
        config = FederationFaultConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"blackout_mtbf": 0.0},
            {"blackout_mtbf": -100.0},
            {"partition_mtbf": 0.0},
            {"flap_mtbf": -1.0},
            {"blackout_mtbf": float("nan")},
            {"partition_mtbf": float("inf")},
            {"flap_mtbf": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            FederationFaultConfig(**kwargs)

    def test_any_single_fault_enables(self):
        assert FederationFaultConfig(blackout_mtbf=100.0).enabled
        assert FederationFaultConfig(partition_mtbf=100.0).enabled
        assert FederationFaultConfig(flap_mtbf=100.0).enabled

    def test_scaled_zero_is_fully_disabled(self):
        baseline = FederationFaultConfig(
            blackout_mtbf=100.0, partition_mtbf=200.0, flap_mtbf=50.0
        )
        assert baseline.scaled(0.0) == FederationFaultConfig()
        assert not baseline.scaled(0.0).enabled

    def test_scaled_one_is_identity(self):
        baseline = FederationFaultConfig(blackout_mtbf=100.0, flap_mtbf=50.0)
        assert baseline.scaled(1.0) == baseline

    def test_scaled_divides_mtbf(self):
        baseline = FederationFaultConfig(
            blackout_mtbf=100.0, partition_mtbf=300.0
        )
        scaled = baseline.scaled(4.0)
        assert scaled.blackout_mtbf == pytest.approx(25.0)
        assert scaled.partition_mtbf == pytest.approx(75.0)
        assert scaled.flap_mtbf is None

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            FederationFaultConfig(blackout_mtbf=100.0).scaled(-1.0)


class TestFederationConfig:
    def test_policies_are_the_documented_set(self):
        assert ROUTING_POLICIES == ("round-robin", "least-loaded")

    def test_defaults_are_the_degenerate_baseline(self):
        config = FederationConfig(cell_config=cell_template())
        assert config.num_cells == 1
        assert config.staleness == 0.0
        assert config.policy == "round-robin"
        assert not config.fault_config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cells": 0},
            {"num_cells": -2},
            {"policy": "hash-ring"},
            {"staleness": -1.0},
            {"policy": "weighted-random"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FederationConfig(cell_config=cell_template(), **kwargs)
