"""The workload and fault layers refuse NaN and infinite parameters where
they are given, with one ``ValueError`` naming the field, instead of
drawing NaN, running zero jobs, queueing arrivals at one instant forever,
or running a fault grid with every commit dropped or no fault at all."""

import itertools

import numpy as np
import pytest

from repro.experiments.common import LightweightConfig
from repro.experiments.conflict_avoidance import conflict_avoidance_points
from repro.experiments.federation import federation_points
from repro.experiments.resilience import resilience_points
from repro.faults import FaultConfig
from repro.federation.config import FederationFaultConfig
from repro.sim import Simulator
from repro.workload.distributions import (
    Constant,
    DiscretizedLogNormal,
    Exponential,
    LogNormal,
    Mixture,
    Uniform,
    WeightedChoice,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.job import JobType
from tests.conftest import tiny_preset

NAN, INF = float("nan"), float("inf")


def generator(horizon=100.0, rate_factor=1.0):
    return WorkloadGenerator(
        Simulator(),
        tiny_preset().batch,
        JobType.BATCH,
        np.random.default_rng(0),
        print,
        horizon,
        itertools.count(1),
        rate_factor=rate_factor,
    )


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: LightweightConfig(tiny_preset(), batch_rate_factor=INF), "batch_rate_factor"),
        (lambda: LightweightConfig(tiny_preset(), horizon=NAN), "horizon"),
        (lambda: LightweightConfig(tiny_preset(), horizon=INF), "horizon"),
        (lambda: generator(rate_factor=INF), "rate_factor"),
        (lambda: generator(rate_factor=NAN), "rate_factor"),
        (lambda: generator(horizon=NAN), "horizon"),
        (lambda: LogNormal(NAN, 1.0), "median"),
        (lambda: LogNormal(INF, 1.0), "median"),
        (lambda: LogNormal(1.0, NAN), "sigma"),
        (lambda: LogNormal(1.0, 1.0, low=NAN), "low"),
        (lambda: LogNormal(1.0, 1.0, high=NAN), "high"),
        (lambda: Exponential(NAN), "rate"),
        (lambda: Exponential(INF), "rate"),
        (lambda: Constant(NAN), "value"),
        (lambda: Constant(-INF), "value"),
        (lambda: DiscretizedLogNormal(NAN, 1.0), "median"),
        (lambda: DiscretizedLogNormal(1.0, 1.0, low=NAN), "low"),
        (lambda: Uniform(NAN, 1.0), "low"),
        (lambda: Uniform(0.0, INF), "high"),
        (lambda: WeightedChoice([1.0, 2.0], [1.0, NAN]), "weights"),
        (lambda: Mixture([Constant(1.0)], [INF]), "weights"),
        (lambda: tiny_preset().scaled(NAN), "scale factor"),
        (lambda: tiny_preset().batch.scaled_rate(INF), "rate factor"),
        # A NaN intensity would clamp both commit probabilities to 1.0
        # (min(1.0, nan)) and give NaN MTBFs, which arm no fault at all.
        (lambda: FaultConfig(commit_drop_prob=0.1).scaled(NAN), "intensity"),
        (lambda: FaultConfig(machine_mtbf=1.0).scaled(INF), "intensity"),
        (lambda: FederationFaultConfig(flap_mtbf=1.0).scaled(NAN), "intensity"),
        (lambda: resilience_points(intensities=(NAN,)), "intensity"),
        (lambda: conflict_avoidance_points(intensities=(INF,)), "intensity"),
        (lambda: federation_points(intensities=(NAN,)), "intensity"),
    ],
)
def test_nan_and_inf_are_refused_naming_the_field(build, field):
    with pytest.raises(ValueError, match=field) as refused:
        build()
    assert "\n" not in str(refused.value)
