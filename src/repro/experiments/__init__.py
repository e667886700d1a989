"""Experiments: grid builders per table/figure of the paper's evaluation
(see DESIGN.md's per-experiment index), declared once each in
:mod:`repro.experiments.registry` and run by its one driver.

Every experiment produces plain result rows (lists of dicts) so that the
benchmark harness, the CLI and the tests all consume the same code.
"""

from repro.experiments.common import (
    LightweightConfig,
    LightweightSimulation,
    run_lightweight,
)

__all__ = [
    "LightweightConfig",
    "LightweightSimulation",
    "run_lightweight",
]
