"""Keep the process-global trace recorder isolated per test (the
supervisor emits ``recovery.*`` events)."""

from __future__ import annotations

import pytest

from repro.obs import reset_recorder


@pytest.fixture(autouse=True)
def _fresh_recorder():
    reset_recorder()
    yield
    reset_recorder()
