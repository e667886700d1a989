"""The repo benchmark's span targets must keep resolving.

``bench/spans.py`` names public functions by ``(module, dotted path)``
and patches them in the traced run only; a renamed function shows there
as a stderr warning and a null per-layer metric. This resolves every
target the way ``Tracer.install`` does, without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[2] / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(target[1], target[2]) for target in spans.TARGETS}),
)
def test_span_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, last = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    target = owner[last] if isinstance(owner, dict) else getattr(owner, last)
    assert callable(target)
