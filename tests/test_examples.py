"""Every ``examples/*.py`` runs end to end, and the custom-scheduler
example tells its story through the public plan seam."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def run_example(path: Path, capsys, monkeypatch) -> str:
    monkeypatch.setattr("sys.argv", [str(path)])
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_all_six_examples_are_covered():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys, monkeypatch):
    assert run_example(path, capsys, monkeypatch).strip()


def test_canary_example_places_probes_then_finishes(capsys, monkeypatch):
    path = next(p for p in EXAMPLES if p.stem == "custom_scheduler")
    out = run_example(path, capsys, monkeypatch)
    assert "[    0.60s] canary for job 1 placed; probing for 30s" in out
    assert "risky job fully scheduled: True" in out
    assert "canary phase + main phase attempts: 2" in out
    # 0.6 s canary attempt + 30 s probe + 0.6 s for the other 19 tasks.
    assert "remainder scheduled at t=31.20s" in out
    source = path.read_text()
    assert "._" not in source  # public API only
