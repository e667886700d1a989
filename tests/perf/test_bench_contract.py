"""The repo benchmark's way of driving a world must keep working.

``bench/child.py`` builds each point of ``bench/workloads.py``, hangs a
profiler on ``world.sim``, runs the loop in slices, calls ``run()`` and
flattens the result (bench/README.md, "What the harness imports"). This
drives one short point of every workload — and of every architecture of
``arch_sweep`` — exactly that way. It also pins *where* the initial
fill happens: ``bench/spans.py`` times ``populate`` by patching the
name in ``repro.experiments.common`` and ``repro.hifi.replay``, so a
refactor that keeps those names but calls the function from elsewhere
would silently drain ``workload.initial_fill_s``. Likewise
``bench/spans.py`` sorts event callbacks into kinds by function name: a
callback it does not know lands in ``sim.events.other``, which is 0 on
``paper_scale``, ``contended`` and ``hifi_replay`` and has to stay 0.
And it installs the span shims as the traced child does: a target that
went missing would null a per-layer metric, and a ``sample`` that calls
another ``sample`` would double ``workload.sample_calls``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import repro.experiments.common
import repro.hifi.replay


def _load(name: str):
    """A module of ``bench/``, read where it lies."""
    path = Path(__file__).resolve().parents[2] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")

#: Whole seconds (see ``workloads.HORIZON_DIVISOR``), a few simulated minutes.
HORIZON = 240.0

CASES = [(name, None) for name in workloads.WORKLOADS if name != "arch_sweep"] + [
    ("arch_sweep", architecture) for architecture in workloads.ARCHITECTURES
]

#: Workloads whose every event callback has a kind of its own in spans.py.
ALL_KINDS_KNOWN = ("paper_scale", "contended", "hifi_replay")


@pytest.mark.parametrize("name, architecture", CASES)
def test_first_point_drives_as_the_child_does(monkeypatch, name, architecture):
    fills = {}
    for module in (repro.experiments.common, repro.hifi.replay):
        fills[module.__name__] = 0

        def counting(*args, _name=module.__name__, _populate=module.populate):
            fills[_name] += 1
            return _populate(*args)

        monkeypatch.setattr(module, "populate", counting)

    point = next(
        point
        for point in workloads.WORKLOADS[name].points(0, HORIZON)
        if architecture is None or point.extra["architecture"] == architecture
    )
    world = point.build()
    filled_in_build = dict(fills)
    world.sim.profiler = tracer = spans.Tracer()
    with tracer.span(spans.LOOP_SPAN):
        world.sim.run(until=HORIZON / 2)
        result = world.run()
    row = point.finish(world, result)

    assert fills == filled_in_build  # the fill is all set-up
    site = "repro.hifi.replay" if name == "hifi_replay" else "repro.experiments.common"
    assert fills.pop(site) >= 1
    assert set(fills.values()) == {0}
    assert row["jobs_submitted"] >= row["jobs_scheduled"] > 0
    kinds = {
        key.removeprefix("sim.events."): count for key, count in tracer.counts.items()
    }
    assert result.events_processed == sum(kinds.values()) > 0
    assert min(kinds[kind] for kind in ("task_end", "arrive", "think_complete")) > 0
    if name in ALL_KINDS_KNOWN:
        assert not kinds.get("other") and "callback.other" not in tracer.stats
    assert world.sim.peak_queue_depth > 0


@pytest.fixture
def installed_tracer(monkeypatch):
    """``Tracer.install()`` as the traced child runs it; every patched
    name is put back after the test."""
    for _, module_name, path, *_ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, last = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, last, owner[last])
        else:
            monkeypatch.setattr(owner, last, getattr(owner, last))
    tracer = spans.Tracer()
    tracer.install()
    return tracer


def test_traced_point_finds_every_target_and_four_samples_per_job(installed_tracer):
    tracer = installed_tracer
    assert tracer.missing == []
    point = next(iter(workloads.WORKLOADS["paper_scale"].points(0, HORIZON)))
    tracer.in_setup = True
    world = point.build()
    tracer.in_setup = False
    world.sim.profiler = tracer
    with tracer.span(spans.LOOP_SPAN):
        world.run()
    jobs = tracer.stats["workload.make_job"][0]
    assert jobs > 0
    # tasks, cpu, mem, duration: one span each, none nested in another
    assert tracer.stats["workload.sample"][0] == 4 * jobs
    assert tracer.stats["workload.initial_fill"][0] == 2  # generate + populate
