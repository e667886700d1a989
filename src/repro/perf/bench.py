"""Curated performance benchmarks and the regression gate behind
``omega-sim bench``.

Nine benchmarks cover the hot paths this repository optimises:

``snapshot_resync``
    Incremental :meth:`repro.core.cellstate.CellSnapshot.resync` against
    taking a fresh full-copy snapshot, under an identical mutation
    schedule. The delta path must win by at least
    :data:`RESYNC_SPEEDUP_FLOOR`.
``placement_pack``
    :func:`repro.core.placement.randomized_first_fit` throughput over a
    realistic half-full cell, against a retained copy of the
    pre-vectorization kernel (full candidate shuffle + scalar pack).
    The sampled kernel must win by :data:`PLACEMENT_SPEEDUP_FLOOR`
    (:data:`PLACEMENT_SPEEDUP_FLOOR_SMOKE` at smoke sizes — the legacy
    kernel's shuffle cost shrinks with the cell).
``paper_scale``
    An honest paper-scale proof: a Figure-5-style service-decision-time
    sweep on a 10,000-machine cluster-B cell over a multi-day horizon,
    reporting wall time, simulated events/second, and the figure's
    result rows. Full runs must actually be at paper scale
    (:data:`PAPER_SCALE_MACHINES` machines,
    :data:`PAPER_SCALE_MIN_DAYS` simulated days); smoke runs record a
    scaled-down version without enforcing the shape.
``event_loop``
    Raw :class:`repro.sim.Simulator` dispatch throughput
    (events/second).
``tracing_overhead``
    The event-loop benchmark with an instrumented tick: uninstrumented
    vs no-op recorder vs active recorder vs active recorder plus the
    :class:`~repro.obs.timeline.TimelineSampler`. The no-op recorder
    (the default in every untraced run) must retain at least
    :data:`NOOP_THROUGHPUT_FLOOR` of uninstrumented throughput.
``sanitizer_overhead``
    ``CellState.claim``/``release`` throughput with the omega-san hook
    sites compared against a hook-free replica of the same arithmetic,
    and against a fully active sanitizer. The off mode (the ``ACTIVE is
    None`` guard every unsanitized run pays) must retain at least
    :data:`SANITIZER_OFF_FLOOR` of hook-free throughput — enforced even
    in smoke runs, since the guard's cost is size-independent.
``predictor_overhead``
    The Omega attempt hot path (snapshot placement + commit) with the
    conflict-predictor hook sites compared against a hook-free replica
    of the same arithmetic, and against a fully active
    :class:`~repro.faults.predictor.ConflictPredictor` (hotness reads,
    steering, conflict/commit observations). The off mode (the
    ``predictor is None`` guards every predictor-off run pays) must
    retain at least :data:`PREDICTOR_OFF_FLOOR` of hook-free throughput
    — enforced even in smoke runs, since the guards' cost is
    size-independent.
``federation_overhead``
    A 1-cell/zero-staleness/zero-fault federated run against the plain
    single-cell simulation of the identical configuration. The two runs
    process the same event schedule (the degenerate-baseline identity),
    so the ratio isolates the federation plumbing's cost: the shared
    event loop, the front door on every submission, and per-cell
    finalization. The federated run must retain at least
    :data:`FEDERATION_OVERHEAD_FLOOR` of plain throughput — enforced
    even in smoke runs, since the per-event overhead is
    size-independent.
``sweep_serial_parallel``
    A reduced Figure 5c sweep run serially and with ``--jobs 4``
    through :mod:`repro.perf.parallel`. The rows must be byte-identical
    (JSON-encoded, so NaN == NaN); the speedup expectation
    (:data:`PARALLEL_SPEEDUP_FLOOR`) is only enforced on machines with
    at least four cores — a single-core container cannot demonstrate it,
    and the result JSON records the machine so readers can tell.

Results serialize to JSON (see :func:`run_benchmarks`), and
:func:`gate` compares a fresh run against a committed baseline with a
relative tolerance, skipping wall-clock comparisons when the machine
shape changed.

Wall-clock reads here are intentional (this module *measures* wall
time) and allowlisted for omega-lint DET002 in ``pyproject.toml``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable

import numpy as np

from repro.core.cellstate import CellState
from repro.core.placement import randomized_first_fit
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Bump when the JSON layout changes incompatibly.
FORMAT_VERSION = 1

#: Incremental resync must beat a fresh full-copy snapshot by this much.
RESYNC_SPEEDUP_FLOOR = 1.5

#: The sampled placement kernel must beat the retained pre-vectorization
#: kernel (full-cell mask + shuffle + scalar pack) by this much at full
#: (10k-machine) size.
PLACEMENT_SPEEDUP_FLOOR = 5.0

#: Placement floor at smoke sizes. The legacy kernel's dominant cost —
#: shuffling every feasible machine — shrinks with the cell, so the
#: achievable ratio at 2,000 machines is smaller (observed 2.7-3.3x
#: quiet, dipping below 2x when CI shares the core); it is still
#: enforced so CI catches kernel regressions without the full bench.
PLACEMENT_SPEEDUP_FLOOR_SMOKE = 1.3

#: Full-mode paper-scale proof: the Figure-5-style sweep must actually
#: run at the paper's cell size and a multi-day horizon.
PAPER_SCALE_MACHINES = 10_000
PAPER_SCALE_MIN_DAYS = 2.0

#: The reduced Figure 5c sweep at ``--jobs 4`` must beat serial by this
#: much — enforced only when the machine has >= 4 cores.
PARALLEL_SPEEDUP_FLOOR = 2.0

#: Core count below which the parallel-speedup expectation is recorded
#: but not enforced.
PARALLEL_MIN_CORES = 4

#: The default no-op recorder must keep at least this fraction of
#: uninstrumented event-loop throughput (i.e. tracing hooks may cost
#: untraced runs at most ~20%).
NOOP_THROUGHPUT_FLOOR = 0.8

#: With the sanitizer uninstalled, claim/release must keep at least
#: this fraction of hook-free throughput (i.e. the ``ACTIVE is None``
#: guards may cost unsanitized runs at most ~10%).
SANITIZER_OFF_FLOOR = 0.9

#: With no predictor installed, the attempt hot path must keep at least
#: this fraction of hook-free throughput (i.e. the ``predictor is
#: None`` guards may cost predictor-off runs at most ~10%).
PREDICTOR_OFF_FLOOR = 0.9

#: A 1-cell federated run must keep at least this fraction of the plain
#: single-cell event-loop throughput (i.e. the front door + shared-loop
#: plumbing may cost a degenerate federation at most ~10%).
FEDERATION_OVERHEAD_FLOOR = 0.9

#: Relative tolerance for baseline regression comparisons.
DEFAULT_TOLERANCE = 0.25


def machine_info() -> dict:
    """The machine facts a benchmark result is only meaningful with."""
    import os

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _best_of(repeats: int, run: Callable[[], float]) -> float:
    """Best (minimum) wall-seconds over ``repeats`` runs — the standard
    noise-rejection discipline for microbenchmarks."""
    return min(run() for _ in range(max(1, repeats)))


# ----------------------------------------------------------------------
# snapshot_resync
# ----------------------------------------------------------------------
def _bench_cell(num_machines: int):
    from repro.cluster import Cell

    return Cell.homogeneous(
        num_machines, cpu_per_machine=16.0, mem_per_machine=64.0, name="bench"
    )


def bench_snapshot_resync(
    num_machines: int = 10_000,
    iterations: int = 400,
    writes_per_iteration: int = 8,
    repeats: int = 3,
) -> dict:
    """Time full-copy snapshots vs incremental resync under the same
    mutation schedule.

    Each iteration claims resources on a few random machines (the master
    moves on, as when other schedulers commit) and then refreshes the
    scheduler's private view — by taking a fresh snapshot in the
    full-copy phase, by :meth:`CellSnapshot.resync` in the delta phase.
    """
    streams = RandomStreams(0)

    def mutation_schedule() -> list[list[int]]:
        rng = streams.stream("bench.resync.machines")
        return [
            [int(m) for m in rng.integers(0, num_machines, writes_per_iteration)]
            for _ in range(iterations)
        ]

    def run_full() -> float:
        state = CellState(_bench_cell(num_machines))
        total = 0.0
        for machines in mutation_schedule():
            for machine in machines:
                state.claim(machine, 0.001, 0.001)
            start = time.perf_counter()
            view = state.snapshot(0.0)
            total += time.perf_counter() - start
        assert view.version == state.version
        return total

    def run_resync() -> float:
        state = CellState(_bench_cell(num_machines))
        view = state.snapshot(0.0)
        total = 0.0
        for machines in mutation_schedule():
            for machine in machines:
                state.claim(machine, 0.001, 0.001)
            start = time.perf_counter()
            view.resync(state)
            total += time.perf_counter() - start
        # The delta-synced view must equal a fresh snapshot exactly.
        fresh = state.snapshot(0.0)
        assert np.array_equal(view.free_cpu, fresh.free_cpu)
        assert np.array_equal(view.free_mem, fresh.free_mem)
        assert np.array_equal(view.seq, fresh.seq)
        return total

    full_s = _best_of(repeats, run_full)
    resync_s = _best_of(repeats, run_resync)
    return {
        "num_machines": num_machines,
        "iterations": iterations,
        "writes_per_iteration": writes_per_iteration,
        "full_copy_s": full_s,
        "resync_s": resync_s,
        "speedup": full_s / resync_s if resync_s > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# placement_pack
# ----------------------------------------------------------------------
def _legacy_randomized_first_fit(free_cpu, free_mem, cpu, mem, num_tasks, rng):
    """The pre-vectorization placement kernel, retained verbatim as the
    speedup baseline: mask the whole cell, shuffle *every* feasible
    machine, then walk the shuffled order with scalar numpy indexing."""
    from repro.core.cellstate import EPSILON
    from repro.core.transaction import Claim

    candidates = np.flatnonzero(
        (free_cpu + EPSILON >= cpu) & (free_mem + EPSILON >= mem)
    )
    if candidates.size == 0:
        return []
    rng.shuffle(candidates)
    claims = []
    remaining = num_tasks
    for machine in candidates:
        per_machine = remaining
        if cpu > 0:
            per_machine = min(per_machine, int((free_cpu[machine] + EPSILON) // cpu))
        if mem > 0:
            per_machine = min(per_machine, int((free_mem[machine] + EPSILON) // mem))
        if per_machine <= 0:
            continue
        claims.append(
            Claim(machine=int(machine), cpu=cpu, mem=mem, count=per_machine)
        )
        remaining -= per_machine
        if remaining == 0:
            break
    return claims


def bench_placement_pack(
    num_machines: int = 10_000,
    placements: int = 300,
    tasks_per_job: int = 50,
    repeats: int = 3,
) -> dict:
    """Randomized-first-fit throughput over a half-full cell, current
    sampled kernel vs the retained pre-vectorization kernel.

    Both kernels run the same placement count over the same free arrays
    with independent forks of the same stream family; the enforced
    number is their throughput ratio (``speedup``)."""
    streams = RandomStreams(1)
    fill_rng = streams.stream("bench.placement.fill")
    free_cpu = fill_rng.uniform(0.0, 8.0, num_machines)
    free_mem = fill_rng.uniform(0.0, 32.0, num_machines)

    def run(kernel) -> float:
        rng = streams.fork("bench.placement").stream("pack")
        start = time.perf_counter()
        planned = 0
        for _ in range(placements):
            claims = kernel(free_cpu, free_mem, 0.5, 1.0, tasks_per_job, rng)
            planned += sum(claim.count for claim in claims)
        elapsed = time.perf_counter() - start
        assert planned > 0
        return elapsed

    wall_s = _best_of(repeats, lambda: run(randomized_first_fit))
    legacy_s = _best_of(repeats, lambda: run(_legacy_randomized_first_fit))
    return {
        "num_machines": num_machines,
        "placements": placements,
        "tasks_per_job": tasks_per_job,
        "wall_s": wall_s,
        "placements_per_s": placements / wall_s if wall_s > 0 else float("inf"),
        "legacy_wall_s": legacy_s,
        "legacy_placements_per_s": (
            placements / legacy_s if legacy_s > 0 else float("inf")
        ),
        "speedup": legacy_s / wall_s if wall_s > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# paper_scale
# ----------------------------------------------------------------------
def bench_paper_scale(
    horizon_days: float = 3.0,
    t_jobs=(0.1, 1.0, 10.0),
    cluster: str = "B",
    machines: int = PAPER_SCALE_MACHINES,
    seed: int = 0,
) -> dict:
    """An honest Figure-5-style sweep at paper scale.

    Scales the named cluster preset up to ``machines`` machines and runs
    the service-decision-time sweep over a ``horizon_days`` horizon,
    point by point, recording wall time, simulated events and the
    figure's result rows. No shortcuts: every row comes from a complete
    discrete-event run at the stated size.
    """
    from repro.experiments.sweeps import result_row, service_decision_points
    from repro.workload.clusters import preset_by_name

    day_s = 86_400.0
    base = preset_by_name(cluster)
    scale = machines / base.num_machines
    points = service_decision_points(
        "omega",
        t_jobs=t_jobs,
        clusters=(cluster,),
        horizon=horizon_days * day_s,
        seed=seed,
        scale=scale,
    )
    from repro.experiments.common import run_lightweight

    actual_machines = points[0][0].preset.num_machines
    rows = []
    total_events = 0
    start = time.perf_counter()
    for config, extra in points:
        point_start = time.perf_counter()
        result = run_lightweight(config)
        point_wall = time.perf_counter() - point_start
        row = result_row(result, **extra)
        row["events_processed"] = result.events_processed
        row["wall_s"] = point_wall
        rows.append(row)
        total_events += result.events_processed
    wall_s = time.perf_counter() - start
    return {
        "cluster": cluster,
        "machines": actual_machines,
        "horizon_days": horizon_days,
        "t_jobs": list(t_jobs),
        "points": len(points),
        "wall_s": wall_s,
        "events_processed": total_events,
        "events_per_s": total_events / wall_s if wall_s > 0 else float("inf"),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# event_loop
# ----------------------------------------------------------------------
def bench_event_loop(events: int = 200_000, repeats: int = 3) -> dict:
    """Raw event-dispatch throughput of the discrete-event engine."""

    def run() -> float:
        sim = Simulator()
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.after(1.0, tick)

        sim.after(1.0, tick)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert sim.events_processed == events
        return elapsed

    wall_s = _best_of(repeats, run)
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s if wall_s > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# tracing_overhead
# ----------------------------------------------------------------------
def bench_tracing_overhead(
    events: int = 200_000, repeats: int = 3, timeline_every: float = 100.0
) -> dict:
    """Event-loop throughput under increasing instrumentation.

    Four modes, same event count: ``plain`` (uninstrumented tick, the
    ``event_loop`` benchmark's shape), ``noop`` (the tick checks
    ``RECORDER.enabled`` exactly like real hot paths — the cost every
    untraced run pays), ``active`` (an in-memory
    :class:`~repro.obs.TraceRecorder`, one record per event) and
    ``timeline`` (active recorder plus a
    :class:`~repro.obs.timeline.TimelineSampler` ticking every
    ``timeline_every`` simulated seconds).
    """
    from repro import obs
    from repro.metrics import MetricsCollector
    from repro.obs import recorder as _obs
    from repro.obs.timeline import TimelineSampler

    def run(mode: str) -> float:
        sim = Simulator()
        remaining = [events]

        if mode == "plain":

            def tick() -> None:
                remaining[0] -= 1
                if remaining[0] > 0:
                    sim.after(1.0, tick)

        else:

            def tick() -> None:
                rec = _obs.RECORDER
                if rec.enabled:
                    rec.event("bench.tick", t=sim.now)
                remaining[0] -= 1
                if remaining[0] > 0:
                    sim.after(1.0, tick)

        previous = obs.get_recorder()
        if mode in ("active", "timeline"):
            obs.set_recorder(obs.TraceRecorder(keep_records=False))
        if mode == "timeline":
            sampler = TimelineSampler(
                sim,
                MetricsCollector(),
                states=[],
                schedulers=[],
                interval=timeline_every,
                horizon=float(events),
            )
            sampler.install()
        sim.after(1.0, tick)
        try:
            start = time.perf_counter()
            sim.run()
            elapsed = time.perf_counter() - start
        finally:
            obs.set_recorder(previous)
        assert remaining[0] == 0
        return elapsed

    timings = {mode: _best_of(repeats, lambda m=mode: run(m))
               for mode in ("plain", "noop", "active", "timeline")}
    rates = {
        f"{mode}_events_per_s": events / wall_s if wall_s > 0 else float("inf")
        for mode, wall_s in timings.items()
    }
    return {
        "events": events,
        "timeline_every_s": timeline_every,
        **{f"{mode}_s": wall_s for mode, wall_s in timings.items()},
        **rates,
        "noop_throughput_ratio": (
            rates["noop_events_per_s"] / rates["plain_events_per_s"]
            if rates["plain_events_per_s"] > 0
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# sanitizer_overhead
# ----------------------------------------------------------------------
def bench_sanitizer_overhead(
    num_machines: int = 2_000, operations: int = 200_000, repeats: int = 3
) -> dict:
    """Cost of the omega-san hook sites in ``claim``/``release``.

    Three modes run the same claim-then-release schedule:

    * ``plain`` — a hook-free replica of the exact CellState arithmetic
      (what the mutation paths cost before the sanitizer existed);
    * ``off`` — the real :class:`CellState` with the sanitizer
      uninstalled, paying only the ``ACTIVE is None`` guard;
    * ``on`` — the same schedule under an installed sanitizer inside a
      sanctioned scope (ownership, scope and shadow-replay checks live).

    ``off_throughput_ratio`` (off/plain, best interleaved round) must
    stay at least :data:`SANITIZER_OFF_FLOOR`; the guard's cost does not
    depend on benchmark size, so the floor is enforced even in smoke
    runs.
    """
    from repro.analysis import sanitizer as _san
    from repro.core.cellstate import EPSILON, OvercommitError

    streams = RandomStreams(2)
    machines = [
        int(m)
        for m in streams.stream("bench.san.machines").integers(
            0, num_machines, operations
        )
    ]

    # The plain mode is *deliberately* a hook-free copy of the claim/
    # release arithmetic applied to a real CellState — the thing TXN001
    # exists to forbid everywhere else — so each write carries a
    # suppression.
    def plain_claim(state, machine: int, cpu: float, mem: float) -> None:
        if (
            state.free_cpu[machine] + EPSILON < cpu
            or state.free_mem[machine] + EPSILON < mem
        ):
            raise OvercommitError(f"bench claim does not fit on {machine}")
        state.free_cpu[machine] -= cpu  # omega-lint: disable=TXN001 -- hook-free baseline replica
        state.free_mem[machine] -= mem  # omega-lint: disable=TXN001 -- hook-free baseline replica
        if state.free_cpu[machine] < 0.0:
            state.free_cpu[machine] = 0.0  # omega-lint: disable=TXN001 -- hook-free baseline replica
        if state.free_mem[machine] < 0.0:
            state.free_mem[machine] = 0.0  # omega-lint: disable=TXN001 -- hook-free baseline replica
        state._used_cpu += cpu
        state._used_mem += mem
        state.seq[machine] += 1  # omega-lint: disable=TXN001 -- hook-free baseline replica
        state._touch(machine)

    def plain_release(state, machine: int, cpu: float, mem: float) -> None:
        new_free_cpu = state.free_cpu[machine] + cpu
        new_free_mem = state.free_mem[machine] + mem
        if (
            new_free_cpu > state.cell.cpu_capacity[machine] + EPSILON
            or new_free_mem > state.cell.mem_capacity[machine] + EPSILON
        ):
            raise OvercommitError(f"bench release exceeds capacity on {machine}")
        old_free_cpu = float(state.free_cpu[machine])
        old_free_mem = float(state.free_mem[machine])
        state.free_cpu[machine] = min(  # omega-lint: disable=TXN001 -- hook-free baseline replica
            new_free_cpu, state.cell.cpu_capacity[machine]
        )
        state.free_mem[machine] = min(  # omega-lint: disable=TXN001 -- hook-free baseline replica
            new_free_mem, state.cell.mem_capacity[machine]
        )
        state._used_cpu -= float(state.free_cpu[machine]) - old_free_cpu
        state._used_mem -= float(state.free_mem[machine]) - old_free_mem
        state.seq[machine] += 1  # omega-lint: disable=TXN001 -- hook-free baseline replica
        state._touch(machine)

    def run(mode: str) -> float:
        state = CellState(_bench_cell(num_machines))
        previous = _san.ACTIVE
        scope = None
        try:
            if mode == "on":
                san = _san.install()
                san.begin_run()
                scope = san.scope("bench")
                scope.__enter__()
            else:
                _san.uninstall()
            start = time.perf_counter()
            if mode == "plain":
                for machine in machines:
                    plain_claim(state, machine, 0.001, 0.001)
                    plain_release(state, machine, 0.001, 0.001)
            else:
                for machine in machines:
                    state.claim(machine, 0.001, 0.001)
                    state.release(machine, 0.001, 0.001)
            elapsed = time.perf_counter() - start
        finally:
            if scope is not None:
                scope.__exit__(None, None, None)
            _san.ACTIVE = previous
        assert state.used_cpu < 1.0
        return elapsed

    # Interleave the modes round-robin (rather than all repeats of one
    # mode back-to-back) so CPU-frequency and load drift hits every mode
    # equally — the off/plain ratio is the enforced number and a few
    # percent of block-ordering bias would swamp the real guard cost.
    modes = ("plain", "off", "on")
    for mode in modes:
        run(mode)  # warm-up: first-touch allocation and code caches
    timings = {mode: float("inf") for mode in modes}
    round_ratios = []
    for _ in range(repeats):
        round_times = {mode: run(mode) for mode in modes}
        for mode in modes:
            timings[mode] = min(timings[mode], round_times[mode])
        round_ratios.append(round_times["plain"] / round_times["off"])
    rates = {
        f"{mode}_ops_per_s": (
            2 * operations / wall_s if wall_s > 0 else float("inf")
        )
        for mode, wall_s in timings.items()
    }
    return {
        "num_machines": num_machines,
        "operations": operations,
        **{f"{mode}_s": wall_s for mode, wall_s in timings.items()},
        **rates,
        # Best paired round, not min-of-runs: scheduling noise can only
        # make the off mode look *slower* than it is, so the fairest
        # bound on the intrinsic guard cost is the round where the two
        # adjacent runs saw the most equal conditions.
        "off_throughput_ratio": max(round_ratios),
        "on_overhead_x": (
            rates["plain_ops_per_s"] / rates["on_ops_per_s"]
            if rates["on_ops_per_s"] > 0
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# predictor_overhead
# ----------------------------------------------------------------------
def bench_predictor_overhead(
    num_machines: int = 2_000,
    attempts: int = 5_000,
    tasks_per_job: int = 10,
    repeats: int = 3,
) -> dict:
    """Cost of the conflict-predictor hook sites on the attempt path.

    Three modes run the same resync → place → commit schedule (the
    :meth:`~repro.core.scheduler.OmegaScheduler.attempt` hot path):

    * ``plain`` — a hook-free replica: placement and :func:`commit`
      called directly, no predictor branches anywhere (what an attempt
      cost before the predictor existed);
    * ``off`` — the real guard shape with ``predictor=None``: the
      hotness check before placement and the ``on_conflict``/
      ``observe_commit`` guards around commit, all short-circuiting
      (the cost every predictor-off run pays);
    * ``on`` — an active :class:`~repro.faults.predictor.
      ConflictPredictor` fed a synthetic contention stream, so every
      attempt pays hotness reads, steered placement and the
      conflict/commit observations.

    ``off_throughput_ratio`` (off/plain, best interleaved round) must
    stay at least :data:`PREDICTOR_OFF_FLOOR`; the guards' cost does
    not depend on benchmark size, so the floor is enforced even in
    smoke runs.
    """
    from repro.core.placement import placement_fn, steered_placement
    from repro.core.transaction import commit
    from repro.faults.predictor import ConflictPredictor, PredictorConfig

    class _BenchJob:
        """The three attributes the placement closures read."""

        cpu_per_task = 0.05
        mem_per_task = 0.2
        unplaced_tasks = tasks_per_job

    placement = placement_fn("random-first-fit")

    def run(mode: str) -> float:
        state = CellState(_bench_cell(num_machines))
        view = state.snapshot(0.0)
        # Fresh streams per run: plain and off execute the identical
        # draw schedule, so the ratio isolates the guard cost.
        rng = RandomStreams(5).stream("bench.predictor.pack")
        predictor = (
            ConflictPredictor(PredictorConfig()) if mode == "on" else None
        )
        job = _BenchJob()
        nowref = [0.0]

        def observe(machine: int, tasks: int, cause: str) -> None:
            predictor.observe_conflict(machine, tasks, cause, nowref[0])

        start = time.perf_counter()
        for index in range(attempts):
            now = nowref[0] = float(index)
            view.resync(state)
            if mode == "plain":
                claims = placement(view, job, rng)
                result = commit(state, claims, view)
            else:
                hot: tuple[int, ...] = ()
                if predictor is not None:
                    # Synthetic contention feed: keeps the hot set
                    # populated against decay so steering stays live.
                    predictor.observe_conflict(index % 16, 4, "capacity", now)
                    hot = predictor.hot_machines(now)
                if hot:
                    claims, _ = steered_placement(placement, view, job, rng, hot)
                else:
                    claims = placement(view, job, rng)
                result = commit(
                    state,
                    claims,
                    view,
                    on_conflict=(observe if predictor is not None else None),
                )
                if predictor is not None:
                    predictor.observe_commit(bool(result.rejected), now)
            for claim in result.accepted:
                state.release(
                    claim.machine, claim.cpu * claim.count, claim.mem * claim.count
                )
        elapsed = time.perf_counter() - start
        assert state.used_cpu < 1.0
        return elapsed

    # Interleave the modes round-robin (see bench_sanitizer_overhead):
    # the off/plain ratio is the enforced number and block-ordering bias
    # would swamp the real guard cost.
    modes = ("plain", "off", "on")
    for mode in modes:
        run(mode)  # warm-up: first-touch allocation and code caches
    timings = {mode: float("inf") for mode in modes}
    round_ratios = []
    for _ in range(max(1, repeats)):
        round_times = {mode: run(mode) for mode in modes}
        for mode in modes:
            timings[mode] = min(timings[mode], round_times[mode])
        round_ratios.append(round_times["plain"] / round_times["off"])
    rates = {
        f"{mode}_attempts_per_s": (
            attempts / wall_s if wall_s > 0 else float("inf")
        )
        for mode, wall_s in timings.items()
    }
    return {
        "num_machines": num_machines,
        "attempts": attempts,
        "tasks_per_job": tasks_per_job,
        **{f"{mode}_s": wall_s for mode, wall_s in timings.items()},
        **rates,
        # Best paired round, not min-of-runs — scheduling noise can only
        # make the off mode look slower than it is.
        "off_throughput_ratio": max(round_ratios),
        "on_overhead_x": (
            rates["plain_attempts_per_s"] / rates["on_attempts_per_s"]
            if rates["on_attempts_per_s"] > 0
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# federation_overhead
# ----------------------------------------------------------------------
def bench_federation_overhead(
    scale: float = 0.2,
    horizon: float = 3600.0,
    seed: int = 7,
    cluster: str = "B",
    repeats: int = 3,
) -> dict:
    """Cost of the federation plumbing on the degenerate baseline.

    Two modes run the identical configuration end to end (build + run):

    * ``plain`` — the single-cell :class:`~repro.experiments.common.
      LightweightSimulation`, exactly what ``omega-sim omega`` runs;
    * ``federated`` — the same cell wrapped in a 1-cell, zero-staleness,
      zero-fault :class:`~repro.federation.FederatedSimulation`, so
      every arrival crosses the front door and the cell shares the
      federation's event loop.

    The degenerate-baseline identity guarantees both modes process the
    same simulated events (asserted), so ``federated_throughput_ratio``
    (federated/plain events-per-second, best interleaved round) isolates
    the plumbing's overhead. It must stay at least
    :data:`FEDERATION_OVERHEAD_FLOOR`, smoke runs included — the
    per-event cost does not depend on benchmark size.
    """
    from repro.experiments.common import LightweightSimulation
    from repro.experiments.federation import build_federation
    from repro.experiments.sweeps import batch_load_points
    from repro.federation import FederationConfig

    def cell_config():
        config, _ = batch_load_points(
            (1.0,), cluster=cluster, horizon=horizon, seed=seed, scale=scale
        )[0]
        return config

    def run(mode: str) -> tuple[float, int]:
        if mode == "plain":
            world = LightweightSimulation(cell_config())
            start = time.perf_counter()
            result = world.run()
        else:
            federation = build_federation(
                FederationConfig(cell_config=cell_config(), num_cells=1)
            )
            start = time.perf_counter()
            result = federation.run()
        return time.perf_counter() - start, result.events_processed

    modes = ("plain", "federated")
    for mode in modes:
        run(mode)  # warm-up: first-touch allocation and code caches
    timings = {mode: float("inf") for mode in modes}
    events = {}
    round_ratios = []
    for _ in range(max(1, repeats)):
        round_times = {}
        for mode in modes:
            round_times[mode], events[mode] = run(mode)
            timings[mode] = min(timings[mode], round_times[mode])
        round_ratios.append(round_times["plain"] / round_times["federated"])
    # The degenerate identity is what makes the ratio meaningful: both
    # modes must have dispatched the same event schedule.
    assert events["plain"] == events["federated"], (
        f"degenerate federation processed {events['federated']} events "
        f"vs plain {events['plain']}"
    )
    rates = {
        f"{mode}_events_per_s": (
            events[mode] / wall_s if wall_s > 0 else float("inf")
        )
        for mode, wall_s in timings.items()
    }
    return {
        "scale": scale,
        "horizon_s": horizon,
        "events_processed": events["plain"],
        **{f"{mode}_s": wall_s for mode, wall_s in timings.items()},
        **rates,
        # Best paired round, not min-of-runs — scheduling noise can only
        # make the federated mode look slower than it is.
        "federated_throughput_ratio": max(round_ratios),
    }


# ----------------------------------------------------------------------
# sweep_serial_parallel
# ----------------------------------------------------------------------
def bench_sweep_serial_parallel(
    jobs: int = 4,
    horizon: float = 1800.0,
    scale: float = 0.1,
    t_jobs=(0.1, 1.0, 10.0, 100.0),
    clusters=("A", "B"),
) -> dict:
    """The reduced Figure 5c sweep, serial vs ``jobs`` workers.

    Beyond timing, this asserts the tentpole's correctness property:
    serial and parallel rows are byte-identical once JSON-encoded.
    """
    from repro.experiments.omega import figure5c_6c_rows

    def run(n: int) -> tuple[float, str]:
        start = time.perf_counter()
        rows = figure5c_6c_rows(
            t_jobs=t_jobs, clusters=clusters, horizon=horizon, scale=scale, jobs=n
        )
        return time.perf_counter() - start, json.dumps(rows, sort_keys=False)

    serial_s, serial_rows = run(1)
    parallel_s, parallel_rows = run(jobs)
    return {
        "jobs": jobs,
        "points": len(t_jobs) * len(clusters),
        "horizon_s": horizon,
        "scale": scale,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "identical_rows": serial_rows == parallel_rows,
    }


# ----------------------------------------------------------------------
# Driver, expectations and gate
# ----------------------------------------------------------------------
def run_benchmarks(smoke: bool = False, jobs: int = 4) -> dict:
    """Run the full suite (or a seconds-scale smoke version) and return
    the result document, expectations evaluated."""
    if smoke:
        benchmarks = {
            "snapshot_resync": bench_snapshot_resync(
                num_machines=2_000, iterations=60, repeats=1
            ),
            "placement_pack": bench_placement_pack(
                num_machines=2_000, placements=40, repeats=2
            ),
            "paper_scale": bench_paper_scale(
                horizon_days=0.02, t_jobs=(1.0,), machines=1_000
            ),
            "event_loop": bench_event_loop(events=20_000, repeats=1),
            "tracing_overhead": bench_tracing_overhead(
                events=20_000, repeats=1, timeline_every=100.0
            ),
            "sanitizer_overhead": bench_sanitizer_overhead(
                num_machines=500, operations=50_000, repeats=3
            ),
            "predictor_overhead": bench_predictor_overhead(
                num_machines=500, attempts=2_000, repeats=3
            ),
            "federation_overhead": bench_federation_overhead(
                scale=0.05, horizon=1800.0, repeats=3
            ),
            "sweep_serial_parallel": bench_sweep_serial_parallel(
                jobs=jobs, horizon=300.0, scale=0.05, t_jobs=(0.1, 10.0),
                clusters=("A",),
            ),
        }
    else:
        benchmarks = {
            "snapshot_resync": bench_snapshot_resync(),
            "placement_pack": bench_placement_pack(),
            "paper_scale": bench_paper_scale(),
            "event_loop": bench_event_loop(),
            "tracing_overhead": bench_tracing_overhead(),
            "sanitizer_overhead": bench_sanitizer_overhead(),
            "predictor_overhead": bench_predictor_overhead(),
            "federation_overhead": bench_federation_overhead(),
            "sweep_serial_parallel": bench_sweep_serial_parallel(jobs=jobs),
        }
    results = {
        "format_version": FORMAT_VERSION,
        "smoke": smoke,
        "machine": machine_info(),
        "benchmarks": benchmarks,
    }
    results["expectations"] = evaluate_expectations(results)
    return results


def evaluate_expectations(results: dict) -> list[dict]:
    """The suite's structural pass/fail criteria.

    Each entry records whether it passed AND whether it is *enforced*:
    speedup floors that depend on hardware the current machine lacks
    (parallel speedup on a single-core box) or on sizes the smoke run
    skips are recorded as unenforced so the gate stays honest about what
    it actually verified.
    """
    benchmarks = results["benchmarks"]
    smoke = results["smoke"]
    cores = results["machine"]["cpu_count"]
    expectations = []

    resync = benchmarks["snapshot_resync"]
    expectations.append(
        {
            "name": "resync_speedup",
            "value": resync["speedup"],
            "floor": RESYNC_SPEEDUP_FLOOR,
            "passed": resync["speedup"] >= RESYNC_SPEEDUP_FLOOR,
            # Smoke sizes are too small for a stable ratio.
            "enforced": not smoke,
            "reason": "smoke run: sizes too small for stable timing"
            if smoke
            else None,
        }
    )

    pack = benchmarks["placement_pack"]
    placement_floor = (
        PLACEMENT_SPEEDUP_FLOOR_SMOKE if smoke else PLACEMENT_SPEEDUP_FLOOR
    )
    expectations.append(
        {
            "name": "placement_speedup",
            "value": pack["speedup"],
            "floor": placement_floor,
            "passed": pack["speedup"] >= placement_floor,
            # Enforced in smoke runs too (with the smoke-size floor): a
            # kernel regression should fail CI, not wait for a full run.
            "enforced": True,
            "reason": "smoke run: smoke-size floor" if smoke else None,
        }
    )

    paper = benchmarks["paper_scale"]
    at_scale = (
        paper["machines"] >= PAPER_SCALE_MACHINES
        and paper["horizon_days"] >= PAPER_SCALE_MIN_DAYS
    )
    expectations.append(
        {
            "name": "paper_scale_shape",
            "value": f"{paper['machines']} machines x "
            f"{paper['horizon_days']:g} days",
            "floor": f"{PAPER_SCALE_MACHINES} machines x "
            f"{PAPER_SCALE_MIN_DAYS:g} days",
            "passed": at_scale,
            # Smoke runs use a scaled-down sweep by design; only full
            # runs claim the paper-scale proof.
            "enforced": not smoke,
            "reason": "smoke run: reduced sweep, shape not claimed"
            if smoke
            else None,
        }
    )

    tracing = benchmarks["tracing_overhead"]
    expectations.append(
        {
            "name": "tracing_noop_throughput",
            "value": tracing["noop_throughput_ratio"],
            "floor": NOOP_THROUGHPUT_FLOOR,
            "passed": tracing["noop_throughput_ratio"] >= NOOP_THROUGHPUT_FLOOR,
            # Smoke sizes are too small for a stable ratio.
            "enforced": not smoke,
            "reason": "smoke run: sizes too small for stable timing"
            if smoke
            else None,
        }
    )

    sanitizer = benchmarks["sanitizer_overhead"]
    expectations.append(
        {
            "name": "sanitizer_off_throughput",
            "value": sanitizer["off_throughput_ratio"],
            "floor": SANITIZER_OFF_FLOOR,
            "passed": sanitizer["off_throughput_ratio"] >= SANITIZER_OFF_FLOOR,
            # The ACTIVE-is-None guard's relative cost is independent of
            # benchmark size, so this floor holds in smoke runs too.
            "enforced": True,
            "reason": None,
        }
    )

    predictor = benchmarks["predictor_overhead"]
    expectations.append(
        {
            "name": "predictor_off_throughput",
            "value": predictor["off_throughput_ratio"],
            "floor": PREDICTOR_OFF_FLOOR,
            "passed": predictor["off_throughput_ratio"] >= PREDICTOR_OFF_FLOOR,
            # The predictor-is-None guards' relative cost is independent
            # of benchmark size, so this floor holds in smoke runs too.
            "enforced": True,
            "reason": None,
        }
    )

    federation = benchmarks["federation_overhead"]
    expectations.append(
        {
            "name": "federation_overhead",
            "value": federation["federated_throughput_ratio"],
            "floor": FEDERATION_OVERHEAD_FLOOR,
            "passed": (
                federation["federated_throughput_ratio"]
                >= FEDERATION_OVERHEAD_FLOOR
            ),
            # The front door's per-event cost is independent of
            # benchmark size, so this floor holds in smoke runs too.
            "enforced": True,
            "reason": None,
        }
    )

    sweep = benchmarks["sweep_serial_parallel"]
    expectations.append(
        {
            "name": "serial_parallel_identical",
            "value": sweep["identical_rows"],
            "floor": True,
            "passed": bool(sweep["identical_rows"]),
            "enforced": True,
            "reason": None,
        }
    )
    enough_cores = cores >= PARALLEL_MIN_CORES
    expectations.append(
        {
            "name": "parallel_speedup",
            "value": sweep["speedup"],
            "floor": PARALLEL_SPEEDUP_FLOOR,
            "passed": sweep["speedup"] >= PARALLEL_SPEEDUP_FLOOR,
            "enforced": enough_cores and not smoke,
            "reason": None
            if enough_cores and not smoke
            else (
                "smoke run: horizon too short to amortize worker startup"
                if smoke
                else f"machine has {cores} core(s); "
                f"needs >= {PARALLEL_MIN_CORES} to demonstrate parallel speedup"
            ),
        }
    )
    return expectations


#: Baseline-comparison metrics where higher is better, per benchmark.
_THROUGHPUT_METRICS = {
    "snapshot_resync": ("speedup",),
    "placement_pack": ("placements_per_s", "speedup"),
    "paper_scale": ("events_per_s",),
    "event_loop": ("events_per_s",),
    "tracing_overhead": ("noop_events_per_s", "active_events_per_s"),
    "sanitizer_overhead": ("off_ops_per_s",),
    "predictor_overhead": ("off_attempts_per_s",),
    "federation_overhead": ("federated_events_per_s",),
    "sweep_serial_parallel": ("speedup",),
}


def gate(
    results: dict,
    baseline: dict | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Failure messages for a benchmark run (empty = pass).

    Checks every *enforced* structural expectation, and — when a
    baseline from the same machine shape is given — that no throughput
    metric regressed by more than ``tolerance`` relative to it.
    """
    failures = []
    for expectation in results.get("expectations", []):
        if expectation["enforced"] and not expectation["passed"]:
            failures.append(
                f"expectation {expectation['name']}: value "
                f"{expectation['value']} below floor {expectation['floor']}"
            )
    if baseline is None:
        return failures

    if baseline.get("machine", {}).get("cpu_count") != results["machine"][
        "cpu_count"
    ]:
        # Wall-clock numbers from a different machine shape are not
        # comparable; structural expectations above still apply.
        return failures
    if baseline.get("smoke") != results.get("smoke"):
        return failures
    for name, metrics in _THROUGHPUT_METRICS.items():
        base_bench = baseline.get("benchmarks", {}).get(name)
        curr_bench = results["benchmarks"].get(name)
        if not base_bench or not curr_bench:
            continue
        for metric in metrics:
            base = base_bench.get(metric)
            curr = curr_bench.get(metric)
            if base is None or curr is None:
                continue
            floor = base * (1.0 - tolerance)
            if curr < floor:
                failures.append(
                    f"regression in {name}.{metric}: {curr:.3g} < "
                    f"{floor:.3g} (baseline {base:.3g} - {tolerance:.0%})"
                )
    return failures


def render_report(results: dict) -> str:
    """Human-readable summary of one run."""
    lines = []
    machine = results["machine"]
    lines.append(
        f"machine: {machine['cpu_count']} core(s), {machine['platform']}, "
        f"python {machine['python']}, numpy {machine['numpy']}"
    )
    if results["smoke"]:
        lines.append("mode: smoke (reduced sizes; timing floors not enforced)")
    resync = results["benchmarks"]["snapshot_resync"]
    lines.append(
        f"snapshot_resync: full copy {resync['full_copy_s']:.4f}s vs resync "
        f"{resync['resync_s']:.4f}s -> {resync['speedup']:.2f}x "
        f"({resync['num_machines']} machines)"
    )
    pack = results["benchmarks"]["placement_pack"]
    lines.append(
        f"placement_pack: {pack['placements_per_s']:.0f} placements/s vs "
        f"legacy {pack['legacy_placements_per_s']:.0f} -> "
        f"{pack['speedup']:.2f}x "
        f"({pack['num_machines']} machines, {pack['tasks_per_job']} tasks/job)"
    )
    paper = results["benchmarks"]["paper_scale"]
    lines.append(
        f"paper_scale: cluster {paper['cluster']} x{paper['machines']} "
        f"machines, {paper['horizon_days']:g} day(s), {paper['points']} "
        f"point(s): {paper['events_processed']} events in "
        f"{paper['wall_s']:.1f}s ({paper['events_per_s']:.0f} events/s)"
    )
    loop = results["benchmarks"]["event_loop"]
    lines.append(f"event_loop: {loop['events_per_s']:.0f} events/s")
    tracing = results["benchmarks"]["tracing_overhead"]
    lines.append(
        f"tracing_overhead: plain {tracing['plain_events_per_s']:.0f} ev/s, "
        f"noop {tracing['noop_events_per_s']:.0f} "
        f"({tracing['noop_throughput_ratio']:.2f}x), "
        f"active {tracing['active_events_per_s']:.0f}, "
        f"active+timeline {tracing['timeline_events_per_s']:.0f}"
    )
    sanitizer = results["benchmarks"]["sanitizer_overhead"]
    lines.append(
        f"sanitizer_overhead: plain {sanitizer['plain_ops_per_s']:.0f} ops/s, "
        f"off {sanitizer['off_ops_per_s']:.0f} "
        f"({sanitizer['off_throughput_ratio']:.2f}x), "
        f"on {sanitizer['on_ops_per_s']:.0f} "
        f"({sanitizer['on_overhead_x']:.2f}x slower)"
    )
    predictor = results["benchmarks"]["predictor_overhead"]
    lines.append(
        f"predictor_overhead: plain {predictor['plain_attempts_per_s']:.0f} "
        f"attempts/s, off {predictor['off_attempts_per_s']:.0f} "
        f"({predictor['off_throughput_ratio']:.2f}x), "
        f"on {predictor['on_attempts_per_s']:.0f} "
        f"({predictor['on_overhead_x']:.2f}x slower)"
    )
    federation = results["benchmarks"]["federation_overhead"]
    lines.append(
        f"federation_overhead: plain {federation['plain_events_per_s']:.0f} "
        f"ev/s, 1-cell federated {federation['federated_events_per_s']:.0f} "
        f"({federation['federated_throughput_ratio']:.2f}x, "
        f"{federation['events_processed']} events)"
    )
    sweep = results["benchmarks"]["sweep_serial_parallel"]
    identical = "identical" if sweep["identical_rows"] else "DIFFERENT"
    lines.append(
        f"sweep_serial_parallel: serial {sweep['serial_s']:.2f}s vs "
        f"--jobs {sweep['jobs']} {sweep['parallel_s']:.2f}s -> "
        f"{sweep['speedup']:.2f}x, rows {identical}"
    )
    for expectation in results["expectations"]:
        status = "PASS" if expectation["passed"] else "FAIL"
        if not expectation["enforced"]:
            status += f" (not enforced: {expectation['reason']})"
        lines.append(
            f"expectation {expectation['name']}: {expectation['value']} "
            f"vs floor {expectation['floor']} -> {status}"
        )
    return "\n".join(lines)


def render_compare(old: dict, new: dict) -> str:
    """Delta table between two saved benchmark result documents.

    One row per throughput metric present in both documents: old value,
    new value, and the relative change (positive = new is faster).
    Header notes flag machine-shape or smoke-mode mismatches, which make
    wall-clock deltas meaningless.
    """
    lines = []
    old_machine = old.get("machine", {})
    new_machine = new.get("machine", {})
    if old_machine.get("cpu_count") != new_machine.get("cpu_count"):
        lines.append(
            f"note: machine shapes differ ({old_machine.get('cpu_count')} vs "
            f"{new_machine.get('cpu_count')} cores); deltas are not "
            f"comparable"
        )
    if old.get("smoke") != new.get("smoke"):
        lines.append(
            f"note: smoke modes differ (old smoke={old.get('smoke')}, "
            f"new smoke={new.get('smoke')}); deltas are not comparable"
        )
    header = f"{'metric':<40} {'old':>12} {'new':>12} {'delta':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    rows = 0
    for name, metrics in _THROUGHPUT_METRICS.items():
        old_bench = old.get("benchmarks", {}).get(name)
        new_bench = new.get("benchmarks", {}).get(name)
        if not old_bench or not new_bench:
            continue
        for metric in metrics:
            old_value = old_bench.get(metric)
            new_value = new_bench.get(metric)
            if old_value is None or new_value is None:
                continue
            delta = (
                (new_value - old_value) / old_value
                if old_value
                else float("inf")
            )
            lines.append(
                f"{name + '.' + metric:<40} {old_value:>12.4g} "
                f"{new_value:>12.4g} {delta:>+7.1%}"
            )
            rows += 1
    if rows == 0:
        lines.append("(no comparable throughput metrics found)")
    return "\n".join(lines)


def main_compare(old_path: str, new_path: str) -> int:
    """``omega-sim bench --compare OLD NEW``: load two saved results and
    print the delta table. Exit 2 on missing/corrupt/schema-invalid
    inputs, 0 otherwise (the comparison itself is informational)."""
    from repro.recovery.artifacts import ArtifactError, load_json_artifact

    documents = []
    for path in (old_path, new_path):
        try:
            documents.append(
                load_json_artifact(
                    path,
                    description="bench results",
                    require=("benchmarks", "machine"),
                )
            )
        except ArtifactError as exc:
            print(f"omega-sim bench: {exc}", file=sys.stderr)
            return 2
    print(render_compare(documents[0], documents[1]))
    return 0


def main_bench(args) -> int:
    """``omega-sim bench`` entry point (argparse namespace in, exit
    status out)."""
    from repro.recovery.artifacts import ArtifactError, load_json_artifact, write_json_artifact

    if getattr(args, "compare", None):
        return main_compare(args.compare[0], args.compare[1])

    baseline = None
    if args.baseline:
        try:
            baseline = load_json_artifact(
                args.baseline,
                description="bench baseline",
                require=("benchmarks", "machine"),
            )
        except ArtifactError as exc:
            print(f"omega-sim bench: {exc}", file=sys.stderr)
            return 2
    results = run_benchmarks(smoke=args.smoke, jobs=args.jobs)
    print(render_report(results))
    if args.output:
        write_json_artifact(args.output, results)
        print(f"results saved to {args.output}", file=sys.stderr)
    failures = gate(results, baseline, tolerance=args.tolerance)
    for failure in failures:
        print(f"omega-sim bench: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
