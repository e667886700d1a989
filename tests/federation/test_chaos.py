"""Tests for the federation chaos engine: cell-scoped fault semantics
and the determinism contract (blackout/recovery schedules are a pure
function of the master seed)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.common import LightweightConfig
from repro.experiments.federation import build_federation, federation_points
from repro.federation.cells import FederatedCell
from repro.federation.config import FederationFaultConfig
from repro.sim import RandomStreams
from repro.workload.clusters import CLUSTER_B
from repro.world import RunContext

SCALE = 0.05
HORIZON = 1800.0


def build_point(
    cells=2, staleness=0.0, intensity=4.0, seed=5, rate_factor=2.0, **kwargs
):
    return federation_points(
        cells=(cells,),
        staleness_values=(staleness,),
        intensities=(intensity,),
        scale=SCALE,
        horizon=HORIZON,
        seed=seed,
        rate_factor=rate_factor,
        **kwargs,
    )[0][0]


def fault_schedule(seed, intensity=6.0):
    """Run one faulted federation with the in-memory recorder and return
    the (name, time, cell) sequence of every cell-scoped fault event."""
    recorder = obs.TraceRecorder()
    build_federation(
        build_point(seed=seed, intensity=intensity), RunContext(recorder)
    ).run()
    return [
        (record["name"], record["t"], record["fields"]["cell"])
        for record in recorder.records
        if record["name"]
        in (
            "fault.cell_blackout",
            "fault.cell_recover",
            "fault.feed_partition",
            "fault.feed_heal",
            "fault.link_down",
            "fault.link_up",
        )
    ]


class TestFaultScheduleDeterminism:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_blackout_recovery_schedule_identical_across_reruns(self, seed):
        """The satellite property: the full cell-fault timeline —
        blackouts, recoveries, partitions, heals, flaps — replays
        byte-identically for the same master seed."""
        assert fault_schedule(seed) == fault_schedule(seed)

    def test_schedule_is_nonempty_and_ordered(self):
        schedule = fault_schedule(seed=5)
        blackouts = [entry for entry in schedule if entry[0] == "fault.cell_blackout"]
        recoveries = [entry for entry in schedule if entry[0] == "fault.cell_recover"]
        assert blackouts, "expected at least one blackout at this intensity"
        assert len(recoveries) >= len(blackouts) - 1  # last one may pass horizon
        times = [t for _, t, _ in schedule]
        assert times == sorted(times)

    def test_different_seeds_draw_different_schedules(self):
        assert fault_schedule(seed=5) != fault_schedule(seed=6)


class TestBlackoutSemantics:
    def test_blackout_mid_transaction_loses_only_that_cells_inflight(self):
        """A whole-cell blackout must destroy exactly the victim cell's
        in-flight transactions and queued backlog — sibling cells keep
        their in-flight work, and the per-cell invariant checker stays
        green through recovery."""
        from repro.federation.chaos import FederationChaosEngine

        # rate_factor 6 overloads the cells enough that at t=900 the
        # victim has both an in-flight transaction and a queued backlog.
        federation = build_federation(
            build_point(cells=2, intensity=0.0, rate_factor=6.0)
        )
        federation.build()
        federation.sim.run(until=900.0)

        victim, survivor = federation.cells
        victim_inflight = {
            scheduler._inflight_info[0].job_id
            for scheduler in victim.world.schedulers
            if scheduler._inflight_info is not None
        }
        survivor_inflight = {
            scheduler: scheduler._inflight_info[0].job_id
            for scheduler in survivor.world.schedulers
            if scheduler._inflight_info is not None
        }
        assert victim_inflight, "no in-flight transaction at blackout time"
        backlog = victim.queue_depth()
        assert backlog > 0, "no queued backlog at blackout time"
        migrated = federation.front_door.jobs_migrated

        engine = FederationChaosEngine(
            federation.sim,
            federation.streams.fork("test-chaos"),
            FederationFaultConfig(blackout_mtbf=1e9),
            federation.cells,
            federation.front_door,
            horizon=HORIZON,
        )
        engine._blackout(victim, federation.streams.stream("test-rng"))

        # Exactly the victim's in-flight commits are lost ...
        assert federation.front_door.lost_to_blackout == victim_inflight
        # ... its whole backlog was drained for migration ...
        assert victim.queue_depth() == 0
        assert federation.front_door.jobs_migrated - migrated == backlog
        assert not victim.reachable
        # ... and the survivor's in-flight work is untouched.
        for scheduler, job_id in survivor_inflight.items():
            assert scheduler._inflight_info is not None
            assert scheduler._inflight_info[0].job_id == job_id
        assert survivor.reachable

        # Run through recovery to the horizon: the victim restarts, the
        # ledger balances, and every cell state is still consistent.
        federation.sim.run(until=HORIZON)
        assert victim.reachable
        counts = federation.front_door.check_accounting()
        assert counts["lost_to_blackout"] <= len(victim_inflight)
        assert federation.check_invariants() == []

    def test_recovery_restarts_the_cell(self):
        federation = build_federation(build_point(cells=2, intensity=6.0))
        result = federation.run()
        assert result.blackouts > 0
        # Post-horizon, every blacked-out cell either recovered or its
        # schedulers are down with the flag still set; either way the
        # invariant checker and accounting already passed inside run().
        assert result.accounting["submitted"] > 0


class TestDigestFaults:
    def make_cell(self, staleness=0.0):
        config = LightweightConfig(
            preset=CLUSTER_B.scaled(SCALE),
            architecture="omega",
            horizon=HORIZON,
            seed=0,
            external_arrivals=True,
            name_prefix="c0/",
        )
        return FederatedCell(
            0, config, RunContext(), RandomStreams(0), staleness=staleness
        )

    def test_partition_freezes_the_published_digest(self):
        cell = self.make_cell(staleness=60.0)
        cell.publish_digest()
        before = cell.digest()
        cell.freeze_digest()
        cell.partitioned = True
        cell.publish_digest()  # lost: the feed is partitioned
        assert cell.digest() == before
        cell.partitioned = False
        cell.thaw_digest()
        cell.publish_digest()
        assert cell.digest().published_at == before.published_at

    def test_zero_staleness_partition_snapshots_live_state(self):
        cell = self.make_cell(staleness=0.0)
        live = cell.live_digest()
        cell.freeze_digest()
        cell.partitioned = True
        assert cell.digest() == live

    def test_link_flap_is_unreachable_but_healthy(self):
        cell = self.make_cell()
        assert cell.reachable
        cell.link_down = True
        assert not cell.reachable
        assert not cell.blacked_out
        cell.link_down = False
        assert cell.reachable
