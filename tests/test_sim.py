"""Simulator and the central eventual-consistency property.

``TestConvergence`` is the crux of the reproduction's correctness story:
for randomized topologies, data planes and update orders, the distributed
DVM fixpoint at every source must equal the offline Algorithm 1 verdict on
the final data plane snapshot.
"""

import random

import pytest

from repro.core.counting import CountExp
from repro.core.invariant import Atom, Invariant, MatchKind, PathExpr
from repro.core.library import reachability, waypoint_reachability
from repro.core.planner import Planner
from repro.dataplane import Action, DevicePlane, Rule
from repro.errors import SimulationError
from repro.sim import SimKernel, TulkunRunner
from repro.topology import fig2a_example, grid, random_wan
from tests.conftest import build_fig2_planes, random_dataplane


class TestKernel:
    def test_orders_events(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(2.0, lambda: seen.append("b"))
        kernel.schedule_at(1.0, lambda: seen.append("a"))
        kernel.schedule_at(1.0, lambda: seen.append("a2"))
        end = kernel.run()
        assert seen == ["a", "a2", "b"]
        assert end == 2.0

    def test_schedule_into_past_rejected(self):
        kernel = SimKernel()
        kernel.schedule_at(5.0, lambda: kernel.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            kernel.run()

    def test_until_bound(self):
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(10.0, lambda: fired.append(1))
        kernel.run(until=5.0)
        assert fired == []
        assert kernel.pending == 1

    def test_cascading_events(self):
        kernel = SimKernel()
        seen = []

        def outer():
            seen.append("outer")
            kernel.schedule_in(1.0, lambda: seen.append("inner"))

        kernel.schedule_at(0.0, outer)
        kernel.run()
        assert seen == ["outer", "inner"]

    def test_events_beyond_until_survive_into_next_run(self):
        # Load-bearing for retransmission timers: a bounded run() must not
        # discard events past the horizon — the next run() executes them.
        kernel = SimKernel()
        fired = []
        kernel.schedule_at(10.0, lambda: fired.append("late"))
        kernel.schedule_at(3.0, lambda: fired.append("early"))
        kernel.run(until=5.0)
        assert fired == ["early"]
        assert kernel.pending == 1
        end = kernel.run()
        assert fired == ["early", "late"]
        assert end == 10.0
        assert kernel.pending == 0

    def test_equal_time_timer_vs_message_ordering(self):
        # A message delivery and a timer scheduled for the same instant run
        # in scheduling order: the earlier-armed event wins the tie.  The
        # transport relies on this (a data arrival scheduled before its own
        # RTO timer is processed first, so the ack can cancel the timer).
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append("message"))
        timer = kernel.schedule_at(1.0, lambda: seen.append("timer"))
        kernel.run()
        assert seen == ["message", "timer"]
        assert timer.active is False

        kernel = SimKernel()
        seen = []
        timer = kernel.schedule_at(1.0, lambda: seen.append("timer"))
        kernel.schedule_at(1.0, lambda: seen.append("message"))
        kernel.run()
        assert seen == ["timer", "message"]

    def test_cancelled_timer_does_not_fire_or_advance_clock(self):
        kernel = SimKernel()
        fired = []
        timer = kernel.schedule_at(50.0, lambda: fired.append("t"))
        kernel.schedule_at(1.0, lambda: fired.append("m"))
        assert timer.active
        timer.cancel()
        assert not timer.active
        end = kernel.run()
        assert fired == ["m"]
        # The cancelled entry is skipped lazily: no clock advance to t=50.
        assert end == 1.0

    def test_cancel_from_handler_before_fire(self):
        # Cancelling at the same timestamp but earlier scheduling order
        # suppresses the later entry (the lazy-cancellation race the
        # transport's ack path exercises).
        kernel = SimKernel()
        fired = []
        timer = kernel.schedule_at(2.0, lambda: fired.append("t"))
        kernel.schedule_at(1.0, timer.cancel)
        kernel.run()
        assert fired == []

    def test_cancelled_events_not_counted_against_budget(self):
        kernel = SimKernel()
        fired = []
        timers = [
            kernel.schedule_at(1.0, lambda: fired.append("t"))
            for _ in range(5)
        ]
        for timer in timers:
            timer.cancel()
        kernel.schedule_at(2.0, lambda: fired.append("m"))
        before = kernel.events_processed
        kernel.run()
        assert fired == ["m"]
        assert kernel.events_processed == before + 1


class TestBurstScenario:
    def test_fig2_burst_detects_violation(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        runner = TulkunRunner(fig2a, ctx, [inv])
        planes = build_fig2_planes(ctx)
        rules = {dev: list(plane.rules) for dev, plane in planes.items()}
        # fresh rules need fresh objects (rule ids are single-install)
        result = runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in rs]
             for dev, rs in rules.items()}
        )
        assert result.holds[inv.name] is False
        assert result.verification_time > 0
        assert result.messages > 0

    def test_verdict_matches_offline(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        runner = TulkunRunner(fig2a, ctx, [inv])
        planes = build_fig2_planes(ctx)
        result = runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        offline = Planner(fig2a, ctx).verify(
            inv, {d: runner.network.devices[d].plane for d in fig2a.devices}
        )
        assert result.holds[inv.name] == offline.holds


def _distributed_source_counts(runner, inv):
    """Collect the packet-space partition with counts at the source device."""
    for device in runner.network.devices.values():
        verifier = device.verifiers.get(inv.name)
        if verifier is None:
            continue
        counts = verifier.source_counts(inv.ingress_set[0])
        if counts is not None:
            return counts
    return None


class TestConvergence:
    """DVM fixpoint == Algorithm 1 on the final snapshot."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_planes_on_fig2a(self, ctx, seed):
        topo = fig2a_example()
        space = ctx.ip_prefix("10.0.0.0/24")
        inv = reachability(space, "S", "D")
        planes = random_dataplane(
            topo, ctx, ["10.0.0.0/24"], seed=seed,
            deliver_at={"10.0.0.0/24": "D"},
        )
        runner = TulkunRunner(topo, ctx, [inv])
        runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        network = runner.network
        final_planes = {d: network.devices[d].plane for d in topo.devices}
        offline = Planner(topo, ctx).verify(inv, final_planes)
        assert network.all_hold(inv.name) == offline.holds, f"seed={seed}"

    @pytest.mark.parametrize("seed", range(5))
    def test_random_update_sequences_converge(self, ctx, seed):
        """Apply a random sequence of rule mutations; after quiescence the
        distributed counts must equal the offline counts exactly."""
        rng = random.Random(seed)
        topo = grid(2, 3)
        space = ctx.ip_prefix("10.0.0.0/24")
        inv = Invariant(
            space, ("g0_0",),
            Atom(PathExpr.parse("g0_0 .* g1_2", simple_only=True),
                 MatchKind.EXIST, CountExp(">=", 1)),
            name="grid_reach",
        )
        planes = random_dataplane(
            topo, ctx, ["10.0.0.0/24"], seed=seed * 31,
            deliver_at={"10.0.0.0/24": "g1_2"},
        )
        runner = TulkunRunner(topo, ctx, [inv])
        runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        network = runner.network
        # Random churn.
        for _ in range(6):
            dev = rng.choice(topo.devices)
            plane = network.devices[dev].plane
            if not plane.rules or dev == "g1_2":
                continue
            victim = rng.choice(plane.rules)
            neighbors = topo.neighbors(dev)
            new_action = (
                Action.drop()
                if rng.random() < 0.2
                else Action.forward_all([rng.choice(neighbors)])
            )
            new_rule = Rule(victim.match, new_action, victim.priority)
            network.apply_rule_updates(
                dev, network.last_activity, [(new_rule, victim.rule_id)]
            )
            network.run()
        final_planes = {d: network.devices[d].plane for d in topo.devices}
        offline = Planner(topo, ctx).verify(inv, final_planes)
        distributed = _distributed_source_counts(runner, inv)
        # Compare the full partition, not just the verdict.
        offline_pieces = offline.source_counts["g0_0"]
        for region, cs in offline_pieces:
            for sub, dist_cs in distributed:
                piece = sub & region
                if not piece.is_empty:
                    assert dist_cs == cs, f"seed={seed}: {dist_cs} != {cs}"

    def test_wan_scale_convergence(self, ctx):
        topo = random_wan(12, 8, seed=9)
        devices = topo.devices
        src, dst = devices[0], devices[-1]
        space = ctx.ip_prefix("10.0.0.0/24")
        inv = reachability(space, src, dst, max_extra_hops=2)
        planes = random_dataplane(
            topo, ctx, ["10.0.0.0/24"], seed=77,
            deliver_at={"10.0.0.0/24": dst}, drop_fraction=0.0,
        )
        runner = TulkunRunner(topo, ctx, [inv])
        runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        final = {d: runner.network.devices[d].plane for d in devices}
        offline = Planner(topo, ctx).verify(inv, final)
        assert runner.network.all_hold(inv.name) == offline.holds


class TestLinkFailures:
    def test_fail_and_recover_roundtrip(self, ctx, fig2a, fig2_spaces):
        """Failing the W-D link breaks waypoint delivery; recovery restores
        the original verdict."""
        space = fig2_spaces[0]
        inv = reachability(space, "S", "D")
        runner = TulkunRunner(fig2a, ctx, [inv])
        planes = build_fig2_planes(ctx)
        runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        network = runner.network
        baseline_holds = network.all_hold(inv.name)

        duration = runner.fail_links([("W", "D")])
        assert duration >= 0
        # With W-D down, P2 packets (forwarded A→{B,W}, B drops, W dead-ends)
        # cannot reach D: the invariant must now be violated.
        assert not network.all_hold(inv.name)

        runner.recover_links([("W", "D")])
        assert network.all_hold(inv.name) == baseline_holds

    def test_messages_cross_only_live_links(self, ctx, fig2a, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        runner = TulkunRunner(fig2a, ctx, [inv])
        planes = build_fig2_planes(ctx)
        runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        network = runner.network
        runner.fail_links([("A", "W")])
        # No exception: messages across the dead link are dropped silently,
        # and verifiers re-route their knowledge after recovery.
        runner.recover_links([("A", "W")])
        final = {d: network.devices[d].plane for d in fig2a.devices}
        offline = Planner(fig2a, ctx).verify(inv, final)
        assert network.all_hold(inv.name) == offline.holds


class TestMetrics:
    def test_metrics_populated(self, ctx, fig2a, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        runner = TulkunRunner(fig2a, ctx, [inv])
        planes = build_fig2_planes(ctx)
        result = runner.burst_update(
            {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
             for dev, plane in planes.items()}
        )
        metrics = runner.network.metrics
        assert result.events == runner.network.kernel.events_processed
        assert sum(m.events_processed for m in metrics.devices.values()) > 0
        assert metrics.total_messages() == result.messages
        assert any(m.init_cost > 0 for m in metrics.devices.values())
