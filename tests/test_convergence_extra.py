"""Deeper convergence properties: randomized message timing, transforms
through the distributed protocol, and all Prop. 1 reduction modes
end-to-end."""

import random

import pytest

from repro.core.counting import CountExp
from repro.core.invariant import Atom, Invariant, MatchKind, PathExpr
from repro.core.library import non_redundant_reachability, reachability
from repro.core.planner import Planner
from repro.dataplane import Action, DevicePlane, Rule, Transform
from repro.sim import TulkunRunner
from repro.topology import Topology, fig2a_example, grid
from tests.conftest import build_fig2_planes, random_dataplane


def _as_rules(planes):
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }


class TestTimingIndependence:
    """The DVM fixpoint must not depend on link latencies (message order)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_latencies_same_fixpoint(self, ctx, seed):
        rng = random.Random(seed)
        base = fig2a_example()
        topo = Topology("jittered")
        for link in base.links():
            topo.add_link(link.a, link.b, rng.uniform(1e-6, 5e-2))
        topo.external_prefixes = dict(base.external_prefixes)

        space = ctx.ip_prefix("10.0.0.0/24")
        inv = reachability(space, "S", "D")
        planes = random_dataplane(
            topo, ctx, ["10.0.0.0/24"], seed=seed * 7,
            deliver_at={"10.0.0.0/24": "D"},
        )
        runner = TulkunRunner(topo, ctx, [inv])
        runner.burst_update(_as_rules(planes))
        final = {d: runner.network.devices[d].plane for d in topo.devices}
        offline = Planner(topo, ctx).verify(inv, final)
        assert runner.network.all_hold(inv.name) == offline.holds


class TestTransformsDistributed:
    def test_transform_chain_converges(self, ctx):
        """Rewrite chains converge to the offline verdict through SUBSCRIBE
        and preimage mapping."""
        topo = Topology("t")
        topo.add_link("S", "N")
        topo.add_link("N", "D")
        p80 = ctx.value("dst_port", 80)
        p8080 = ctx.value("dst_port", 8080)
        planes = {n: DevicePlane(n, ctx) for n in "SND"}
        planes["S"].install_many([Rule(p80, Action.forward_all(["N"]), 1)])
        planes["N"].install_many(
            [Rule(p80, Action.forward_all(["D"], transform=Transform.set_fields(dst_port=8080)), 1)]
        )
        planes["D"].install_many([Rule(p8080, Action.deliver(), 1)])
        inv = Invariant(
            p80, ("S",),
            Atom(PathExpr.parse("S N D"), MatchKind.EXIST, CountExp(">=", 1)),
            name="nat",
        )
        runner = TulkunRunner(topo, ctx, [inv])
        result = runner.burst_update(_as_rules(planes))
        assert result.holds["nat"]

        # Incremental: the NAT rule changes target port; D no longer matches.
        network = runner.network
        n_plane = network.devices["N"].plane
        victim = n_plane.rules[0]
        network.apply_rule_updates(
            "N", network.last_activity,
            [(
                Rule(
                    p80,
                    Action.forward_all(["D"], transform=Transform.set_fields(dst_port=9090)),
                    1,
                ),
                victim.rule_id,
            )],
        )
        network.run()
        assert not network.all_hold("nat")

    def test_transform_rule_appearing_late(self, ctx):
        """A transform rule installed after convergence triggers SUBSCRIBE
        and a correct recount."""
        topo = Topology("t")
        topo.add_link("S", "N")
        topo.add_link("N", "D")
        p80 = ctx.value("dst_port", 80)
        p8080 = ctx.value("dst_port", 8080)
        planes = {n: DevicePlane(n, ctx) for n in "SND"}
        planes["S"].install_many([Rule(p80, Action.forward_all(["N"]), 1)])
        # N initially drops.
        planes["D"].install_many([Rule(p8080, Action.deliver(), 1)])
        inv = Invariant(
            p80, ("S",),
            Atom(PathExpr.parse("S N D"), MatchKind.EXIST, CountExp(">=", 1)),
            name="nat_late",
        )
        runner = TulkunRunner(topo, ctx, [inv])
        result = runner.burst_update(_as_rules(planes))
        assert not result.holds["nat_late"]
        network = runner.network
        network.apply_rule_updates(
            "N", network.last_activity,
            [(
                Rule(
                    p80,
                    Action.forward_all(["D"], transform=Transform.set_fields(dst_port=8080)),
                    1,
                ),
                None,
            )],
        )
        network.run()
        assert network.all_hold("nat_late")


class TestReductionModes:
    """Prop. 1's three reduction modes drive correct verdicts end-to-end."""

    def _diamond(self, ctx):
        topo = Topology("diamond")
        topo.add_link("S", "A")
        topo.add_link("S", "B")
        topo.add_link("A", "D")
        topo.add_link("B", "D")
        space = ctx.ip_prefix("10.0.0.0/24")
        planes = {n: DevicePlane(n, ctx) for n in "SABD"}
        planes["S"].install_many([Rule(space, Action.forward_all(["A", "B"]), 1)])
        planes["A"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
        planes["B"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
        planes["D"].install_many([Rule(space, Action.deliver(), 1)])
        return topo, space, planes

    def test_le_bound_detects_redundancy(self, ctx):
        """exist <= 1 with replication: the max-reduction must carry the
        violating count upstream."""
        topo, space, planes = self._diamond(ctx)
        inv = Invariant(
            space, ("S",),
            Atom(PathExpr.parse("S .* D", simple_only=True),
                 MatchKind.EXIST, CountExp("<=", 1)),
            name="at_most_one",
        )
        runner = TulkunRunner(topo, ctx, [inv])
        result = runner.burst_update(_as_rules(planes))
        assert not result.holds["at_most_one"]  # two copies delivered

    def test_eq_exact_count(self, ctx):
        topo, space, planes = self._diamond(ctx)
        inv = non_redundant_reachability(space, "S", "D")  # exist == 1
        runner = TulkunRunner(topo, ctx, [inv])
        result = runner.burst_update(_as_rules(planes))
        assert not result.holds[inv.name]  # 2 != 1
        # Remove one branch: exactly one copy → holds.
        network = runner.network
        s_plane = network.devices["S"].plane
        victim = s_plane.rules[0]
        network.apply_rule_updates(
            "S", network.last_activity,
            [(Rule(space, Action.forward_all(["A"]), 1), victim.rule_id)],
        )
        network.run()
        assert network.all_hold(inv.name)

    def test_eq_with_any_distinct_counts(self, ctx):
        """ANY group with asymmetric branch counts: the two-smallest
        reduction must surface the ambiguity as a violation of == 1."""
        topo = Topology("t")
        topo.add_link("S", "A")
        topo.add_link("S", "B")
        topo.add_link("A", "D")
        topo.add_link("B", "D")
        space = ctx.ip_prefix("10.0.0.0/24")
        planes = {n: DevicePlane(n, ctx) for n in "SABD"}
        planes["S"].install_many([Rule(space, Action.forward_any(["A", "B"]), 1)])
        planes["A"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
        planes["B"].install_many([Rule(space, Action.drop(), 1)])  # B loses it
        planes["D"].install_many([Rule(space, Action.deliver(), 1)])
        inv = non_redundant_reachability(space, "S", "D")
        runner = TulkunRunner(topo, ctx, [inv])
        result = runner.burst_update(_as_rules(planes))
        assert not result.holds[inv.name]  # counts {0, 1} — not always 1


class TestManyInvariantsOneNetwork:
    def test_independent_verdicts(self, ctx):
        """Several invariants sharing the network get independent verdicts."""
        topo = grid(2, 3)
        space = ctx.ip_prefix("10.0.0.0/24")
        planes = random_dataplane(
            topo, ctx, ["10.0.0.0/24"], seed=42,
            deliver_at={"10.0.0.0/24": "g1_2"}, drop_fraction=0.0,
        )
        invs = [
            reachability(space, "g0_0", "g1_2"),
            reachability(space, "g0_1", "g1_2"),
            reachability(space, "g1_0", "g1_2"),
        ]
        runner = TulkunRunner(topo, ctx, invs)
        result = runner.burst_update(_as_rules(planes))
        final = {d: runner.network.devices[d].plane for d in topo.devices}
        planner = Planner(topo, ctx)
        for inv in invs:
            assert result.holds[inv.name] == planner.verify(inv, final).holds
