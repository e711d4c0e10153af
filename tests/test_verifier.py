"""On-device verifier unit behaviour (single device, hand-fed events)."""

import pytest

from repro.core.counting import CountExp
from repro.core.dvm import SubscribeMessage, UpdateMessage
from repro.core.invariant import Atom, Invariant, MatchKind, PathExpr
from repro.core.planner import Planner
from repro.core.verifier import OnDeviceVerifier
from repro.dataplane import Action, DevicePlane, Rule
from repro.errors import ProtocolError
from repro.topology import Topology, fig2a_example


@pytest.fixture
def chain_setup(ctx):
    """S - A - D chain with a reachability invariant; returns the tasks and
    fresh planes."""
    topo = Topology("chain")
    topo.add_link("S", "A")
    topo.add_link("A", "D")
    space = ctx.ip_prefix("10.0.0.0/24")
    inv = Invariant(
        space, ("S",),
        Atom(PathExpr.parse("S A D", simple_only=True), MatchKind.EXIST,
             CountExp(">=", 1)),
        name="chain_reach",
    )
    tasks = Planner(topo, ctx).decompose(inv)
    planes = {name: DevicePlane(name, ctx) for name in topo.devices}
    planes["S"].install_many([Rule(space, Action.forward_all(["A"]), 1)])
    planes["A"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
    planes["D"].install_many([Rule(space, Action.deliver(), 1)])
    return topo, space, inv, tasks, planes


def verifier_for(tasks, planes, dev):
    return OnDeviceVerifier(tasks.tasks[dev], planes[dev])


class TestInitialize:
    def test_destination_announces_delivery(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        verifier = verifier_for(tasks, planes, "D")
        outgoing = verifier.initialize()
        assert len(outgoing) == 1
        dest_dev, message = outgoing[0]
        assert dest_dev == "A"
        assert isinstance(message, UpdateMessage)
        assert message.withdrawn == space
        ((pred, cs),) = message.results
        assert pred == space
        assert cs == ((1,),)

    def test_interior_node_with_no_news_stays_silent(self, ctx, chain_setup):
        """A has no CIBIn yet: its count is zero, which receivers assume by
        default — no message should be sent."""
        _topo, _space, _inv, tasks, planes = chain_setup
        verifier = verifier_for(tasks, planes, "A")
        assert verifier.initialize() == []

    def test_source_verdict_initially_violated(self, ctx, chain_setup):
        _topo, _space, _inv, tasks, planes = chain_setup
        verifier = verifier_for(tasks, planes, "S")
        verifier.initialize()
        ok, violations = verifier.verdicts["S"]
        assert not ok  # nothing announced yet → count 0 < 1


class TestUpdateHandling:
    def test_update_propagates_up_the_chain(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        d = verifier_for(tasks, planes, "D")
        a = verifier_for(tasks, planes, "A")
        s = verifier_for(tasks, planes, "S")
        s.initialize()
        a.initialize()
        ((_, msg_from_d),) = d.initialize()
        ((dest, msg_from_a),) = a.handle_update(msg_from_d)
        assert dest == "S"
        assert s.handle_update(msg_from_a) == []  # source: nothing upstream
        ok, _ = s.verdicts["S"]
        assert ok

    def test_foreign_node_update_rejected(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        s = verifier_for(tasks, planes, "S")
        with pytest.raises(ProtocolError):
            s.handle_update(
                UpdateMessage((99999, 1), space, ((space, ((1,),)),))
            )

    def test_duplicate_update_suppressed(self, ctx, chain_setup):
        """Receiving the same counting result twice must not re-announce."""
        _topo, _space, _inv, tasks, planes = chain_setup
        d = verifier_for(tasks, planes, "D")
        a = verifier_for(tasks, planes, "A")
        a.initialize()
        ((_, msg_from_d),) = d.initialize()
        first = a.handle_update(msg_from_d)
        assert len(first) == 1
        again = a.handle_update(msg_from_d)
        assert again == []


class TestInternalEvents:
    def test_lec_delta_triggers_announcement(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        a = verifier_for(tasks, planes, "A")
        d = verifier_for(tasks, planes, "D")
        a.initialize()
        ((_, msg),) = d.initialize()
        a.handle_update(msg)
        # A's rule flips to drop: count at A becomes 0 → announce upstream.
        rule = planes["A"].rules[0]
        deltas = planes["A"].replace_rule(
            rule.rule_id, Rule(space, Action.drop(), 1)
        )
        outgoing = a.handle_lec_deltas(deltas)
        assert len(outgoing) == 1
        _dest, message = outgoing[0]
        ((_pred, cs),) = message.results
        assert cs == ((0,),)

    @pytest.mark.parametrize("predicate_index", ["atoms", "bdd"])
    def test_standalone_plane_takes_the_verifiers_carrier(
        self, ctx, chain_setup, predicate_index
    ):
        """No network: a counting verifier itself puts the plane on its
        carrier, and reads the plane's deltas without a conversion."""
        _topo, space, _inv, tasks, planes = chain_setup
        a, d = (
            OnDeviceVerifier(
                tasks.tasks[dev], planes[dev], predicate_index=predicate_index
            )
            for dev in "AD"
        )
        assert planes["A"].carrier is ctx.carrier(predicate_index)
        a.initialize()
        ((_, msg),) = d.initialize()
        a.handle_update(msg)
        deltas = planes["A"].replace_rule(
            planes["A"].rules[0].rule_id, Rule(space, Action.drop(), 1)
        )
        assert all(delta.carrier is planes["A"].carrier for delta in deltas)
        ((_dest, message),) = a.handle_lec_deltas(deltas)
        assert message.results == ((space, ((0,),)),)

    def test_empty_deltas_noop(self, ctx, chain_setup):
        _topo, _space, _inv, tasks, planes = chain_setup
        a = verifier_for(tasks, planes, "A")
        assert a.handle_lec_deltas([]) == []

    def test_link_down_zeroes_counts(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        a = verifier_for(tasks, planes, "A")
        d = verifier_for(tasks, planes, "D")
        a.initialize()
        ((_, msg),) = d.initialize()
        a.handle_update(msg)
        outgoing = a.handle_link_change("D", is_up=False)
        assert len(outgoing) == 1
        ((_pred, cs),) = outgoing[0][1].results
        assert cs == ((0,),)

    def test_link_recovery_restores(self, ctx, chain_setup):
        _topo, space, _inv, tasks, planes = chain_setup
        a = verifier_for(tasks, planes, "A")
        d = verifier_for(tasks, planes, "D")
        a.initialize()
        ((_, msg),) = d.initialize()
        a.handle_update(msg)
        a.handle_link_change("D", is_up=False)
        outgoing = a.handle_link_change("D", is_up=True)
        # Count restored to 1 toward S.
        update = [m for _dest, m in outgoing if isinstance(m, UpdateMessage)]
        assert any(((1,),) in [cs for _p, cs in m.results] for m in update)


class TestStats:
    def test_counters_move(self, ctx, chain_setup):
        _topo, _space, _inv, tasks, planes = chain_setup
        a = verifier_for(tasks, planes, "A")
        d = verifier_for(tasks, planes, "D")
        a.initialize()
        ((_, msg),) = d.initialize()
        a.handle_update(msg)
        assert a.stats.updates_received == 1
        assert a.stats.updates_sent == 1
        assert a.stats.bytes_received > 0
        assert d.stats.updates_sent == 1
        assert a.memory_proxy() > 0
