"""``equal`` invariants verified by local contracts, through the runner.

For an ``equal`` invariant the minimal counting information is empty
(§4.2): each on-device verifier checks that its device's next-hop group
covers every live downstream neighbor of its DPVNet node, and sends no
counts.  Driven through :class:`TulkunRunner` on both backends, the verdict
follows rule updates and link failures, names the broken device, and
equals :meth:`Planner.verify` on the same planes.
"""

import pytest

from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.core import Planner
from repro.core.library import all_shortest_path_availability
from repro.dataplane import Action, Rule
from repro.sim import TulkunRunner
from repro.topology import fattree

SRC, DST = "edge_0_0", "edge_3_1"


def ecmp_rules(topology, space):
    """Full ECMP shortest-path forwarding toward ``DST``."""
    distances = topology.hop_distances_to(DST)
    rules = {DST: [Rule(space, Action.deliver(), 1)]}
    for dev in topology.devices:
        hops = [
            n for n in topology.neighbors(dev)
            if distances.get(n, 1 << 30) == distances[dev] - 1
        ]
        if dev != DST and hops:
            rules[dev] = [Rule(space, Action.forward_any(hops), 1)]
    return rules


def contract_failures(violations):
    return sorted((v.ingress, v.message) for v in violations)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_equal_invariant_local_checks_through_the_runner(backend):
    topology = fattree(4)
    ctx = PacketSpaceContext(HeaderLayout.dst_only())
    space = ctx.ip_prefix(topology.external_prefixes[DST][0])
    invariant = all_shortest_path_availability(space, SRC, DST)
    planner = Planner(topology, ctx)
    runner = TulkunRunner(topology, ctx, [invariant], backend=backend, workers=2)
    try:
        def offline():
            network = runner.network
            planes = {dev: d.plane for dev, d in network.devices.items()}
            return planner.verify(invariant, planes)

        burst = runner.burst_update(ecmp_rules(topology, space))
        network = runner.network
        assert burst.messages == 0  # local contracts announce no counts
        assert runner.statuses() == {invariant.name: "HOLDS"}
        assert offline().holds
        assert network.violations(invariant.name) == []

        # Drop one required next hop at the source: a partial ECMP failure.
        old = network.devices[SRC].plane.rules[0]
        kept, dropped = old.action.group[0], old.action.group[1]
        narrowed = Rule(space, Action.forward_any([kept]), old.priority)
        runner.apply_updates([(SRC, narrowed, old.rule_id)])
        assert runner.statuses() == {invariant.name: "VIOLATED"}
        failures = contract_failures(network.violations(invariant.name))
        assert failures
        assert {dev for dev, _message in failures} == {SRC}
        assert all(
            "next-hop group must include" in message
            for _dev, message in failures
        )
        expected = offline()
        assert not expected.holds
        assert failures == contract_failures(expected.violations)

        # With the dropped hop's link down, that neighbor is no longer an
        # expected member: the narrowed group satisfies the contract.
        runner.fail_links([(SRC, dropped)])
        assert runner.statuses() == {invariant.name: "HOLDS"}
        assert network.violations(invariant.name) == []
        runner.recover_links([(SRC, dropped)])
        assert runner.statuses() == {invariant.name: "VIOLATED"}
    finally:
        runner.close()
