"""The broadcast reference router and the final-state oracles.

:class:`BroadcastRegistry` is a :class:`~repro.slicing.SliceRegistry` whose
router answers *every slice* for every event: every verifier on an event's
device sees it, and every invariant's status is recomputed on the next
``statuses()`` — what a deployment does with no routing at all.  The
differentials and ``benchmarks/bench_slicing.py`` build their reference leg
inside :func:`broadcast_routing`, which substitutes it for the runner's
registry the way a test substitutes a fake.

:func:`final_state_statuses` re-derives a live deployment's statuses from
its final state alone — once by a fresh deployment of the final FIB, links
and invariants, once by offline Algorithm 1 (:mod:`repro.core.offline`).
"""

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple
from unittest import mock

from repro.core.invariant import evaluate_behavior
from repro.core.offline import count_sources
from repro.core.planner import Planner
from repro.dataplane import Rule
from repro.sim import TulkunRunner
from repro.slicing import SliceRegistry


class BroadcastRegistry(SliceRegistry):
    """Routes every event to every slice."""

    def touched_by_update(self, dev, match):
        return self.all_tenants()

    def touched_by_rewrite(self, dev):
        return self.all_tenants()

    def touched_by_link(self, a, b):
        return self.all_tenants()

    def touched_by_lifecycle(self, dev):
        return self.all_tenants()


@contextmanager
def broadcast_routing() -> Iterator[None]:
    """Runners constructed inside this block route by broadcast."""
    with mock.patch("repro.sim.runner.SliceRegistry", BroadcastRegistry):
        yield


def final_state_statuses(runner) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(fresh deployment, offline Algorithm 1)`` statuses of ``runner``'s
    final FIB, failed links and invariants (serial, reliable transport)."""
    network = runner.network
    rules = {
        dev: [
            Rule(r.match, r.action, r.priority)
            for r in network.devices[dev].plane.rules
        ]
        for dev in runner.topology.devices
    }
    failed = sorted(network.failed_links)
    with TulkunRunner(runner.topology, runner.ctx, runner.invariants) as fresh:
        fresh.burst_update(rules)
        if failed:
            fresh.fail_links(failed)
        deployed = fresh.statuses()
        planes = {dev: d.plane for dev, d in fresh.network.devices.items()}
    down = {frozenset(link) for link in failed}
    planner = Planner(runner.topology, runner.ctx)
    offline = {}
    for inv in runner.invariants:
        net = planner.build_dpvnet(inv)
        atoms = planner.counting_atoms(inv)
        live = {
            nid: [
                child
                for child in node.children
                if frozenset((node.dev, net.node(child).dev)) not in down
            ]
            for nid, node in net.nodes.items()
        }
        counts = count_sources(net, planes, atoms, inv.packet_space, live)
        holds = all(
            evaluate_behavior(inv.behavior, atoms, vec)
            for pieces in counts.values()
            for _region, countset in pieces
            for vec in countset
        )
        offline[inv.name] = "HOLDS" if holds else "VIOLATED"
    return deployed, offline
