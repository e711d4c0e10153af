#!/usr/bin/env python3
"""Quickstart: the paper's §2 walkthrough, end to end.

Builds the Figure 2a network and data plane, specifies the Figure 2b
invariant (packets to 10.0.0.0/23 entering at S must reach D via a simple
path through W), verifies it three ways — trace enumeration, centralized
Algorithm 1, and the full distributed simulation — and then replays the
§2.2.3 incremental update that fixes the violation.

Run:  python examples/quickstart.py
"""

from repro.bdd import PacketSpaceContext
from repro.bdd.fields import ip_to_int
from repro.core import Planner
from repro.core.language import parse_invariants
from repro.dataplane import (
    Action,
    DevicePlane,
    Rule,
    enumerate_universes,
)
from repro.sim import TulkunRunner
from repro.topology import fig2a_example


def build_data_plane(ctx):
    """The Figure 2a forwarding state, exactly as drawn in the paper."""
    p1 = ctx.ip_prefix("10.0.0.0/23")
    p2 = ctx.ip_prefix("10.0.0.0/24")
    p3 = ctx.ip_prefix("10.0.1.0/24") & ctx.value("dst_port", 80)
    p4 = ctx.ip_prefix("10.0.1.0/24") - ctx.value("dst_port", 80)
    rules = {
        "S": [Rule(p1, Action.forward_all(["A"]), 10)],
        "A": [
            Rule(p2, Action.forward_all(["B", "W"]), 20),
            Rule(p3, Action.forward_any(["B", "W"]), 20),  # ECMP blackbox
            Rule(p4, Action.forward_all(["W"]), 20),
        ],
        "B": [Rule(p3 | p4, Action.forward_all(["D"]), 10)],
        "W": [Rule(p1, Action.forward_all(["D"]), 10)],
        "D": [Rule(p1, Action.deliver(), 10)],
    }
    return rules, (p1, p2, p3, p4)


def main():
    ctx = PacketSpaceContext()
    topo = fig2a_example()
    rules, (p1, _p2, p3, _p4) = build_data_plane(ctx)

    # ------------------------------------------------------------------
    # 1. The invariant, written in the declarative language (§3).
    # ------------------------------------------------------------------
    spec = """
    invariant waypoint {
        packet_space: dst_ip = 10.0.0.0/23;
        ingress: S;
        behavior: exist >= 1 on (S .* W .* D) with loop_free;
    }
    """
    (invariant,) = parse_invariants(ctx, spec)
    print(f"invariant: {invariant}")

    # ------------------------------------------------------------------
    # 2. Ground truth: packet traces and universes (§2.1).
    # ------------------------------------------------------------------
    planes = {name: DevicePlane(name, ctx) for name in topo.devices}
    for dev, dev_rules in rules.items():
        planes[dev].install_many(
            [Rule(r.match, r.action, r.priority) for r in dev_rules]
        )
    pkt_q = {"dst_ip": ip_to_int("10.0.1.1"), "dst_port": 80,
             "src_ip": 0, "src_port": 0, "proto": 0}
    print("\npacket q = 10.0.1.1:80 entering at S has universes:")
    for universe in enumerate_universes(planes, "S", pkt_q):
        print("  ", sorted(str(t) for t in universe))

    # ------------------------------------------------------------------
    # 3. Centralized verification: DPVNet + Algorithm 1 (§4).
    # ------------------------------------------------------------------
    planner = Planner(topo, ctx)
    net = planner.build_dpvnet(invariant)
    print(f"\nDPVNet: {net.stats()} — nodes "
          f"{sorted(n.label for n in net.nodes.values())}")
    result = planner.verify(invariant, planes)
    print(result.summary())
    for violation in result.violations:
        pkt = violation.example_packet()
        print(f"  counts per universe: {list(violation.counts)}; "
              f"witness packet dst_port={pkt['dst_port']}")

    # ------------------------------------------------------------------
    # 4. Distributed verification: on-device verifiers + DVM (§5).
    # ------------------------------------------------------------------
    runner = TulkunRunner(topo, ctx, [invariant])
    burst = runner.burst_update(rules)
    print(f"\ndistributed burst verification: {burst.verification_time * 1e3:.2f} ms "
          f"(simulated), {burst.messages} DVM messages")
    print(f"  verdict at S: holds={burst.holds[invariant.name]}")

    # ------------------------------------------------------------------
    # 5. The §2.2.3 incremental update: B re-points P3∪P4 to W.
    # ------------------------------------------------------------------
    network = runner.network
    b_plane = network.devices["B"].plane
    old_rule = b_plane.rules[0]
    new_rule = Rule(old_rule.match, Action.forward_all(["W"]), old_rule.priority)
    start = network.last_activity
    network.apply_rule_updates("B", start, [(new_rule, old_rule.rule_id)])
    finish = network.run()
    print(f"\nafter B's rule update ({(finish - start) * 1e3:.2f} ms to re-verify):")
    print(f"  verdict at S: holds={network.all_hold(invariant.name)}")


if __name__ == "__main__":
    main()
