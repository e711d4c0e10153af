#!/usr/bin/env python3
"""Fault tolerance (§6): precomputed fault-tolerant DPVNet + online recount.

The invariant is (≤ shortest+1) reachability from S to D in the Figure 2a
network, required to survive any single link failure.  The planner
precomputes one DPVNet whose edges and acceptances are labeled per fault
scene (cf. Figure 8); when a failure floods through the network, verifiers
switch labels and recount — without ever contacting the planner.

Run:  python examples/fault_tolerance.py
"""

from repro.bdd import PacketSpaceContext
from repro.core import Planner
from repro.core.counting import CountExp
from repro.core.fault import compute_fault_plan
from repro.core.invariant import (
    Atom,
    FaultSpec,
    Invariant,
    LengthFilter,
    MatchKind,
    PathExpr,
)
from repro.dataplane import Action, DevicePlane, Rule
from repro.sim import TulkunRunner
from repro.topology import fig2a_example


def build_planes(ctx, topo, space):
    """Shortest-path-ish forwarding with a protection alternative at A."""
    planes = {name: DevicePlane(name, ctx) for name in topo.devices}
    planes["S"].install_many([Rule(space, Action.forward_all(["A"]), 1)])
    planes["A"].install_many([Rule(space, Action.forward_any(["B", "W"]), 1)])
    planes["B"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
    planes["W"].install_many([Rule(space, Action.forward_all(["D"]), 1)])
    planes["D"].install_many([Rule(space, Action.deliver(), 1)])
    return planes


def main():
    ctx = PacketSpaceContext()
    topo = fig2a_example()
    space = ctx.ip_prefix("10.0.0.0/23")
    invariant = Invariant(
        space,
        ("S",),
        Atom(
            PathExpr.parse("S .* D", (LengthFilter("<=", "shortest", 1),), True),
            MatchKind.EXIST,
            CountExp(">=", 1),
        ),
        FaultSpec.up_to(1),
        name="ft_reach",
    )
    print(f"invariant: {invariant}")
    print("fault spec: tolerate any single link failure\n")

    planner = Planner(topo, ctx)
    plan = compute_fault_plan(planner, invariant)
    print(f"fault-tolerant DPVNet: {plan.net.stats()}, "
          f"{len(plan.scenes)} scenes precomputed")
    if plan.intolerable:
        print("intolerable scenes:",
              [sorted(s.failed_links) for s in plan.intolerable])
    else:
        print("every single-link failure scene has surviving valid paths")

    # Deploy with the labeled DPVNet; scene 0 (no failure) is active.
    runner = TulkunRunner(topo, ctx, [invariant],
                          prebuilt_nets={invariant.name: plan.net})
    planes = build_planes(ctx, topo, space)
    rules = {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }
    burst = runner.burst_update(rules)
    print(f"\nbase scene: holds={burst.holds[invariant.name]} "
          f"({burst.verification_time * 1e3:.2f} ms)")

    # Fail W–D.  The static data plane still has A's ANY group pointing at
    # W (whose only exit is the dead link) — the recount correctly flags
    # that a universe exists where the packet dies at W.
    scene = plan.scene_for([("W", "D")])
    duration = runner.fail_links([("W", "D")], scene_id=scene.scene_id)
    network = runner.network
    print(f"\nlink W–D fails (scene {scene.scene_id}): recount took "
          f"{duration * 1e3:.2f} ms, holds={network.all_hold(invariant.name)} "
          "(W still points at the dead link)")

    # Routing reconverges: W reroutes to B.  Verifiers pick the update up as
    # an ordinary incremental event and the invariant holds again — along
    # the scene-labeled S,A,W,B,D path of the fault-tolerant DPVNet.
    w_plane = network.devices["W"].plane
    victim = w_plane.rules[0]
    network.apply_rule_updates(
        "W", network.last_activity,
        [(Rule(space, Action.forward_all(["B"]), 1), victim.rule_id)],
    )
    network.run()
    print(f"W reroutes to B: holds={network.all_hold(invariant.name)}")

    # The failure clears and W's original route comes back.
    runner.recover_links([("W", "D")])
    restored = network.devices["W"].plane.rules[0]
    network.apply_rule_updates(
        "W", network.last_activity,
        [(Rule(space, Action.forward_all(["D"]), 1), restored.rule_id)],
    )
    network.run()
    print(f"link W–D recovers: holds={network.all_hold(invariant.name)}")

    # Now fail S–A: the only egress from S — an intolerable scene for S.
    scene = plan.scene_for([("A", "S")])
    runner.fail_links([("A", "S")], scene_id=scene.scene_id)
    print(f"\nlink S–A fails (scene {scene.scene_id}): "
          f"holds={runner.network.all_hold(invariant.name)} "
          "(no surviving path — correctly reported as a violation)")


if __name__ == "__main__":
    main()
