"""Property-based exploration: random families, certified outcomes.

Seeded-random scenario families over random (possibly buggy) fig2a data
planes, two properties per family:

* every counterexample the explorer emits re-validates under replay —
  the traced re-execution is byte-identical to the recording (the
  in-process path here; the CLI/CI path replays the self-contained file);
* every *safe* scenario re-runs clean under both predicate-index modes,
  with byte-identical verdict outcomes ("safe" is not an artifact of the
  region algebra).

Plain ``random.Random`` seeds stand in for hypothesis (not a baked-in
dependency): each seed names one exact family and one exact data plane.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import PacketSpaceContext
from repro.core.library import reachability, waypoint_reachability
from repro.dataplane import Rule
from repro.explore import (
    FaultElement,
    ScenarioFamily,
    explore_family,
    outcome_key,
)
from repro.sim import ReliableChannel, TulkunRunner, run_script
from repro.topology import fig2a_example
from tests.conftest import build_linear_fig2_planes, random_dataplane

pytestmark = pytest.mark.scenario

SEEDS = (11, 23, 47)
# Seeds whose random plane + family yield safe scenarios next to failing
# ones (most random planes are buggy, so most families have no safe
# scenario at all): 14 of 16, 4 of 10 and 10 of 14 scenarios are safe.
SAFE_SEEDS = (5, 8, 47)


def linear_harness(predicate_index="atoms"):
    """Fresh deployment of the *correct* linear fig2a plane (all HOLDS)."""

    def harness(tracer=None, channel=None):
        ctx = PacketSpaceContext()
        topology = fig2a_example()
        p1 = ctx.ip_prefix("10.0.0.0/23")
        invariants = [
            reachability(p1, "S", "D"),
            waypoint_reachability(p1, "S", "W", "D"),
        ]
        if channel is None:
            channel = ReliableChannel()
        runner = TulkunRunner(
            topology,
            ctx,
            invariants,
            cpu_scale=0.0,
            predicate_index=predicate_index,
            tracer=tracer,
            channel=channel,
        )
        planes = build_linear_fig2_planes(ctx)
        rules = {
            dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
            for dev, plane in planes.items()
        }
        return runner, rules

    return harness


def random_harness(seed, predicate_index="atoms"):
    """Fresh deployment of the seed's random fig2a data plane."""

    def harness(tracer=None, channel=None):
        ctx = PacketSpaceContext()
        topology = fig2a_example()
        p1 = ctx.ip_prefix("10.0.0.0/23")
        invariants = [
            reachability(p1, "S", "D"),
            waypoint_reachability(p1, "S", "W", "D"),
        ]
        planes = random_dataplane(
            topology, ctx, ["10.0.0.0/23"], seed, deliver_at={"10.0.0.0/23": "D"}
        )
        if channel is None:
            channel = ReliableChannel()
        runner = TulkunRunner(
            topology,
            ctx,
            invariants,
            cpu_scale=0.0,
            predicate_index=predicate_index,
            tracer=tracer,
            channel=channel,
        )
        rules = {
            dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
            for dev, plane in planes.items()
        }
        return runner, rules

    return harness


def random_family(seed) -> ScenarioFamily:
    """A seeded-random family: 2-3 elements of mixed kinds."""
    rng = random.Random(seed * 7919)
    topology = fig2a_example()
    links = sorted((link.a, link.b) for link in topology.links())
    devices = sorted(topology.devices)
    elements = []
    for _ in range(rng.randint(2, 3)):
        kind = rng.choice(("link", "link", "device", "drain"))
        while True:
            if kind == "link":
                element = FaultElement(
                    "link", rng.choice(links), recover=rng.random() < 0.7
                )
            else:
                element = FaultElement(
                    kind, (rng.choice(devices),), recover=rng.random() < 0.7
                )
            if element not in elements:
                break
        elements.append(element)
    return ScenarioFamily(elements=tuple(elements), max_faults=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_counterexamples_revalidate_under_replay(seed):
    family = random_family(seed)
    harness = random_harness(seed)
    report = explore_family(family, harness, max_counterexamples=8)
    # Coverage bookkeeping is exact: nothing silently dropped.
    assert report.explored + report.pruned + report.skipped == (
        report.exhaustive_scenarios
    )
    for cex in report.counterexamples:
        assert cex.replay_ok, (
            f"seed {seed}: counterexample "
            f"{[s.describe() for s in cex.steps]} diverged under replay"
        )
        # The trace carries the script, so a fresh replay is self-driving.
        assert cex.trace.scenario == "script"
        assert len(cex.trace.script) == len(cex.steps)


@pytest.mark.parametrize("seed", SAFE_SEEDS)
def test_safe_scenarios_are_safe_in_both_index_modes(seed):
    family = random_family(seed)
    report = explore_family(
        family, random_harness(seed), minimize=False, max_counterexamples=0
    )
    safe = [r for r in report.results if not r.failing]
    assert safe, (
        f"seed {seed}: family has no safe scenario, so this test checks "
        "nothing — pick a seed that has one"
    )
    for result in safe[:6]:  # bound the re-run cost per seed
        outcomes = {}
        for mode in ("atoms", "bdd"):
            runner, rules = random_harness(seed, predicate_index=mode)()
            trajectory = run_script(runner, rules, result.steps)
            final = trajectory[-1]
            assert final.converged
            assert all(s == "HOLDS" for s in final.statuses.values())
            outcomes[mode] = outcome_key(runner)
            runner.close()
        assert outcomes["atoms"] == outcomes["bdd"]


def test_recovered_faults_on_correct_plane_end_safe_in_both_modes():
    # Off-path fault with recovery on the healthy plane: every scenario
    # must end converged and HOLDS, byte-identically across index modes.
    family = ScenarioFamily(
        elements=(
            FaultElement("link", ("S", "A")),
            FaultElement("drain", ("B",)),
        ),
        max_faults=2,
    )
    report = explore_family(
        family, linear_harness(), minimize=False, max_counterexamples=0
    )
    assert report.violated == 0
    for result in report.results:
        outcomes = {}
        for mode in ("atoms", "bdd"):
            runner, rules = linear_harness(predicate_index=mode)()
            final = run_script(runner, rules, result.steps)[-1]
            assert final.converged
            assert all(s == "HOLDS" for s in final.statuses.values())
            outcomes[mode] = outcome_key(runner)
            runner.close()
        assert outcomes["atoms"] == outcomes["bdd"]
