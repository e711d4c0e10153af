"""Scenario runner + Tulkun-vs-baselines agreement on real datasets."""

import pytest

from repro.baselines import ALL_BASELINES
from repro.dataplane import Action, DevicePlane, Rule
from repro.datasets import build_dataset, inject_errors
from repro.sim import TulkunRunner, apply_intents, random_update_intents


@pytest.fixture(scope="module")
def inet2():
    return build_dataset("INet2", pair_limit=6, seed=11)


def fresh_rules(ds):
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in rules]
        for dev, rules in ds.rules_by_device.items()
    }


def fresh_planes(ds):
    planes = {}
    for dev, rules in fresh_rules(ds).items():
        plane = DevicePlane(dev, ds.ctx)
        plane.install_many(rules)
        planes[dev] = plane
    return planes


class TestBurst:
    def test_correct_dataset_all_hold(self, inet2):
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        result = runner.burst_update(fresh_rules(inet2))
        assert all(result.holds.values())
        assert result.verification_time > 0

    def test_injected_errors_found(self, inet2):
        """§9.3.1: "Tulkun successfully finds all the errors we injected"."""
        corrupted = fresh_rules(inet2)
        # Blackhole the first query's prefix at its ingress.
        query = inet2.queries[0]
        target = inet2.ctx.ip_prefix(query.prefix)
        for rule in corrupted[query.ingress]:
            if rule.match == target:
                corrupted[query.ingress][
                    corrupted[query.ingress].index(rule)
                ] = Rule(rule.match, Action.drop(), rule.priority)
                break
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        result = runner.burst_update(corrupted)
        bad_name = f"reach_{query.ingress}_{query.dest}"
        assert result.holds[bad_name] is False
        others = [v for name, v in result.holds.items() if name != bad_name]
        # The corruption may collaterally affect other pairs routed through
        # the same prefix, but at least the targeted invariant must fail.
        assert any(others) or len(others) == 0


class TestIncremental:
    def test_intents_apply_and_measure(self, inet2):
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        runner.burst_update(fresh_rules(inet2))
        planes = {
            d: runner.network.devices[d].plane for d in inet2.topology.devices
        }
        intents = random_update_intents(inet2.topology, planes, 5, seed=9)
        result = apply_intents(runner, intents)
        assert result.times
        assert all(t >= 0 for t in result.times)
        assert result.quantile(0.8) >= result.quantile(0.2)

    def test_handler_costs_land_in_the_fixed_memory_aggregate(self, inet2):
        """Both inlined handler loops (DVM messages, rule updates) keep
        every device's cost aggregate consistent."""
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        runner.burst_update(fresh_rules(inet2))
        planes = {
            d: runner.network.devices[d].plane for d in inet2.topology.devices
        }
        intents = random_update_intents(inet2.topology, planes, 5, seed=9)
        apply_intents(runner, intents)
        metrics = runner.network.metrics
        for device in metrics.devices.values():
            costs = device.message_costs
            assert sum(costs.buckets.values()) == costs.count
            assert costs.count <= device.events_processed
            assert costs.max <= costs.total <= device.busy_time * (1 + 1e-9)
        merged = metrics.message_costs()
        assert merged.count > 0
        assert merged.quantile(0.5) <= merged.quantile(1.0) == merged.max

    def test_restore_returns_to_green(self, inet2):
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        runner.burst_update(fresh_rules(inet2))
        planes = {
            d: runner.network.devices[d].plane for d in inet2.topology.devices
        }
        intents = random_update_intents(
            inet2.topology, planes, 4, seed=10, drop_fraction=1.0
        )
        apply_intents(runner, intents, restore=True)
        # Every drop intent was restored → all invariants hold again.
        assert all(
            runner.network.all_hold(inv.name) for inv in inet2.invariants
        )

    def test_fraction_below(self, inet2):
        from repro.sim import IncrementalResult

        result = IncrementalResult(times=[0.001, 0.002, 0.1])
        assert result.fraction_below(0.01) == pytest.approx(2 / 3)


class TestAgreementWithBaselines:
    @pytest.mark.parametrize("tool_cls", ALL_BASELINES, ids=lambda c: c.name)
    def test_same_verdict_on_corrupted_dataset(self, inet2, tool_cls):
        """Tulkun and each baseline must agree on whether the (corrupted)
        data plane satisfies the all-pair requirements."""
        corrupted = fresh_rules(inet2)
        query = inet2.queries[1]
        target = inet2.ctx.ip_prefix(query.prefix)
        dev = query.ingress
        for i, rule in enumerate(corrupted[dev]):
            if rule.match == target:
                corrupted[dev][i] = Rule(rule.match, Action.drop(), rule.priority)
                break
        # Tulkun.
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        tulkun_result = runner.burst_update(corrupted)
        tulkun_holds = all(tulkun_result.holds.values())
        # Baseline (fresh planes from the same corrupted rule set).
        planes = {}
        for d, rules in corrupted.items():
            plane = DevicePlane(d, inet2.ctx)
            plane.install_many(
                [Rule(r.match, r.action, r.priority) for r in rules]
            )
            planes[d] = plane
        tool = tool_cls(inet2.topology, inet2.ctx, inet2.queries)
        report = tool.burst_verify(planes)
        assert report.holds == tulkun_holds is False


class TestDcDataset:
    def test_ft4_shortest_path_reachability(self):
        ds = build_dataset("FT-4", pair_limit=4, seed=2)
        runner = TulkunRunner(ds.topology, ds.ctx, ds.invariants)
        result = runner.burst_update(
            {
                dev: [Rule(r.match, r.action, r.priority) for r in rules]
                for dev, rules in ds.rules_by_device.items()
            }
        )
        assert all(result.holds.values())


class TestApplyUpdates:
    def _bursts(self, inet2, runner):
        """Two bursts touching two devices: blackhole then restore on dev
        A, plus a fresh low-priority drop appearing on dev B in burst 2."""
        q0, q1 = inet2.queries[0], inet2.queries[1]
        plane_a = runner.network.devices[q0.ingress].plane
        victim = plane_a.rules[0]
        blackhole = Rule(victim.match, Action.drop(), victim.priority)
        restored = Rule(victim.match, victim.action, victim.priority)
        shadow = Rule(
            inet2.ctx.ip_prefix(q1.prefix), Action.drop(), 0
        )
        burst_1 = [(q0.ingress, blackhole, victim.rule_id)]
        burst_2 = [
            (q0.ingress, restored, blackhole.rule_id),
            (q1.ingress, shadow, None),
        ]
        return burst_1, burst_2

    def _fingerprint(self, runner):
        from tests.test_parallel_backend import (
            serial_fingerprints,
            verdict_flags,
        )

        return (
            serial_fingerprints(runner),
            verdict_flags(runner.network, runner.invariants),
        )

    def test_two_bursts_match_one_combined_batch(self, inet2):
        """apply_updates is associative at quiescence: splitting a batch
        into two sequential bursts reaches the same fixpoint."""
        split = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        split.burst_update(fresh_rules(inet2))
        burst_1, burst_2 = self._bursts(inet2, split)
        assert split.apply_updates(burst_1) >= 0
        assert split.apply_updates(burst_2) >= 0

        combined = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        combined.burst_update(fresh_rules(inet2))
        burst_1c, burst_2c = self._bursts(inet2, combined)
        combined.apply_updates(burst_1c + burst_2c)

        assert self._fingerprint(split) == self._fingerprint(combined)
        assert split.statuses() == combined.statuses()

    def test_empty_burst_is_a_noop(self, inet2):
        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        runner.burst_update(fresh_rules(inet2))
        before = self._fingerprint(runner)
        assert runner.apply_updates([]) == 0.0
        assert self._fingerprint(runner) == before


class TestDirectIncrementalApi:
    def test_incremental_updates_tuples(self, inet2):
        """The low-level (device, install, remove) update API."""
        from repro.dataplane import Action

        runner = TulkunRunner(inet2.topology, inet2.ctx, inet2.invariants)
        runner.burst_update(fresh_rules(inet2))
        dev = inet2.queries[0].ingress
        plane = runner.network.devices[dev].plane
        victim = plane.rules[0]
        changed = Rule(victim.match, Action.drop(), victim.priority)
        restored = Rule(victim.match, victim.action, victim.priority)
        result = runner.incremental_updates(
            [
                (dev, changed, victim.rule_id),
                (dev, restored, changed.rule_id),
            ]
        )
        assert len(result.times) == 2
        assert all(t >= 0 for t in result.times)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_same_action_refresh_hands_over_no_deltas(inet2, backend, monkeypatch):
    """An epoch of same-match, same-action replaces is a relabel on every
    plane: each gated verifier is handed no LEC delta (process backend: in
    the forked workers, where a delta would fail the command) and no
    status moves."""
    from repro.core.verifier import OnDeviceVerifier

    real = OnDeviceVerifier.handle_lec_deltas
    calls = []

    def no_deltas(verifier, deltas):
        assert not deltas, "a same-action refresh handed over LEC deltas"
        calls.append(verifier)
        return real(verifier, deltas)

    # Patched before the workers fork; the burst hands over no deltas.
    monkeypatch.setattr(OnDeviceVerifier, "handle_lec_deltas", no_deltas)
    with TulkunRunner(
        inet2.topology, inet2.ctx, inet2.invariants, backend=backend, workers=2
    ) as runner:
        runner.burst_update(fresh_rules(inet2))
        before = runner.statuses()
        del calls[:]
        refresh = []
        for dev in sorted(inet2.rules_by_device):
            for rule in runner.network.devices[dev].plane.rules[:3]:
                clone = Rule(rule.match, rule.action, rule.priority)
                refresh.append((dev, clone, rule.rule_id))
        runner.apply_updates(refresh)
        assert runner.statuses() == before
        if backend == "serial":
            assert calls  # the gated verifiers did run, on nothing


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_link_up_outside_a_scene_switches_no_scene(inet2, backend, monkeypatch):
    """A link failure and recovery with no fault scene active processes no
    scene event: no verifier is asked to switch scenes (process backend: in
    the forked workers, where the call would fail the command)."""
    from repro.core.verifier import OnDeviceVerifier

    def no_scene(verifier, scene_id):
        raise AssertionError("a link-up outside a fault scene switched scenes")

    monkeypatch.setattr(OnDeviceVerifier, "activate_scene", no_scene)
    with TulkunRunner(
        inet2.topology, inet2.ctx, inet2.invariants, backend=backend, workers=2
    ) as runner:
        runner.burst_update(fresh_rules(inet2))
        before = runner.statuses()
        link = next(iter(inet2.topology.links())).endpoints()
        runner.fail_links([link])
        runner.recover_links([link])
        assert runner.statuses() == before


def test_scene_exit_returns_every_verifier_to_the_base_labels(
    ctx, fig2a, monkeypatch
):
    """Recovering the links of an active fault scene still switches every
    verifier back to the base scene."""
    from repro.core.fault import compute_fault_plan
    from repro.core.invariant import FaultSpec
    from repro.core.library import reachability
    from repro.core.planner import Planner
    from repro.core.verifier import OnDeviceVerifier
    from tests.conftest import build_fig2_planes

    inv = reachability(
        ctx.ip_prefix("10.0.0.0/23"), "S", "D",
        fault_spec=FaultSpec.up_to(1), max_extra_hops=1,
    )
    plan = compute_fault_plan(Planner(fig2a, ctx), inv)
    runner = TulkunRunner(fig2a, ctx, [inv], prebuilt_nets={inv.name: plan.net})
    runner.burst_update(
        {dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
         for dev, plane in build_fig2_planes(ctx).items()}
    )
    switched = []
    real = OnDeviceVerifier.activate_scene

    def spy(verifier, scene_id):
        switched.append(scene_id)
        return real(verifier, scene_id)

    monkeypatch.setattr(OnDeviceVerifier, "activate_scene", spy)
    scene = plan.scene_for([("W", "D")])
    runner.fail_links([("W", "D")], scene_id=scene.scene_id)
    verifiers = len(switched)
    assert verifiers and set(switched) == {scene.scene_id}
    runner.recover_links([("W", "D")])
    assert switched[verifiers:] == [None] * verifiers


class TestAddInvariants:
    def _tenant_runner(self):
        from benchmarks.e2e.workloads import tenant_invariants

        ds = build_dataset("NTT", pair_limit=2, seed=5)
        invariants, _pairs, _spaces = tenant_invariants(ds, 128)
        runner = TulkunRunner(ds.topology, ds.ctx, invariants[1:2], slices="auto")
        runner.burst_update(fresh_rules(ds))
        return runner, invariants

    def test_same_shape_pair_builds_one_dpvnet(self, monkeypatch):
        from repro.core import planner as planner_module

        runner, invariants = self._tenant_runner()
        pair = [invariants[0], invariants[47]]
        assert pair[0].packet_space != pair[1].packet_space
        builds = []
        original = planner_module.build_enumeration_dpvnet

        def counting(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(planner_module, "build_enumeration_dpvnet", counting)
        with runner:
            runner.add_invariants(pair)
            together = runner.statuses()
        assert len(builds) == 1

        apart, invariants = self._tenant_runner()
        builds.clear()
        with apart:
            apart.add_invariants([invariants[0]])
            apart.add_invariants([invariants[47]])
            assert apart.statuses() == together
        assert len(builds) == 2
