"""One rule-update path, pinned on both backends.

Below the runner a rule update is one ``(install, remove_id)`` pair, down
to :meth:`DevicePlane.apply_update`.  These tests pin what that path
keeps: a bad burst is refused before any plane (or the process backend's
mirror, or the event queue) changes; a remove-only update directly
followed by an install-only one is the same single relabel as the full
triple; and drain / restore, now plain batches of pairs, reach the same
fixpoint on the process backend as on the serial one.
"""

import pytest

from repro.core.library import reachability, waypoint_reachability
from repro.dataplane import Action, Rule
from repro.errors import DataPlaneError
from repro.sim import TulkunRunner
from repro.topology import fig2a_example
from tests.conftest import build_fig2_planes
from tests.test_parallel_backend import (
    serial_fingerprints,
    violation_fingerprints,
)

BACKENDS = ["serial", "process"]


def fig2a_invariants(ctx):
    p1 = ctx.ip_prefix("10.0.0.0/23")
    return [
        reachability(p1, "S", "D"),
        waypoint_reachability(p1, "S", "W", "D"),
    ]


def fig2a_runner(ctx, backend):
    """The paper's Fig. 2a network (waypoint VIOLATED), burst-deployed."""
    runner = TulkunRunner(
        fig2a_example(), ctx, fig2a_invariants(ctx),
        backend=backend, workers=2,
    )
    runner.burst_update(
        {
            dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
            for dev, plane in build_fig2_planes(ctx).items()
        }
    )
    return runner


@pytest.fixture(params=BACKENDS)
def runner(request, ctx):
    runner = fig2a_runner(ctx, request.param)
    yield runner
    runner.close()


def rule_tables(network):
    """Every device's (rule id, action) table: the real planes on the
    serial backend, the coordinator's mirror on the process backend."""
    return {
        dev: [(rule.rule_id, rule.action) for rule in device.plane.rules]
        for dev, device in network.devices.items()
    }


def messages_sent(network):
    network.kernel.events_processed  # the process backend pulls counters on read
    return network.metrics.total_messages()


class TestBurstValidation:
    """A refused burst leaves every plane, the mirror and the queue as they
    were, on both backends — the check runs before anything mutates."""

    def test_live_install_refused_before_any_plane_changes(self, runner):
        network = runner.network
        s_rule = network.devices["S"].plane.rules[0]
        w_rule = network.devices["W"].plane.rules[0]
        valid_replace = (
            "S", Rule(s_rule.match, Action.drop(), s_rule.priority),
            s_rule.rule_id,
        )
        before = rule_tables(network)
        with pytest.raises(DataPlaneError, match="already installed on W"):
            runner.apply_updates([valid_replace, ("W", w_rule, None)])
        assert rule_tables(network) == before
        assert network.converged  # nothing was scheduled or buffered
        # The network is still live: the valid half alone goes through.
        runner.apply_updates([valid_replace])
        assert network.devices["S"].plane.rules[0].action == Action.drop()

    def test_install_of_an_id_removed_earlier_in_the_burst_passes(self, runner):
        network = runner.network
        w_rule = network.devices["W"].plane.rules[0]
        runner.apply_updates([("W", None, w_rule.rule_id), ("W", w_rule, None)])
        assert rule_tables(network)["W"] == [(w_rule.rule_id, w_rule.action)]

    @pytest.mark.parametrize("second_device", ["A", "B"])
    def test_id_given_twice_refused(self, runner, ctx, second_device):
        network = runner.network
        fresh = Rule(ctx.ip_prefix("10.0.0.0/25"), Action.forward_all(["W"]), 99)
        before = rule_tables(network)
        with pytest.raises(DataPlaneError, match="twice in one burst"):
            runner.apply_updates(
                [
                    ("A", fresh, None),
                    ("A", None, fresh.rule_id),
                    (second_device, fresh, None),
                ]
            )
        assert rule_tables(network) == before
        assert network.converged


class TestOnePairing:
    """The runner's grouping is the one place that pairs updates up."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("change", ["same_action", "drop"])
    def test_split_replace_is_the_full_triple(self, ctx, backend, change):
        sent = {}
        for form in ("full", "split"):
            runner = fig2a_runner(ctx, backend)
            try:
                network = runner.network
                handed = []
                original = network.apply_rule_updates

                def spy(dev, at, pairs, only=None):
                    handed.append((dev, list(pairs)))
                    original(dev, at, pairs, only=only)

                network.apply_rule_updates = spy
                old = network.devices["W"].plane.rules[0]
                action = old.action if change == "same_action" else Action.drop()
                new = Rule(old.match, action, old.priority)
                if form == "full":
                    updates = [("W", new, old.rule_id)]
                else:
                    updates = [("W", None, old.rule_id), ("W", new, None)]
                before = messages_sent(network)
                epoch = network.devices["W"].plane.epoch
                runner.apply_updates(updates)
                assert handed == [("W", [(new, old.rule_id)])]
                assert rule_tables(network)["W"] == [(new.rule_id, action)]
                sent[form] = messages_sent(network) - before
                if backend == "serial" and change == "same_action":
                    # A relabel with an equal action leaves the LEC table,
                    # and so the plane's epoch, untouched: no delta at all.
                    assert network.devices["W"].plane.epoch == epoch
            finally:
                runner.close()
        assert sent["split"] == sent["full"]
        if change == "same_action":
            assert sent["full"] == 0
        else:
            assert sent["full"] > 0


class TestDrainRestoreOnBothBackends:
    def outcome(self, runner, invariants):
        network = runner.network
        if runner.backend == "process":
            sources = network.source_fingerprints()
        else:
            sources = serial_fingerprints(runner)
        return (
            runner.statuses(),
            violation_fingerprints(network, invariants),
            sources,
        )

    def test_process_drain_restore_equals_serial(self, ctx):
        invariants = fig2a_invariants(ctx)
        serial = fig2a_runner(ctx, "serial")
        parallel = fig2a_runner(ctx, "process")
        try:
            healthy = self.outcome(serial, invariants)
            w_table = rule_tables(parallel.network)["W"]
            for step in (
                lambda r: r.drain_device("A"),
                lambda r: r.drain_device("W"),
                lambda r: r.restore_drained("A"),
                lambda r: r.restore_drained("W"),
            ):
                step(serial)
                step(parallel)
                assert self.outcome(parallel, invariants) == (
                    self.outcome(serial, invariants)
                )
            assert self.outcome(serial, invariants) == healthy
            # The same rules, ids and all, come back on restore.
            assert rule_tables(parallel.network)["W"] == w_table
        finally:
            parallel.close()

    def test_process_redeploy_inside_a_drain_window(self, ctx):
        """An invariant change redeploys the process backend; a drained
        device stays drained through it and restores afterwards."""
        p1 = ctx.ip_prefix("10.0.0.0/23")
        extra = reachability(p1, "A", "D")
        serial = fig2a_runner(ctx, "serial")
        parallel = fig2a_runner(ctx, "process")
        try:
            for runner in (serial, parallel):
                runner.drain_device("W")
                runner.add_invariants([extra])
            assert parallel.statuses() == serial.statuses()
            for runner in (serial, parallel):
                runner.restore_drained("W")
            assert parallel.statuses() == serial.statuses()
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
        finally:
            parallel.close()
