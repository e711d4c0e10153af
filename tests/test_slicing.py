"""Tenant slicing: registry routing, widening, footprint groups, runner wiring.

The slicing subsystem treats each tenant intent (a named group of
invariants) as a first-class slice with a packet-space + device footprint,
and routes every event only to the slices whose footprint it intersects.
These tests pin the routing rules on topologies where the footprints are
known exactly (two disjoint chains), the conservative widening escape hatch
(transform rules disable packet gating, stickily), and the runner-level
bookkeeping: touched-tenant tracking, the status cache recomputing only
dirty invariants, and slice-aligned device groups for the process backend.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import PacketSpaceContext
from repro.core.library import reachability, waypoint_reachability
from repro.dataplane import Action, DevicePlane, Rule
from repro.dataplane.action import Transform
from repro.errors import DataPlaneError, SimulationError
from repro.serve import StreamSession
from repro.sim import TulkunRunner
from repro.slicing import SliceRegistry, tenant_of_invariant
from repro.topology import Topology, fig2a_example
from tests.conftest import build_fig2_planes

pytestmark = pytest.mark.slicing


def named(inv, name):
    return dataclasses.replace(inv, name=name)


# ----------------------------------------------------------------------
# Fixtures: two disjoint chains (exact footprints) and fig2a (realistic)
# ----------------------------------------------------------------------
def chains_topology():
    """X1-X2-X3 and Y1-Y2-Y3: two connected components, so the tenant
    footprints are exactly the chain device sets."""
    topo = Topology("chains")
    for a, b in [("X1", "X2"), ("X2", "X3"), ("Y1", "Y2"), ("Y2", "Y3")]:
        topo.add_link(a, b)
    return topo


def chains_runner(slices="auto", **kwargs):
    ctx = PacketSpaceContext()
    topo = chains_topology()
    space = ctx.ip_prefix("10.0.0.0/24")
    invariants = [
        named(reachability(space, "X1", "X3"), "tx/x-reach"),
        named(reachability(space, "Y1", "Y3"), "ty/y-reach"),
    ]
    return ctx, topo, TulkunRunner(
        topo, ctx, invariants, slices=slices, **kwargs
    )


def chains_rules(ctx):
    space = ctx.ip_prefix("10.0.0.0/24")
    return {
        "X1": [Rule(space, Action.forward_all(["X2"]), 10)],
        "X2": [Rule(space, Action.forward_all(["X3"]), 10)],
        "X3": [Rule(space, Action.deliver(), 10)],
        "Y1": [Rule(space, Action.forward_all(["Y2"]), 10)],
        "Y2": [Rule(space, Action.forward_all(["Y3"]), 10)],
        "Y3": [Rule(space, Action.deliver(), 10)],
    }


def fig2a_runner(slices="auto"):
    ctx = PacketSpaceContext()
    topo = fig2a_example()
    space = ctx.ip_prefix("10.0.0.0/23")
    invariants = [
        named(reachability(space, "S", "D"), "alice/s-to-d"),
        named(waypoint_reachability(space, "S", "W", "D"), "alice/via-w"),
        named(reachability(space, "A", "D"), "bob/a-to-d"),
    ]
    return ctx, topo, TulkunRunner(topo, ctx, invariants, slices=slices)


# ----------------------------------------------------------------------
# Tenant naming + membership
# ----------------------------------------------------------------------
class TestMembership:
    def test_tenant_prefix_convention(self):
        assert tenant_of_invariant("alice/s-to-d") == "alice"
        assert tenant_of_invariant("alice/a/b") == "alice"
        # Unprefixed invariants are their own single-intent slice.
        assert tenant_of_invariant("reach_S_D") == "reach_S_D"

    def test_auto_mode_groups_by_prefix(self):
        _ctx, _topo, runner = fig2a_runner()
        registry = runner.slice_registry
        assert registry.tenants() == ["alice", "bob"]
        assert registry.slices["alice"].invariants == {
            "alice/s-to-d", "alice/via-w",
        }
        assert registry.tenant_of("bob/a-to-d") == "bob"

    def test_mapping_mode_with_prefix_fallback(self):
        ctx = PacketSpaceContext()
        topo = fig2a_example()
        space = ctx.ip_prefix("10.0.0.0/23")
        invariants = [
            named(reachability(space, "S", "D"), "alice/s-to-d"),
            named(reachability(space, "A", "D"), "bob/a-to-d"),
        ]
        runner = TulkunRunner(
            topo, ctx, invariants, slices={"team": ["alice/s-to-d"]}
        )
        registry = runner.slice_registry
        assert registry.tenant_of("alice/s-to-d") == "team"
        # Unlisted invariants fall back to the prefix convention.
        assert registry.tenant_of("bob/a-to-d") == "bob"

    def test_duplicate_add_rejected(self):
        _ctx, _topo, runner = fig2a_runner()
        registry = runner.slice_registry
        inv = runner.invariants[0]
        with pytest.raises(SimulationError):
            registry.add_invariant(inv, runner.task_sets[0])

    def test_remove_dissolves_empty_slice(self):
        _ctx, _topo, runner = fig2a_runner()
        registry = runner.slice_registry
        assert registry.remove_invariant("bob/a-to-d") == "bob"
        assert "bob" not in registry.slices
        assert registry.touched_by_rewrite("A") <= {"alice"}
        # Removing one of two alice invariants keeps the slice alive.
        assert registry.remove_invariant("alice/via-w") == "alice"
        assert "alice" in registry.slices
        assert registry.remove_invariant("nope") is None

    def test_tenants_off_by_default(self):
        """Routing is always on; without ``slices=`` no tenants are
        declared: one slice per invariant, no tenant fields on the wire, no
        tenant admission, and no slice groups for the process pool."""
        ctx = PacketSpaceContext()
        topo = fig2a_example()
        space = ctx.ip_prefix("10.0.0.0/23")
        invariants = [
            named(reachability(space, "S", "D"), "alice/s-to-d"),
            named(waypoint_reachability(space, "S", "W", "D"), "alice/via-w"),
        ]
        runner = TulkunRunner(topo, ctx, invariants)
        registry = runner.slice_registry
        assert not registry.tenants_declared
        assert registry.tenants() == ["alice/s-to-d", "alice/via-w"]
        assert registry.tenant_of("alice/s-to-d") is None
        rules = {
            dev: list(plane.rules)
            for dev, plane in build_fig2_planes(ctx).items()
        }
        session = StreamSession(runner, rules)
        try:
            session.start()
            session.handle_line('{"op":"update","device":"A","remove":"A:0"}')
            (delta,) = session.run_epoch("flush")
            assert delta["frame"] == "delta" and "touched" not in delta
            assert session.tenant_of("alice/via-w") == "alice"
            with pytest.raises(ValueError):
                StreamSession(runner, rules, max_pending_per_tenant=1)
        finally:
            session.close()
        with TulkunRunner(
            topo, ctx, invariants, backend="process", workers=2
        ) as pooled:
            pooled.burst_update(rules)
            assert pooled._pool.profile["slice_groups"] is None

    def test_unknown_slices_mode_rejected(self):
        ctx = PacketSpaceContext()
        topo = fig2a_example()
        space = ctx.ip_prefix("10.0.0.0/23")
        with pytest.raises(ValueError):
            TulkunRunner(
                topo, ctx, [reachability(space, "S", "D")], slices="magic"
            )


# ----------------------------------------------------------------------
# Event routing (exact on the disjoint chains)
# ----------------------------------------------------------------------
class TestRouting:
    def test_update_routes_by_device(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        match = ctx.ip_prefix("10.0.0.0/24")
        assert registry.touched_by_update("X2", match) == {"tx"}
        assert registry.touched_by_update("Y2", match) == {"ty"}

    def test_update_packet_gating(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        disjoint = ctx.ip_prefix("192.168.0.0/16")
        assert registry.touched_by_update("X2", disjoint) == set()
        overlapping = ctx.ip_prefix("10.0.0.128/25")
        assert registry.touched_by_update("X2", overlapping) == {"tx"}

    def test_link_routes_to_either_endpoint(self):
        _ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        assert registry.touched_by_link("X1", "X2") == {"tx"}
        assert registry.touched_by_link("Y2", "Y3") == {"ty"}

    def test_lifecycle_includes_neighbors(self):
        _ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        assert registry.touched_by_lifecycle("X2") == {"tx"}
        assert registry.touched_by_lifecycle("Y3") == {"ty"}

    def test_rewrite_skips_packet_gating(self):
        _ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        assert registry.touched_by_rewrite("X1") == {"tx"}
        assert registry.touched_by_rewrite("Y1") == {"ty"}

    @pytest.mark.parametrize("predicate_index", ["atoms", "bdd"])
    @given(queries=st.lists(
        st.tuples(
            st.sampled_from(["X1", "X2", "X3", "Y1", "Y2", "Y3"]),
            st.sampled_from(["10.0.0.0", "10.0.1.0", "10.0.1.128",
                             "10.0.0.128", "10.0.0.192", "10.0.3.64",
                             "192.168.0.0"]),
            st.integers(min_value=8, max_value=30),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ))
    @settings(max_examples=40, deadline=None)
    def test_routing_equals_member_overlap(self, predicate_index, queries):
        """Word routing answers what a BDD overlap test against each
        member's packet space answers, while matches straddling atom
        boundaries refine the index between queries and lazily built
        slice handles, sweeps and compactions move the slots under them."""
        ctx = PacketSpaceContext()
        spaces = {
            "tx/a": ("10.0.0.0/23", "X1", "X3"),
            "tx/b": ("10.0.1.0/25", "X1", "X3"),
            "tu/c": ("10.0.0.128/26", "X2", "X3"),
            "ty/d": ("10.0.0.0/22", "Y1", "Y3"),
        }
        invariants = [
            named(reachability(ctx.ip_prefix(cidr), src, dst), name)
            for name, (cidr, src, dst) in spaces.items()
        ]
        runner = TulkunRunner(
            chains_topology(), ctx, invariants, slices="auto",
            predicate_index=predicate_index,
        )
        registry = runner.slice_registry
        for dev, base, length, sweep in queries:
            match = ctx.prefix("dst_ip", base, length)
            expected = {
                name
                for name in registry.touched_by_rewrite(dev)
                if any(
                    registry.footprint_of(inv).packet_space.overlaps(match)
                    for inv in registry.slices[name].invariants
                )
            }
            assert registry.touched_by_update(dev, match) == expected
            if sweep:
                del match
                ctx.mgr.collect()
                ctx.atom_index().compact()


# ----------------------------------------------------------------------
# Conservative widening
# ----------------------------------------------------------------------
class TestWidening:
    def test_transform_rule_widens(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        rewrite = Transform.set_fields(dst_port=80)
        registry.note_rules(
            [Rule(ctx.ip_prefix("10.0.0.0/24"),
                  Action.forward_all(["X2"], transform=rewrite), 10)]
        )
        assert registry.widened

    def test_widened_disables_packet_gating_but_not_device_gating(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        registry.widen()
        disjoint = ctx.ip_prefix("192.168.0.0/16")
        # Packet gating off: the disjoint match now touches the slice...
        assert registry.touched_by_update("X2", disjoint) == {"tx"}
        # ...but device gating still confines it to slices on the device.
        assert registry.touched_by_update("Y2", disjoint) == {"ty"}

    def test_widen_is_sticky(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        registry.widen()
        registry.note_rules(
            [Rule(ctx.ip_prefix("10.0.0.0/24"), Action.deliver(), 10)]
        )
        assert registry.widened

    def test_plain_rules_do_not_widen(self):
        ctx, _topo, runner = chains_runner()
        registry = runner.slice_registry
        registry.note_rules(chains_rules(ctx)["X1"])
        assert not registry.widened


# ----------------------------------------------------------------------
# Device groups (process-backend scheduling unit)
# ----------------------------------------------------------------------
class TestDeviceGroups:
    def test_disjoint_footprints_make_separate_groups(self):
        _ctx, _topo, runner = chains_runner()
        groups = runner.slice_registry.device_groups()
        assert groups == [["X1", "X2", "X3"], ["Y1", "Y2", "Y3"]]

    def test_overlapping_footprints_merge(self):
        _ctx, _topo, runner = fig2a_runner()
        groups = runner.slice_registry.device_groups()
        # alice and bob share A/B/W/D, so everything is one group.
        assert len(groups) == 1
        assert set(groups[0]) >= {"A", "B", "D", "W"}

    def test_process_backend_keeps_each_group_on_one_worker(self):
        """The slice-aligned partition: each footprint component stays
        whole on one worker, so no DVM message crosses workers, and the
        statuses equal the serial backend's after a burst and a batch.

        The chains get rungs X_i-Y_i, so locality clusters (grown from X1
        over its neighbours) would split both footprints."""

        def drive(backend):
            ctx = PacketSpaceContext()
            topo = chains_topology()
            for i in (1, 2, 3):
                topo.add_link(f"X{i}", f"Y{i}")
            space = ctx.ip_prefix("10.0.0.0/24")
            invariants = [
                named(reachability(space, "X1", "X3", max_extra_hops=0),
                      "tx/x-reach"),
                named(reachability(space, "Y1", "Y3", max_extra_hops=0),
                      "ty/y-reach"),
            ]
            runner = TulkunRunner(
                topo, ctx, invariants, slices="auto", backend=backend,
                workers=2,
            )
            with runner:
                runner.burst_update(chains_rules(ctx))
                after_burst = runner.statuses()
                half = ctx.ip_prefix("10.0.0.0/25")
                runner.apply_updates(
                    [
                        ("X2", Rule(half, Action.drop(), 99), None),
                        ("Y2", Rule(half, Action.forward_all(["Y3"]), 99),
                         None),
                    ]
                )
                statuses = (after_burst, runner.statuses())
                if backend == "serial":
                    return statuses
                groups = runner.slice_registry.device_groups()
                assignment = runner.network.assignment
                assert groups == [["X1", "X2", "X3"], ["Y1", "Y2", "Y3"]]
                for group in groups:
                    assert len({assignment[dev] for dev in group}) == 1, group
                assert assignment["X1"] != assignment["Y1"]
                assert runner.network.metrics.routed_messages == 0
                return statuses

        expected = drive("serial")
        assert expected[1] == {"tx/x-reach": "VIOLATED", "ty/y-reach": "HOLDS"}
        assert drive("process") == expected

    def test_runner_exposes_groups_only_when_sliced(self):
        _ctx, _topo, runner = chains_runner()
        assert runner._slice_groups() == [
            ["X1", "X2", "X3"], ["Y1", "Y2", "Y3"],
        ]
        ctx = PacketSpaceContext()
        topo = chains_topology()
        space = ctx.ip_prefix("10.0.0.0/24")
        undeclared = TulkunRunner(
            topo, ctx, [named(reachability(space, "X1", "X3"), "tx/x")]
        )
        assert undeclared._slice_groups() is None


# ----------------------------------------------------------------------
# Runner wiring: touched tenants, status cache, verdict parity
# ----------------------------------------------------------------------
class TestRunnerWiring:
    def test_update_touches_only_intersecting_slice(self):
        ctx, _topo, runner = chains_runner()
        with runner:
            runner.burst_update(chains_rules(ctx))
            assert runner.consume_touched() == {"tx", "ty"}  # deploy
            space = ctx.ip_prefix("10.0.0.0/25")
            runner.apply_updates(
                [("X2", Rule(space, Action.forward_all(["X3"]), 99), None)]
            )
            assert runner.touched_tenants == {"tx"}
            # Only the touched slice's invariants are dirty in the cache.
            assert runner._status_dirty == {"tx/x-reach"}
            statuses = runner.statuses()
            assert statuses == {"tx/x-reach": "HOLDS", "ty/y-reach": "HOLDS"}
            assert runner._status_dirty == set()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_install_then_remove_in_one_burst_routes_by_its_match(
        self, backend
    ):
        ctx, _topo, runner = chains_runner(backend=backend, workers=2)
        with runner:
            runner.burst_update(chains_rules(ctx))
            runner.consume_touched()
            rule = Rule(
                ctx.ip_prefix("192.168.0.0/16"), Action.forward_all(["X3"]), 99
            )
            runner.apply_updates(
                [("X2", rule, None), ("X2", None, rule.rule_id)]
            )
            # Routed by the rule's (disjoint) match, not by device: no slice.
            assert runner.consume_touched() == set()
            assert runner.network.devices["X2"].plane.get_rule(
                rule.rule_id
            ) is None
            assert set(runner.statuses().values()) == {"HOLDS"}

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_unknown_removal_raises_before_any_plane_changes(self, backend):
        ctx, topo, runner = chains_runner(backend=backend, workers=2)
        with runner:
            runner.burst_update(chains_rules(ctx))
            runner.consume_touched()
            devices = runner.network.devices

            def rule_ids():
                return {
                    dev: sorted(r.rule_id for r in devices[dev].plane.rules)
                    for dev in topo.devices
                }

            before = rule_ids()
            rule = Rule(
                ctx.ip_prefix("10.0.0.0/25"), Action.forward_all(["X3"]), 99
            )
            with pytest.raises(DataPlaneError, match="987654"):
                runner.apply_updates(
                    [("X2", rule, None), ("Y2", None, 987654)]
                )
            assert rule_ids() == before
            assert runner.consume_touched() == set()
            # Nothing was half-applied: the same install now goes through.
            runner.apply_updates([("X2", rule, None)])
            assert runner.consume_touched() == {"tx"}
            assert set(runner.statuses().values()) == {"HOLDS"}

    def test_consume_touched_drains(self):
        ctx, _topo, runner = chains_runner()
        with runner:
            runner.burst_update(chains_rules(ctx))
            assert runner.consume_touched() >= {"tx", "ty"}
            assert runner.consume_touched() == set()

    def test_link_and_lifecycle_touch_their_chain(self):
        ctx, _topo, runner = chains_runner()
        with runner:
            runner.burst_update(chains_rules(ctx))
            runner.consume_touched()
            runner.fail_links([("Y2", "Y3")])
            assert runner.consume_touched() == {"ty"}
            runner.recover_links([("Y2", "Y3")])
            assert runner.consume_touched() == {"ty"}
            runner.crash_device("X3")
            assert runner.consume_touched() == {"tx"}
            runner.restart_device("X3")
            assert runner.consume_touched() == {"tx"}

    def test_sliced_statuses_match_unsliced(self):
        ctx, _topo, runner = chains_runner()
        ctx2 = PacketSpaceContext()
        topo2 = chains_topology()
        space2 = ctx2.ip_prefix("10.0.0.0/24")
        plain = TulkunRunner(
            topo2,
            ctx2,
            [
                named(reachability(space2, "X1", "X3"), "tx/x-reach"),
                named(reachability(space2, "Y1", "Y3"), "ty/y-reach"),
            ],
        )
        with runner, plain:
            runner.burst_update(chains_rules(ctx))
            plain.burst_update(chains_rules(ctx2))
            # Break the Y chain on the declared-tenant and default legs alike.
            for target in (runner, plain):
                c = target.ctx
                target.apply_updates(
                    [("Y2", Rule(c.ip_prefix("10.0.0.0/24"),
                                 Action.drop(), 99), None)]
                )
            assert runner.statuses() == plain.statuses()
            assert runner.statuses()["ty/y-reach"] == "VIOLATED"

    def test_invariant_add_remove_updates_registry(self):
        ctx, _topo, runner = chains_runner()
        with runner:
            runner.burst_update(chains_rules(ctx))
            runner.consume_touched()
            space = ctx.ip_prefix("10.0.0.0/24")
            extra = named(reachability(space, "X2", "X3"), "tx/x-tail")
            runner.add_invariants([extra])
            registry = runner.slice_registry
            assert registry.tenant_of("tx/x-tail") == "tx"
            assert runner.consume_touched() == {"tx"}
            assert runner.statuses()["tx/x-tail"] == "HOLDS"
            runner.remove_invariants(["tx/x-tail"])
            assert registry.tenant_of("tx/x-tail") is None
            assert "tx/x-tail" not in runner.statuses()
            assert runner.consume_touched() == {"tx"}

    def test_explicit_tenant_mapping_on_add(self):
        ctx, _topo, runner = chains_runner()
        with runner:
            runner.burst_update(chains_rules(ctx))
            runner.consume_touched()
            space = ctx.ip_prefix("10.0.0.0/24")
            extra = named(reachability(space, "X3", "X1"), "back")
            runner.add_invariants([extra], tenants={"back": "tx"})
            assert runner.slice_registry.tenant_of("back") == "tx"
