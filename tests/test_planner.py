"""Planner: verification verdicts, equal local checks, task decomposition,
batch planning, §3 consistency validation."""

import dataclasses
import weakref

import pytest

from repro.core.counting import CountExp
from repro.core.invariant import (
    Atom,
    FaultSpec,
    Invariant,
    LengthFilter,
    MatchKind,
    PathExpr,
)
from repro.core.library import (
    all_shortest_path_availability,
    multicast,
    reachability,
    waypoint_reachability,
)
from repro.core import planner as planner_module
from repro.core.planner import Planner
from repro.dataplane import Action, DevicePlane, Rule
from repro.datasets import build_dataset
from repro.errors import SpecificationError
from repro.topology import fattree, fig2a_example


class TestVerify:
    def test_waypoint_violation_found(self, ctx, fig2a, fig2_planes, fig2_spaces):
        p1 = fig2_spaces[0]
        inv = waypoint_reachability(p1, "S", "W", "D")
        result = Planner(fig2a, ctx).verify(inv, fig2_planes)
        assert not result.holds
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.ingress == "S"
        assert (0,) in violation.counts
        pkt = violation.example_packet()
        assert pkt["dst_port"] == 80  # the P3 sub-space

    def test_reachability_holds(self, ctx, fig2a, fig2_planes, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        result = Planner(fig2a, ctx).verify(inv, fig2_planes)
        assert result.holds
        assert result.violations == []

    def test_result_summary_strings(self, ctx, fig2a, fig2_planes, fig2_spaces):
        inv = reachability(fig2_spaces[0], "S", "D")
        result = Planner(fig2a, ctx).verify(inv, fig2_planes)
        assert "HOLDS" in result.summary()
        assert bool(result)

    def test_disconnected_ingress_counts_zero(self, ctx, fig2a, fig2_planes):
        """An invariant whose regex admits no topological path yields an
        all-zero count and a violation for exist >= 1."""
        space = ctx.ip_prefix("10.0.0.0/23")
        inv = Invariant(
            space,
            ("S",),
            Atom(PathExpr.parse("S D", simple_only=True), MatchKind.EXIST,
                 CountExp(">=", 1)),
            name="impossible",
        )
        result = Planner(fig2a, ctx).verify(inv, fig2_planes)
        assert not result.holds

    def test_empty_packet_space_rejected(self, ctx):
        with pytest.raises(SpecificationError):
            Invariant(
                ctx.empty, ("S",),
                Atom(PathExpr.parse("S"), MatchKind.EXIST, CountExp(">=", 1)),
            )


class TestEqualLocalChecks:
    def _shortest_planes(self, ctx, topo, space, dest):
        """ECMP shortest-path forwarding toward dest for all devices."""
        planes = {name: DevicePlane(name, ctx) for name in topo.devices}
        distances = topo.hop_distances_to(dest)
        for dev in topo.devices:
            if dev == dest:
                planes[dev].install_many([Rule(space, Action.deliver(), 1)])
                continue
            hops = [
                n for n in topo.neighbors(dev)
                if distances.get(n, 99) == distances[dev] - 1
            ]
            planes[dev].install_many(
                [Rule(space, Action.forward_any(hops), 1)]
            )
        return planes

    def test_all_shortest_holds_on_full_ecmp(self, ctx):
        topo = fattree(4)
        src, dst = "edge_0_0", "edge_3_1"
        space = ctx.ip_prefix("10.0.7.0/24")
        planes = self._shortest_planes(ctx, topo, space, dst)
        inv = all_shortest_path_availability(space, src, dst)
        result = Planner(topo, ctx).verify(inv, planes)
        assert result.holds

    def test_missing_ecmp_member_is_local_violation(self, ctx):
        topo = fattree(4)
        src, dst = "edge_0_0", "edge_3_1"
        space = ctx.ip_prefix("10.0.7.0/24")
        planes = self._shortest_planes(ctx, topo, space, dst)
        # Drop one ECMP member at the source edge switch.
        plane = planes[src]
        rule = plane.rules[0]
        group = rule.action.group
        assert len(group) > 1
        plane.replace_rule(
            rule.rule_id, Rule(space, Action.forward_any(group[:1]), 1)
        )
        inv = all_shortest_path_availability(space, src, dst)
        result = Planner(topo, ctx).verify(inv, planes)
        assert not result.holds
        assert any(src == v.ingress for v in result.violations)
        assert all(v.message for v in result.violations)

    def test_equal_with_other_atoms_rejected(self, ctx, fig2a):
        space = ctx.ip_prefix("10.0.0.0/23")
        from repro.core.invariant import And

        eq_atom = Atom(
            PathExpr.parse("S .* D", (LengthFilter("==", "shortest"),), True),
            MatchKind.EQUAL,
        )
        exist_atom = Atom(
            PathExpr.parse("S .* D", simple_only=True), MatchKind.EXIST,
            CountExp(">=", 1),
        )
        inv = Invariant(space, ("S",), And((eq_atom, exist_atom)))
        with pytest.raises(SpecificationError):
            Planner(fig2a, ctx).verify(inv, {})


class TestDecompose:
    def test_tasks_cover_all_nodes(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        planner = Planner(fig2a, ctx)
        net = planner.build_dpvnet(inv)
        tasks = planner.decompose(inv, net)
        assert tasks.total_nodes() == net.num_nodes
        assert set(tasks.node_home.values()) == net.devices()

    def test_neighbor_refs_point_at_hosting_devices(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        planner = Planner(fig2a, ctx)
        net = planner.build_dpvnet(inv)
        tasks = planner.decompose(inv, net)
        for task in tasks.tasks.values():
            for node in task.nodes:
                for ref in node.downstream:
                    assert tasks.node_home[ref.node_id] == ref.dev
                for ref in node.upstream:
                    assert tasks.node_home[ref.node_id] == ref.dev

    def test_source_marked(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        tasks = Planner(fig2a, ctx).decompose(inv)
        s_task = tasks.tasks["S"]
        assert any(n.is_source_for == "S" for n in s_task.nodes)

    def test_reduction_exps_single_atom(self, ctx, fig2a, fig2_spaces):
        inv = waypoint_reachability(fig2_spaces[0], "S", "W", "D")
        tasks = Planner(fig2a, ctx).decompose(inv)
        (exp,) = tasks.tasks["S"].reduction_exps
        assert exp == CountExp(">=", 1)

    def test_reduction_disabled_for_compound(self, ctx, fig2a, fig2_spaces):
        from repro.core.library import multicast

        inv = multicast(fig2_spaces[0], "S", ["B", "D"])
        tasks = Planner(fig2a, ctx).decompose(inv)
        assert all(e is None for e in tasks.tasks["S"].reduction_exps)


def task_set_fields(task_set):
    """Everything a deployment reads from a task set, in iteration order."""
    return (
        task_set.invariant_name,
        list(task_set.node_home.items()),
        list(task_set.source_nodes.items()),
        task_set.arity,
        [
            (
                dev, task.dev, task.invariant_name, task.packet_space,
                task.atoms, task.behavior, task.reduction_exps,
                [
                    (
                        node.node_id, node.label, node.dev, node.accept,
                        node.downstream, node.upstream, node.is_source_for,
                        list(node.edge_scenes.items()),
                        list(node.accept_scenes.items()),
                    )
                    for node in task.nodes
                ],
            )
            for dev, task in task_set.tasks.items()
        ],
    )


def counted_plan(monkeypatch, planner, invariants):
    """``planner.plan(invariants)`` plus the DPVNets it built, as weakrefs."""
    built = []
    for name in ("build_enumeration_dpvnet", "build_product_dpvnet"):
        original = getattr(planner_module, name)

        def counting(*args, _original=original, **kwargs):
            net = _original(*args, **kwargs)
            built.append(weakref.ref(net))
            return net

        monkeypatch.setattr(planner_module, name, counting)
    task_sets = planner.plan(invariants)
    monkeypatch.undo()
    return task_sets, built


def assert_plans_like_decompose(monkeypatch, topo, ctx, invariants, shapes):
    """``plan`` equals per-invariant ``decompose`` field by field, builds
    ``shapes`` DPVNets, shares no task object and retains no DPVNet."""
    planner = Planner(topo, ctx)
    task_sets, built = counted_plan(monkeypatch, planner, invariants)
    assert len(built) == shapes
    # The planner outlives the call; the DPVNets it built do not.
    assert all(ref() is None for ref in built)
    reference = [Planner(topo, ctx).decompose(inv) for inv in invariants]
    assert len(task_sets) == len(reference)
    for planned, expected in zip(task_sets, reference):
        assert task_set_fields(planned) == task_set_fields(expected)
        assert planned == expected
    node_tasks = [
        id(node)
        for task_set in task_sets
        for task in task_set.tasks.values()
        for node in task.nodes
    ]
    assert len(node_tasks) == len(set(node_tasks))


def shape_count(invariants):
    return len({
        (tuple(inv.ingress_set), inv.behavior, inv.fault_spec)
        for inv in invariants
    })


class TestPlan:
    def test_tenant_slices_plan_once_per_shape(self, monkeypatch):
        from benchmarks.e2e.workloads import tenant_invariants

        ds = build_dataset("NTT", pair_limit=2, seed=5)
        invariants, _pairs, _spaces = tenant_invariants(ds, 128)
        assert shape_count(invariants) == 47
        assert_plans_like_decompose(
            monkeypatch, ds.topology, ds.ctx, invariants, shapes=47
        )

    def test_fattree_dataset(self, monkeypatch):
        ds = build_dataset("FT-4", pair_limit=None, seed=7)
        invariants = list(ds.invariants)
        assert_plans_like_decompose(
            monkeypatch, ds.topology, ds.ctx, invariants,
            shapes=shape_count(invariants),
        )

    def test_fault_spec_is_part_of_the_shape(self, monkeypatch, ctx, fig2a):
        spaces = [ctx.ip_prefix("10.0.0.0/24"), ctx.ip_prefix("10.0.1.0/24")]
        one_failure = FaultSpec.up_to(1)
        invariants = [
            dataclasses.replace(
                reachability(space, "S", "D", fault_spec=spec),
                name=f"reach{i}_{j}",
            )
            for i, space in enumerate(spaces)
            for j, spec in enumerate((None, one_failure))
        ]
        assert_plans_like_decompose(monkeypatch, fig2a, ctx, invariants, shapes=2)

    def test_local_check_invariants(self, monkeypatch, ctx):
        topo = fattree(4)
        invariants = [
            dataclasses.replace(
                all_shortest_path_availability(
                    ctx.ip_prefix(f"10.0.{i}.0/24"), src, "edge_3_1"
                ),
                name=f"rcdc{i}",
            )
            for i, src in enumerate(["edge_0_0", "edge_0_1", "edge_0_0"])
        ]
        assert_plans_like_decompose(monkeypatch, topo, ctx, invariants, shapes=2)

    def test_multi_atom_and_product_behaviors(self, monkeypatch, ctx, fig2a):
        spaces = [ctx.ip_prefix("10.0.0.0/24"), ctx.ip_prefix("10.0.1.0/24")]
        product = Atom(
            PathExpr.parse("S .* W .* D"), MatchKind.EXIST, CountExp(">=", 1)
        )
        invariants = []
        for i, space in enumerate(spaces):
            invariants += [
                dataclasses.replace(multicast(space, "S", ["B", "D"]), name=f"m{i}"),
                Invariant(space, ("S",), product, name=f"p{i}"),
                Invariant(space, ("S", "A"), product, name=f"pp{i}"),
            ]
        assert_plans_like_decompose(monkeypatch, fig2a, ctx, invariants, shapes=3)

    def test_each_behavior_compiles_once(self, monkeypatch, ctx, fig2a):
        compiled = []
        original = planner_module.compile_regex

        def counting(regex, alphabet):
            compiled.append(regex)
            return original(regex, alphabet)

        monkeypatch.setattr(planner_module, "compile_regex", counting)
        space = ctx.ip_prefix("10.0.0.0/24")
        atom = Atom(PathExpr.parse("A .* D"), MatchKind.EXIST, CountExp(">=", 1))
        invariants = [
            Invariant(space, ingresses, atom, name=str(i))
            for i, ingresses in enumerate([("A",), ("A", "S"), ("A",)])
        ]
        Planner(fig2a, ctx).plan(invariants)
        assert len(compiled) == 1

    def test_prebuilt_nets_take_precedence(self, ctx, fig2a):
        space = ctx.ip_prefix("10.0.0.0/24")
        inv = reachability(space, "S", "D")
        planner = Planner(fig2a, ctx)
        prebuilt = planner.build_dpvnet(dataclasses.replace(inv, ingress_set=("A",)))
        (task_set,) = planner.plan([inv], {inv.name: prebuilt})
        assert task_set.source_nodes == dict(prebuilt.sources)
        assert "A" in task_set.source_nodes


class TestValidation:
    def test_consistent_invariant_passes(self, ctx, fig2a):
        inv = reachability(ctx.ip_prefix("10.0.0.0/23"), "S", "D")
        Planner(fig2a, ctx).validate(inv)  # no raise

    def test_wrong_destination_detected(self, ctx, fig2a):
        """Packet space owned by D, but the path expression ends at B."""
        inv = reachability(ctx.ip_prefix("10.0.0.0/23"), "S", "B")
        with pytest.raises(SpecificationError):
            Planner(fig2a, ctx).validate(inv)
