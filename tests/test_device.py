"""DevicePlane: installs, removals, deltas, forwarding queries."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.serialize import serialize_predicate
from repro.dataplane import Action, DevicePlane, Rule
from repro.dataplane.lec import compute_lec_table, diff_lec_tables
from repro.errors import DataPlaneError
from tests.conftest import packet
from tests.test_lec import rule_set

CARRIERS = ("bdd", "atoms")
ACTIONS = (
    Action.drop(),
    Action.forward_all(["A"]),
    Action.forward_all(["B"]),
    Action.forward_any(["A", "B"]),
)


class TestInstallRemove:
    def test_install_returns_delta(self, ctx):
        plane = DevicePlane("X", ctx)
        rule = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        deltas = plane.install_rule(rule)
        region = ctx.union(d.predicate for d in deltas)
        assert region == ctx.ip_prefix("10.0.0.0/24")
        assert deltas[0].old_action == Action.drop()
        assert deltas[0].new_action == Action.forward_all(["A"])

    def test_double_install_rejected(self, ctx):
        plane = DevicePlane("X", ctx)
        rule = Rule(ctx.universe, Action.drop(), 1)
        plane.install_rule(rule)
        with pytest.raises(DataPlaneError):
            plane.install_rule(rule)

    def test_remove_returns_inverse_delta(self, ctx):
        plane = DevicePlane("X", ctx)
        rule = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        plane.install_rule(rule)
        deltas = plane.remove_rule(rule.rule_id)
        assert deltas[0].old_action == Action.forward_all(["A"])
        assert deltas[0].new_action == Action.drop()

    def test_remove_unknown_rejected(self, ctx):
        plane = DevicePlane("X", ctx)
        with pytest.raises(DataPlaneError):
            plane.remove_rule(12345)

    def test_replace_rule_single_delta_region(self, ctx):
        plane = DevicePlane("X", ctx)
        old = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        plane.install_rule(old)
        new = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["B"]), 24)
        deltas = plane.replace_rule(old.rule_id, new)
        region = ctx.union(d.predicate for d in deltas)
        assert region == ctx.ip_prefix("10.0.0.0/24")
        assert plane.get_rule(old.rule_id) is None
        assert plane.get_rule(new.rule_id) is new

    def test_shadowed_install_no_delta(self, ctx):
        plane = DevicePlane("X", ctx)
        plane.install_rule(Rule(ctx.universe, Action.forward_all(["A"]), 100))
        hidden = Rule(ctx.ip_prefix("10.0.0.0/8"), Action.drop(), 1)
        assert plane.install_rule(hidden) == []

    def test_install_many_skips_delta(self, ctx):
        plane = DevicePlane("X", ctx)
        rules = [
            Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24),
            Rule(ctx.ip_prefix("10.0.1.0/24"), Action.forward_all(["B"]), 24),
        ]
        plane.install_many(rules)
        assert plane.num_rules == 2

    def test_clear(self, ctx):
        plane = DevicePlane("X", ctx)
        plane.install_many([Rule(ctx.universe, Action.drop(), 1)])
        plane.clear()
        assert plane.num_rules == 0


class TestForwarding:
    def test_fwd_packet_longest_prefix(self, ctx):
        plane = DevicePlane("X", ctx)
        plane.install_many(
            [
                Rule(ctx.ip_prefix("10.0.0.0/8"), Action.forward_all(["A"]), 8),
                Rule(ctx.ip_prefix("10.1.0.0/16"), Action.forward_all(["B"]), 16),
            ]
        )
        assert plane.fwd_packet(packet("10.1.2.3")) == Action.forward_all(["B"])
        assert plane.fwd_packet(packet("10.2.2.3")) == Action.forward_all(["A"])
        assert plane.fwd_packet(packet("192.168.0.1")) == Action.drop()

    def test_fwd_covers_query(self, ctx):
        plane = DevicePlane("X", ctx)
        plane.install_many(
            [Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)]
        )
        query = ctx.ip_prefix("10.0.0.0/16")
        pieces = plane.fwd(query)
        assert ctx.union(p for p, _a in pieces) == query

    def test_lec_cache_invalidation(self, ctx):
        plane = DevicePlane("X", ctx)
        t1 = plane.lec_table()
        assert plane.lec_table() is t1  # cached
        plane.install_rule(Rule(ctx.universe, Action.forward_all(["A"]), 5))
        assert plane.lec_table() is not t1


def plane_on(ctx, carrier_name, rules=()):
    plane = DevicePlane("X", ctx)
    plane.use_carrier(ctx.carrier(carrier_name))
    plane.install_many(list(rules))
    return plane


def clone(rule, action=None):
    """Same match and priority under a fresh rule id."""
    return Rule(rule.match, action or rule.action, rule.priority)


def by_action(table):
    return {action: pred for pred, action in table.entries()}


def wire(deltas):
    return [
        (serialize_predicate(d.predicate), d.old_action, d.new_action)
        for d in deltas
    ]


@pytest.mark.parametrize("carrier_name", CARRIERS)
class TestValidateBeforeMutate:
    """A rejected bulk install / swap leaves the plane as it was."""

    def snapshot(self, plane):
        return plane.rules, plane.lec_table().entries(), plane.epoch

    def test_install_many_duplicate_midway(self, ctx, carrier_name):
        held = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        plane = plane_on(ctx, carrier_name, [held])
        before = self.snapshot(plane)
        fresh = Rule(ctx.ip_prefix("10.0.1.0/24"), Action.forward_all(["B"]), 24)
        with pytest.raises(DataPlaneError):
            plane.install_many([fresh, held])
        with pytest.raises(DataPlaneError):
            plane.install_many([fresh, fresh])
        assert self.snapshot(plane) == before
        assert plane.get_rule(fresh.rule_id) is None

    def test_replace_rule_with_taken_id(self, ctx, carrier_name):
        old = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        other = Rule(ctx.ip_prefix("10.0.1.0/24"), Action.forward_all(["B"]), 24)
        plane = plane_on(ctx, carrier_name, [old, other])
        before = self.snapshot(plane)
        with pytest.raises(DataPlaneError):
            plane.replace_rule(old.rule_id, other)
        with pytest.raises(DataPlaneError):
            plane.replace_rule(987654, clone(old))
        assert self.snapshot(plane) == before
        assert plane.get_rule(old.rule_id) is old

    def test_replace_rule_may_keep_its_id(self, ctx, carrier_name):
        old = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        plane = plane_on(ctx, carrier_name, [old])
        same_id = Rule(old.match, Action.forward_all(["B"]), 24, old.rule_id)
        (delta,) = plane.replace_rule(old.rule_id, same_id)  # one net delta
        assert (delta.old_action, delta.new_action) == (old.action, same_id.action)
        assert delta.predicate == old.match
        assert plane.get_rule(old.rule_id) is same_id


@pytest.mark.parametrize("carrier_name", CARRIERS)
class TestRelabel:
    """A replace with the old match and priority moves the row and returns
    the net change when no row it jumps overlaps the match."""

    def test_refresh_leaves_the_table_alone(self, ctx, carrier_name):
        rules = fib_257(ctx)
        plane = plane_on(ctx, carrier_name, rules)
        plane.install_rule(clone(rules[9]))  # books and table built
        table, epoch = plane.lec_table(), plane.epoch
        fresh = clone(rules[5])
        assert plane.replace_rule(rules[5].rule_id, fresh) == []
        assert plane.lec_table() is table and plane.epoch == epoch
        assert plane.get_rule(fresh.rule_id) is fresh
        assert plane.get_rule(rules[5].rule_id) is None

    def test_row_jumps_disjoint_siblings(self, ctx, carrier_name):
        old = Rule(ctx.ip_prefix("10.0.0.0/24"), Action.forward_all(["A"]), 24)
        sibling = Rule(ctx.ip_prefix("10.0.1.0/24"), Action.forward_all(["B"]), 24)
        plane = plane_on(ctx, carrier_name, [old, sibling])
        new = clone(old, Action.forward_all(["C"]))
        (delta,) = plane.replace_rule(old.rule_id, new)
        assert (delta.old_action, delta.new_action) == (old.action, new.action)
        assert delta.predicate == old.match
        assert plane.rules == [new, sibling]

    def test_overlapping_sibling_falls_back(self, ctx, carrier_name):
        old = Rule(ctx.ip_prefix("10.0.0.0/16"), Action.forward_all(["A"]), 16)
        wide = Rule(ctx.ip_prefix("10.0.0.0/8"), Action.forward_all(["B"]), 16)
        plane = plane_on(ctx, carrier_name, [old, wide])
        before = plane.lec_table()
        new = clone(old, Action.forward_all(["C"]))
        deltas = plane.replace_rule(old.rule_id, new)
        # The newer id now wins the /16 its older twin lost to ``wide``.
        assert plane.rules == [new, wide]
        assert wire(deltas) == wire(diff_lec_tables(before, plane.lec_table()))
        assert [(d.old_action, d.new_action) for d in deltas] == [
            (wide.action, new.action)
        ]


# ----------------------------------------------------------------------
# Stateful property: the evolved table against the from-scratch oracle
# ----------------------------------------------------------------------
def net_deltas(ctx, deltas):
    """Compose an ordered delta list into {(first, last action): region}
    — what ``diff_lec_tables`` reports between the end states."""
    net = {}
    for delta in deltas:
        fresh = delta.predicate
        for (first, last), region in list(net.items()):
            moved = region & fresh
            if last != delta.old_action or moved.is_empty:
                continue
            net[(first, last)] = region - moved
            key = (first, delta.new_action)
            net[key] = net.get(key, ctx.empty) | moved
            fresh = fresh - moved
        key = (delta.old_action, delta.new_action)
        net[key] = net.get(key, ctx.empty) | fresh
    return {
        key: region for key, region in net.items()
        if key[0] != key[1] and not region.is_empty
    }


def relabel_applies(rules, victim, new_id):
    """Whether a same-match replace of ``victim`` by id ``new_id`` is a
    relabel: every equal-priority rule whose id lies between the two (the
    rows the row jumps) is disjoint from the match."""
    lo, hi = sorted((victim.rule_id, new_id))
    return not any(
        rule.priority == victim.priority
        and lo < rule.rule_id < hi
        and not (rule.match & victim.match).is_empty
        for rule in rules.values()
    )


def run_plane_ops(ctx, pool, carrier_name, seed, steps):
    """Random table mutations with engine GC and atom compaction forced
    between steps; after each, order, table and deltas match the oracle.

    ``sibling`` installs an equal-priority rule overlapping or disjoint
    from an installed one, and ``relabel`` replaces a rule (preferably one
    with newer such siblings) by one with its match and priority — same
    action, another action, or the same id — so both the row jump and the
    remove + install fallback of ``replace_rule`` run."""
    rng = random.Random(seed)
    plane = plane_on(ctx, carrier_name)
    rules = {}  # the model: rule id -> Rule

    def fresh():
        return clone(rng.choice(pool))

    def with_newer_siblings():  # the rules a fresh id jumps over
        return sorted(
            rid for rid, rule in rules.items()
            if any(
                other.priority == rule.priority and other.rule_id > rid
                for other in rules.values()
            )
        )

    for _ in range(steps):
        before = compute_lec_table(ctx, list(rules.values()))
        ops = ["install", "install_many"] if pool and len(rules) < 8 else []
        if rules:
            ops += ["remove", "discard", "clear", "relabel", "relabel"]
            if pool:
                ops += ["replace", "replace"]
            if len(rules) < 8:
                ops += ["sibling"]
        if not ops:
            return
        op = rng.choice(ops)
        deltas = None
        net = False  # the deltas must be net as returned
        if op == "install":
            rule = fresh()
            deltas = plane.install_rule(rule)
            rules[rule.rule_id] = rule
        elif op == "sibling":
            kin = rules[rng.choice(sorted(rules))]
            match = kin.match if rng.random() < 0.3 else ctx.universe - kin.match
            action = rng.choice(pool).action if pool else kin.action
            rule = Rule(match, action, kin.priority)
            deltas = plane.install_rule(rule)
            rules[rule.rule_id] = rule
        elif op == "relabel":
            victim = rules.pop(rng.choice(with_newer_siblings() or sorted(rules)))
            variant = rng.choice(("same", "other", "same_id"))
            if variant == "same":
                rule = clone(victim)
            elif variant == "other":
                rule = clone(victim, rng.choice(ACTIONS))
            else:
                rule = Rule(victim.match, rng.choice(ACTIONS), victim.priority,
                            victim.rule_id)
            net = relabel_applies(rules, victim, rule.rule_id)
            deltas = plane.replace_rule(victim.rule_id, rule)
            rules[rule.rule_id] = rule
        elif op == "install_many":
            batch = [fresh() for _ in range(rng.randint(0, 3))]
            plane.install_many(batch)
            rules.update((rule.rule_id, rule) for rule in batch)
        elif op == "clear":
            plane.clear()
            rules.clear()
        else:
            victim = rng.choice(sorted(rules))
            del rules[victim]
            if op == "remove":
                deltas = plane.remove_rule(victim)
            elif op == "discard":
                plane.discard_rule(victim)
            else:
                rule = fresh()
                deltas = plane.replace_rule(victim, rule)
                rules[rule.rule_id] = rule
        ctx.mgr.collect()
        ctx.atom_index().compact()
        ordered = sorted(rules.values(), key=Rule.sort_key)
        assert plane.rules == ordered
        after = compute_lec_table(ctx, ordered)
        assert by_action(plane.lec_table()) == by_action(after)
        if deltas is not None:
            oracle = {
                (d.old_action, d.new_action): d.predicate
                for d in diff_lec_tables(before, after)
            }
            assert net_deltas(ctx, deltas) == oracle
        if net:
            assert all(d.old_action != d.new_action for d in deltas)
            assert len(deltas) == len(oracle) <= 1
            assert {
                (d.old_action, d.new_action): d.predicate for d in deltas
            } == oracle


@pytest.mark.parametrize("carrier_name", CARRIERS)
class TestEvolvedTableMatchesOracle:
    @given(rule_set(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_random_ops(self, carrier_name, data, seed):
        ctx, pool = data
        run_plane_ops(ctx, pool, carrier_name, seed, steps=12)

    @pytest.mark.slow
    @given(rule_set(), st.integers(0, 2**32))
    @settings(max_examples=400, deadline=None)
    def test_random_ops_battery(self, carrier_name, data, seed):
        ctx, pool = data
        run_plane_ops(ctx, pool, carrier_name, seed, steps=40)


# ----------------------------------------------------------------------
# Structural pins: what a warm single-rule update may cost
# ----------------------------------------------------------------------
def fib_257(ctx):
    """A default route under 256 /24s pointing at four neighbours."""
    rules = [Rule(ctx.universe, Action.forward_all(["Z"]), 0)]
    for i in range(256):
        hop = "ABCD"[i % 4]
        rules.append(
            Rule(ctx.ip_prefix(f"10.{i}.0.0/24"), Action.forward_all([hop]), 24)
        )
    return rules


def replace_cycle(plane, victims):
    """Repoint each victim, then put an equivalent rule back: the deltas,
    and the rules now standing where the victims were."""
    deltas, restored = [], []
    for victim in victims:
        away = clone(victim, Action.forward_all(["E"]))
        back = clone(victim)
        deltas += plane.remove_rule(victim.rule_id)
        deltas += plane.install_rule(away)
        deltas += plane.remove_rule(away.rule_id)
        deltas += plane.install_rule(back)
        restored.append(back)
    return deltas, restored


class TestSingleRuleUpdateCost:
    def test_warm_update_is_word_algebra_and_bisect(self, ctx, monkeypatch):
        rules = fib_257(ctx)
        plane = plane_on(ctx, "atoms", rules)
        # Warm: books built, every match and repoint target lifted.
        _deltas, victims = replace_cycle(plane, rules[1::16])
        calls = []
        real_key = Rule.sort_key
        monkeypatch.setattr(
            Rule, "sort_key", lambda rule: calls.append(1) or real_key(rule)
        )
        lowered = []
        monkeypatch.setattr(plane.carrier, "lower", lowered.append)
        stats = ctx.mgr.stats
        ops = [name for name in stats.__slots__ if name.startswith("ops_")]
        before = {name: getattr(stats, name) for name in ops}
        deltas, _restored = replace_cycle(plane, victims)
        assert {name: getattr(stats, name) for name in ops} == before
        assert not lowered  # nobody asked for a predicate
        updates = 4 * len(victims)
        assert len(deltas) == updates  # every update moved one region
        assert len(calls) <= updates * (4 * math.log2(len(rules)) + 8)

    def test_delta_bytes_are_carrier_independent(self, ctx):
        rules = fib_257(ctx)
        planes = {name: plane_on(ctx, name, map(clone, rules)) for name in CARRIERS}
        cycles = {
            name: wire(replace_cycle(plane, plane.rules[5:40:7])[0])
            for name, plane in planes.items()
        }
        assert cycles["atoms"] == cycles["bdd"]
        assert len(cycles["bdd"]) == 4 * 5


@pytest.mark.parametrize("target", CARRIERS)
class TestUseCarrier:
    def test_switch_on_a_populated_plane(self, ctx, target):
        """bdd -> atoms -> bdd (or the reverse): table and books are
        dropped and rebuilt, indistinguishable from a plane that was on the
        target carrier from the start."""
        rules = fib_257(ctx)[:40]
        other = CARRIERS[1 - CARRIERS.index(target)]
        switched = plane_on(ctx, target, map(clone, rules))
        native = plane_on(ctx, target, map(clone, rules))
        query = ctx.ip_prefix("10.0.0.0/12")
        extra = Rule(ctx.ip_prefix("10.3.0.0/16"), Action.forward_all(["E"]), 16)
        for plane in (switched, native):
            plane.install_rule(clone(extra))  # books exist before the switch
        for name in (other, target):
            table = switched.lec_table()
            switched.use_carrier(ctx.carrier(name))
            assert switched.lec_table() is not table
            assert switched.lec_table().carrier is ctx.carrier(name)
            assert switched.fwd(query) == native.fwd(query)
            victim = switched.rules[7].rule_id
            deltas = switched.remove_rule(victim)
            deltas += switched.install_rule(clone(extra))
            victim = native.rules[7].rule_id
            expected = native.remove_rule(victim)
            expected += native.install_rule(clone(extra))
            assert wire(deltas) == wire(expected)
            assert switched.lec_table().entries() == native.lec_table().entries()
            assert switched.fwd(query) == native.fwd(query)
        switched.use_carrier(ctx.carrier(target))  # idempotent
        assert switched.lec_table().entries() == native.lec_table().entries()
