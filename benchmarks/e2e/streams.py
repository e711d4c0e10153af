"""Seed -> abstract op cycle -> in-process tuples or ``tulkun-serve-v1`` lines.

The cycle is 128 *units* of two FIB ops each (a change, then its undo), in
four groups of 32 units that all carry the same family mix, plus 7 links
that each go down and come back.  It is rendered three ways:

* ``single``: unit by unit, one op per epoch (256 ops per period);
* ``batch``: per group, the 32 changes as one epoch and the 32 undos as the
  next (8 epochs per period) - no two ops of an epoch share a rule, so the
  daemon's coalescer cannot squash work the in-process path must do;
* ``link``: down, up per link (14 events per period).

Every unit restores rule keys, FIB and verdicts before the next begins, so
any window of the stream carries the same mix and the wire rendering is a
fixed list of lines whose SHA-256 identifies the run.

Families on the fat-tree workloads (share of ops): ``refresh`` 40 %
(withdraw + reinstall the same rule, twice), ``repoint`` 30 % (point at one
other neighbour, restore), ``carve`` 20 % (install a more-specific
sub-prefix at higher priority, withdraw), ``blackhole`` 10 % (drop at an
invariant's ingress, restore: the verdict must flip).  The tenant workload
has one family, ``tenant``: drop one tenant's traffic at its ingress,
withdraw the drop (touches exactly one slice).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.language import parse_packet_space
from repro.dataplane import Action, Rule
from repro.dataplane.action import EXTERNAL, GroupType
from repro.datasets.routing import split_prefix
from repro.serve import auto_key_rules, parse_action

from benchmarks.e2e.workloads import Instance, Workload

__all__ = [
    "FibOp",
    "Install",
    "StreamPlan",
    "RuleRenderer",
    "make_plan",
    "wire_line",
    "link_line",
    "FLUSH_LINE",
]

GROUPS = 4
GROUP_UNITS = 32
LINKS = 7  # odd: a truncated window never holds only downs or only ups
# Units per group, by family; each row sums to GROUP_UNITS and the columns
# to 51 / 38 / 26 / 13 of 128 units (39.8 / 29.7 / 20.3 / 10.2 % of ops).
FAMILY_UNITS = {
    "refresh": (13, 13, 13, 12),
    "repoint_far": (6, 5, 6, 6),
    "repoint_last_hop": (4, 4, 4, 3),
    "carve": (6, 7, 6, 7),
    "blackhole": (3, 3, 3, 4),
}
SUBSCRIBED_TENANTS = 16  # connection 2 follows t0000..t0015
FLUSH_LINE = json.dumps({"op": "flush"})


@dataclass(frozen=True)
class Install:
    key: str
    prefix: str      # CIDR; the match is ``dst_ip = <prefix>``
    action: str      # wire action grammar
    priority: int


@dataclass(frozen=True)
class FibOp:
    family: str
    device: str
    remove: Optional[str]        # key of the live rule to withdraw
    install: Optional[Install]
    # Blackhole/tenant ops: (invariant, status it must have after this op).
    flips: Optional[Tuple[str, str]] = None


Unit = Tuple[FibOp, FibOp]
Link = Tuple[str, str]


@dataclass(frozen=True)
class StreamPlan:
    seed: int
    units: Tuple[Unit, ...]      # GROUPS * GROUP_UNITS, group-major
    links: Tuple[Link, ...]

    def group(self, g: int) -> Tuple[Unit, ...]:
        return self.units[g * GROUP_UNITS:(g + 1) * GROUP_UNITS]

    def batches(self) -> List[List[FibOp]]:
        """The batch rendering: changes of a group, then its undos."""
        out: List[List[FibOp]] = []
        for g in range(GROUPS):
            units = self.group(g)
            out.append([change for change, _undo in units])
            out.append([undo for _change, undo in units])
        return out

    def link_events(self) -> List[Tuple[Link, bool]]:
        return [(link, up) for link in self.links for up in (False, True)]

    def sha256(self) -> str:
        """Digest of the full wire rendering of one period."""
        digest = hashlib.sha256()
        for change, undo in self.units:
            digest.update(wire_line(change).encode() + b"\n")
            digest.update(wire_line(undo).encode() + b"\n")
        for link, up in self.link_events():
            digest.update(link_line(link, up).encode() + b"\n")
        return digest.hexdigest()


# ----------------------------------------------------------------------
# Renderings
# ----------------------------------------------------------------------
def wire_line(op: FibOp) -> str:
    obj: Dict[str, object] = {"op": "update", "device": op.device}
    if op.remove is not None:
        obj["remove"] = op.remove
    if op.install is not None:
        obj["install"] = {
            "key": op.install.key,
            "match": f"dst_ip = {op.install.prefix}",
            "action": op.install.action,
            "priority": op.install.priority,
        }
    return json.dumps(obj)


def link_line(link: Link, up: bool) -> str:
    return json.dumps({"op": "link", "a": link[0], "b": link[1], "up": up})


class RuleRenderer:
    """In-process rendering: ops to ``(device, Rule, remove_id)`` tuples.

    Keeps the key -> live Rule map the daemon's session keeps for the wire
    path, so both paths address rules identically."""

    def __init__(self, instance: Instance) -> None:
        self.ctx = instance.dataset.ctx
        self.live: Dict[str, Rule] = {
            key: rule for key, (_dev, rule) in auto_key_rules(instance.rules).items()
        }

    def render(self, op: FibOp) -> Tuple[str, Optional[Rule], Optional[int]]:
        remove_id = None
        if op.remove is not None:
            remove_id = self.live.pop(op.remove).rule_id
        rule = None
        if op.install is not None:
            spec = op.install
            rule = Rule(
                parse_packet_space(self.ctx, f"dst_ip = {spec.prefix}"),
                parse_action(spec.action)[0],
                spec.priority,
            )
            self.live[spec.key] = rule
        return op.device, rule, remove_id


def action_text(action: Action) -> str:
    if action.is_drop:
        return "drop"
    if action.group == (EXTERNAL,):
        return "deliver"
    kind = "any" if action.group_type is GroupType.ANY else "all"
    return f"{kind} {','.join(action.group)}"


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Slot:
    """A deployed rule the stream may churn: its auto key and wire form."""

    key: str
    device: str
    prefix: str
    action: str
    priority: int
    next_hops: Tuple[str, ...]
    owner: str       # device the prefix is attached to
    hops: int        # hop distance device -> owner


def _slots(instance: Instance, multiplier: int) -> List[_Slot]:
    topology = instance.dataset.topology
    ctx = instance.dataset.ctx
    origin = {}  # match predicate -> (sub-prefix text, owner)
    for owner, prefixes in topology.external_prefixes.items():
        for prefix in prefixes:
            for sub in split_prefix(prefix, multiplier):
                origin[ctx.ip_prefix(sub)] = (sub, owner)
    distances = {
        owner: topology.hop_distances_to(owner)
        for owner in topology.external_prefixes
    }
    slots = []
    for key, (dev, rule) in auto_key_rules(instance.rules).items():
        if rule.match not in origin:
            continue  # the default drop: not prefix-addressable
        prefix, owner = origin[rule.match]
        slots.append(
            _Slot(
                key, dev, prefix, action_text(rule.action), rule.priority,
                rule.action.internal_next_hops(), owner, distances[owner][dev],
            )
        )
    return slots


def _replace(family: str, slot: _Slot, action: str, flips=None) -> Unit:
    """Swap the slot's rule for one with ``action``, then swap it back
    under the original key."""
    temp = slot.key + "~"
    change = FibOp(
        family, slot.device, slot.key,
        Install(temp, slot.prefix, action, slot.priority),
        flips[0] if flips else None,
    )
    undo = FibOp(
        family, slot.device, temp,
        Install(slot.key, slot.prefix, slot.action, slot.priority),
        flips[1] if flips else None,
    )
    return change, undo


def _path_load(instance: Instance):
    """``load(device, ...)``: how many verified pairs have an allowed path
    (shortest in a fabric, shortest + 2 on a WAN) through all the given
    devices in order.  What an event costs grows with the verifiers it
    reaches, and this is what the planner will put there."""
    topology = instance.dataset.topology
    slack = 0 if instance.dataset.spec.kind == "DC" else 2
    distance = {dev: topology.hop_distances_to(dev) for dev in topology.devices}

    def load(first: str, last: Optional[str] = None) -> int:
        last = last or first
        inner = 0 if last == first else 1
        return sum(
            min(distance[first][src] + distance[dst][last],
                distance[last][src] + distance[dst][first]) + inner
            <= distance[dst][src] + slack
            for src, dst in instance.pairs
        )

    return load


def _spread(ranked: Sequence, count: int, rng: random.Random) -> List:
    """``count`` members at evenly spaced ranks of a cost-ordered list, the
    seed choosing only the offset: every seed draws the same cost profile."""
    if len(ranked) < count:
        raise ValueError("dataset too small for the op cycle")
    stride = len(ranked) / count
    offset = rng.random()
    return [ranked[int((j + offset) * stride)] for j in range(count)]


def _fattree_units(
    instance: Instance, multiplier: int, load, rng: random.Random
) -> List[List[Unit]]:
    ds = instance.dataset
    neighbors = ds.topology.neighbors
    device_load = {dev: load(dev) for dev in ds.topology.devices}
    pool = sorted(
        _slots(instance, multiplier),
        key=lambda s: (device_load[s.device], s.device, s.prefix),
    )
    farthest = max(slot.hops for slot in pool)
    # Destinations verified from a typical number of ingresses (the middle
    # third by count): what a last-hop change costs grows with that number.
    ingresses = Counter(dst for _src, dst in instance.pairs)
    typical = set(_middle_third(
        sorted(ingresses, key=lambda dst: (ingresses[dst], dst))
    ))

    def draw(family: str, wanted) -> List[_Slot]:
        nonlocal pool
        chosen = _spread(
            [s for s in pool if wanted(s)], sum(FAMILY_UNITS[family]), rng
        )
        taken = {slot.key for slot in chosen}
        pool = [s for s in pool if s.key not in taken]
        return chosen

    def blackhole(pair, inv) -> Unit:
        # One specific rule: at the ingress, towards the destination.
        nonlocal pool
        src, dst = pair
        subs = set(split_prefix(ds.topology.external_prefixes[dst][0], multiplier))
        slot = rng.choice(
            [s for s in pool if s.device == src and s.prefix in subs]
        )
        pool = [s for s in pool if s.key != slot.key]
        flips = ((inv.name, "VIOLATED"), (inv.name, "HOLDS"))
        return _replace("blackhole", slot, "drop", flips)

    def repoint(slot: _Slot) -> Unit:
        others = [
            hop for hop in sorted(neighbors(slot.device))
            if (hop,) != slot.next_hops
        ]
        return _replace("repoint", slot, f"all {rng.choice(others)}")

    def carve(slot: _Slot) -> Unit:
        sub = split_prefix(slot.prefix, 2)[0]
        key = slot.key + "+"
        return (
            FibOp("carve", slot.device, None,
                  Install(key, sub, slot.action, slot.priority + 1)),
            FibOp("carve", slot.device, key, None),
        )

    def can_repoint(slot: _Slot) -> bool:
        return bool(slot.next_hops) and len(neighbors(slot.device)) > 1

    verified = list(zip(instance.pairs, instance.invariants))
    units = {
        "blackhole": [
            blackhole(pair, inv)
            for pair, inv in rng.sample(verified, sum(FAMILY_UNITS["blackhole"]))
        ],
        # A last-hop rule towards a verified destination sits under every
        # invariant for it: re-pointing it floods counts upstream (the
        # tail).  The farthest rules change little beyond their own device.
        "repoint_last_hop": [repoint(slot) for slot in draw(
            "repoint_last_hop",
            lambda s: s.hops == 1 and s.owner in typical and can_repoint(s),
        )],
        "repoint_far": [repoint(slot) for slot in draw(
            "repoint_far", lambda s: s.hops == farthest and can_repoint(s),
        )],
        "carve": [carve(slot) for slot in draw("carve", lambda s: s.priority < 32)],
        "refresh": [
            _replace("refresh", slot, slot.action)
            for slot in draw("refresh", lambda s: True)
        ],
    }
    groups: List[List[Unit]] = [[] for _ in range(GROUPS)]
    for family, members in units.items():
        for group, share in zip(groups, _deal(members, FAMILY_UNITS[family])):
            group.extend(share)
    for group in groups:
        rng.shuffle(group)
    return groups


def _deal(members: Sequence, quotas: Sequence[int]) -> List[List]:
    """Round-robin into ``len(quotas)`` hands of the given sizes, so every
    hand spans the cost order the members come in."""
    hands: List[List] = [[] for _ in quotas]
    g = 0
    for member in members:
        while len(hands[g]) >= quotas[g]:
            g = (g + 1) % len(hands)
        hands[g].append(member)
        g = (g + 1) % len(hands)
    return hands


def _tenant_units(instance: Instance, rng: random.Random) -> List[List[Unit]]:
    def unit(k: int) -> Unit:
        ingress, sub = instance.tenant_spaces[k]
        name = instance.invariants[k].name
        key = f"t{k:04d}"
        return (
            # Priority 500 outranks the synthesized LPM rules: the drop wins.
            FibOp("tenant", ingress, None, Install(key, sub, "drop", 500),
                  (name, "VIOLATED")),
            FibOp("tenant", ingress, key, None, (name, "HOLDS")),
        )

    # Spread the subscribed tenants evenly so every group fans out alike.
    watched = list(range(SUBSCRIBED_TENANTS))
    others = list(range(SUBSCRIBED_TENANTS, len(instance.tenant_spaces)))
    rng.shuffle(watched)
    rng.shuffle(others)
    per_group = SUBSCRIBED_TENANTS // GROUPS
    groups = []
    for g in range(GROUPS):
        tenants = watched[g * per_group:(g + 1) * per_group]
        rest = GROUP_UNITS - per_group
        tenants += others[g * rest:(g + 1) * rest]
        rng.shuffle(tenants)
        groups.append([unit(k) for k in tenants])
    return groups


def _middle_third(ranked: Sequence) -> Sequence:
    third = len(ranked) // 3
    return ranked[third:max(third + 1, len(ranked) - third)]


def _pick_links(instance: Instance, load, rng: random.Random) -> Tuple[Link, ...]:
    """LINKS links at evenly spaced ranks of the load order.

    A link's load is the number of verified pairs with an allowed path over
    it (shortest paths in a fabric, shortest + 2 on a WAN); what its failure
    costs grows with it.  Every seed gets the same load profile - light
    links and heavy ones - and draws only among links of equal load, so the
    mean cost of a link event is a property of the workload, not of the
    draw."""
    topology = instance.dataset.topology
    loads = {
        link: load(*link) for link in topology.link_set()
        if topology.without_links([link]).is_connected()
    }
    ranked = sorted((l for l in loads if loads[l]), key=lambda l: (loads[l], l))
    links = []
    for i in range(LINKS):
        target = loads[ranked[(2 * i + 1) * len(ranked) // (2 * LINKS)]]
        links.append(rng.choice(
            [l for l in ranked if loads[l] == target and l not in links]
        ))
    rng.shuffle(links)
    return tuple(links)


def make_plan(workload: Workload, instance: Instance, seed: int) -> StreamPlan:
    # Keyed on the dataset, so churn_ft4 and serve_churn_ft4 share a stream.
    rng = random.Random(f"{workload.dataset}:{seed}")
    load = _path_load(instance)
    if workload.tenants:
        groups = _tenant_units(instance, rng)
    else:
        multiplier = workload.rule_multiplier or 1
        groups = _fattree_units(instance, multiplier, load, rng)
    units = tuple(unit for group in groups for unit in group)
    assert len(units) == GROUPS * GROUP_UNITS
    return StreamPlan(seed, units, _pick_links(instance, load, rng))
