"""Moving verifier state between the coordinator and worker processes.

Every worker owns a private :class:`PacketSpaceContext` (rebuilt from the
coordinator's :meth:`HeaderLayout.spec`), so nothing BDD-backed can cross a
process boundary as a Python object.  Predicates travel as the multi-root
binary streams of :mod:`repro.bdd.serialize` — one shared node table per
payload — and everything else (actions, atoms, behavior trees, DPVNet node
tables) is context-free and rides the pipe's pickle.

Payload shapes::

    tasks:  {"meta": [per-task dicts], "blob": bytes}   # packet spaces
    updates: {"meta": [(action, priority, rule_id)], "blobs": [bytes],
              "pairs": [(installs?, remove_id)]}   # installs in pair order
    rule sets: {"meta": [(dev, [(action, priority, rule_id)])], "blob": bytes}
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bdd.fields import HeaderLayout
from repro.bdd.predicate import PacketSpaceContext
from repro.bdd.serialize import (
    deserialize_predicate,
    deserialize_predicates,
    serialize_predicate,
    serialize_predicates,
)
from repro.core.tasks import DeviceTask
from repro.dataplane.device import RuleUpdate
from repro.dataplane.rule import Rule

__all__ = [
    "build_context",
    "ship_tasks",
    "unship_tasks",
    "ship_updates",
    "unship_updates",
    "ship_rule_sets",
    "unship_rule_sets",
]


def build_context(spec: Sequence[Tuple[str, int]]) -> PacketSpaceContext:
    """A fresh worker-side context with the coordinator's header layout."""
    return PacketSpaceContext(HeaderLayout(list(spec)))


def _as_predicate(region):
    """Boundary conversion: regions ship as canonical BDD predicates.

    Atom ids are process-local (each worker's index refines independently),
    so an AtomSet can never cross a pipe — its canonical-Predicate view can,
    and re-atomizing on the far side reproduces the same packet set.
    """
    if hasattr(region, "to_predicate"):
        return region.to_predicate()
    return region


def ship_tasks(tasks: Sequence[DeviceTask]) -> Dict[str, object]:
    """Pack device tasks for one worker into a single payload."""
    meta = []
    for task in tasks:
        meta.append(
            {
                "dev": task.dev,
                "invariant_name": task.invariant_name,
                "atoms": task.atoms,
                "behavior": task.behavior,
                "nodes": task.nodes,
                "reduction_exps": task.reduction_exps,
            }
        )
    blob = serialize_predicates(
        [_as_predicate(task.packet_space) for task in tasks]
    )
    return {"meta": meta, "blob": blob}


def unship_tasks(
    ctx: PacketSpaceContext, payload: Dict[str, object]
) -> List[DeviceTask]:
    """Rebuild shipped tasks against the worker's context."""
    spaces = deserialize_predicates(ctx, payload["blob"])  # type: ignore[arg-type]
    tasks: List[DeviceTask] = []
    for meta, space in zip(payload["meta"], spaces):  # type: ignore[arg-type]
        tasks.append(
            DeviceTask(
                dev=meta["dev"],
                invariant_name=meta["invariant_name"],
                packet_space=space,
                atoms=meta["atoms"],
                behavior=meta["behavior"],
                nodes=meta["nodes"],
                reduction_exps=meta["reduction_exps"],
            )
        )
    return tasks


def ship_updates(pairs: Sequence[RuleUpdate]) -> Dict[str, object]:
    """Pack one device's ``(install, remove_id)`` rule updates.

    Each install's match ships as its own canonical stream through the
    memoized single-predicate codec: churn mostly reinstalls matches
    already on the wire, and a memo hit on either side costs one dict
    lookup."""
    installs = [install for install, _ in pairs if install is not None]
    return {
        "meta": [
            (rule.action, rule.priority, rule.rule_id) for rule in installs
        ],
        "blobs": [
            serialize_predicate(_as_predicate(rule.match)) for rule in installs
        ],
        "pairs": [
            (install is not None, remove_id) for install, remove_id in pairs
        ],
    }


def unship_updates(
    ctx: PacketSpaceContext, payload: Dict[str, object]
) -> List[RuleUpdate]:
    """Rebuild shipped rule updates with the rules' original ids."""
    meta = payload["meta"]
    blobs = payload["blobs"]
    rules = iter(
        [
            Rule(deserialize_predicate(ctx, blob), action, priority, rule_id=i)
            for blob, (action, priority, i) in zip(blobs, meta)  # type: ignore[arg-type]
        ]
    )
    return [
        (next(rules) if installs else None, remove_id)
        for installs, remove_id in payload["pairs"]  # type: ignore[union-attr]
    ]


def ship_rule_sets(
    rules_by_dev: Dict[str, Sequence[Rule]]
) -> Dict[str, object]:
    """Pack many devices' rule installs into one shared-node-table stream.

    FIBs of different devices share most of their match predicates (the same
    destination prefixes recur network-wide), so a single multi-root stream
    per worker serializes that shared structure once instead of once per
    device — this is what keeps burst shipping off the coordinator's
    critical path.
    """
    meta = []
    matches = []
    for dev in sorted(rules_by_dev):
        rules = rules_by_dev[dev]
        meta.append(
            (dev, [(r.action, r.priority, r.rule_id) for r in rules])
        )
        matches.extend(_as_predicate(rule.match) for rule in rules)
    return {"meta": meta, "blob": serialize_predicates(matches)}


def unship_rule_sets(
    ctx: PacketSpaceContext, payload: Dict[str, object]
) -> Dict[str, List[Rule]]:
    """Inverse of :func:`ship_rule_sets`: per-device rule lists."""
    matches = deserialize_predicates(ctx, payload["blob"])  # type: ignore[arg-type]
    out: Dict[str, List[Rule]] = {}
    i = 0
    for dev, rule_meta in payload["meta"]:  # type: ignore[union-attr]
        rules: List[Rule] = []
        for action, priority, rule_id in rule_meta:
            rules.append(Rule(matches[i], action, priority, rule_id=rule_id))
            i += 1
        out[dev] = rules
    return out
