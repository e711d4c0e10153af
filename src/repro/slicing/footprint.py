"""Per-invariant footprints: what part of the network an intent can see.

An invariant's **topology footprint** is the set of devices its DPVNet
places counting tasks on.  That set is *static* over FIB churn: the planner
builds the DPVNet as the product of the path regex and the topology graph,
never the data plane, so rule updates cannot grow it.  DVM messages travel
only along DPVNet edges, whose endpoints both host tasks — so every
verifier, every message and every transport flow of the invariant lives
inside the footprint.

The **packet-space footprint** is the invariant's packet space.  A rule
install/remove can only change the forwarding of packets matching the rule,
and a verifier's recomputation region is ``delta ∩ interest`` — empty
whenever the rule's match is disjoint from the packet space (the
``equal``-operator local checks likewise re-derive ``fwd(packet_space)``,
which such a rule cannot alter).  The one escape hatch is packet
transformation: SUBSCRIBE messages grow a node's interest beyond the packet
space, so a deployment containing transform rules disables packet-space
gating entirely (see :meth:`repro.slicing.registry.SliceRegistry.widen`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.bdd.predicate import Predicate
from repro.core.invariant import Invariant
from repro.core.tasks import TaskSet

__all__ = ["SliceFootprint", "invariant_footprint"]


@dataclass(frozen=True)
class SliceFootprint:
    """Immutable footprint of one invariant."""

    devices: FrozenSet[str]
    packet_space: Predicate


def invariant_footprint(invariant: Invariant, task_set: TaskSet) -> SliceFootprint:
    """Footprint of one deployed invariant, from its planner decomposition.

    ``task_set.tasks`` names exactly the devices hosting counting (or
    local-check) tasks; an invariant whose DPVNet is empty (disconnected
    source/destination) gets an empty footprint — no event can ever change
    its verdict, because no verifier for it exists anywhere.
    """
    return SliceFootprint(
        devices=frozenset(task_set.tasks),
        packet_space=invariant.packet_space,
    )
