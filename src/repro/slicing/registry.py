"""The slice registry: tenants, footprints and the inverted event index.

Every :class:`~repro.sim.runner.TulkunRunner` owns one
:class:`SliceRegistry`.  It groups deployed invariants into slices, keeps
each slice's merged footprint, and answers the only question the scheduler
asks: *which slices does this event touch?*  A deployment that declares no
tenants makes every invariant its own slice; one that declares them groups
invariants into tenant slices.

Routing rules (all conservative over-approximations — see the module doc of
:mod:`repro.slicing.footprint` for why each is sound):

* **FIB update** ``(device, match)`` → slices with a verifier on the device
  whose packet space overlaps the match (packet gating is skipped once the
  deployment has been :meth:`widen`\\ ed by a transform rule).
* **drain / restore** on a device → slices with a verifier on it (a full
  FIB rewrite touches every packet space).
* **link** ``(a, b)`` → slices with a verifier on either endpoint.
* **crash / restart** of a device → slices with a verifier on the device
  or any of its topology neighbors (neighbors observe the adjacency loss).
* **invariant add/remove** → exactly the named slice.

The inverted index is device-keyed: ``device → slice names``.  Packet
overlap tests are memoized per ``(match, slice packet space)`` — churn
overwhelmingly reinstalls known match predicates, and slices often share a
packet space, so steady state routes with set lookups and dictionary hits
only.  The memo holds its matches weakly (an entry dies with the last rule
holding its match) and is cleared by every BDD sweep, which rewrites the
node ids both its keys are built from.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.core.invariant import Invariant
from repro.core.tasks import TaskSet
from repro.errors import SimulationError
from repro.slicing.footprint import SliceFootprint, invariant_footprint
from repro.topology.graph import Topology

__all__ = ["Slice", "SliceRegistry", "tenant_of_invariant"]


def tenant_of_invariant(name: str) -> str:
    """Default tenant of an invariant: the ``tenant/`` name prefix if the
    name carries one, else the invariant's own name (every unprefixed
    invariant is its own single-intent slice)."""
    head, sep, _rest = name.partition("/")
    return head if sep else name


class Slice:
    """One tenant intent: a named group of invariants plus their merged
    footprint.  Mutable — invariants join and leave as the tenant deploys
    and retires them; the merged footprint is rebuilt on every change."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.invariants: Set[str] = set()
        self.devices: FrozenSet[str] = frozenset()
        self.packet_space: Optional[Predicate] = None

    def rebuild(self, footprints: Mapping[str, SliceFootprint]) -> None:
        devices: Set[str] = set()
        space: Optional[Predicate] = None
        for inv_name in self.invariants:
            fp = footprints[inv_name]
            devices.update(fp.devices)
            space = fp.packet_space if space is None else space | fp.packet_space
        self.devices = frozenset(devices)
        self.packet_space = space

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Slice({self.name!r}, invariants={sorted(self.invariants)}, "
            f"devices={sorted(self.devices)})"
        )


class SliceRegistry:
    """Slices, their footprints, and the event → touched-slices router.

    ``tenants_declared`` says whether the deployment grouped its invariants
    into tenants.  Without tenants every invariant is its own slice, named
    after the invariant, and :meth:`tenant_of` answers ``None``; with them
    an invariant joins its explicit tenant or, failing that, the
    ``tenant/name`` prefix convention."""

    def __init__(
        self, topology: Topology, ctx: PacketSpaceContext, tenants_declared: bool
    ) -> None:
        self.topology = topology
        self.tenants_declared = tenants_declared
        self.slices: Dict[str, Slice] = {}
        self._slice_of: Dict[str, str] = {}        # invariant -> slice
        self._footprints: Dict[str, SliceFootprint] = {}
        self._by_device: Dict[str, Set[str]] = {}  # device -> slice names
        # Sticky: a transform rule anywhere disables packet-space gating
        # (SUBSCRIBE can grow verifier interest beyond the packet space).
        self.widened = False
        # match predicate (held weakly) -> {packet-space node: overlaps}.
        self._overlap_memo: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        # A sweep rewrites predicate node ids, so every memo key goes stale;
        # the hook refers to the registry weakly, so the BDD manager does
        # not keep it alive.
        registry_ref = weakref.ref(self)

        def invalidate() -> None:
            registry = registry_ref()
            if registry is not None:
                registry._overlap_memo.clear()

        ctx.mgr.register_invalidation_hook(invalidate)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_invariant(
        self,
        invariant: Invariant,
        task_set: TaskSet,
        tenant: Optional[str] = None,
    ) -> str:
        """Register a deployed invariant under its slice; returns the slice
        name.  ``tenant=None`` derives a declared tenant from the name
        prefix; without declared tenants the slice is the invariant's own."""
        name = invariant.name
        if name in self._slice_of:
            raise SimulationError(f"invariant {name!r} is already sliced")
        if not self.tenants_declared:
            tenant = name
        elif tenant is None:
            tenant = tenant_of_invariant(name)
        self._slice_of[name] = tenant
        self._footprints[name] = invariant_footprint(invariant, task_set)
        sl = self.slices.get(tenant)
        if sl is None:
            sl = self.slices[tenant] = Slice(tenant)
        sl.invariants.add(name)
        self._reindex(sl)
        return tenant

    def remove_invariant(self, name: str) -> Optional[str]:
        """Drop an invariant; dissolves its slice when it was the last
        member.  Returns the slice the invariant belonged to."""
        tenant = self._slice_of.pop(name, None)
        if tenant is None:
            return None
        self._footprints.pop(name, None)
        sl = self.slices[tenant]
        sl.invariants.discard(name)
        if not sl.invariants:
            del self.slices[tenant]
        self._reindex(sl)
        return tenant

    def _reindex(self, sl: Slice) -> None:
        for dev in sl.devices:
            self._by_device[dev].discard(sl.name)
        sl.rebuild(self._footprints)
        for dev in sl.devices:
            self._by_device.setdefault(dev, set()).add(sl.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenant_of(self, invariant_name: str) -> Optional[str]:
        """The invariant's tenant slice (``None`` without declared tenants)."""
        if not self.tenants_declared:
            return None
        return self._slice_of.get(invariant_name)

    def footprint_of(self, invariant_name: str) -> Optional[SliceFootprint]:
        return self._footprints.get(invariant_name)

    def tenants(self) -> List[str]:
        return sorted(self.slices)

    def invariants_of(self, tenants: Iterable[str]) -> Set[str]:
        out: Set[str] = set()
        for tenant in tenants:
            sl = self.slices.get(tenant)
            if sl is not None:
                out.update(sl.invariants)
        return out

    def device_groups(self) -> List[List[str]]:
        """Connected components of slices that share devices, as sorted
        device lists — the process backend's scheduling unit: slices with
        disjoint footprints land in different groups and can be spread
        across shard workers without cutting any slice in two."""
        parent: Dict[str, str] = {}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for tenant in self.slices:
            parent[tenant] = tenant
        for members in self._by_device.values():
            members_sorted = sorted(members)
            for other in members_sorted[1:]:
                union(members_sorted[0], other)
        groups: Dict[str, Set[str]] = {}
        for tenant, sl in self.slices.items():
            groups.setdefault(find(tenant), set()).update(sl.devices)
        return sorted(
            (sorted(devs) for devs in groups.values()),
            key=lambda devs: (-len(devs), devs),
        )

    # ------------------------------------------------------------------
    # Conservative widening
    # ------------------------------------------------------------------
    def widen(self) -> None:
        """Disable packet-space gating permanently (transform rules seen).

        Sticky by design: a transform rule may have triggered SUBSCRIBEs
        that grew verifier interests beyond their packet spaces, and those
        extensions survive the rule's removal."""
        self.widened = True
        self._overlap_memo.clear()

    def note_rules(self, rules: Iterable) -> None:
        """Scan rules (e.g. an initial FIB) for transform actions."""
        if self.widened:
            return
        for rule in rules:
            action = getattr(rule, "action", None)
            if action is not None and getattr(action, "transform", None) is not None:
                self.widen()
                return

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def touched_by_update(
        self, dev: str, match: Optional[Predicate]
    ) -> Set[str]:
        """Slices a rule update on ``dev`` with the given match can reach.

        ``match=None`` means the match predicate could not be resolved
        (e.g. a removal of a rule installed earlier in the same batch) —
        packet gating is skipped for that op, device gating still applies.
        """
        candidates = self._by_device.get(dev)
        if not candidates:
            return set()
        if match is None or self.widened:
            return set(candidates)
        verdicts = self._overlap_memo.get(match)
        if verdicts is None:
            verdicts = self._overlap_memo[match] = {}
        touched: Set[str] = set()
        for tenant in candidates:
            space = self.slices[tenant].packet_space
            hit = verdicts.get(space.node)
            if hit is None:
                hit = verdicts[space.node] = space.overlaps(match)
            if hit:
                touched.add(tenant)
        return touched

    def touched_by_rewrite(self, dev: str) -> Set[str]:
        """Drain/restore: a whole-FIB rewrite touches every packet space."""
        return set(self._by_device.get(dev, ()))

    def touched_by_link(self, a: str, b: str) -> Set[str]:
        """A link event reaches a slice iff it owns a verifier on either
        endpoint: off-footprint endpoints host no verifier for it, and a
        footprint verifier may count packets forwarded toward *any*
        neighbor, DPVNet member or not."""
        return set(self._by_device.get(a, ())) | set(self._by_device.get(b, ()))

    def touched_by_lifecycle(self, dev: str) -> Set[str]:
        """Crash/restart: the device plus every topology neighbor reacts."""
        touched = set(self._by_device.get(dev, ()))
        for neighbor in self.topology.neighbors(dev):
            touched.update(self._by_device.get(neighbor, ()))
        return touched

    def all_tenants(self) -> Set[str]:
        return set(self.slices)
