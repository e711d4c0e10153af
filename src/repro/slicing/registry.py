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
overlap is tested on the verifiers' region carrier: each slice keeps its
packet space as a carrier handle (the OR of its members' lifted spaces,
built at the slice's first routing query, by when the verifiers have
lifted the same spaces), and a FIB update routes by ``lift(match) &
word(space)`` — in atoms mode a cached atomize and one int AND per slice.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.bdd.predicate import Predicate
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
        #: Kept carrier handle of the members' packet-space union; ``None``
        #: until the slice's first routing query (and after every rebuild).
        self.space = None

    def rebuild(self, footprints: Mapping[str, SliceFootprint]) -> None:
        devices: Set[str] = set()
        for inv_name in self.invariants:
            devices.update(footprints[inv_name].devices)
        self.devices = frozenset(devices)
        self.space = None

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
    ``tenant/name`` prefix convention.  ``carrier`` is the region carrier
    the deployment's verifiers run on (``ctx.carrier(predicate_index)``)."""

    def __init__(
        self, topology: Topology, carrier, tenants_declared: bool
    ) -> None:
        self.topology = topology
        self.carrier = carrier
        self.tenants_declared = tenants_declared
        self.slices: Dict[str, Slice] = {}
        self._slice_of: Dict[str, str] = {}        # invariant -> slice
        self._footprints: Dict[str, SliceFootprint] = {}
        self._by_device: Dict[str, Set[str]] = {}  # device -> slice names
        # Sticky: a transform rule anywhere disables packet-space gating
        # (SUBSCRIBE can grow verifier interest beyond the packet space).
        self.widened = False

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

    def note_rules(self, rules: Iterable) -> None:
        """Scan rules (an initial FIB, a burst's installs) for transform
        actions — the one place a transform is recognised."""
        if not self.widened and any(
            rule.action.transform is not None for rule in rules
        ):
            self.widen()

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def touched_by_update(self, dev: str, match: Predicate) -> Set[str]:
        """Slices a rule update on ``dev`` with the given match can reach."""
        candidates = self._by_device.get(dev)
        if not candidates:
            return set()
        if self.widened:
            return set(candidates)
        carrier = self.carrier
        word = carrier.word
        m = carrier.lift(match)
        touched: Set[str] = set()
        for tenant in candidates:
            sl = self.slices[tenant]
            if sl.space is None:
                sl.space = self._lift_space(sl)
                m = carrier.resolve(m)  # the lifts may have refined atoms
            if m & word(sl.space):
                touched.add(tenant)
        return touched

    def _lift_space(self, sl: Slice):
        """A slice's packet space as a kept handle: the OR of its members'
        lifted spaces (each lift may refine atoms, so the running word is
        resolved after it — a stale word never meets a current one)."""
        carrier = self.carrier
        space = carrier.empty
        for inv_name in sorted(sl.invariants):
            member = carrier.lift(self._footprints[inv_name].packet_space)
            space = carrier.resolve(space) | member
        return carrier.keep(space)

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
