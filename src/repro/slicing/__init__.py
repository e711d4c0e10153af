"""Intent-based slicing: multi-tenant verification by footprint routing.

A *slice* is one tenant intent — a named group of invariants owned by one
operator.  Every slice carries a precomputed **footprint**: the packet
space its invariants constrain and the devices/links their DPVNets can
traverse.  The :class:`SliceRegistry` keeps an inverted index over those
footprints so every FIB update, link event or lifecycle event is routed
only to the slices whose footprint intersects it — untouched slices do no
work at all and their cached verdicts are reused (Chou et al.,
"Fine-grained Distributed Data Plane Verification with Intent-based
Slicing").

Every :class:`~repro.sim.runner.TulkunRunner` routes through a registry;
a deployment that declares no tenants simply makes every invariant its own
slice.  The routing is *conservative* (over-approximate), which is what
makes it sound: a slice skipped by the router would provably have processed
the event into a no-op, so a routed run converges to the verdicts,
violation regions and CIB/LEC state of one that broadcasts every event to
every slice, byte for byte — pinned by
``tests/test_slicing_differential.py`` across backends and index modes.
"""

from repro.slicing.footprint import SliceFootprint, invariant_footprint
from repro.slicing.registry import Slice, SliceRegistry, tenant_of_invariant

__all__ = [
    "Slice",
    "SliceFootprint",
    "SliceRegistry",
    "invariant_footprint",
    "tenant_of_invariant",
]
