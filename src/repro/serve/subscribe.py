"""Per-client delta subscriptions: selective verdict fan-out.

By default every connected client receives every ``delta`` frame.  A
``subscribe`` request narrows that: a client subscribed to tenant ``A``
never receives tenant ``B``'s verdict deltas — ``changed`` is filtered to
the subscribed invariants, the ``touched`` tenant list (present when the
deployment declares tenants) is filtered to the subscribed tenants, and a
delta frame with nothing left for this client is suppressed entirely.

Tenancy is resolved through the slice registry's declared tenants, and
through the ``tenant/name`` prefix convention otherwise — so tenant
subscriptions work on deployments that declare no tenants too (they are a
pure fan-out feature; declared tenants only add the ``touched`` metadata).

``ack``/``error``/``status``/``stats``/``hello``/``bye`` frames are never
filtered: they answer the requester, not the broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional

from repro.slicing import tenant_of_invariant

__all__ = ["Subscription", "SUBSCRIBE_ALL", "filter_delta"]


@dataclass(frozen=True)
class Subscription:
    """What one client wants from the broadcast stream.

    ``mode`` is ``"all"`` (the default for every new client), ``"tenants"``
    (``names`` holds tenant slice names) or ``"invariants"`` (``names``
    holds invariant names)."""

    mode: str
    names: FrozenSet[str] = frozenset()

    def wants_invariant(self, invariant: str, tenant: Optional[str]) -> bool:
        if self.mode == "all":
            return True
        if self.mode == "invariants":
            return invariant in self.names
        if tenant is None:
            tenant = tenant_of_invariant(invariant)
        return tenant in self.names

    def wants_tenant(self, tenant: str) -> bool:
        if self.mode == "all":
            return True
        if self.mode == "tenants":
            return tenant in self.names
        # Invariant-mode subscribers see a tenant's touch only if one of
        # their invariants belongs to it (resolved per-invariant upstream);
        # conservatively keep the tenant if any subscribed name maps to it.
        return any(tenant_of_invariant(name) == tenant for name in self.names)

    def describe(self) -> Dict[str, object]:
        """Wire summary for the ``ack`` frame and the stats clients table."""
        if self.mode == "all":
            return {"mode": "all"}
        return {"mode": self.mode, "names": sorted(self.names)}


SUBSCRIBE_ALL = Subscription("all")


def filter_delta(
    frame: Dict[str, object],
    subscription: Subscription,
    tenant_of: Callable[[str], Optional[str]],
) -> Optional[Dict[str, object]]:
    """Project one broadcast frame through a client's subscription.

    Non-delta frames pass unchanged.  Delta frames get ``changed`` (and
    ``touched``, when present) filtered; a delta with no relevant change
    and no relevant touch returns ``None`` — the client never sees it.
    """
    if frame.get("frame") != "delta" or subscription.mode == "all":
        return frame
    changed = frame.get("changed")
    filtered_changed = {
        name: delta
        for name, delta in (changed or {}).items()  # type: ignore[union-attr]
        if subscription.wants_invariant(name, tenant_of(name))
    }
    out = dict(frame)
    out["changed"] = filtered_changed
    touched = frame.get("touched")
    filtered_touched = None
    if touched is not None:
        filtered_touched = [
            tenant
            for tenant in touched  # type: ignore[union-attr]
            if subscription.wants_tenant(tenant)
        ]
        out["touched"] = filtered_touched
    if not filtered_changed and not filtered_touched:
        return None
    return out
