"""Per-device data plane: a prioritized match-action table with LEC cache.

This is the "FIB/ACL" box of Figure 1: the forwarding state an on-device
verifier reads.  Rule installs/removals return :class:`LecDelta` lists so the
verifier can process exactly the packet-space regions whose behaviour
changed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.dataplane.action import Action
from repro.dataplane.lec import (
    LecDelta,
    LecTable,
    compute_lec_table,
    install_into_table,
    remove_from_table,
)
from repro.dataplane.rule import Rule
from repro.errors import DataPlaneError

__all__ = ["DevicePlane"]


class DevicePlane:
    """The data plane of one device."""

    def __init__(self, name: str, ctx: PacketSpaceContext) -> None:
        self.name = name
        self.ctx = ctx
        self._rules: Dict[int, Rule] = {}
        self._lec_cache: Optional[LecTable] = None
        #: Region carrier the incremental LEC bookkeeping runs on.  A
        #: standalone plane keeps the reference carrier; a network attaches
        #: the one its verifiers use (:meth:`use_carrier`).
        self.carrier = ctx.carrier("bdd")
        # Per-rule match and effective regions of the cached table (rule id
        # -> handle; effective = the packets the rule wins).  Single-rule
        # updates evolve the cached table through these books instead of
        # rebuilding it from scratch.
        self._matches: Optional[Dict[int, object]] = None
        self._effectives: Optional[Dict[int, object]] = None
        #: FIB epoch: bumped on every table mutation.  Verifiers key their
        #: per-interest forwarding-split memos on it.
        self.epoch = 0

    def use_carrier(self, carrier) -> None:
        """Run single-rule updates on ``carrier`` (idempotent).

        Tables and LEC deltas are byte-identical on every carrier — only
        the internal bookkeeping representation changes."""
        if carrier is not self.carrier:
            self.carrier = carrier
            self._matches = None
            self._effectives = None

    def _ensure_books(self) -> None:
        """Build the per-rule bookkeeping for the current table.

        One-time cost per device (then evolved incrementally): lift every
        match, then derive effective regions by a first-match sweep.
        """
        if self._effectives is not None:
            return
        carrier = self.carrier
        word, keep, lift = carrier.word, carrier.keep, carrier.lift
        rules = self.rules
        # Two passes: lifting any match may refine the carrier, so words
        # are read only after every boundary is installed.
        matches = {rule.rule_id: keep(lift(rule.match)) for rule in rules}
        effectives: Dict[int, object] = {}
        covered = carrier.empty
        for rule in rules:
            match = word(matches[rule.rule_id])
            effectives[rule.rule_id] = keep(match & ~covered)
            covered = covered | match
        self._matches = matches
        self._effectives = effectives

    def _invalidate(self) -> None:
        self._lec_cache = None
        self._matches = None
        self._effectives = None
        self.epoch += 1

    # ------------------------------------------------------------------
    # Table manipulation
    # ------------------------------------------------------------------
    @property
    def rules(self) -> List[Rule]:
        return sorted(self._rules.values(), key=Rule.sort_key)

    @property
    def num_rules(self) -> int:
        return len(self._rules)

    def get_rule(self, rule_id: int) -> Optional[Rule]:
        """The installed rule with this id, or ``None``."""
        return self._rules.get(rule_id)

    def install_rule(self, rule: Rule) -> List[LecDelta]:
        """Install a rule; return the LEC regions whose action changed.

        Incremental: the cached LEC table is evolved by redistributing the
        new rule's effective region, costing work proportional to the
        affected packets rather than the whole rule table."""
        if rule.rule_id in self._rules:
            raise DataPlaneError(
                f"rule {rule.rule_id} already installed on {self.name}"
            )
        old = self.lec_table()
        self._ensure_books()
        self._rules[rule.rule_id] = rule
        self._lec_cache, deltas = install_into_table(
            self.carrier, old, self._matches, self._effectives,
            self.rules, rule,
        )
        self.epoch += 1
        return deltas

    def remove_rule(self, rule_id: int) -> List[LecDelta]:
        """Remove a rule by id; return the changed LEC regions."""
        if rule_id not in self._rules:
            raise DataPlaneError(f"rule {rule_id} not installed on {self.name}")
        old = self.lec_table()
        self._ensure_books()
        removed = self._rules.pop(rule_id)
        self._lec_cache, deltas = remove_from_table(
            self.carrier, old, self._matches, self._effectives,
            self.rules, removed,
        )
        self.epoch += 1
        return deltas

    def replace_rule(self, rule_id: int, new_rule: Rule) -> List[LecDelta]:
        """Atomically swap a rule (the §2.2.3 'B updates its action' case)."""
        deltas = self.remove_rule(rule_id)
        deltas.extend(self.install_rule(new_rule))
        return deltas

    def discard_rule(self, rule_id: int) -> None:
        """Remove a rule without LEC delta computation.

        Mirror-bookkeeping counterpart of :meth:`install_many`: the parallel
        coordinator tracks rule tables without ever paying for LEC builds
        (the workers compute the real deltas).
        """
        if rule_id not in self._rules:
            raise DataPlaneError(f"rule {rule_id} not installed on {self.name}")
        del self._rules[rule_id]
        self._invalidate()

    def install_many(self, rules: Sequence[Rule]) -> None:
        """Bulk install without delta computation (burst-update fast path)."""
        for rule in rules:
            if rule.rule_id in self._rules:
                raise DataPlaneError(
                    f"rule {rule.rule_id} already installed on {self.name}"
                )
            self._rules[rule.rule_id] = rule
        self._invalidate()

    def clear(self) -> None:
        self._rules.clear()
        self._invalidate()

    # ------------------------------------------------------------------
    # Forwarding queries
    # ------------------------------------------------------------------
    def lec_table(self) -> LecTable:
        if self._lec_cache is None:
            self._lec_cache = compute_lec_table(self.ctx, self.rules)
        return self._lec_cache

    def fwd(self, pred: Predicate) -> List[Tuple[Predicate, Action]]:
        """Split a packet set along LEC boundaries into (piece, action)."""
        return self.lec_table().action_of(pred)

    def fwd_packet(self, packet: Dict[str, int]) -> Action:
        """Action applied to one concrete packet (reference semantics)."""
        pred = self.ctx.packet(**packet)
        pieces = self.fwd(pred)
        # A concrete packet lies in exactly one LEC.
        return pieces[0][1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DevicePlane({self.name!r}, rules={self.num_rules})"
