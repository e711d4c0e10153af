"""Per-device data plane: a prioritized match-action table with LEC cache.

This is the "FIB/ACL" box of Figure 1: the forwarding state an on-device
verifier reads.  Rule installs/removals return :class:`LecDelta` lists so the
verifier can process exactly the packet-space regions whose behaviour
changed.

Once a device sees single-rule updates its table is kept in first-match
order, one :class:`RuleRow` per rule (bisect on ``Rule.sort_key``, so an
update never sorts); the row carries the rule's match and effective region
as handles of the plane's region carrier, which is what lets the cached
:class:`LecTable` evolve instead of being rebuilt.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.dataplane.action import Action
from repro.dataplane.lec import (
    LecDelta,
    LecTable,
    RuleRow,
    _rebuild_with_moves,
    compute_lec_table,
    install_into_table,
    remove_from_table,
)
from repro.dataplane.rule import Rule
from repro.errors import DataPlaneError

__all__ = ["DevicePlane", "RuleUpdate"]

#: One rule update, as every layer below the runner hands it down: the rule
#: to install and the id of the rule to remove, either of them ``None``.
RuleUpdate = Tuple[Optional[Rule], Optional[int]]


def _row_key(row: RuleRow) -> tuple:
    return row.rule.sort_key()


class DevicePlane:
    """The data plane of one device."""

    def __init__(self, name: str, ctx: PacketSpaceContext) -> None:
        self.name = name
        self.ctx = ctx
        self._rules: Dict[int, Rule] = {}
        self._lec_cache: Optional[LecTable] = None
        #: Region carrier the LEC table and the rows' books live on.  A
        #: standalone plane keeps the reference carrier; a counting verifier
        #: attaches the one it reads the table with (:meth:`use_carrier`).
        self.carrier = ctx.carrier("bdd")
        # The cached table's books: one row per rule, in first-match order.
        # Built by the first single-rule update (a burst never pays for
        # them), evolved together with the cached table by every later one,
        # dropped by anything else.
        self._rows: Optional[List[RuleRow]] = None
        #: FIB epoch: bumped on every table mutation.  Verifiers key their
        #: per-interest forwarding-split memos on it.
        self.epoch = 0

    def use_carrier(self, carrier) -> None:
        """Keep the LEC table and books on ``carrier`` (idempotent).

        Tables and LEC deltas lower to the same bytes on every carrier —
        only the stored representation changes: a switch drops the books,
        and the next :meth:`lec_table` rebuilds the cached table's classes
        on the new carrier, in the same entry order."""
        if carrier is not self.carrier:
            self.carrier = carrier
            self._rows = None

    def _books(self) -> List[RuleRow]:
        """The rows, with every rule's books for the current table.

        One-time cost per device (then evolved incrementally): lift every
        match, then derive effective regions by a first-match sweep.
        """
        rows = self._rows
        if rows is None:
            carrier = self.carrier
            word, keep, lift = carrier.word, carrier.keep, carrier.lift
            # Two passes: lifting any match may refine the carrier, so words
            # are read only after every boundary is installed.
            rows = [RuleRow(rule, keep(lift(rule.match))) for rule in self.rules]
            covered = carrier.empty
            for row in rows:
                match = word(row.match)
                row.effective = keep(match & ~covered)
                covered = covered | match
            self._rows = rows
        return rows

    def _invalidate(self) -> None:
        self._lec_cache = None
        self._rows = None
        self.epoch += 1

    def _require_free(self, rule_id: int) -> None:
        if rule_id in self._rules:
            raise DataPlaneError(
                f"rule {rule_id} already installed on {self.name}"
            )

    def _installed(self, rule_id: int) -> Rule:
        rule = self._rules.get(rule_id)
        if rule is None:
            raise DataPlaneError(f"rule {rule_id} not installed on {self.name}")
        return rule

    # ------------------------------------------------------------------
    # Table manipulation
    # ------------------------------------------------------------------
    @property
    def rules(self) -> List[Rule]:
        """The installed rules in first-match order (read off the rows
        when there are any: a single-rule update never sorts)."""
        rows = self._rows
        if rows is not None:
            return [row.rule for row in rows]
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
        self._require_free(rule.rule_id)
        table = self.lec_table()
        rows = self._books()
        position = bisect_left(rows, rule.sort_key(), key=_row_key)
        rows.insert(position, RuleRow(rule))
        self._rules[rule.rule_id] = rule
        self._lec_cache, deltas = install_into_table(table, rows, position)
        self.epoch += 1
        return deltas

    def remove_rule(self, rule_id: int) -> List[LecDelta]:
        """Remove a rule by id; return the changed LEC regions."""
        rule = self._installed(rule_id)
        table = self.lec_table()
        rows = self._books()
        position = bisect_left(rows, rule.sort_key(), key=_row_key)
        removed = rows.pop(position)
        del self._rules[rule_id]
        self._lec_cache, deltas = remove_from_table(
            table, rows, position, removed
        )
        self.epoch += 1
        return deltas

    def replace_rule(self, rule_id: int, new_rule: Rule) -> List[LecDelta]:
        """Atomically swap a rule (the §2.2.3 'B updates its action' case):
        either both halves happen or, on a bad id, neither.

        A replace with the old rule's match and priority is a relabel when
        the row may move to the new rule's place without any effective
        region changing (see :meth:`_relabel`): the deltas are then the net
        change — the old rule's effective region changing hands, or none
        for an equal action.  Any other replace is remove + install."""
        old = self._installed(rule_id)
        if new_rule.rule_id != rule_id:
            self._require_free(new_rule.rule_id)
        if new_rule.priority == old.priority and new_rule.match == old.match:
            deltas = self._relabel(old, new_rule)
            if deltas is not None:
                return deltas
        deltas = self.remove_rule(rule_id)
        deltas.extend(self.install_rule(new_rule))
        return deltas

    def apply_update(
        self, install: Optional[Rule], remove_id: Optional[int]
    ) -> List[LecDelta]:
        """Apply one ``(install, remove_id)`` rule update: a replace when
        both are given, else the one install or removal.  Every layer above
        hands rule updates down as these pairs; this is where a pair
        becomes a table operation."""
        if remove_id is None:
            return self.install_rule(install)
        if install is None:
            return self.remove_rule(remove_id)
        return self.replace_rule(remove_id, install)

    def _relabel(self, old: Rule, new_rule: Rule) -> Optional[List[LecDelta]]:
        """Give ``old``'s row to ``new_rule`` (same match and priority), or
        return ``None`` when that would change some effective region.

        The rows between the old and the new bisect position all have this
        priority (``sort_key`` is ``(-priority, -rule_id)``); when each is
        disjoint from the match — one word AND per row — moving the row
        across them changes no first-match outcome."""
        table = self.lec_table()
        rows = self._books()
        src = bisect_left(rows, old.sort_key(), key=_row_key)
        dst = bisect_left(rows, new_rule.sort_key(), key=_row_key)
        row = rows[src]
        word = self.carrier.word
        match = word(row.match)
        between = rows[dst:src] if dst <= src else rows[src + 1:dst]
        for other in between:
            if match & word(other.match):
                return None
        if dst > src:
            dst -= 1  # the row leaves its old place before it lands
        rows.insert(dst, rows.pop(src))
        row.rule = new_rule
        del self._rules[old.rule_id]
        self._rules[new_rule.rule_id] = new_rule
        effective = word(row.effective)
        if old.action == new_rule.action or not effective:
            return []  # the table, and so the epoch, is untouched
        self._lec_cache, deltas = _rebuild_with_moves(
            table, {(old.action, new_rule.action): effective}
        )
        self.epoch += 1
        return deltas

    def discard_rule(self, rule_id: int) -> None:
        """Remove a rule without LEC delta computation.

        Mirror-bookkeeping counterpart of :meth:`install_many`: the parallel
        coordinator tracks rule tables without ever paying for LEC builds
        (the workers compute the real deltas).
        """
        self._installed(rule_id)
        del self._rules[rule_id]
        self._invalidate()

    def install_many(self, rules: Sequence[Rule]) -> None:
        """Bulk install without delta computation (burst-update fast path):
        all of ``rules`` or — on a taken or repeated id — none."""
        ids = [rule.rule_id for rule in rules]
        taken = self._rules.keys() & ids
        if taken:
            self._require_free(min(taken))
        if len(set(ids)) != len(ids):
            raise DataPlaneError(f"a rule id is given twice to {self.name}")
        self._rules.update(zip(ids, rules))
        self._invalidate()

    def clear(self) -> None:
        self._rules.clear()
        self._invalidate()

    # ------------------------------------------------------------------
    # Forwarding queries
    # ------------------------------------------------------------------
    def lec_table(self) -> LecTable:
        table = self._lec_cache
        carrier = self.carrier
        if table is None:
            table = compute_lec_table(self.ctx, self.rules, carrier)
        elif table.carrier is not carrier:
            entries = table.entries()
            words = carrier.lift_partition([pred for pred, _ in entries])
            keep = carrier.keep
            table = LecTable(
                self.ctx,
                carrier,
                [(keep(w), action) for w, (_, action) in zip(words, entries)],
            )
        self._lec_cache = table
        return table

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
