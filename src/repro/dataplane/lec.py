"""Local equivalence classes (LECs).

A LEC of a device is a maximal packet set whose members all receive the same
action at that device (§5.1).  The LEC builder turns a prioritized rule list
into the minimal such partition using first-match semantics; single-rule
updates evolve it in place and yield the deltas — the regions whose action
changed — that the DVM protocol propagates.

One book: a :class:`LecTable` holds the partition exactly once, as
``(handle, Action)`` pairs of the owning plane's region carrier in entry
order, and a plane's per-rule state is one :class:`RuleRow` per rule in
first-match order.  Canonical :class:`Predicate`s exist only on demand, for
the callers that speak them (``entries``, ``predicate_for``, ``action_of``,
``LecDelta.predicate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.dataplane.action import Action
from repro.dataplane.rule import Rule

__all__ = [
    "LecTable",
    "LecDelta",
    "RuleRow",
    "compute_lec_table",
    "diff_lec_tables",
    "install_into_table",
    "remove_from_table",
]


@dataclass(frozen=True)
class LecDelta:
    """A region of packet space whose action changed.

    ``region`` is a kept handle of ``carrier`` (the plane's): consumers on
    the same carrier read it with ``carrier.word`` — current whatever
    refined the carrier since the update — and everyone else asks for the
    canonical :attr:`predicate`.
    """

    region: object
    old_action: Action
    new_action: Action
    carrier: object

    @property
    def predicate(self) -> Predicate:
        """The region lowered to a canonical predicate (byte-identical
        whichever carrier computed the update)."""
        carrier = self.carrier
        return carrier.lower(carrier.word(self.region))


class RuleRow:
    """One installed rule in a plane's first-match-ordered table.

    ``match`` and ``effective`` — the packets the rule wins under
    first-match — are handles of the plane's carrier, valid while the
    plane's books are."""

    __slots__ = ("rule", "match", "effective")

    def __init__(self, rule: Rule, match=None) -> None:
        self.rule = rule
        self.match = match
        self.effective = None


def _split(
    entries: Sequence[Tuple[object, Action]], region
) -> List[Tuple[object, Action]]:
    """Disjoint ``(piece, action)`` pairs covering all of ``region``, in
    the order of ``entries`` (words of one carrier throughout)."""
    pieces: List[Tuple[object, Action]] = []
    remaining = region
    for entry, action in entries:
        if not remaining:
            break
        piece = remaining & entry
        if piece:
            pieces.append((piece, action))
            remaining = remaining & ~piece
    if remaining:
        # Every packet is in some LEC (drop is explicit); reaching here
        # means the table was built incorrectly.
        pieces.append((remaining, Action.drop()))
    return pieces


class LecTable:
    """Minimal (packet_space, action) partition of the whole packet space.

    Immutable.  The classes are pairwise disjoint, non-empty, and their
    union is the universe (packets matching no rule map to drop); they are
    stored once, as handles of ``carrier``, in entry order — the order
    everything downstream (counting, announcing, wire bytes) inherits.
    """

    def __init__(
        self,
        ctx: PacketSpaceContext,
        carrier,
        pairs: List[Tuple[object, Action]],
    ) -> None:
        self.ctx = ctx
        self.carrier = carrier
        self._pairs = pairs
        self._lowered: Optional[List[Tuple[Predicate, Action]]] = None

    # ------------------------------------------------------------------
    def split(self, region) -> List[Tuple[object, Action]]:
        """Split a word of this table's carrier along LEC boundaries."""
        word = self.carrier.word
        return _split(
            [(word(handle), action) for handle, action in self._pairs], region
        )

    # Predicate-speaking callers (planner, offline, multipath, baselines,
    # local-check verifiers) stay on the BDD side: nothing below lifts, so
    # none of them ever refines the atom index.
    def entries(self) -> List[Tuple[Predicate, Action]]:
        """The classes as canonical predicates (lowered once per table)."""
        if self._lowered is None:
            lower, word = self.carrier.lower, self.carrier.word
            self._lowered = [
                (lower(word(handle)), action) for handle, action in self._pairs
            ]
        return list(self._lowered)

    def predicate_for(self, action: Action) -> Predicate:
        for pred, entry_action in self.entries():
            if entry_action == action:
                return pred
        return self.ctx.empty

    def action_of(self, pred: Predicate) -> List[Tuple[Predicate, Action]]:
        """:meth:`split` for callers that speak canonical predicates."""
        return _split(self.entries(), pred)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LecTable({len(self)} classes)"


def compute_lec_table(
    ctx: PacketSpaceContext, rules: Sequence[Rule], carrier=None
) -> LecTable:
    """Build the minimal LEC partition from a prioritized rule list.

    The first-match sweep runs on BDD nodes whichever ``carrier`` (default:
    the reference one) the table is for; only the resulting per-action
    classes are lifted, which is what installs the table's class boundaries
    into the carrier — a from-scratch build is a refinement point.  The
    classes partition packet space, so they are lifted together, as one
    partition (one refinement-forest walk on the atom carrier)."""
    entries: Dict[Action, int] = {}
    mgr = ctx.mgr
    remaining = ctx.universe.node
    for rule in sorted(rules, key=Rule.sort_key):
        if remaining == 0:
            break
        effective = mgr.apply_and(rule.match.node, remaining)
        if effective == 0:
            continue
        # remaining \ match == remaining \ (match ∩ remaining); the effective
        # region is the smaller operand and shares structure with remaining.
        remaining = mgr.apply_diff(remaining, effective)
        prior = entries.get(rule.action, 0)
        entries[rule.action] = mgr.apply_or(prior, effective)
    if remaining != 0:
        drop = Action.drop()
        entries[drop] = mgr.apply_or(entries.get(drop, 0), remaining)
    if carrier is None:
        carrier = ctx.carrier("bdd")
    keep = carrier.keep
    words = carrier.lift_partition([ctx.wrap(n) for n in entries.values()])
    return LecTable(
        ctx, carrier, [(keep(w), action) for w, action in zip(words, entries)]
    )


def _move(moves, old_action: Action, new_action: Action, piece) -> None:
    """Record that the word ``piece`` changes hands."""
    if old_action != new_action:  # same behaviour: no class boundary moves
        key = (old_action, new_action)
        prev = moves.get(key)
        moves[key] = piece if prev is None else prev | piece


def _rebuild_with_moves(
    table: LecTable, moves: Dict[Tuple[Action, Action], object]
) -> Tuple[LecTable, List[LecDelta]]:
    """New table (and deltas) from moving disjoint regions between actions.

    ``moves`` maps ``(old_action, new_action)`` to the word changing hands
    (see :func:`_move`); none means the same table.  Entry order is
    preserved — surviving actions keep their place, new ones append,
    emptied ones drop out — which keeps :meth:`LecTable.split` piece order,
    and therefore DVM wire bytes, deterministic.
    """
    if not moves:
        return table, []
    carrier = table.carrier
    word, keep = carrier.word, carrier.keep
    words = {action: word(handle) for handle, action in table._pairs}
    deltas: List[LecDelta] = []
    for (old_action, new_action), piece in moves.items():
        words[old_action] = words[old_action] & ~piece
        words[new_action] = words.get(new_action, carrier.empty) | piece
        deltas.append(LecDelta(keep(piece), old_action, new_action, carrier))
    pairs = [(keep(entry), action) for action, entry in words.items() if entry]
    return LecTable(table.ctx, carrier, pairs), deltas


def install_into_table(
    table: LecTable, rows: Sequence[RuleRow], position: int
) -> Tuple[LecTable, List[LecDelta]]:
    """Incremental LEC update for one rule install.

    ``rows`` is the post-install first-match order and ``rows[position]``
    the new rule's row, whose books this fills in.  The new rule's effective
    region is its match minus everything higher-priority rules win; that
    region is then taken from the lower rules (in first-match order) that
    owned it, which yields the deltas directly — no table-vs-table diff,
    and cost that scales with the touched region instead of the whole table.
    """
    carrier = table.carrier
    word, keep = carrier.word, carrier.keep
    row = rows[position]
    action = row.rule.action
    # Lift FIRST: it may refine the carrier, and every handle read below
    # is then current; nothing after this point refines again.
    effective = carrier.lift(row.rule.match)
    row.match = keep(effective)
    for higher in islice(rows, position):
        if not effective:
            break
        effective = effective & ~word(higher.effective)
    row.effective = keep(effective)
    if not effective:
        return table, []  # fully shadowed: behaviour unchanged
    moves: Dict[Tuple[Action, Action], object] = {}
    remaining = effective
    for lower in islice(rows, position + 1, None):
        if not remaining:
            break
        prev = word(lower.effective)
        piece = remaining & prev
        if not piece:
            continue
        remaining = remaining & ~piece
        lower.effective = keep(prev & ~piece)
        _move(moves, lower.rule.action, action, piece)
    if remaining:
        # Packets no rule owned fell through to the implicit drop class.
        _move(moves, Action.drop(), action, remaining)
    return _rebuild_with_moves(table, moves)


def remove_from_table(
    table: LecTable, rows: Sequence[RuleRow], position: int, removed: RuleRow
) -> Tuple[LecTable, List[LecDelta]]:
    """Incremental LEC update for one rule removal (inverse of
    :func:`install_into_table`): ``rows`` is the post-removal order and
    ``position`` where ``removed`` sat, so ``rows[position:]`` are the
    lower rules its effective region falls through to by first-match.
    Removal introduces no new boundaries (the match was lifted at install),
    so nothing here refines.
    """
    carrier = table.carrier
    word, keep = carrier.word, carrier.keep
    remaining = word(removed.effective)
    if not remaining:
        return table, []  # the rule never won any packets
    action = removed.rule.action
    moves: Dict[Tuple[Action, Action], object] = {}
    for lower in islice(rows, position, None):
        if not remaining:
            break
        piece = remaining & word(lower.match)
        if not piece:
            continue
        remaining = remaining & ~piece
        lower.effective = keep(word(lower.effective) | piece)
        _move(moves, action, lower.rule.action, piece)
    if remaining:
        _move(moves, action, Action.drop(), remaining)
    return _rebuild_with_moves(table, moves)


def diff_lec_tables(old: LecTable, new: LecTable) -> List[LecDelta]:
    """Regions whose action changed between two LEC tables.

    The result is a disjoint list of deltas; its union is exactly the packet
    space where old and new disagree.  This is the "withdrawn predicates /
    incoming counting results" payload of an internal rule-update event —
    the table-vs-table oracle for what the single-rule updates return.
    """
    bdd = new.ctx.carrier("bdd")
    old_entries = old.entries()
    deltas: List[LecDelta] = []
    for new_pred, new_action in new.entries():
        # Anything in new_pred that had a *different* action before changed.
        changed = new_pred - old.predicate_for(new_action)
        if changed.is_empty:
            continue
        for old_pred, old_action in old_entries:
            if old_action == new_action:
                continue
            piece = changed & old_pred
            if not piece.is_empty:
                deltas.append(LecDelta(piece, old_action, new_action, bdd))
    return deltas
