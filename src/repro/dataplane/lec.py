"""Local equivalence classes (LECs).

A LEC of a device is a maximal packet set whose members all receive the same
action at that device (§5.1).  The LEC builder turns a prioritized rule list
into the minimal such partition using first-match semantics, and computes
deltas between successive tables — the deltas are what the DVM protocol
propagates on rule updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bdd.manager import FALSE
from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.dataplane.action import Action
from repro.dataplane.rule import Rule

__all__ = [
    "LecTable",
    "LecDelta",
    "compute_lec_table",
    "diff_lec_tables",
    "install_into_table",
    "remove_from_table",
]


@dataclass(frozen=True)
class LecDelta:
    """A region of packet space whose action changed."""

    predicate: Predicate
    old_action: Action
    new_action: Action


class LecTable:
    """Minimal (packet_space, action) partition of the whole packet space.

    Internally a dict keyed by action; the predicates are pairwise disjoint
    and their union is the universe (packets matching no rule map to drop).
    """

    def __init__(self, ctx: PacketSpaceContext, entries: Dict[Action, Predicate]) -> None:
        self.ctx = ctx
        self._entries = {
            action: pred for action, pred in entries.items() if not pred.is_empty
        }
        # carrier -> [(handle, Action)]: the partition in a carrier's own
        # representation, built on demand (or seeded by an incremental
        # update) in entry order.
        self._handles: Dict[object, List[Tuple[object, Action]]] = {}

    # ------------------------------------------------------------------
    def actions(self) -> List[Action]:
        return list(self._entries)

    def entries(self) -> List[Tuple[Predicate, Action]]:
        return [(pred, action) for action, pred in self._entries.items()]

    def predicate_for(self, action: Action) -> Predicate:
        return self._entries.get(action, self.ctx.empty)

    def handles(self, carrier) -> List[Tuple[object, Action]]:
        """The LEC partition as ``(handle, Action)`` pairs of ``carrier``.

        Lifting a LEC table is what *installs* its class boundaries into
        the carrier (for the mask carrier: refines the shared atom index),
        so callers force this before they read the words they will split
        against it.  Cached per table (tables are immutable).
        """
        cached = self._handles.get(carrier)
        if cached is None:
            lift, keep = carrier.lift, carrier.keep
            cached = self._handles[carrier] = [
                (keep(lift(pred)), action)
                for action, pred in self._entries.items()
            ]
        return cached

    def split(self, carrier, region) -> List[Tuple[object, Action]]:
        """Split a word of ``carrier`` along LEC boundaries: disjoint
        ``(piece, action)`` pairs covering all of ``region``, in entry order
        (the order everything downstream — counting, announcing, wire bytes
        — inherits)."""
        pieces: List[Tuple[object, Action]] = []
        remaining = region
        word = carrier.word
        for handle, action in self.handles(carrier):
            if not remaining:
                break
            piece = remaining & word(handle)
            if piece:
                pieces.append((piece, action))
                remaining = remaining & ~piece
        if remaining:
            # Every packet is in some LEC (drop is explicit); reaching here
            # means the table was built incorrectly.
            pieces.append((remaining, Action.drop()))
        return pieces

    def action_of(self, pred: Predicate) -> List[Tuple[Predicate, Action]]:
        """:meth:`split` for callers that speak canonical predicates."""
        return self.split(self.ctx.carrier("bdd"), pred)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LecTable({len(self)} classes)"


def compute_lec_table(
    ctx: PacketSpaceContext, rules: Sequence[Rule]
) -> LecTable:
    """Build the minimal LEC partition from a prioritized rule list."""
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
    return LecTable(
        ctx, {action: ctx.wrap(node) for action, node in entries.items()}
    )


def _rebuild_with_moves(
    carrier,
    table: LecTable,
    moves: Dict[Tuple[Action, Action], object],
) -> Tuple[LecTable, List[LecDelta]]:
    """New table (and deltas) from moving disjoint regions between actions.

    ``moves`` maps ``(old_action, new_action)`` to the word changing hands.
    Each is lowered once — ROBDDs are canonical, so the delta predicates
    and the new table's entries are byte-identical whichever carrier
    computed the move.  Entry insertion order is preserved (appended
    actions go last), which keeps :meth:`LecTable.split` piece order — and
    therefore DVM wire bytes — deterministic.  The new table's view in
    ``carrier`` is seeded from the old one by the same moves, so an
    incremental update never re-lifts a whole table.
    """
    ctx = table.ctx
    mgr = ctx.mgr
    entries: Dict[Action, int] = {
        action: pred.node for action, pred in table._entries.items()
    }
    deltas: List[LecDelta] = []
    for (old_action, new_action), piece in moves.items():
        pred = carrier.lower(piece)
        entries[old_action] = mgr.apply_diff(entries[old_action], pred.node)
        entries[new_action] = mgr.apply_or(
            entries.get(new_action, FALSE), pred.node
        )
        deltas.append(LecDelta(pred, old_action, new_action))
    new_table = LecTable(
        ctx, {action: ctx.wrap(node) for action, node in entries.items()}
    )
    view = table._handles.get(carrier)
    if view is not None:
        word, keep = carrier.word, carrier.keep
        words = {action: word(handle) for handle, action in view}
        for (old_action, new_action), piece in moves.items():
            words[old_action] = words[old_action] & ~piece
            words[new_action] = words.get(new_action, carrier.empty) | piece
        new_table._handles[carrier] = [
            (keep(words[action]), action) for action in new_table._entries
        ]
    return new_table, deltas


def install_into_table(
    carrier,
    table: LecTable,
    matches: Dict[int, object],
    effectives: Dict[int, object],
    sorted_rules: Sequence[Rule],
    rule: Rule,
) -> Tuple[LecTable, List[LecDelta]]:
    """Incremental LEC update for one rule install.

    ``sorted_rules`` is the post-install first-match order (containing
    ``rule``); ``matches`` / ``effectives`` (both mutated in place) hold
    each rule's match and *effective region* — the packets it actually wins
    under first-match — as handles of ``carrier``.  The new rule's
    effective region is its match minus everything higher-priority rules
    win; that region is then taken from the lower rules (in first-match
    order) that owned it, which yields the deltas directly — no
    table-vs-table diff, and cost that scales with the touched region
    instead of the whole table.
    """
    word, keep = carrier.word, carrier.keep
    # Lift FIRST: it may refine the carrier, and every handle read below
    # is then current; nothing after this point refines again.
    effective = carrier.lift(rule.match)
    matches[rule.rule_id] = keep(effective)
    position = next(
        i for i, r in enumerate(sorted_rules) if r.rule_id == rule.rule_id
    )
    for higher in sorted_rules[:position]:
        if not effective:
            break
        prev = effectives.get(higher.rule_id)
        if prev is None:
            continue
        effective = effective & ~word(prev)
    effectives[rule.rule_id] = keep(effective)
    if not effective:
        return table, []  # fully shadowed: behaviour unchanged
    empty = carrier.empty
    moves: Dict[Tuple[Action, Action], object] = {}

    def take(piece, old_action: Action) -> None:
        if old_action == rule.action:
            return  # same behaviour: no class boundary moves
        key = (old_action, rule.action)
        moves[key] = moves.get(key, empty) | piece

    remaining = effective
    for lower in sorted_rules[position + 1 :]:
        if not remaining:
            break
        prev = effectives.get(lower.rule_id)
        if prev is None:
            continue
        prev_word = word(prev)
        piece = remaining & prev_word
        if not piece:
            continue
        remaining = remaining & ~piece
        effectives[lower.rule_id] = keep(prev_word & ~piece)
        take(piece, lower.action)
    if remaining:
        # Packets no rule owned fell through to the implicit drop class.
        take(remaining, Action.drop())
    if not moves:
        return table, []
    return _rebuild_with_moves(carrier, table, moves)


def remove_from_table(
    carrier,
    table: LecTable,
    matches: Dict[int, object],
    effectives: Dict[int, object],
    sorted_rules: Sequence[Rule],
    removed: Rule,
) -> Tuple[LecTable, List[LecDelta]]:
    """Incremental LEC update for one rule removal (inverse of
    :func:`install_into_table`); ``sorted_rules`` is the post-removal
    order.  The removed rule's effective region falls through to the
    remaining lower rules by first-match.  Removal introduces no new
    boundaries (the match was lifted at install), so nothing here refines.
    """
    word, keep = carrier.word, carrier.keep
    eff = effectives.pop(removed.rule_id, None)
    matches.pop(removed.rule_id, None)
    remaining = carrier.empty if eff is None else word(eff)
    if not remaining:
        return table, []  # the rule never won any packets
    removed_key = removed.sort_key()
    empty = carrier.empty
    moves: Dict[Tuple[Action, Action], object] = {}

    def give(piece, new_action: Action) -> None:
        if new_action == removed.action:
            return
        key = (removed.action, new_action)
        moves[key] = moves.get(key, empty) | piece

    for lower in sorted_rules:
        if lower.sort_key() < removed_key:
            continue  # higher priority: never matched these packets
        if not remaining:
            break
        match = matches.get(lower.rule_id)
        if match is None:
            continue
        piece = remaining & word(match)
        if not piece:
            continue
        remaining = remaining & ~piece
        prev = effectives.get(lower.rule_id)
        prev_word = empty if prev is None else word(prev)
        effectives[lower.rule_id] = keep(prev_word | piece)
        give(piece, lower.action)
    if remaining:
        give(remaining, Action.drop())
    if not moves:
        return table, []
    return _rebuild_with_moves(carrier, table, moves)


def diff_lec_tables(old: LecTable, new: LecTable) -> List[LecDelta]:
    """Regions whose action changed between two LEC tables.

    The result is a disjoint list of deltas; its union is exactly the packet
    space where old and new disagree.  This is the "withdrawn predicates /
    incoming counting results" payload of an internal rule-update event.
    """
    ctx = new.ctx
    deltas: List[LecDelta] = []
    for new_action, new_pred in new._entries.items():  # noqa: SLF001
        # Anything in new_pred that had a *different* action before changed.
        changed = new_pred - old.predicate_for(new_action)
        if changed.is_empty:
            continue
        for old_action, old_pred in old._entries.items():  # noqa: SLF001
            if old_action == new_action:
                continue
            piece = changed & old_pred
            if not piece.is_empty:
                deltas.append(LecDelta(piece, old_action, new_action))
    return deltas
