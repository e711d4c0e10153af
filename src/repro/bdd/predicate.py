"""User-facing packet-set predicates.

A :class:`Predicate` bundles a BDD node with its manager and header layout so
that packet-set algebra reads naturally::

    space = ctx.prefix("dst_ip", "10.0.0.0", 23)
    web = space & ctx.value("dst_port", 80)
    rest = space - web

Tulkun stores LEC tables and CIB entries as predicates and relies on their
canonical form: two predicates are the same packet set iff their node ids are
equal (§5.1 "We choose to encode packet sets as predicates using BDD").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bdd.fields import HeaderLayout
from repro.bdd.manager import FALSE, TRUE, BddManager

__all__ = ["Predicate", "PacketSpaceContext", "BddCarrier"]


class Predicate:
    """An immutable packet set backed by a canonical BDD node.

    Every predicate registers itself as a garbage-collection root with its
    manager: ``BddManager.collect()`` keeps the nodes reachable from live
    predicates and rewrites their ``node`` ids in place.  Raw node ids held
    outside a Predicate are therefore only valid between collections.
    """

    __slots__ = ("ctx", "node", "__weakref__")

    def __init__(self, ctx: "PacketSpaceContext", node: int) -> None:
        self.ctx = ctx
        self.node = node
        ctx.mgr.register_root(self)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _coerce(self, other: "Predicate") -> int:
        if other.ctx is not self.ctx:
            raise ValueError("predicates belong to different contexts")
        return other.node

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.ctx, self.ctx.mgr.apply_and(self.node, self._coerce(other)))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.ctx, self.ctx.mgr.apply_or(self.node, self._coerce(other)))

    def __sub__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.ctx, self.ctx.mgr.apply_diff(self.node, self._coerce(other)))

    def __invert__(self) -> "Predicate":
        return Predicate(self.ctx, self.ctx.mgr.apply_not(self.node))

    def __xor__(self, other: "Predicate") -> "Predicate":
        return Predicate(self.ctx, self.ctx.mgr.apply_xor(self.node, self._coerce(other)))

    # ------------------------------------------------------------------
    # Tests
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.node == FALSE

    @property
    def is_universe(self) -> bool:
        return self.node == TRUE

    def overlaps(self, other: "Predicate") -> bool:
        return self.ctx.mgr.overlaps(self.node, self._coerce(other))

    def covers(self, other: "Predicate") -> bool:
        """True iff ``other`` is a subset of this predicate."""
        return self.ctx.mgr.implies(self._coerce(other), self.node)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.ctx is other.ctx and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.node))

    def __bool__(self) -> bool:
        return self.node != FALSE

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of concrete packets in the set."""
        return self.ctx.mgr.count(self.node)

    def size(self) -> int:
        """Number of BDD nodes (a proxy for memory / message size)."""
        return self.ctx.mgr.size(self.node)

    def sample(self) -> Optional[Dict[str, int]]:
        """One concrete packet from the set, or ``None`` if empty."""
        return self.ctx.layout.concrete_packet(self.ctx.mgr, self.node)

    def cubes(self) -> Iterator[Dict[int, bool]]:
        """Disjoint cubes covering the set (low-level; mostly for tests)."""
        return self.ctx.mgr.iter_cubes(self.node)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_empty:
            return "Predicate(∅)"
        if self.is_universe:
            return "Predicate(*)"
        return f"Predicate(node={self.node}, packets={self.count()})"


def _same(word):
    return word


class BddCarrier:
    """Reference region carrier: a word *is* a canonical :class:`Predicate`.

    The verifier, the incremental LEC maintenance and :class:`PredMap` are
    written once over *words* combined with ``&``, ``|``, ``& ~`` and
    truthiness; a carrier supplies everything else (see DESIGN.md, "One
    region algebra").  Here every conversion is the identity — this is the
    oracle the parity suites run the same text on, the production carrier
    being :class:`~repro.core.atomindex.MaskCarrier`.
    """

    lift = lower = resolve = keep = word = staticmethod(_same)
    lift_partition = staticmethod(list)

    def __init__(self, ctx: "PacketSpaceContext") -> None:
        self.empty = ctx.empty

    @staticmethod
    def image(transform, word: Predicate) -> Predicate:
        return transform.apply(word)

    @staticmethod
    def preimage(transform, word: Predicate) -> Predicate:
        return transform.preimage(word)


class PacketSpaceContext:
    """Factory and shared state for predicates over one header layout.

    A single context is shared by the planner, all simulated devices, and all
    baselines in one experiment so that predicate equality stays meaningful.
    """

    def __init__(self, layout: Optional[HeaderLayout] = None) -> None:
        self.layout = layout or HeaderLayout.default()
        self.mgr: BddManager = self.layout.new_manager()
        self._false = Predicate(self, FALSE)
        self._true = Predicate(self, TRUE)
        self._atom_index = None
        self._carriers: Dict[str, object] = {}

    def carrier(self, predicate_index: str):
        """The region carrier a ``predicate_index`` value names.

        The one place a representation is chosen: ``"atoms"`` is the
        production carrier (packed ``int`` masks over the shared atom
        index), ``"bdd"`` the reference carrier the parity suites compare
        it against.  One carrier per mode per context, so planes, LEC tables
        and verifiers that share a context share handles.
        """
        carrier = self._carriers.get(predicate_index)
        if carrier is None:
            if predicate_index == "atoms":
                from repro.core.atomindex import MaskCarrier

                carrier = MaskCarrier(self.atom_index())
            elif predicate_index == "bdd":
                carrier = BddCarrier(self)
            else:
                raise ValueError(
                    f"unknown predicate index {predicate_index!r} "
                    "(expected 'atoms' or 'bdd')"
                )
            self._carriers[predicate_index] = carrier
        return carrier

    def atom_index(self):
        """The shared dynamic atom index over this packet space.

        Created lazily (the BDD-only code paths never pay for it) and shared
        by every verifier/LEC table on this context so atom ids are
        comparable network-wide.
        """
        if self._atom_index is None:
            from repro.core.atomindex import AtomIndex

            self._atom_index = AtomIndex(self)
        return self._atom_index

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @property
    def empty(self) -> Predicate:
        return self._false

    @property
    def universe(self) -> Predicate:
        return self._true

    def wrap(self, node: int) -> Predicate:
        """Wrap a raw BDD node id produced by lower-level code."""
        return Predicate(self, node)

    def value(self, field: str, value: int) -> Predicate:
        return Predicate(self, self.layout.value(self.mgr, field, value))

    def not_value(self, field: str, value: int) -> Predicate:
        return Predicate(self, self.layout.not_value(self.mgr, field, value))

    def prefix(self, field: str, base, prefix_len: int) -> Predicate:
        return Predicate(self, self.layout.prefix(self.mgr, field, base, prefix_len))

    def ip_prefix(self, cidr: str, field: str = "dst_ip") -> Predicate:
        """Parse ``"10.0.0.0/23"`` into a destination-prefix predicate."""
        if "/" in cidr:
            base, _, length = cidr.partition("/")
            return self.prefix(field, base, int(length))
        return self.prefix(field, cidr, 32)

    def range_(self, field: str, lo: int, hi: int) -> Predicate:
        return Predicate(self, self.layout.range_(self.mgr, field, lo, hi))

    def packet(self, **fields: int) -> Predicate:
        """Predicate for one fully specified packet, e.g.
        ``ctx.packet(dst_ip=0x0A000001, dst_port=80)``."""
        return Predicate(self, self.layout.packet_to_node(self.mgr, fields))

    def union(self, predicates: Iterable[Predicate]) -> Predicate:
        node = FALSE
        for pred in predicates:
            node = self.mgr.apply_or(node, self._coerce(pred))
        return Predicate(self, node)

    def intersection(self, predicates: Iterable[Predicate]) -> Predicate:
        node = TRUE
        for pred in predicates:
            node = self.mgr.apply_and(node, self._coerce(pred))
        return Predicate(self, node)

    def _coerce(self, pred: Predicate) -> int:
        if pred.ctx is not self:
            raise ValueError("predicate belongs to a different context")
        return pred.node

    # ------------------------------------------------------------------
    # Partition helpers used by LEC maintenance
    # ------------------------------------------------------------------
    def refine(
        self, partition: List[Predicate], splitter: Predicate
    ) -> List[Predicate]:
        """Refine a disjoint partition by a splitter predicate.

        Every block is split into its intersection with and difference from
        ``splitter``; empty pieces are dropped.  This is the primitive used to
        maintain a minimal set of equivalence classes.
        """
        refined: List[Predicate] = []
        for block in partition:
            inside = block & splitter
            outside = block - splitter
            if not inside.is_empty:
                refined.append(inside)
            if not outside.is_empty:
                refined.append(outside)
        return refined

    def stats(self) -> Dict[str, int]:
        """Manager statistics, used by the overhead benchmarks."""
        return {
            "num_vars": self.mgr.num_vars,
            "nodes": self.mgr.node_count(),
            "live_nodes": self.mgr.live_node_count(),
        }
