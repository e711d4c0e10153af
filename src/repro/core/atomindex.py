"""Dynamic atomic-predicate index: packet space as numbered disjoint atoms.

Yang & Lam's *atomic predicates* observation, as dynamized by APKeep
(NSDI'20): once packet space is partitioned into the coarsest classes no
installed predicate distinguishes, every predicate of interest is a *set of
atom ids* and all the algebra the DVM hot path performs — splitting CIB
regions along LEC boundaries, diffing withdrawn regions, unioning changed
regions — collapses from BDD apply-walks to integer-set operations.

Representation: an :class:`AtomSet` is a single arbitrary-precision ``int``
bitmask over a dense *slot* space, so ``& | - ^``, emptiness, ``covers`` and
``overlaps`` are one machine-word-vectorized int operation each and
equality/popcount are O(words).  Two id spaces coexist:

* **atom ids** are minted monotonically, never reused, and are what the
  wire format, extents and hash tokens speak — stable for an atom's
  lifetime (the parallel backend defines an atom to a peer once and
  references it by id forever);
* **slots** are dense bit positions assigned to leaves; a split retires the
  parent's slot into a *mask rewrite table* (``slot -> current leaf
  submask``) and :meth:`compact` recycles retired slots through a free
  list, keeping masks dense across arbitrarily long split/merge churn.

Stale masks resolve to current leaves in O(stale bits) via the rewrite
table — one AND against the stale-slot mask decides the (overwhelmingly
common) "already current" case, replacing the per-id ``_resolve`` walk of
the frozenset representation.

The index is *lazy and dynamic*: atoms are split only when a new predicate
(a LEC class, a transform image, an incoming DVM region) actually crosses an
existing atom boundary, and sibling atoms that no live :class:`AtomSet`
distinguishes anymore are merged back on :meth:`compact` (wired to the BDD
engine's GC sweeps — "merge on collect").

BDDs remain the source of truth at the boundaries:

* every atom's *extent* is a :class:`~repro.bdd.predicate.Predicate` (a GC
  root, so engine sweeps remap it in place),
* refinement (:meth:`AtomIndex.atomize`) and transform images/preimages are
  computed in BDD land,
* :meth:`AtomIndex.to_predicate` converts an :class:`AtomSet` back to the
  *canonical* BDD of its denotation — because ROBDDs are canonical, a
  counting result computed via atoms serializes to byte-identical DVM wire
  bytes as one computed via raw predicates.

Splitting never changes what an :class:`AtomSet` denotes: when atom ``a``
splits into ``a₁`` and ``a₂`` the children partition the parent, so a set
holding ``a``'s slot still denotes the same packets and is renormalized to
leaf slots lazily.  Hashes survive both splits and merges: every atom
carries a 64-bit token with the invariant ``token(a) == token(a₁) ^
token(a₂)``, so the XOR of a set's member tokens is a denotation-stable
O(1) hash.
"""

from __future__ import annotations

import weakref
from heapq import heappop, heappush
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bdd.manager import FALSE
from repro.bdd.predicate import PacketSpaceContext, Predicate

__all__ = ["AtomSet", "AtomIndex", "MaskCarrier"]

_ROOT = 0
_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    """SplitMix64 finalizer: a deterministic 64-bit token per atom id."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class AtomSet:
    """An immutable packet set represented as a packed bitset of atoms.

    Supports the same algebra surface as :class:`Predicate` (``& | - ^``,
    ``is_empty``, ``covers``, ``overlaps``, equality, hashing) but every
    operation is a single int op on the mask — bulk machine-word work with
    no per-element iteration and no BDD-node allocation.

    The mask is maintained by the owning index: splits may rewrite it to
    finer slots (same denotation) and :meth:`AtomIndex.compact` may rewrite
    it to coarser ones; neither changes equality or the cached hash, which
    is the XOR of denotation-stable atom tokens.
    """

    __slots__ = ("index", "_mask", "_version", "_hash", "__weakref__")

    def __init__(self, index: "AtomIndex", mask: int, version: int) -> None:
        self.index = index
        self._mask = mask
        self._version = version
        self._hash: Optional[int] = None
        index._track(self)

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def mask(self) -> int:
        """Current *leaf-slot* bitmask (renormalized lazily after splits).

        Version fast path: when no split happened since this set last
        normalized, the stored mask is returned as-is — no resolution walk
        of any kind (the regression the frozenset representation paid on
        every coerce)."""
        index = self.index
        if self._version != index.version:
            self._mask = index._resolve_mask(self._mask)
            self._version = index.version
        return self._mask

    def ids(self) -> FrozenSet[int]:
        """Current *leaf* atom ids (renormalized lazily after splits)."""
        return self.index._ids_of_mask(self.mask())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _coerce(self, other: "AtomSet") -> int:
        if not isinstance(other, AtomSet):
            raise TypeError(f"cannot combine AtomSet with {type(other).__name__}")
        if other.index is not self.index:
            raise ValueError("atom sets belong to different indexes")
        return other.mask()

    # Identity fast paths: hot-path maps intersect/diff mostly-nested
    # regions, where the result IS one of the operands — returning it
    # skips an AtomSet allocation (and its liveness-tracking weakref).
    def __and__(self, other: "AtomSet") -> "AtomSet":
        b = self._coerce(other)
        a = self.mask()
        c = a & b
        if not c:
            return self.index._empty
        if c == a:
            return self
        if c == b:
            return other
        return self.index._make(c)

    def __or__(self, other: "AtomSet") -> "AtomSet":
        b = self._coerce(other)
        a = self.mask()
        c = a | b
        if c == a:
            return self
        if c == b:
            return other
        return self.index._make(c)

    def __sub__(self, other: "AtomSet") -> "AtomSet":
        b = self._coerce(other)
        a = self.mask()
        c = a & ~b
        if c == a:
            return self
        return self.index._make(c)

    def __xor__(self, other: "AtomSet") -> "AtomSet":
        b = self._coerce(other)
        return self.index._make(self.mask() ^ b)

    # ------------------------------------------------------------------
    # Tests
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        # A stale nonzero mask never denotes empty (splits preserve
        # denotation), so no renormalization is needed here.
        return not self._mask

    @property
    def is_universe(self) -> bool:
        return self.mask() == self.index._leaf_mask

    def overlaps(self, other: "AtomSet") -> bool:
        b = self._coerce(other)
        return bool(self.mask() & b)

    def covers(self, other: "AtomSet") -> bool:
        """True iff ``other`` is a subset of this set."""
        b = self._coerce(other)
        return not (b & ~self.mask())

    def __bool__(self) -> bool:
        return bool(self._mask)

    def __len__(self) -> int:
        return self.mask().bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomSet):
            return NotImplemented
        if self.index is not other.index:
            return False
        return self.mask() == other.mask()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            index = self.index
            token = index._token
            slot_id = index._slot_id
            acc = 0
            m = self._mask
            while m:
                low = m & -m
                acc ^= token[slot_id[low.bit_length() - 1]]
                m ^= low
            # The XOR is invariant under split/merge, so it never needs
            # recomputing even after renormalization.
            h = self._hash = acc
        return h

    # ------------------------------------------------------------------
    # Boundary conversion
    # ------------------------------------------------------------------
    def to_predicate(self) -> Predicate:
        return self.index.to_predicate(self)

    def size(self) -> int:
        """BDD node count of the canonical predicate (metrics parity)."""
        return self.to_predicate().size()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomSet({self._mask.bit_count()} atoms)"


class AtomIndex:
    """A network-wide dynamic partition of packet space into atoms.

    Atoms form a binary refinement forest rooted at the universe atom:
    leaves are the current partition, internal atoms record past splits so
    stale :class:`AtomSet` masks resolve to their leaf descendants through
    the slot rewrite table.  One index serves one
    :class:`PacketSpaceContext` (create via
    :meth:`PacketSpaceContext.atom_index`), shared by every verifier, LEC
    table and CIB on that context.
    """

    def __init__(self, ctx: PacketSpaceContext) -> None:
        self.ctx = ctx
        #: Bumped on every split; AtomSets renormalize when it moves.
        self.version = 0
        self._extent: Dict[int, Predicate] = {_ROOT: ctx.universe}
        self._children: Dict[int, Tuple[int, int]] = {}
        self._token: Dict[int, int] = {_ROOT: _mix(_ROOT)}
        self._next_id = 1
        self._leaf_count = 1
        # Slot layer: dense bit positions for the mask representation.
        # atom id <-> slot; retired (split-parent) slots keep their mapping
        # until compact() recycles them through the free list.
        self._slot_of: Dict[int, int] = {_ROOT: 0}
        self._slot_id: Dict[int, int] = {0: _ROOT}
        self._num_slots = 1
        self._free_slots: List[int] = []  # heap: lowest slot reused first
        #: Bitmask of the current leaf slots (the partition).
        self._leaf_mask = 1
        #: Bitmask of retired slots awaiting compact-time recycling.
        self._stale_mask = 0
        # Mask rewrite table: retired slot -> bitmask of its *current* leaf
        # descendants.  Maintained eagerly at split time (ancestors whose
        # entry contains the splitting slot are patched through the reverse
        # index below), so resolving a stale mask is pure table lookups —
        # no forest walk.
        self._rewrite: Dict[int, int] = {}
        # leaf slot -> retired slots whose rewrite mask contains it.
        self._rewrite_users: Dict[int, Set[int]] = {}
        # node id -> slot mask whose extents union to that BDD function.
        # Cached masks may since have split; _resolve_mask makes them
        # current.  Raw node ids go stale on engine GC: the remap hook
        # rekeys the live entries (and runs compact — "merge on collect").
        self._atomize_cache: Dict[int, int] = {}
        # leaf-slot mask -> canonical Predicate of the union.  Values are
        # GC roots (remapped in place by sweeps); keys go stale only on
        # compact, which purges or clears the table before recycling slots
        # (a recycled slot must never collide with an old mask key).
        self._pred_cache: Dict[int, Predicate] = {}
        # Liveness registry for compact(): a plain list of weakrefs, pruned
        # amortized-O(1) in _track (a WeakSet's per-add callback machinery
        # is ~10x the cost of ref+append on this hot path).
        self._live: List["weakref.ref[AtomSet]"] = []
        self._prune_at = 4096
        self._empty = AtomSet(self, 0, 0)
        # Stats (exported via profile()).
        self.atomize_calls = 0
        self.atomize_hits = 0
        self.splits = 0
        self.merges = 0
        self.compactions = 0
        self.resolves = 0
        # Splits counter at the last merge scan: compact() is a no-op
        # unless the forest refined since, so steady-state churn (no new
        # boundaries) pays nothing per engine sweep.
        self._splits_at_compact = 0
        ctx.mgr.register_remap_hook(self._on_engine_gc)

    # ------------------------------------------------------------------
    # AtomSet constructors
    # ------------------------------------------------------------------
    def _track(self, aset: AtomSet) -> None:
        live = self._live
        live.append(weakref.ref(aset))
        if len(live) >= self._prune_at:
            self._live = live = [ref for ref in live if ref() is not None]
            self._prune_at = max(4096, 2 * len(live))

    def _make(self, mask: int) -> AtomSet:
        if not mask:
            return self._empty
        return AtomSet(self, mask, self.version)

    @property
    def empty(self) -> AtomSet:
        return self._empty

    def from_mask(self, mask: int) -> AtomSet:
        """AtomSet over a raw leaf-slot mask the caller read from live sets.

        The mask must cover current leaf slots only (reads of tracked sets
        always do); this is :class:`MaskCarrier`'s ``keep`` — the verifier
        and LEC text work on raw masks and wrap only what they store."""
        return self._make(mask)

    def universe(self) -> AtomSet:
        return self._make(self._leaf_mask)

    def union(self, asets: Iterable[AtomSet]) -> AtomSet:
        mask = 0
        for aset in asets:
            mask |= aset.mask()
        return self._make(mask)

    # ------------------------------------------------------------------
    # Slot bookkeeping
    # ------------------------------------------------------------------
    def _alloc_slot(self, aid: int) -> int:
        if self._free_slots:
            slot = heappop(self._free_slots)
        else:
            slot = self._num_slots
            self._num_slots += 1
        self._slot_of[aid] = slot
        self._slot_id[slot] = aid
        return slot

    def _ids_of_mask(self, mask: int) -> FrozenSet[int]:
        slot_id = self._slot_id
        out = []
        while mask:
            low = mask & -mask
            out.append(slot_id[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def mask_to_sorted_ids(self, mask: int) -> List[int]:
        """Atom ids of a mask's slots in ascending id order (wire order)."""
        slot_id = self._slot_id
        out = []
        while mask:
            low = mask & -mask
            out.append(slot_id[low.bit_length() - 1])
            mask ^= low
        out.sort()
        return out

    def _resolve_mask(self, mask: int) -> int:
        """Rewrite retired slots in ``mask`` to their current leaf slots.

        One AND decides the common already-current case; otherwise each
        stale bit is replaced by its rewrite-table mask — O(stale bits),
        never a forest walk."""
        stale = mask & self._stale_mask
        if not stale:
            return mask
        self.resolves += 1
        out = mask & ~stale
        rewrite = self._rewrite
        while stale:
            low = stale & -stale
            out |= rewrite[low.bit_length() - 1]
            stale ^= low
        return out

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def _subtree_leaf_mask(self, aid: int) -> int:
        """Leaf-slot mask of the whole subtree under ``aid``.

        A live leaf contributes its bit; a retired atom contributes its
        rewrite mask; an atom whose slot was recycled by an earlier compact
        falls back to walking its children."""
        out = 0
        stack = [aid]
        slot_of = self._slot_of
        leaf_mask = self._leaf_mask
        rewrite = self._rewrite
        children = self._children
        while stack:
            a = stack.pop()
            slot = slot_of.get(a)
            if slot is not None:
                bit = 1 << slot
                if leaf_mask & bit:
                    out |= bit
                    continue
                out |= rewrite[slot]
                continue
            stack.extend(children[a])
        return out

    def _split(self, aid: int, inside_node: int) -> int:
        """Split leaf ``aid`` along a BDD node; return the inside child."""
        ctx = self.ctx
        extent = self._extent[aid]
        outside_node = ctx.mgr.apply_diff(extent.node, inside_node)
        c1 = self._next_id
        c2 = c1 + 1
        self._next_id = c2 + 1
        self._extent[c1] = ctx.wrap(inside_node)
        self._extent[c2] = ctx.wrap(outside_node)
        self._children[aid] = (c1, c2)
        t1 = _mix(c1)
        self._token[c1] = t1
        # token(parent) == token(c1) ^ token(c2): XOR-hash stability.
        self._token[c2] = self._token[aid] ^ t1
        # Slot layer: retire the parent slot into the rewrite table and
        # patch every ancestor entry that contained it, so stale-mask
        # resolution stays a flat table lookup at any refinement depth.
        pslot = self._slot_of[aid]
        pbit = 1 << pslot
        s1 = self._alloc_slot(c1)
        s2 = self._alloc_slot(c2)
        kid_mask = (1 << s1) | (1 << s2)
        self._leaf_mask = (self._leaf_mask & ~pbit) | kid_mask
        self._stale_mask |= pbit
        users = self._rewrite_users.pop(pslot, None)
        rewrite = self._rewrite
        rewrite[pslot] = kid_mask
        referrers = {pslot}
        if users:
            for r in users:
                rewrite[r] = (rewrite[r] & ~pbit) | kid_mask
            referrers |= users
        self._rewrite_users[s1] = referrers
        self._rewrite_users[s2] = set(referrers)
        self._leaf_count += 1
        self.splits += 1
        self.version += 1
        return c1

    def atomize(self, pred: Predicate) -> AtomSet:
        """The AtomSet denoting exactly ``pred``, refining atoms as needed."""
        return self._make(self.atomize_mask(pred))

    def atomize_mask(self, pred: Predicate) -> int:
        """The leaf-slot mask denoting exactly ``pred``.

        The cheap entry point for callers that only *test* a region
        (overlap filters, the fused kernels) and would otherwise allocate —
        and liveness-track — a throwaway AtomSet per query.

        Walks the refinement forest, pruning whole subtrees that are
        disjoint from or contained in ``pred``, and splits only the leaves
        that actually straddle the new boundary.
        """
        self.atomize_calls += 1
        node = pred.node
        if node == FALSE:
            return 0
        cached = self._atomize_cache.get(node)
        if cached is not None:
            self.atomize_hits += 1
            resolved = self._resolve_mask(cached)
            if resolved != cached:
                self._atomize_cache[node] = resolved
            return resolved
        mgr = self.ctx.mgr
        apply_and = mgr.apply_and
        extent = self._extent
        children = self._children
        out = 0
        stack = [_ROOT]
        while stack:
            aid = stack.pop()
            ext_node = extent[aid].node
            inter = apply_and(ext_node, node)
            if inter == FALSE:
                continue
            if inter == ext_node:
                # Entirely inside: take every leaf below without BDD work.
                out |= self._subtree_leaf_mask(aid)
                continue
            kids = children.get(aid)
            if kids is not None:
                stack.extend(kids)
            else:
                c1 = self._split(aid, inter)
                out |= 1 << self._slot_of[c1]
        self._atomize_cache[node] = out
        return out

    def atomize_partition(self, preds: Sequence[Predicate]) -> List[int]:
        """Leaf-slot masks of predicates that partition the universe.

        The masks :meth:`atomize_mask` gives each predicate in turn (the
        same common refinement, so the same atom count; only the split
        order and the fresh ids differ), from one forest walk instead of
        one per predicate.  The predicates are disjoint and cover every
        packet, so one witness of a node's extent (``pick_one``, with
        unmentioned variables False) lies in exactly one of them, found by
        evaluating each at that point — no allocation.  If the extent
        implies that predicate, the whole subtree is its own; otherwise the
        walk descends, and a straddling leaf is split along it, its outside
        half pushed back to be placed in turn.  So every ``apply_and`` of
        the walk is a split.
        """
        cache = self._atomize_cache
        if all(pred.node in cache for pred in preds):
            return [self.atomize_mask(pred) for pred in preds]
        self.atomize_calls += len(preds)
        mgr = self.ctx.mgr
        evaluate, implies, apply_and = mgr.evaluate, mgr.implies, mgr.apply_and
        extent = self._extent
        children = self._children
        nodes = [pred.node for pred in preds]
        out = [0] * len(nodes)
        stack = [_ROOT]
        while stack:
            aid = stack.pop()
            ext_node = extent[aid].node
            point = mgr.pick_one(ext_node)
            i = next(i for i, cls in enumerate(nodes) if evaluate(cls, point))
            if implies(ext_node, nodes[i]):
                out[i] |= self._subtree_leaf_mask(aid)
                continue
            kids = children.get(aid)
            if kids is not None:
                stack.extend(kids)
            else:
                c1 = self._split(aid, apply_and(ext_node, nodes[i]))
                out[i] |= 1 << self._slot_of[c1]
                stack.append(children[aid][1])
        for node, mask in zip(nodes, out):
            cache[node] = mask
        return out

    # ------------------------------------------------------------------
    # Boundary conversions
    # ------------------------------------------------------------------
    def to_predicate(self, aset: AtomSet) -> Predicate:
        """Canonical BDD predicate of an AtomSet's denotation."""
        return self.mask_to_predicate(aset.mask())

    def mask_to_predicate(self, mask: int) -> Predicate:
        """Canonical BDD predicate of a leaf-slot mask's denotation.

        Memoized by mask; the reverse direction is seeded into the atomize
        cache so a round trip (convert, ship, re-atomize) costs one dict
        hit — which is what keeps serial DVM message handling cheap.  The
        OR chain runs in ascending atom-id order, so the (canonical) result
        is built the same way regardless of slot assignment.
        """
        if not mask:
            return self.ctx.empty
        pred = self._pred_cache.get(mask)
        if pred is None:
            mgr = self.ctx.mgr
            extent = self._extent
            node = FALSE
            for aid in self.mask_to_sorted_ids(mask):
                node = mgr.apply_or(node, extent[aid].node)
            pred = self.ctx.wrap(node)
            self._pred_cache[mask] = pred
        # Seed the reverse direction (outside the miss branch: engine GC
        # clears the atomize cache while this table survives, so round
        # trips keep repairing it) — convert, ship, re-atomize is one hit.
        self._atomize_cache.setdefault(pred.node, mask)
        return pred

    # ------------------------------------------------------------------
    # Merging ("collect")
    # ------------------------------------------------------------------
    def _on_engine_gc(self, remap: Dict[int, int]) -> None:
        """Engine sweep hook: rekey the atomize cache, then merge atoms.

        The hook runs after root holders are remapped, so the extent and
        pred-cache Predicates already carry post-sweep ids; the atomize
        cache is keyed by raw node id and is rekeyed through ``remap``
        (entries for dead predicates drop out).  Keeping the cache alive
        across sweeps is what makes GC nearly free in atoms mode — the
        hot path never re-walks the refinement forest after a collection.
        """
        self._atomize_cache = {
            remap[node]: mask
            for node, mask in self._atomize_cache.items()
            if node in remap
        }
        self.compact()

    def compact(self) -> int:
        """Merge sibling leaves no live AtomSet distinguishes; return the
        number of merges performed.

        Runs at engine GC safe points: every live AtomSet is renormalized
        to leaves, retired slots are recycled into the free list (after
        resolving cached atomize masks and purging stale pred-cache keys,
        so a recycled slot can never collide with an old mask), and
        undistinguished sibling pairs collapse into their parent (rewriting
        the live masks in place — denotation and XOR hash are both
        preserved by the token invariant).  Merged-away extents are
        released so the *next* engine sweep reclaims their BDD nodes.

        Skipped entirely (no live-set scan) when no split happened since
        the previous scan: merges only become possible once a boundary has
        been introduced, so the forest is already as coarse as that scan
        left it and steady-state churn pays nothing here.
        """
        if self.splits == self._splits_at_compact:
            return 0
        self._splits_at_compact = self.splits
        alive = []
        refs = []
        for ref in self._live:
            aset = ref()
            if aset is None:
                continue
            refs.append(ref)
            alive.append(aset)
        self._live = refs  # prune dead refs while we're here
        live = [aset for aset in alive if aset is not self._empty]
        for aset in live:
            aset.mask()  # renormalize against the current version
        # Recycle every retired slot: live masks are current now, cached
        # atomize masks are resolved through the still-valid rewrite table,
        # and pred-cache keys containing a retired slot are purged (their
        # slots are about to be reassigned).
        stale = self._stale_mask
        if stale:
            self._atomize_cache = {
                node: self._resolve_mask(mask)
                for node, mask in self._atomize_cache.items()
            }
            self._pred_cache = {
                mask: pred
                for mask, pred in self._pred_cache.items()
                if not (mask & stale)
            }
            slot_id = self._slot_id
            slot_of = self._slot_of
            while stale:
                low = stale & -stale
                slot = low.bit_length() - 1
                aid = slot_id.pop(slot)
                del slot_of[aid]
                heappush(self._free_slots, slot)
                stale ^= low
            self._stale_mask = 0
            self._rewrite.clear()
            self._rewrite_users.clear()
        merged_total = 0
        while True:
            # slot -> set of live-set indices whose mask contains it.
            membership: Dict[int, Set[int]] = {}
            for i, aset in enumerate(live):
                m = aset._mask
                while m:
                    low = m & -m
                    membership.setdefault(low.bit_length() - 1, set()).add(i)
                    m ^= low
            merged_this_round = 0
            for parent, (c1, c2) in list(self._children.items()):
                if c1 in self._children or c2 in self._children:
                    continue  # only merge leaf pairs
                s1 = self._slot_of[c1]
                s2 = self._slot_of[c2]
                if membership.get(s1, set()) != membership.get(s2, set()):
                    continue
                pair = (1 << s1) | (1 << s2)
                # Revive the parent at a fresh slot; its extent, id and
                # token were kept (splits mint ids, merges restore them).
                pslot = self._alloc_slot(parent)
                pbit = 1 << pslot
                for aset in live:
                    m = aset._mask
                    if m & pair:
                        aset._mask = (m & ~pair) | pbit
                self._leaf_mask = (self._leaf_mask & ~pair) | pbit
                del self._children[parent]
                del self._extent[c1]
                del self._extent[c2]
                del self._token[c1]
                del self._token[c2]
                del self._slot_of[c1]
                del self._slot_of[c2]
                del self._slot_id[s1]
                del self._slot_id[s2]
                heappush(self._free_slots, s1)
                heappush(self._free_slots, s2)
                self._leaf_count -= 1
                self.merges += 1
                merged_this_round += 1
            if not merged_this_round:
                break
            merged_total += merged_this_round
        if merged_total:
            self._atomize_cache.clear()
            self._pred_cache.clear()
            self.version += 1
            # The bumped version would send every set through the resolver;
            # they are already at leaves, so pin their versions forward.
            for aset in live:
                aset._version = self.version
            self._empty._version = self.version
        self.compactions += 1
        return merged_total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_atoms(self) -> int:
        return self._leaf_count

    def extent(self, aid: int) -> Predicate:
        """The packets atom ``aid`` denotes.

        Stable for the id's lifetime: splits mint fresh ids instead of
        mutating extents, and a merge revives the parent id with its
        original extent — which is what lets the parallel backend define an
        atom to a peer once and reference it by id forever after.
        """
        return self._extent[aid]

    def profile(self) -> Dict[str, int]:
        return {
            "atoms": self._leaf_count,
            "splits": self.splits,
            "merges": self.merges,
            "compactions": self.compactions,
            "atomize_calls": self.atomize_calls,
            "atomize_hits": self.atomize_hits,
            "pred_cache": len(self._pred_cache),
            "slots": self._num_slots,
            "resolves": self.resolves,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomIndex({self._leaf_count} atoms, v{self.version})"


class MaskCarrier:
    """Production region carrier: a word is a packed leaf-slot ``int`` mask.

    Words are combined inline with ``&``, ``|``, ``& ~`` and truthiness; the
    carrier supplies the representation-specific rest (same interface as
    :class:`~repro.bdd.predicate.BddCarrier`):

    * ``lift`` / ``lower`` cross the wire/verdict boundary (canonical
      :class:`Predicate` ↔ word); ``lift_partition`` lifts a list of
      predicates that partition the universe (a LEC table's classes) in
      one forest walk;
    * ``resolve`` renormalizes a word after anything that may have refined
      the forest (``lift``, ``image``, ``preimage``) — stale and current
      words must never meet under ``&`` or ``& ~``;
    * ``keep`` / ``word`` wrap a word into a tracked :class:`AtomSet` handle
      and read it back: raw words never outlive a handler, anything stored
      is a handle so :meth:`AtomIndex.compact` sees (and preserves) the
      boundaries it distinguishes;
    * ``image`` / ``preimage`` push a word through a header transform (a
      BDD-land round trip; the result may cross atom boundaries, which
      ``lift`` refines).
    """

    empty = 0
    word = staticmethod(AtomSet.mask)

    def __init__(self, index: AtomIndex) -> None:
        self.lift = index.atomize_mask
        self.lift_partition = index.atomize_partition
        self.lower = index.mask_to_predicate
        self.resolve = index._resolve_mask
        self.keep = index.from_mask

    def image(self, transform, word: int) -> int:
        return self.lift(transform.apply(self.lower(self.resolve(word))))

    def preimage(self, transform, word: int) -> int:
        return self.lift(transform.preimage(self.lower(self.resolve(word))))
