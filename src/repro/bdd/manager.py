"""Hash-consed reduced ordered binary decision diagrams (ROBDDs).

This is the predicate engine underneath every packet-set operation in the
reproduction, standing in for the JDD library used by the paper's prototype
(§8).  Packet sets are encoded as boolean functions over header bits and
manipulated with logical operations, which is exactly how Tulkun's on-device
verifiers intersect, union and complement LECs and CIB predicates.

Implementation notes
--------------------
* Nodes are identified by small integers.  ``0`` is the constant FALSE and
  ``1`` the constant TRUE.  Every other node is a triple
  ``(var, low, high)`` stored in parallel lists; the *unique table* maps the
  triple back to its id so structurally equal nodes are shared.
* The hot boolean operations (AND, OR, DIFF, XOR) are *specialized apply
  kernels*: each has its own terminal shortcuts and its own operation cache
  (commutativity-normalized for AND/OR/XOR so ``f op g`` and ``g op f``
  share one entry).  Complement is a dedicated linear-time walk with a
  persistent involution memo.  The classic ``ite`` operator remains for
  general three-operand use and routes terminal-operand calls to the
  kernels.  All kernels use explicit-stack iteration instead of Python
  recursion, so arbitrarily wide header layouts (deep BDDs) cannot hit the
  interpreter's recursion limit.
* Variables are ordered by their integer index; lower index = closer to the
  root.  Callers choose the ordering through
  :class:`repro.bdd.fields.HeaderLayout`.
* The node table supports mark-sweep garbage collection: long-lived node
  references are held through registered *root holders* (any object with a
  ``node`` attribute — in practice :class:`repro.bdd.predicate.Predicate`,
  which registers itself on construction).  :meth:`collect` compacts the
  parallel arrays, remaps every live holder's node id in place, and
  invalidates all operation caches plus any registered external memos (the
  :mod:`repro.bdd.serialize` codec registers its node↔bytes tables).  Raw
  integer node ids are therefore only stable *between* collections; never
  hold one across a safe point (event-handler / worker-command boundary).
"""

from __future__ import annotations

import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

__all__ = ["BddManager", "BddStats", "FALSE", "TRUE"]

FALSE = 0
TRUE = 1

# Sentinel variable index for terminal nodes; larger than any real variable so
# that terminals always sort "below" internal nodes.
_TERMINAL_VAR = 1 << 30

# Explicit-stack frame phases used by the generic ``ite``/``exists`` walks.
_EXPAND = 0
_COMBINE = 1

# The binary apply kernels use two-element frames with the phase encoded in
# the first element's sign instead: ``(a, b)`` with ``a >= 2`` is an expand
# frame holding a non-terminal operand pair, ``(~v, packed_key)`` (first
# element negative) is a combine frame that already carries the branch
# variable and the cache key, and ``(_CONST, value)`` re-injects an
# already-resolved high child into the result stream after its low sibling.
# ``_CONST`` is far below any ``~v`` (variables are < 2**30).
_CONST = -(1 << 40)


class BddStats:
    """Per-manager engine counters (exported via ``--profile`` and the
    benchmark harness).

    ``cache_hits``/``cache_misses`` count *recursion steps* resolved from /
    inserted into the operation caches across all kernels; the ``ops_*``
    fields count top-level kernel invocations.  ``peak_nodes`` is the node
    table's high-water mark (never reset by GC); ``gc_reclaimed`` accumulates
    nodes freed across all collections.
    """

    __slots__ = (
        "ops_and",
        "ops_or",
        "ops_diff",
        "ops_xor",
        "ops_not",
        "ops_ite",
        "ops_exists",
        "ops_count",
        "cache_hits",
        "cache_misses",
        "peak_nodes",
        "gc_runs",
        "gc_reclaimed",
        "gc_last_live",
    )

    def __init__(self) -> None:
        self.ops_and = 0
        self.ops_or = 0
        self.ops_diff = 0
        self.ops_xor = 0
        self.ops_not = 0
        self.ops_ite = 0
        self.ops_exists = 0
        self.ops_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_nodes = 2
        self.gc_runs = 0
        self.gc_reclaimed = 0
        self.gc_last_live = 0

    def total_ops(self) -> int:
        return (
            self.ops_and + self.ops_or + self.ops_diff + self.ops_xor
            + self.ops_not + self.ops_ite + self.ops_exists + self.ops_count
        )

    def hit_rate(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BddStats(ops={self.total_ops()}, "
            f"hit_rate={self.hit_rate():.2f}, peak={self.peak_nodes})"
        )


class BddManager:
    """Owns a shared node table and all BDD operations.

    Every :class:`~repro.bdd.predicate.Predicate` belongs to exactly one
    manager; mixing node ids across managers is undefined.  Managers are not
    thread-safe (the simulator is single-threaded by design).

    Parameters
    ----------
    num_vars:
        Total number of boolean variables.  Needed for model counting.
    """

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        # Parallel arrays for node storage; slots 0/1 are the terminals.
        self._var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Specialized per-operation caches.  Keys are the packed integer
        # ``(a << 32) | b`` — int keys hash faster than tuples and allocate
        # nothing.  AND/OR/XOR normalize to a <= b (commutativity); DIFF is
        # not commutative and packs (f, g) directly.
        self._and_cache: Dict[int, int] = {}
        self._or_cache: Dict[int, int] = {}
        self._diff_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        # Complement is an involution: the memo stores both directions.
        self._not_cache: Dict[int, int] = {FALSE: TRUE, TRUE: FALSE}
        # Packed (f << 64) | (g << 32) | h.
        self._ite_cache: Dict[int, int] = {}
        self._count_cache: Dict[int, int] = {}
        # Manager-level quantification memo keyed by (node, variable set):
        # repeated packet transformations over the same LEC reuse the whole
        # sub-walk instead of re-deriving it per call.
        self._exists_cache: Dict[Tuple[int, FrozenSet[int]], int] = {}

        # Garbage collection state.  ``_roots`` maps id(weakref) -> weakref
        # of a *root holder* (an object with a mutable ``node`` attribute).
        # A plain WeakSet would be wrong here: Predicates compare equal by
        # node id, so a set would silently drop duplicate holders and leave
        # them un-remapped after a sweep.
        self._roots: Dict[int, "weakref.ref"] = {}
        self._pinned: Set[int] = set()
        self._invalidation_hooks: List[Callable[[], None]] = []
        self._remap_hooks: List[Callable[[Dict[int, int]], None]] = []
        #: Optional high-water mark: when the node table reaches this many
        #: slots, :meth:`maybe_collect` triggers a sweep (``None`` = GC off).
        self.gc_threshold: Optional[int] = None

        self.stats = BddStats()

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _mk(self, var: int, low: int, high: int) -> int:
        """Return the canonical node for ``(var, low, high)``."""
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def _note_peak(self) -> None:
        n = len(self._var)
        if n > self.stats.peak_nodes:
            self.stats.peak_nodes = n

    def var(self, index: int) -> int:
        """Return the BDD for the single variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        return self._mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """Return the BDD for the negation of variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        return self._mk(index, TRUE, FALSE)

    # ------------------------------------------------------------------
    # Structural accessors
    # ------------------------------------------------------------------
    def top_var(self, node: int) -> int:
        """Variable index at the root of ``node`` (terminals sort last)."""
        return self._var[node]

    def low(self, node: int) -> int:
        return self._low[node]

    def high(self, node: int) -> int:
        return self._high[node]

    def node_count(self) -> int:
        """Node-table length (including terminals *and* dead nodes).

        This is the engine's memory footprint; for the number of nodes still
        reachable from live predicates use :meth:`live_node_count`.
        """
        return len(self._var)

    def live_node_count(self) -> int:
        """Nodes reachable from registered roots + pins (incl. terminals).

        ``node_count() - live_node_count()`` is what a :meth:`collect` sweep
        would reclaim right now.
        """
        return len(self._reachable(self._root_nodes()))

    def _reachable(self, roots: Iterable[int]) -> Set[int]:
        """All nodes reachable from ``roots``, terminals always included.

        The one traversal shared by :meth:`size`, :meth:`live_node_count`
        and the GC mark phase.
        """
        low = self._low
        high = self._high
        seen = {FALSE, TRUE}
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.append(low[n])
            stack.append(high[n])
        return seen

    def size(self, node: int) -> int:
        """Number of distinct internal nodes reachable from ``node``."""
        return len(self._reachable((node,))) - 2

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """Compute ``(f AND g) OR (NOT f AND h)`` canonically.

        Calls whose ``g``/``h`` operands are terminals are routed to the
        specialized kernels (they are the same functions: ``ite(f, g, 0)``
        is AND, ``ite(f, 1, h)`` is OR, ``ite(f, 0, 1)`` is NOT, ...), so
        only genuinely three-operand work runs the ternary recursion.
        """
        self.stats.ops_ite += 1
        result = self._ite_route(f, g, h)
        if result is not None:
            return result
        return self._ite_iter(f, g, h)

    def _ite_route(self, f: int, g: int, h: int) -> Optional[int]:
        """Terminal shortcuts + kernel routing; ``None`` = general case."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE:
            return f if h == FALSE else self.apply_or(f, h)
        if g == FALSE:
            return self.apply_not(f) if h == TRUE else self.apply_diff(h, f)
        if h == FALSE:
            return self.apply_and(f, g)
        if h == TRUE:
            # f -> g, i.e. NOT (f AND NOT g).
            return self.apply_not(self.apply_diff(f, g))
        return None

    def _ite_iter(self, f: int, g: int, h: int) -> int:
        var = self._var
        low = self._low
        high = self._high
        cache = self._ite_cache
        mk = self._mk
        stats = self.stats
        hits = misses = 0
        results: List[int] = []
        frames: List[Tuple[int, int, int, int]] = [(_EXPAND, f, g, h)]
        while frames:
            phase, a, b, c = frames.pop()
            if phase == _EXPAND:
                routed = self._ite_route(a, b, c)
                if routed is not None:
                    results.append(routed)
                    continue
                r = cache.get((a << 64) | (b << 32) | c)
                if r is not None:
                    hits += 1
                    results.append(r)
                    continue
                misses += 1
                va, vb, vc = var[a], var[b], var[c]
                v = va if va < vb else vb
                if vc < v:
                    v = vc
                if va == v:
                    a0, a1 = low[a], high[a]
                else:
                    a0 = a1 = a
                if vb == v:
                    b0, b1 = low[b], high[b]
                else:
                    b0 = b1 = b
                if vc == v:
                    c0, c1 = low[c], high[c]
                else:
                    c0 = c1 = c
                frames.append((_COMBINE, a, b, c))
                frames.append((_EXPAND, a1, b1, c1))
                frames.append((_EXPAND, a0, b0, c0))
            else:
                hi = results.pop()
                lo = results.pop()
                va, vb, vc = var[a], var[b], var[c]
                v = va if va < vb else vb
                if vc < v:
                    v = vc
                r = mk(v, lo, hi)
                cache[(a << 64) | (b << 32) | c] = r
                results.append(r)
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------
    # Specialized apply kernels
    # ------------------------------------------------------------------
    # Each kernel repeats the same explicit-stack shape with its own
    # terminal rules and cache.  The duplication is deliberate: these four
    # loops are the engine's hot paths, and folding them into one generic
    # apply costs an operator dispatch per node visit.
    #
    # Frame protocol (see the ``_CONST`` comment at module top): expand
    # frames only ever hold *non-terminal* pairs (commutative kernels
    # pre-normalize to ``a < b`` at push time), because each parent resolves
    # terminal children inline instead of pushing frames for them — for
    # FIB-style cube-heavy operands roughly half of all child pairs are
    # terminal, and skipping their frame round-trip is most of the win over
    # the naive three-phase stack.  Combine frames carry the branch variable
    # and the packed cache key computed during expansion, so nothing is
    # re-derived when the children come back.

    def apply_and(self, f: int, g: int) -> int:
        """Set intersection ``f AND g``."""
        self.stats.ops_and += 1
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE or f == g:
            return f
        if f > g:  # commutative: one cache entry per unordered pair
            f, g = g, f
        var = self._var
        low = self._low
        high = self._high
        cache = self._and_cache
        unique = self._unique
        cget = cache.get
        uget = unique.get
        hits = misses = 0
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        frames: List[Tuple[int, int]] = [(f, g)]
        fpush = frames.append
        fpop = frames.pop
        while frames:
            x, y = fpop()
            if x >= 0:
                k = (x << 32) | y
                r = cget(k)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                vx = var[x]
                vy = var[y]
                if vx <= vy:
                    v = vx
                    a0 = low[x]
                    a1 = high[x]
                else:
                    v = vy
                    a0 = a1 = x
                if vy <= vx:
                    b0 = low[y]
                    b1 = high[y]
                else:
                    b0 = b1 = y
                fpush((~v, k))
                if a1 == FALSE or b1 == FALSE:
                    hi = FALSE
                elif a1 == TRUE:
                    hi = b1
                elif b1 == TRUE or a1 == b1:
                    hi = a1
                else:
                    hi = -1
                if a0 == FALSE or b0 == FALSE:
                    lo = FALSE
                elif a0 == TRUE:
                    lo = b0
                elif b0 == TRUE or a0 == b0:
                    lo = a0
                else:
                    lo = -1
                if lo >= 0:
                    rpush(lo)
                    if hi >= 0:
                        rpush(hi)
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                else:
                    if hi >= 0:
                        fpush((_CONST, hi))
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                    fpush((a0, b0) if a0 < b0 else (b0, a0))
            elif x != _CONST:
                hi = rpop()
                lo = rpop()
                if lo == hi:
                    r = lo
                else:
                    v = ~x
                    key = (v, lo, hi)
                    r = uget(key)
                    if r is None:
                        r = len(var)
                        var.append(v)
                        low.append(lo)
                        high.append(hi)
                        unique[key] = r
                cache[y] = r
                rpush(r)
            else:
                rpush(y)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    def apply_or(self, f: int, g: int) -> int:
        """Set union ``f OR g``."""
        self.stats.ops_or += 1
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE:
            return g
        if g == FALSE or f == g:
            return f
        if f > g:
            f, g = g, f
        var = self._var
        low = self._low
        high = self._high
        cache = self._or_cache
        unique = self._unique
        cget = cache.get
        uget = unique.get
        hits = misses = 0
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        frames: List[Tuple[int, int]] = [(f, g)]
        fpush = frames.append
        fpop = frames.pop
        while frames:
            x, y = fpop()
            if x >= 0:
                k = (x << 32) | y
                r = cget(k)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                vx = var[x]
                vy = var[y]
                if vx <= vy:
                    v = vx
                    a0 = low[x]
                    a1 = high[x]
                else:
                    v = vy
                    a0 = a1 = x
                if vy <= vx:
                    b0 = low[y]
                    b1 = high[y]
                else:
                    b0 = b1 = y
                fpush((~v, k))
                if a1 == TRUE or b1 == TRUE:
                    hi = TRUE
                elif a1 == FALSE:
                    hi = b1
                elif b1 == FALSE or a1 == b1:
                    hi = a1
                else:
                    hi = -1
                if a0 == TRUE or b0 == TRUE:
                    lo = TRUE
                elif a0 == FALSE:
                    lo = b0
                elif b0 == FALSE or a0 == b0:
                    lo = a0
                else:
                    lo = -1
                if lo >= 0:
                    rpush(lo)
                    if hi >= 0:
                        rpush(hi)
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                else:
                    if hi >= 0:
                        fpush((_CONST, hi))
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                    fpush((a0, b0) if a0 < b0 else (b0, a0))
            elif x != _CONST:
                hi = rpop()
                lo = rpop()
                if lo == hi:
                    r = lo
                else:
                    v = ~x
                    key = (v, lo, hi)
                    r = uget(key)
                    if r is None:
                        r = len(var)
                        var.append(v)
                        low.append(lo)
                        high.append(hi)
                        unique[key] = r
                cache[y] = r
                rpush(r)
            else:
                rpush(y)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    def apply_diff(self, f: int, g: int) -> int:
        """Set difference ``f AND NOT g``.

        A dedicated kernel: routing through ``ite`` would first materialize
        the complement of ``g`` as garbage nodes; the direct recursion never
        builds them.
        """
        self.stats.ops_diff += 1
        if f == FALSE or g == TRUE or f == g:
            return FALSE
        if g == FALSE:
            return f
        if f == TRUE:
            return self.apply_not(g)
        var = self._var
        low = self._low
        high = self._high
        cache = self._diff_cache
        not_cache = self._not_cache
        unique = self._unique
        cget = cache.get
        nget = not_cache.get
        uget = unique.get
        hits = misses = 0
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        frames: List[Tuple[int, int]] = [(f, g)]
        fpush = frames.append
        fpop = frames.pop
        while frames:
            x, y = fpop()
            if x >= 0:
                # Not commutative: the key packs (f, g) in call order.
                k = (x << 32) | y
                r = cget(k)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                vx = var[x]
                vy = var[y]
                if vx <= vy:
                    v = vx
                    a0 = low[x]
                    a1 = high[x]
                else:
                    v = vy
                    a0 = a1 = x
                if vy <= vx:
                    b0 = low[y]
                    b1 = high[y]
                else:
                    b0 = b1 = y
                fpush((~v, k))
                if a1 == FALSE or b1 == TRUE or a1 == b1:
                    hi = FALSE
                elif b1 == FALSE:
                    hi = a1
                elif a1 == TRUE:
                    # TRUE \ b = NOT b; the involution memo is often warm.
                    hi = nget(b1)
                    if hi is None:
                        hi = self.apply_not(b1)
                else:
                    hi = -1
                if a0 == FALSE or b0 == TRUE or a0 == b0:
                    lo = FALSE
                elif b0 == FALSE:
                    lo = a0
                elif a0 == TRUE:
                    lo = nget(b0)
                    if lo is None:
                        lo = self.apply_not(b0)
                else:
                    lo = -1
                if lo >= 0:
                    rpush(lo)
                    if hi >= 0:
                        rpush(hi)
                    else:
                        fpush((a1, b1))
                else:
                    if hi >= 0:
                        fpush((_CONST, hi))
                    else:
                        fpush((a1, b1))
                    fpush((a0, b0))
            elif x != _CONST:
                hi = rpop()
                lo = rpop()
                if lo == hi:
                    r = lo
                else:
                    v = ~x
                    key = (v, lo, hi)
                    r = uget(key)
                    if r is None:
                        r = len(var)
                        var.append(v)
                        low.append(lo)
                        high.append(hi)
                        unique[key] = r
                cache[y] = r
                rpush(r)
            else:
                rpush(y)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    def apply_xor(self, f: int, g: int) -> int:
        """Symmetric difference ``f XOR g``."""
        self.stats.ops_xor += 1
        if f == g:
            return FALSE
        if f == FALSE:
            return g
        if g == FALSE:
            return f
        if f == TRUE:
            return self.apply_not(g)
        if g == TRUE:
            return self.apply_not(f)
        var = self._var
        low = self._low
        high = self._high
        cache = self._xor_cache
        not_cache = self._not_cache
        unique = self._unique
        cget = cache.get
        nget = not_cache.get
        uget = unique.get
        hits = misses = 0
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        frames: List[Tuple[int, int]] = [(f, g) if f < g else (g, f)]
        fpush = frames.append
        fpop = frames.pop
        while frames:
            x, y = fpop()
            if x >= 0:
                k = (x << 32) | y
                r = cget(k)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                vx = var[x]
                vy = var[y]
                if vx <= vy:
                    v = vx
                    a0 = low[x]
                    a1 = high[x]
                else:
                    v = vy
                    a0 = a1 = x
                if vy <= vx:
                    b0 = low[y]
                    b1 = high[y]
                else:
                    b0 = b1 = y
                fpush((~v, k))
                if a1 == b1:
                    hi = FALSE
                elif a1 == FALSE:
                    hi = b1
                elif b1 == FALSE:
                    hi = a1
                elif a1 == TRUE or b1 == TRUE:
                    other = b1 if a1 == TRUE else a1
                    hi = nget(other)
                    if hi is None:
                        hi = self.apply_not(other)
                else:
                    hi = -1
                if a0 == b0:
                    lo = FALSE
                elif a0 == FALSE:
                    lo = b0
                elif b0 == FALSE:
                    lo = a0
                elif a0 == TRUE or b0 == TRUE:
                    other = b0 if a0 == TRUE else a0
                    lo = nget(other)
                    if lo is None:
                        lo = self.apply_not(other)
                else:
                    lo = -1
                if lo >= 0:
                    rpush(lo)
                    if hi >= 0:
                        rpush(hi)
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                else:
                    if hi >= 0:
                        fpush((_CONST, hi))
                    else:
                        fpush((a1, b1) if a1 < b1 else (b1, a1))
                    fpush((a0, b0) if a0 < b0 else (b0, a0))
            elif x != _CONST:
                hi = rpop()
                lo = rpop()
                if lo == hi:
                    r = lo
                else:
                    v = ~x
                    key = (v, lo, hi)
                    r = uget(key)
                    if r is None:
                        r = len(var)
                        var.append(v)
                        low.append(lo)
                        high.append(hi)
                        unique[key] = r
                cache[y] = r
                rpush(r)
            else:
                rpush(y)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    def apply_not(self, f: int) -> int:
        """Complement ``NOT f`` — a linear walk over ``f``'s sub-DAG.

        The memo is persistent and stores the involution both ways, so
        complementing a complement is a dict lookup.
        """
        self.stats.ops_not += 1
        memo = self._not_cache
        r = memo.get(f)  # seeds cover the terminals
        if r is not None:
            self.stats.cache_hits += 1
            return r
        var = self._var
        low = self._low
        high = self._high
        unique = self._unique
        mget = memo.get
        uget = unique.get
        hits = misses = 0
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        # Unary walk: frames are bare ints — ``n >= 0`` expands node ``n``,
        # ``~n`` combines it.  Terminals resolve through the memo seeds.
        frames: List[int] = [f]
        fpush = frames.append
        fpop = frames.pop
        while frames:
            n = fpop()
            if n >= 0:
                r = mget(n)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                fpush(~n)
                fpush(high[n])
                fpush(low[n])
            else:
                n = ~n
                hi = rpop()
                lo = rpop()
                # lo != hi always holds here: complement preserves node
                # distinctness, so the reduction collapse cannot trigger.
                key = (var[n], lo, hi)
                r = uget(key)
                if r is None:
                    r = len(var)
                    var.append(key[0])
                    low.append(lo)
                    high.append(hi)
                    unique[key] = r
                memo[n] = r
                memo[r] = n
                rpush(r)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    # ------------------------------------------------------------------
    # Derived predicates
    # ------------------------------------------------------------------
    def implies(self, f: int, g: int) -> bool:
        """True iff ``f`` is a subset of ``g`` as a packet set.

        A walk over node pairs that stops at the first path where ``f``
        holds and ``g`` does not; it allocates no node and fills no cache
        (``apply_diff(f, g) == FALSE`` would build the whole difference).
        """
        if f == FALSE or g == TRUE or f == g:
            return True
        if g == FALSE or f == TRUE:
            return False
        var = self._var
        low = self._low
        high = self._high
        seen: Set[int] = set()
        frames = [(f, g)]
        while frames:
            x, y = frames.pop()
            k = (x << 32) | y
            if k in seen:
                continue
            seen.add(k)
            vx = var[x]
            vy = var[y]
            if vx <= vy:
                x0 = low[x]
                x1 = high[x]
            else:
                x0 = x1 = x
            if vy <= vx:
                y0 = low[y]
                y1 = high[y]
            else:
                y0 = y1 = y
            for a, b in ((x0, y0), (x1, y1)):
                if a == FALSE or b == TRUE or a == b:
                    continue
                if b == FALSE or a == TRUE:
                    return False
                frames.append((a, b))
        return True

    def evaluate(self, node: int, point: Dict[int, bool]) -> bool:
        """Whether the assignment ``point`` satisfies ``node`` (variables it
        does not mention are False).  One root-to-terminal path; allocates
        nothing."""
        var = self._var
        low = self._low
        high = self._high
        while node > TRUE:
            node = high[node] if point.get(var[node]) else low[node]
        return node == TRUE

    def is_false(self, f: int) -> bool:
        return f == FALSE

    def is_true(self, f: int) -> bool:
        return f == TRUE

    def overlaps(self, f: int, g: int) -> bool:
        """True iff the two packet sets intersect."""
        return self.apply_and(f, g) != FALSE

    def exists(self, node: int, variables: FrozenSet[int]) -> int:
        """Existentially quantify the given variables out of ``node``.

        Used to implement packet transformations: rewriting a header field to
        a constant is "forget the old bits, then constrain to the new value".
        Results are memoized at the manager level keyed by
        ``(node, variables)``, so repeated transformations over the same LEC
        (the common case: every UPDATE round re-applies the same rewrites)
        reuse the entire sub-walk instead of re-deriving it per call.
        """
        self.stats.ops_exists += 1
        if node == FALSE or node == TRUE:
            return node
        variables = frozenset(variables)
        var = self._var
        low = self._low
        high = self._high
        cache = self._exists_cache
        mk = self._mk
        apply_or = self.apply_or
        hits = misses = 0
        results: List[int] = []
        frames: List[Tuple[int, int]] = [(_EXPAND, node)]
        while frames:
            phase, n = frames.pop()
            if phase == _EXPAND:
                if n == FALSE or n == TRUE:
                    results.append(n)
                    continue
                r = cache.get((n, variables))
                if r is not None:
                    hits += 1
                    results.append(r)
                    continue
                misses += 1
                frames.append((_COMBINE, n))
                frames.append((_EXPAND, high[n]))
                frames.append((_EXPAND, low[n]))
            else:
                hi = results.pop()
                lo = results.pop()
                v = var[n]
                if v in variables:
                    r = apply_or(lo, hi)
                else:
                    r = mk(v, lo, hi)
                cache[(n, variables)] = r
                results.append(r)
        stats = self.stats
        stats.cache_hits += hits
        stats.cache_misses += misses
        self._note_peak()
        return results[-1]

    # ------------------------------------------------------------------
    # Cube / assignment construction
    # ------------------------------------------------------------------
    def cube(self, literals: Dict[int, bool]) -> int:
        """Conjunction of variables set to fixed values.

        ``literals`` maps variable index -> required boolean value.
        """
        result = TRUE
        # Build bottom-up in reverse variable order for linear-time _mk use.
        for index in sorted(literals, reverse=True):
            if literals[index]:
                result = self._mk(index, FALSE, result)
            else:
                result = self._mk(index, result, FALSE)
        self._note_peak()
        return result

    # ------------------------------------------------------------------
    # Model counting and enumeration
    # ------------------------------------------------------------------
    def count(self, node: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        self.stats.ops_count += 1
        num_vars = self.num_vars
        if not num_vars:
            return 1 if node == TRUE else 0
        if node == FALSE:
            return 0
        if node == TRUE:
            return 1 << num_vars
        var = self._var
        low = self._low
        high = self._high
        # The cache stores each node's count assuming enumeration starts at
        # the node's own variable; callers scale by the skipped levels.
        cache = self._count_cache
        stack = [node]
        while stack:
            n = stack[-1]
            if n in cache:
                stack.pop()
                continue
            lo = low[n]
            hi = high[n]
            pending = False
            if lo > TRUE and lo not in cache:
                stack.append(lo)
                pending = True
            if hi > TRUE and hi not in cache:
                stack.append(hi)
                pending = True
            if pending:
                continue
            v = var[n]
            if lo == FALSE:
                lo_count = 0
            elif lo == TRUE:
                lo_count = 1 << (num_vars - v - 1)
            else:
                lo_count = cache[lo] << (var[lo] - v - 1)
            if hi == FALSE:
                hi_count = 0
            elif hi == TRUE:
                hi_count = 1 << (num_vars - v - 1)
            else:
                hi_count = cache[hi] << (var[hi] - v - 1)
            cache[n] = lo_count + hi_count
            stack.pop()
        return cache[node] << var[node]

    def pick_one(self, node: int) -> Optional[Dict[int, bool]]:
        """Return one satisfying assignment (partial: only forced variables).

        Returns ``None`` when the function is unsatisfiable.  Unmentioned
        variables may take either value.
        """
        if node == FALSE:
            return None
        assignment: Dict[int, bool] = {}
        while node != TRUE:
            if self._low[node] != FALSE:
                assignment[self._var[node]] = False
                node = self._low[node]
            else:
                assignment[self._var[node]] = True
                node = self._high[node]
        return assignment

    def iter_cubes(self, node: int) -> Iterator[Dict[int, bool]]:
        """Yield disjoint cubes (partial assignments) covering the function."""
        if node == FALSE:
            return
        path: Dict[int, bool] = {}

        # Recursion depth is bounded by num_vars (ROBDD path length), so the
        # generator form is safe here.
        def walk(n: int) -> Iterator[Dict[int, bool]]:
            if n == TRUE:
                yield dict(path)
                return
            if n == FALSE:
                return
            v = self._var[n]
            path[v] = False
            yield from walk(self._low[n])
            path[v] = True
            yield from walk(self._high[n])
            del path[v]

        yield from walk(node)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def register_root(self, holder: object) -> None:
        """Track ``holder`` (an object with a mutable ``node`` attribute) as
        a GC root.  Weakly referenced: dropping the holder un-roots it."""
        ref = weakref.ref(holder, self._forget_root)
        self._roots[id(ref)] = ref

    def _forget_root(self, ref: "weakref.ref") -> None:
        self._roots.pop(id(ref), None)

    def pin(self, node: int) -> None:
        """Keep a raw node id alive across collections (no holder object).

        The pinned id is remapped internally on sweep; re-read it via the
        holder-object protocol if you need the post-sweep id.
        """
        self._pinned.add(node)

    def unpin(self, node: int) -> None:
        self._pinned.discard(node)

    def register_invalidation_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every sweep that remapped node ids.

        External memos keyed by node id (the :mod:`repro.bdd.serialize`
        node↔bytes tables) must register here or they silently corrupt."""
        self._invalidation_hooks.append(hook)

    def register_remap_hook(self, hook: Callable[[Dict[int, int]], None]) -> None:
        """Run ``hook(remap)`` after every sweep, once holders are remapped.

        Unlike an invalidation hook, a remap hook receives the old→new node
        id mapping (dead nodes absent), so an external memo keyed by node id
        can *rekey* its live entries instead of dropping them wholesale —
        the difference between re-deriving every cached result after a GC
        and paying one dict rebuild."""
        self._remap_hooks.append(hook)

    def _root_holders(self) -> List[object]:
        holders: List[object] = []
        for ref in list(self._roots.values()):
            obj = ref()
            if obj is not None:
                holders.append(obj)
        return holders

    def _root_nodes(self) -> Set[int]:
        roots = {holder.node for holder in self._root_holders()}
        roots.update(self._pinned)
        return roots

    def collect(self) -> int:
        """Mark-sweep the node table; return the number of reclaimed nodes.

        Marks from every registered root holder and pinned id, compacts the
        parallel arrays, rewrites each live holder's ``node`` attribute to
        its new id, and drops every operation cache plus registered external
        memos (they hold stale ids).  Must only be called at a safe point:
        no raw node id held in a local variable survives a sweep.
        """
        stats = self.stats
        stats.gc_runs += 1
        old_len = len(self._var)
        if old_len > stats.peak_nodes:
            stats.peak_nodes = old_len
        holders = self._root_holders()
        roots = {holder.node for holder in holders}
        roots.update(self._pinned)
        live = self._reachable(roots)
        reclaimed = old_len - len(live)
        if reclaimed == 0:
            stats.gc_last_live = old_len
            return 0

        # Sweep: children always precede parents in the table (``_mk``
        # appends), so one ascending pass can remap child ids in place.
        old_var = self._var
        old_low = self._low
        old_high = self._high
        remap: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        new_var: List[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        new_low: List[int] = [0, 1]
        new_high: List[int] = [0, 1]
        for n in range(2, old_len):
            if n not in live:
                continue
            remap[n] = len(new_var)
            new_var.append(old_var[n])
            new_low.append(remap[old_low[n]])
            new_high.append(remap[old_high[n]])
        self._var = new_var
        self._low = new_low
        self._high = new_high
        self._unique = {
            (new_var[i], new_low[i], new_high[i]): i
            for i in range(2, len(new_var))
        }

        # Every cache holds pre-sweep ids; all of them must go.
        self._and_cache.clear()
        self._or_cache.clear()
        self._diff_cache.clear()
        self._xor_cache.clear()
        self._ite_cache.clear()
        self._count_cache.clear()
        self._exists_cache.clear()
        self._not_cache = {FALSE: TRUE, TRUE: FALSE}
        for hook in self._invalidation_hooks:
            hook()

        # Remap the live world.
        for holder in holders:
            holder.node = remap[holder.node]
        self._pinned = {remap[n] for n in self._pinned}
        for hook in self._remap_hooks:
            hook(remap)

        stats.gc_reclaimed += reclaimed
        stats.gc_last_live = len(new_var)
        return reclaimed

    def maybe_collect(self) -> int:
        """GC iff the table crossed :attr:`gc_threshold`; returns reclaimed.

        After a sweep the threshold is raised to at least twice the live
        table size, so a workload whose live set genuinely grows does not
        thrash in back-to-back collections.
        """
        threshold = self.gc_threshold
        if threshold is None or len(self._var) < threshold:
            return 0
        reclaimed = self.collect()
        self.gc_threshold = max(threshold, 2 * len(self._var))
        return reclaimed

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def profile(self) -> Dict[str, int]:
        """Stats snapshot plus current table / live-node footprint."""
        out = self.stats.snapshot()
        out["table_nodes"] = self.node_count()
        out["live_nodes"] = self.live_node_count()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BddManager(num_vars={self.num_vars}, nodes={self.node_count()})"
