"""Atom-refinement unit suite: the dynamic atomic-predicate index.

The invariants that make atoms a sound stand-in for BDD predicates on the
DVM hot path:

* the leaf atoms always partition packet space (disjoint, covering);
* ``atomize`` → ``to_predicate`` is the identity on denotations, and the
  result is the *canonical* ROBDD (same node as the original predicate);
* AtomSet algebra agrees with Predicate algebra operation for operation;
* splits never change what an existing AtomSet denotes, and its O(1) hash
  survives both splits and merges (the XOR-token invariant);
* ``compact`` merges sibling atoms no live set distinguishes, and engine
  GC sweeps keep the conversion caches consistent;
* lifting a partition in one walk (``atomize_partition``) refines exactly
  as lifting its classes one at a time, and every conjunction it makes is
  a split.
"""

import gc as pygc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.bdd.serialize import serialize_predicate
from repro.core.atomindex import AtomIndex, AtomSet
from repro.dataplane import Action, Rule
from repro.dataplane.lec import compute_lec_table


def small_ctx():
    return PacketSpaceContext(HeaderLayout([("f", 6)]))


@pytest.fixture
def sctx():
    return small_ctx()


@pytest.fixture
def index(sctx):
    return sctx.atom_index()


def leaf_extents(index):
    return [
        index._extent[aid]
        for aid in index._extent
        if aid not in index._children
    ]


class TestPartitionInvariant:
    def test_starts_as_one_universe_atom(self, index):
        assert index.num_atoms == 1
        assert index.universe().to_predicate().is_universe

    def test_leaves_partition_packet_space(self, sctx, index):
        for lo, hi in [(0, 15), (8, 40), (3, 3), (20, 63)]:
            index.atomize(sctx.range_("f", lo, hi))
        leaves = leaf_extents(index)
        assert len(leaves) == index.num_atoms
        union = sctx.union(leaves)
        assert union.is_universe
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not a.overlaps(b)

    def test_atomize_is_lazy(self, sctx, index):
        index.atomize(sctx.range_("f", 0, 31))
        assert index.num_atoms == 2  # one boundary, one split
        # A predicate along the same boundary refines nothing further.
        index.atomize(sctx.range_("f", 32, 63))
        assert index.num_atoms == 2

    def test_empty_and_universe(self, sctx, index):
        assert index.atomize(sctx.empty).is_empty
        assert index.atomize(sctx.universe).is_universe


class TestBoundaryConversion:
    def test_round_trip_is_canonical(self, sctx, index):
        # atomize → to_predicate must return the *same* ROBDD node, so wire
        # bytes cannot depend on which mode produced a region.
        for lo, hi in [(0, 15), (10, 50), (0, 63), (7, 7)]:
            pred = sctx.range_("f", lo, hi)
            aset = index.atomize(pred)
            assert aset.to_predicate().node == pred.node

    def test_round_trip_after_later_refinement(self, sctx, index):
        pred = sctx.range_("f", 0, 31)
        aset = index.atomize(pred)
        # Refine across the region's interior, then convert.
        index.atomize(sctx.range_("f", 16, 47))
        assert aset.to_predicate().node == pred.node


class TestAlgebraAgreement:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)),
            min_size=2, max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_ops_match_bdd_ops(self, ranges):
        ctx = small_ctx()
        index = ctx.atom_index()
        preds = [ctx.range_("f", min(a, b), max(a, b)) for a, b in ranges]
        asets = [index.atomize(p) for p in preds]
        for (pa, aa), (pb, ab) in zip(
            zip(preds, asets), zip(preds[1:], asets[1:])
        ):
            assert (aa & ab).to_predicate() == (pa & pb)
            assert (aa | ab).to_predicate() == (pa | pb)
            assert (aa - ab).to_predicate() == (pa - pb)
            assert (aa ^ ab).to_predicate() == (pa ^ pb)
            assert aa.overlaps(ab) == pa.overlaps(pb)
            assert aa.covers(ab) == pa.covers(pb)
            assert (aa == ab) == (pa == pb)

    def test_identity_fast_paths(self, sctx, index):
        big = index.atomize(sctx.range_("f", 0, 47))
        small = index.atomize(sctx.range_("f", 8, 15))
        assert (big & small) is small
        assert (big | small) is big
        assert (small - big).is_empty

    def test_mixing_indexes_rejected(self, sctx):
        other = small_ctx()
        a = sctx.atom_index().atomize(sctx.range_("f", 0, 7))
        b = other.atom_index().atomize(other.range_("f", 0, 7))
        with pytest.raises(ValueError):
            a & b

    def test_non_atomset_rejected(self, sctx, index):
        aset = index.atomize(sctx.range_("f", 0, 7))
        with pytest.raises(TypeError):
            aset & sctx.range_("f", 0, 7)


class TestSplitStability:
    def test_denotation_survives_splits(self, sctx, index):
        pred = sctx.range_("f", 0, 31)
        aset = index.atomize(pred)
        before = len(aset)
        # Split the region's atoms from the outside.
        index.atomize(sctx.range_("f", 8, 23))
        index.atomize(sctx.range_("f", 28, 35))
        assert len(aset) > before  # renormalized to finer leaves
        assert aset.to_predicate() == pred

    def test_hash_survives_splits(self, sctx, index):
        aset = index.atomize(sctx.range_("f", 0, 31))
        h = hash(aset)
        index.atomize(sctx.range_("f", 16, 47))
        aset.ids()  # force renormalization
        assert hash(aset) == h

    def test_equal_denotations_equal_hash_across_versions(self, sctx, index):
        pred = sctx.range_("f", 0, 31)
        early = index.atomize(pred)
        index.atomize(sctx.range_("f", 16, 47))  # refine
        late = index.atomize(pred)
        assert early == late
        assert hash(early) == hash(late)

    def test_token_xor_invariant(self, sctx, index):
        index.atomize(sctx.range_("f", 0, 31))
        for parent, (c1, c2) in index._children.items():
            if c1 in index._token and c2 in index._token:
                assert index._token[parent] == (
                    index._token[c1] ^ index._token[c2]
                )


class TestCompact:
    def test_merges_undistinguished_atoms(self, sctx, index):
        aset = index.atomize(sctx.range_("f", 0, 31))
        index.atomize(sctx.range_("f", 8, 15))  # refines inside the region
        refined = index.num_atoms
        assert refined > 2
        index.splits += 0  # no-op; compact gates on the splits counter
        merged = index.compact()
        # The inner boundary is distinguished by no live set once its
        # AtomSet is gone (atomize caches hold plain ids, not live sets).
        assert merged > 0
        assert index.num_atoms < refined
        # The surviving set still denotes the original region.
        assert aset.to_predicate() == sctx.range_("f", 0, 31)

    def test_live_sets_block_merging(self, sctx, index):
        outer = index.atomize(sctx.range_("f", 0, 31))
        inner = index.atomize(sctx.range_("f", 8, 15))
        index.compact()
        # ``inner`` is live, so its boundary must survive compaction.
        assert inner.to_predicate() == sctx.range_("f", 8, 15)
        assert outer.to_predicate() == sctx.range_("f", 0, 31)
        assert not (outer - inner).overlaps(inner)

    def test_steady_state_compact_is_free(self, sctx, index):
        index.atomize(sctx.range_("f", 0, 31))
        index.compact()
        before = index.merges
        assert index.compact() == 0  # no splits since: gated out
        assert index.merges == before

    def test_partition_invariant_after_compact(self, sctx, index):
        keep = index.atomize(sctx.range_("f", 0, 15))
        index.atomize(sctx.range_("f", 4, 7))
        index.atomize(sctx.range_("f", 32, 47))
        pygc.collect()
        index.compact()
        leaves = leaf_extents(index)
        assert sctx.union(leaves).is_universe
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not a.overlaps(b)
        assert keep.to_predicate() == sctx.range_("f", 0, 15)


class TestEngineGcIntegration:
    def test_sweep_preserves_conversions(self, sctx, index):
        preds = [sctx.range_("f", lo, lo + 7) for lo in range(0, 48, 8)]
        asets = [index.atomize(p) for p in preds]
        sctx.mgr.collect()
        for pred, aset in zip(preds, asets):
            assert aset.to_predicate() == pred
            # Re-atomizing after the sweep agrees with the live set.
            assert index.atomize(pred) == aset

    def test_sweep_rekeys_atomize_cache(self, sctx, index):
        pred = sctx.range_("f", 3, 40)
        aset = index.atomize(pred)  # held live: blocks the post-GC merge
        calls_before = index.atomize_calls
        hits_before = index.atomize_hits
        sctx.mgr.collect()
        assert index.atomize(pred) == aset
        assert index.atomize_calls == calls_before + 1
        # The rekeyed cache entry survives the sweep: still a hit.
        assert index.atomize_hits == hits_before + 1


class TestProfile:
    def test_profile_counters(self, sctx, index):
        index.atomize(sctx.range_("f", 0, 31))
        snap = index.profile()
        assert snap["atoms"] == index.num_atoms
        assert snap["splits"] >= 1
        assert snap["atomize_calls"] >= 1


class TestResolveFastPath:
    """Version-matched sets must not pay any resolution work.

    The frozenset representation re-resolved every operand on every
    coerce — a forest walk per id even when nothing had split.  The packed
    representation's contract: once a set has renormalized to the current
    version, algebra on it does no resolution at all, and even the slow
    path is a rewrite-table lookup (counted by ``index.resolves``).
    """

    def test_version_match_skips_resolution(self, sctx, index):
        a = index.atomize(sctx.range_("f", 0, 31))
        b = index.atomize(sctx.range_("f", 16, 47))
        a.mask(), b.mask()  # renormalize once after the mutual splits

        resolves_before = index.resolves
        for _ in range(50):
            assert (a & b) == (b & a)
            assert (a | b).covers(a)
            assert not (a - a)
            assert a.overlaps(b)
        assert index.resolves == resolves_before, (
            "steady-state algebra hit the stale-bit slow path"
        )

    def test_resolution_once_per_refinement(self, sctx, index):
        a = index.atomize(sctx.range_("f", 0, 31))
        a.mask()
        index.atomize(sctx.range_("f", 8, 15))  # splits inside a
        before = index.resolves
        a.mask()  # first read after the split: one rewrite-table pass
        assert index.resolves == before + 1
        a.mask()
        a.mask()
        assert index.resolves == before + 1, "re-resolved a current mask"

    def test_splits_outside_set_do_not_resolve(self, sctx, index):
        a = index.atomize(sctx.range_("f", 0, 15))
        a.mask()
        # Refinement disjoint from ``a``: version moves, but none of a's
        # slots retired, so the slow path must see zero stale bits.
        index.atomize(sctx.range_("f", 32, 47))
        before = index.resolves
        a.mask()
        assert index.resolves == before


# ----------------------------------------------------------------------
# Lifting a LEC table's classes as one partition
# ----------------------------------------------------------------------
def fib_ctx():
    return PacketSpaceContext(HeaderLayout([("dst_ip", 8), ("dst_port", 4)]))


#: One rule as plain data: (prefix base, prefix length, port or None,
#: action kind, priority) — built into a context by :func:`lec_classes`.
rule_specs = st.lists(
    st.tuples(
        st.integers(0, 255),
        st.integers(0, 8),
        st.one_of(st.none(), st.integers(0, 15)),
        st.integers(0, 3),
        st.integers(0, 8),
    ),
    max_size=8,
)


def lec_classes(ctx, specs):
    """The per-action classes of a prioritized prefix/port rule list."""
    rules = []
    for base, length, port, kind, priority in specs:
        match = ctx.prefix("dst_ip", base, length)
        if port is not None:
            match = match & ctx.value("dst_port", port)
        if kind == 0:
            action = Action.drop()
        else:
            action = Action.forward_all(["ABC"[kind - 1]])
        rules.append(Rule(match, action, priority))
    return [pred for pred, _action in compute_lec_table(ctx, rules).entries()]


SAMPLE_FIB = [
    (0x0A, 8, None, 1, 8),
    (0x00, 4, 3, 2, 4),
    (0x80, 1, None, 3, 1),
    (0x0B, 8, 7, 0, 8),
    (0x40, 2, None, 1, 2),
]


class TestAtomizePartition:
    @given(st.lists(st.tuples(rule_specs, st.booleans(), st.booleans()),
                    min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_one_walk_refines_as_per_class_lifts(self, builds):
        """Twin contexts see the same builds: one lifts each table with
        ``atomize_partition``, the other class by class with
        ``atomize_mask``.  Engine sweeps and compactions may run between
        builds; every table stays alive, as a device's does."""
        walk_ctx, each_ctx = fib_ctx(), fib_ctx()
        walk, each = walk_ctx.atom_index(), each_ctx.atom_index()
        kept = []
        for specs, collect, compact in builds:
            for ctx in (walk_ctx, each_ctx):
                if collect:
                    ctx.mgr.collect()
                if compact:
                    ctx.atom_index().compact()
            masks = walk.atomize_partition(lec_classes(walk_ctx, specs))
            each_classes = lec_classes(each_ctx, specs)
            each_masks = [each.atomize_mask(pred) for pred in each_classes]
            assert walk.num_atoms == each.num_atoms
            lowered = [walk.mask_to_predicate(m) for m in masks]
            each_lowered = [each.mask_to_predicate(m) for m in each_masks]
            assert list(map(serialize_predicate, lowered)) == list(
                map(serialize_predicate, each_lowered)
            )
            union = 0
            for mask in masks:
                assert mask and not mask & union
                union |= mask
            assert union == walk._leaf_mask
            kept.append([walk.from_mask(m) for m in masks])
            kept.append([each.from_mask(m) for m in each_masks])

    def test_relifting_a_refined_partition_allocates_nothing(self):
        ctx = fib_ctx()
        index = ctx.atom_index()
        classes = lec_classes(ctx, SAMPLE_FIB)
        first = index.atomize_partition(classes)
        mgr = ctx.mgr
        before = (mgr.stats.ops_and, mgr.node_count(), index.splits)
        for cached in (True, False):
            if not cached:
                index._atomize_cache.clear()  # force the forest walk
            assert index.atomize_partition(classes) == first
            after = (mgr.stats.ops_and, mgr.node_count(), index.splits)
            assert after == before

    def test_every_conjunction_is_a_split(self):
        ctx = fib_ctx()
        index = ctx.atom_index()
        # A refined forest first, so the walk meets inner nodes as well as
        # leaves on both sides of the new boundaries.
        index.atomize_partition(lec_classes(ctx, SAMPLE_FIB[:2]))
        classes = lec_classes(ctx, SAMPLE_FIB)
        ops, splits = ctx.mgr.stats.ops_and, index.splits
        index.atomize_partition(classes)
        assert index.splits > splits
        assert ctx.mgr.stats.ops_and - ops == index.splits - splits

    def test_seeds_the_atomize_cache(self):
        ctx = fib_ctx()
        index = ctx.atom_index()
        classes = lec_classes(ctx, SAMPLE_FIB)
        masks = index.atomize_partition(classes)
        hits, ops = index.atomize_hits, ctx.mgr.stats.ops_and
        assert [index.atomize_mask(pred) for pred in classes] == masks
        assert index.atomize_hits == hits + len(classes)
        assert ctx.mgr.stats.ops_and == ops
