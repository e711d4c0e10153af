"""PredMap: the disjoint region→value partition behind all CIBs.

Every case runs on both region carriers — the packed-int mask (production)
and the BDD ``Predicate`` (reference) — and compares *lowered* results, so
the one text of lookup/assign/remove is checked on each representation and
the two are checked against each other.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.core.predmap import PredMap

CARRIERS = ("atoms", "bdd")


def small_ctx(bits=5):
    return PacketSpaceContext(HeaderLayout([("f", bits)]))


class Harness:
    """A PredMap on one carrier, driven and observed through canonical
    predicates (lift on the way in, lower on the way out)."""

    def __init__(self, ctx, carrier_name):
        self.ctx = ctx
        self.carrier = ctx.carrier(carrier_name)
        self.pm = PredMap(self.carrier)

    def _current(self, preds):
        """Lift every predicate, then resolve: words that meet under ``&``
        must all be current."""
        words = [self.carrier.lift(pred) for pred in preds]
        return [self.carrier.resolve(word) for word in words]

    def _lowered(self, pieces):
        return [(self.carrier.lower(word), value) for word, value in pieces]

    def assign(self, pieces):
        pieces = list(pieces)
        words = self._current(pred for pred, _value in pieces)
        self.pm.assign(
            [(word, value) for word, (_pred, value) in zip(words, pieces)]
        )

    def remove(self, pred):
        self.pm.remove(self._current([pred])[0])

    def lookup(self, pred):
        return self._lowered(self.pm.lookup(self._current([pred])[0]))

    def lookup_with_default(self, pred, default):
        return self._lowered(
            self.pm.lookup_with_default(self._current([pred])[0], default)
        )

    def entries(self):
        carrier = self.carrier
        return [
            (carrier.lower(carrier.word(handle)), value)
            for handle, value in self.pm
        ]

    def covered(self):
        return self.ctx.union(pred for pred, _value in self.entries())

    def value_at(self, pred):
        """Value of a region entirely inside one entry, else ``None``."""
        pieces = self.lookup_with_default(pred, None)
        if len(pieces) == 1 and pieces[0][0] == pred:
            return pieces[0][1]
        return None


def harnesses(bits=5):
    """One fresh (context, harness) per carrier."""
    for name in CARRIERS:
        yield Harness(small_ctx(bits), name)


class TestAssignLookup:
    def test_empty_map(self):
        for h in harnesses():
            assert h.lookup(h.ctx.universe) == []
            assert h.covered().is_empty
            assert len(h.pm) == 0

    def test_assign_and_lookup(self):
        for h in harnesses():
            low = h.ctx.range_("f", 0, 15)
            h.assign([(low, "a")])
            assert h.lookup(h.ctx.universe) == [(low, "a")]

    def test_lookup_with_default_fills_gap(self):
        for h in harnesses():
            low = h.ctx.range_("f", 0, 15)
            h.assign([(low, "a")])
            pieces = h.lookup_with_default(h.ctx.universe, "zero")
            assert {v for _p, v in pieces} == {"a", "zero"}
            assert h.ctx.union(p for p, _v in pieces).is_universe

    def test_overwrite_carves_existing(self):
        for h in harnesses():
            ctx = h.ctx
            h.assign([(ctx.universe, "old")])
            h.assign([(ctx.range_("f", 8, 23), "new")])
            assert h.value_at(ctx.range_("f", 8, 23)) == "new"
            assert h.value_at(ctx.range_("f", 0, 7)) == "old"
            assert h.value_at(ctx.range_("f", 24, 31)) == "old"

    def test_equal_values_merge(self):
        for h in harnesses():
            h.assign([(h.ctx.range_("f", 0, 7), "x")])
            h.assign([(h.ctx.range_("f", 8, 15), "x")])
            assert len(h.pm) == 1
            assert h.value_at(h.ctx.range_("f", 0, 15)) == "x"

    def test_assign_empty_piece_ignored(self):
        for h in harnesses():
            h.assign([(h.ctx.empty, "x")])
            assert len(h.pm) == 0

    def test_remove(self):
        for h in harnesses():
            h.assign([(h.ctx.universe, "x")])
            h.remove(h.ctx.range_("f", 0, 15))
            assert h.covered() == h.ctx.range_("f", 16, 31)

    def test_value_at_none_for_straddling_region(self):
        for h in harnesses():
            ctx = h.ctx
            h.assign(
                [(ctx.range_("f", 0, 15), "a"), (ctx.range_("f", 16, 31), "b")]
            )
            assert h.value_at(ctx.range_("f", 8, 23)) is None
            assert h.lookup(ctx.range_("f", 8, 23)) == [
                (ctx.range_("f", 8, 15), "a"),
                (ctx.range_("f", 16, 23), "b"),
            ]

    def test_unhashable_values_supported(self):
        for h in harnesses():
            h.assign([(h.ctx.universe, ["list", "value"])])
            assert h.value_at(h.ctx.universe) == ["list", "value"]


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        lo = draw(st.integers(0, 31))
        hi = draw(st.integers(lo, 31))
        value = draw(st.integers(0, 3))
        ops.append((lo, hi, value))
    return ops


@st.composite
def mixed_operations(draw):
    """Random assign/remove sequences over [0, 31] ranges."""
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        lo = draw(st.integers(0, 31))
        hi = draw(st.integers(lo, 31))
        if draw(st.booleans()):
            ops.append(("assign", lo, hi, draw(st.integers(0, 3))))
        else:
            ops.append(("remove", lo, hi, None))
    return ops


class TestProperties:
    @given(operations())
    @settings(max_examples=80, deadline=None)
    def test_disjointness_invariant(self, ops):
        for h in harnesses():
            for lo, hi, value in ops:
                h.assign([(h.ctx.range_("f", lo, hi), value)])
            entries = h.entries()
            for i, (a, _va) in enumerate(entries):
                for b, _vb in entries[i + 1:]:
                    assert not a.overlaps(b)

    @given(operations())
    @settings(max_examples=80, deadline=None)
    def test_last_writer_wins(self, ops):
        """Every point's value equals the last assign covering it."""
        for h in harnesses():
            for lo, hi, value in ops:
                h.assign([(h.ctx.range_("f", lo, hi), value)])
            for point in range(32):
                expected = None
                for lo, hi, value in ops:
                    if lo <= point <= hi:
                        expected = value
                assert h.value_at(h.ctx.value("f", point)) == expected


def apply_ops(h, ops):
    for op, lo, hi, value in ops:
        region = h.ctx.range_("f", lo, hi)
        if op == "assign":
            h.assign([(region, value)])
        else:
            h.remove(region)


class TestAtomBackedAgreement:
    """The mask-carrier PredMap must agree with the BDD-carrier one under
    any assign/remove/lookup sequence — identical lowered entry *lists*
    (same regions, same values, same order), hence same disjointness,
    coverage and merge-minimal structure."""

    @staticmethod
    def run_pair(ops):
        ctx = small_ctx()
        atoms, bdd = Harness(ctx, "atoms"), Harness(ctx, "bdd")
        apply_ops(atoms, ops)
        apply_ops(bdd, ops)
        return ctx, atoms, bdd

    @given(mixed_operations())
    @settings(max_examples=60, deadline=None)
    def test_same_partition(self, ops):
        _ctx, atoms, bdd = self.run_pair(ops)
        # Identical region→value lists, canonical-BDD keyed.
        assert atoms.entries() == bdd.entries()

    @given(mixed_operations())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_covering_and_merge_minimal(self, ops):
        _ctx, atoms, _bdd = self.run_pair(ops)
        entries = atoms.entries()
        # Disjointness.
        for i, (a, _va) in enumerate(entries):
            for b, _vb in entries[i + 1:]:
                assert not a.overlaps(b)
        # Merge-minimality: one entry per (hashable) value.
        values = [v for _a, v in entries]
        assert len(values) == len(set(values))

    @given(mixed_operations())
    @settings(max_examples=60, deadline=None)
    def test_lookup_agreement(self, ops):
        ctx, atoms, bdd = self.run_pair(ops)
        probe = ctx.range_("f", 4, 27)
        assert atoms.lookup(probe) == bdd.lookup(probe)
        assert atoms.lookup_with_default(
            probe, "gap"
        ) == bdd.lookup_with_default(probe, "gap")

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_seeded_churn_agrees_with_gc_armed(self, seed):
        """A long seeded assign/remove/lookup stream with the engine's GC
        (and with it atom compaction — merge on collect) firing between
        operations: lowered entry lists and lookups stay identical."""
        rng = random.Random(seed)
        ctx = small_ctx(bits=8)
        atoms, bdd = Harness(ctx, "atoms"), Harness(ctx, "bdd")
        for step in range(300):
            lo = rng.randrange(256)
            hi = rng.randrange(lo, 256)
            region = ctx.range_("f", lo, hi)
            roll = rng.random()
            for h in (atoms, bdd):
                if roll < 0.5:
                    h.assign([(region, step % 5)])
                elif roll < 0.75:
                    h.remove(region)
            assert atoms.lookup_with_default(
                region, "gap"
            ) == bdd.lookup_with_default(region, "gap")
            assert atoms.entries() == bdd.entries()
            if step % 7 == 0:
                # Safe point: only handles and Predicates are live here.
                ctx.mgr.collect()
        assert ctx.mgr.stats.gc_runs > 0
        assert ctx.atom_index().compactions > 0


class TestDomainCacheInvalidation:
    """The covered region must track every write path — assign, remove —
    or announce-side diffs would run against a stale footprint."""

    def test_remove_invalidates_cached_domain(self):
        for h in harnesses():
            low = h.ctx.range_("f", 0, 15)
            high = h.ctx.range_("f", 16, 31)
            h.assign([(low, "a"), (high, "b")])
            assert h.covered() == low | high
            h.remove(low)
            assert h.covered() == high
            h.remove(h.ctx.universe)
            assert h.covered().is_empty

    def test_empty_remove_keeps_cache_valid(self):
        for h in harnesses():
            low = h.ctx.range_("f", 0, 15)
            h.assign([(low, "a")])
            before = h.entries()
            h.remove(h.ctx.empty)  # no-op removal must not corrupt anything
            assert h.entries() == before
            assert h.covered() == low

    def test_assign_after_remove(self):
        for h in harnesses():
            low = h.ctx.range_("f", 0, 15)
            high = h.ctx.range_("f", 16, 31)
            h.assign([(low, "a")])
            h.remove(low)
            h.assign([(high, "b")])
            assert h.covered() == high


class TestMaskTwins:
    """The mask carrier must mirror the reference carrier piece for piece —
    same entry walk, same piece order, same merge — which is what keeps
    wire bytes identical across ``predicate_index`` modes."""

    def pair(self):
        ctx = small_ctx(bits=6)
        atoms, bdd = Harness(ctx, "atoms"), Harness(ctx, "bdd")
        for h in (atoms, bdd):
            h.assign(
                [(ctx.range_("f", 0, 15), "x"), (ctx.range_("f", 16, 40), "y")]
            )
        return ctx, atoms, bdd

    def test_lookup_masks_matches_generic(self):
        ctx, atoms, bdd = self.pair()
        region = ctx.range_("f", 8, 20)
        assert atoms.lookup(region) == bdd.lookup(region)
        assert [v for _p, v in atoms.lookup(region)] == ["x", "y"]

    def test_lookup_masks_with_default_matches_generic(self):
        ctx, atoms, bdd = self.pair()
        region = ctx.range_("f", 8, 60)
        pieces = atoms.lookup_with_default(region, "zero")
        assert pieces == bdd.lookup_with_default(region, "zero")
        assert [v for _p, v in pieces] == ["x", "y", "zero"]

    def test_assign_masks_matches_generic_assign(self):
        ctx, atoms, bdd = self.pair()
        region = ctx.range_("f", 8, 20)
        for h in (atoms, bdd):
            h.assign([(region, "z")])
        assert atoms.entries() == bdd.entries()
        assert [v for _p, v in atoms.entries()] == ["x", "y", "z"]
