"""Predicate-keyed maps: disjoint (packet set → value) partitions.

CIBIn, LocCIB and CIBOut (§5.1) are all maps from *disjoint* packet-space
regions to counting results.  :class:`PredMap` maintains that disjointness
invariant under lookups, regional reassignment and removal, and is the one
data structure the DVM implementation leans on.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterable, Iterator, List, Tuple, TypeVar

__all__ = ["PredMap"]

V = TypeVar("V")


class PredMap(Generic[V]):
    """A partition of (a subset of) packet space into valued regions.

    Written once over the *words* of a region carrier
    (:meth:`PacketSpaceContext.carrier`): callers pass and receive raw words
    that are current (``resolve``d) and die with the handler; the entries
    themselves outlive it, so they are stored as carrier handles
    (``keep``) and read back through ``word``.  Regions with equal values
    are merged on write so the map stays minimal — mirroring how the
    paper's devices "merge entries with the same count value" before
    sending (§5.2 step 3).
    """

    def __init__(self, carrier) -> None:
        self._word = carrier.word
        self._keep = carrier.keep
        # Pairwise-disjoint (handle, value) pairs; iteration order is what
        # fixes piece order, and therefore DVM wire bytes.
        self._entries: List[Tuple[object, V]] = []

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def _split(self, region) -> Tuple[List[Tuple[object, V]], object]:
        pieces: List[Tuple[object, V]] = []
        remaining = region
        word = self._word
        for handle, value in self._entries:
            if not remaining:
                break
            piece = remaining & word(handle)
            if piece:
                pieces.append((piece, value))
                remaining = remaining & ~piece
        return pieces, remaining

    def lookup(self, region) -> List[Tuple[object, V]]:
        """Split ``region`` along entry boundaries.

        Returns disjoint ``(piece, value)`` pairs covering the part of
        ``region`` that the map covers; uncovered leftovers are not returned
        (callers that need them use :meth:`lookup_with_default`).
        """
        return self._split(region)[0]

    def lookup_with_default(self, region, default: V) -> List[Tuple[object, V]]:
        """Like :meth:`lookup` but the uncovered remainder maps to
        ``default``."""
        pieces, leftover = self._split(region)
        if leftover:
            pieces.append((leftover, default))
        return pieces

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[object, V]]:
        """The stored ``(handle, value)`` entries."""
        return iter(self._entries)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def assign(self, pieces: Iterable[Tuple[object, V]]) -> None:
        """Overwrite the regions of ``pieces`` with their new values.

        Existing entries are carved down so disjointness is preserved;
        regions with equal values are merged (survivors first, then the new
        pieces, each value keeping its first position).
        """
        new_pieces = [(region, value) for region, value in pieces if region]
        if not new_pieces:
            return
        overwritten = new_pieces[0][0]
        for region, _value in new_pieces[1:]:
            overwritten = overwritten | region
        word = self._word
        survivors: List[Tuple[object, V]] = []
        for handle, value in self._entries:
            kept = word(handle) & ~overwritten
            if kept:
                survivors.append((kept, value))
        survivors.extend(new_pieces)
        merged: Dict[object, object] = {}
        values: Dict[object, V] = {}
        for region, value in survivors:
            try:
                key: object = value
                hash(key)
            except TypeError:
                key = id(value)
            if key in merged:
                merged[key] = merged[key] | region
            else:
                merged[key] = region
                values[key] = value
        keep = self._keep
        self._entries = [(keep(merged[key]), values[key]) for key in merged]

    def remove(self, region) -> None:
        """Delete ``region`` from the map's domain."""
        if not region:
            return
        word = self._word
        keep = self._keep
        survivors: List[Tuple[object, V]] = []
        for handle, value in self._entries:
            kept = word(handle) & ~region
            if kept:
                survivors.append((keep(kept), value))
        self._entries = survivors

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PredMap({len(self._entries)} regions)"

