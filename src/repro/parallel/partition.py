"""Device-to-worker partitioning for the parallel backend.

DVM messages travel only between physical neighbors, so the cost of a
partition is the number of topology edges it cuts: messages between
co-located devices stay Python objects inside one worker, messages crossing
workers pay a wire encode on one side and a decode on the other.  Without
declared tenants the partition grows BFS locality clusters (pods cluster
naturally on DC fabrics); with them, each slice-footprint component stays
whole on one worker.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SimulationError
from repro.topology.graph import Topology

__all__ = ["partition_devices", "cut_edges"]


def _locality(
    topology: Topology,
    devices: List[str],
    num_workers: int,
    weights: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Grow ``num_workers`` BFS clusters of near-equal total weight.

    Without ``weights`` every device counts 1 (near-equal sizes); with them
    (e.g. per-device DPVNet node counts) clusters balance expected verifier
    *load*, which is what bounds the parallel critical path.

    Deterministic: seeds and traversal order are name-sorted, so the same
    topology always yields the same assignment (a prerequisite for the
    backend's reproducibility guarantee).
    """
    w = weights or {}
    total = sum(w.get(dev, 1) for dev in devices)
    target = total / num_workers
    assigned: Dict[str, int] = {}
    unassigned = sorted(devices)
    worker = 0
    while unassigned:
        seed = unassigned[0]
        frontier = [seed]
        cluster_weight = 0
        seen = {seed}
        while frontier and cluster_weight < target:
            frontier.sort()
            next_frontier: List[str] = []
            for dev in frontier:
                if cluster_weight >= target:
                    break
                if dev in assigned:
                    continue
                cluster_weight += w.get(dev, 1)
                assigned[dev] = worker
                for neighbor in sorted(topology.neighbors(dev)):
                    if neighbor not in seen and neighbor not in assigned:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        unassigned = [dev for dev in unassigned if dev not in assigned]
        worker = min(worker + 1, num_workers - 1)
    return assigned


def _slice_aligned(
    devices: List[str],
    num_workers: int,
    groups: Sequence[Sequence[str]],
) -> Dict[str, int]:
    """Keep each slice group (connected component of slices that share
    devices) whole on one worker, spreading groups across workers by load.

    Slices with disjoint footprints land in different groups, so their DVM
    traffic never crosses a worker boundary; within a group every message
    stays process-local too.  Greedy longest-group-first onto the currently
    least-loaded worker balances device counts; devices outside every group
    (no verifier will ever run there) backfill the lightest workers.
    Deterministic: groups and devices are processed in sorted order.
    """
    universe = set(devices)
    load = [0] * num_workers
    assigned: Dict[str, int] = {}
    normalized: List[List[str]] = []
    claimed: set = set()
    for group in groups:
        members = sorted(
            dev for dev in set(group) if dev in universe and dev not in claimed
        )
        if members:
            normalized.append(members)
            claimed.update(members)
    normalized.sort(key=lambda g: (-len(g), g))

    def lightest() -> int:
        return min(range(num_workers), key=lambda w: (load[w], w))

    for members in normalized:
        wid = lightest()
        for dev in members:
            assigned[dev] = wid
        load[wid] += len(members)
    for dev in sorted(universe - claimed):
        wid = lightest()
        assigned[dev] = wid
        load[wid] += 1
    return assigned


def partition_devices(
    topology: Topology,
    num_workers: int,
    devices: Sequence[str] = (),
    weights: Optional[Mapping[str, int]] = None,
    groups: Optional[Sequence[Sequence[str]]] = None,
) -> Dict[str, int]:
    """Assign every device to a worker id in ``[0, num_workers)``.

    With ``groups`` (slice-footprint components from
    :meth:`repro.slicing.SliceRegistry.device_groups`) each component stays
    whole on one worker; without them the devices form locality clusters."""
    if num_workers < 1:
        raise SimulationError("need at least one worker")
    names = sorted(devices) if devices else sorted(topology.devices)
    if groups is not None:
        return _slice_aligned(names, num_workers, groups)
    return _locality(topology, names, num_workers, weights)


def cut_edges(topology: Topology, assignment: Dict[str, int]) -> int:
    """Number of topology links whose endpoints live on different workers."""
    cut = 0
    for link in topology.links():
        a, b = link.endpoints()
        if assignment.get(a) != assignment.get(b):
            cut += 1
    return cut
