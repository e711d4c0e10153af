"""Network topology model.

A :class:`Topology` is an undirected multigraph-free graph of named devices
with per-link propagation latencies and the §3 convenience mapping from
devices with external ports to the IP prefixes reachable through them.  The
planner, the simulator and the dataset builders all share this type.

Latencies are in seconds (floats) to match the simulator clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import TopologyError

__all__ = ["Link", "Topology", "canonical_link"]


def canonical_link(a: str, b: str) -> Tuple[str, str]:
    """Normalize an undirected link to a sorted tuple."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link:
    """An undirected link with a propagation latency in seconds."""

    a: str
    b: str
    latency: float = 1e-5  # default 10 microseconds (the paper's LAN/DC value)

    def endpoints(self) -> Tuple[str, str]:
        return canonical_link(self.a, self.b)

    def other(self, device: str) -> str:
        if device == self.a:
            return self.b
        if device == self.b:
            return self.a
        raise TopologyError(f"{device!r} is not an endpoint of {self}")


class Topology:
    """Undirected device graph with latencies and external prefix ports."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._adjacency: Dict[str, Dict[str, float]] = {}
        # §3 convenience feature: (device, IP_prefix) mapping for devices
        # with external ports.
        self.external_prefixes: Dict[str, List[str]] = {}
        # destination -> BFS hop distances; cleared by every graph mutation.
        self._hops_to: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_device(self, name: str) -> None:
        self._adjacency.setdefault(name, {})
        self._hops_to.clear()

    def add_link(self, a: str, b: str, latency: float = 1e-5) -> None:
        if a == b:
            raise TopologyError(f"self-loop on device {a!r}")
        if latency < 0:
            raise TopologyError("latency must be non-negative")
        self.add_device(a)
        self.add_device(b)
        self._adjacency[a][b] = latency
        self._adjacency[b][a] = latency
        self._hops_to.clear()

    def attach_prefix(self, device: str, prefix: str) -> None:
        """Declare that ``prefix`` is reachable via an external port of
        ``device`` (making the device a valid path destination for packets
        addressed inside the prefix)."""
        if device not in self._adjacency:
            raise TopologyError(f"unknown device {device!r}")
        self.external_prefixes.setdefault(device, []).append(prefix)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def devices(self) -> List[str]:
        return sorted(self._adjacency)

    @property
    def num_devices(self) -> int:
        return len(self._adjacency)

    @property
    def num_links(self) -> int:
        return sum(len(neigh) for neigh in self._adjacency.values()) // 2

    def has_device(self, name: str) -> bool:
        return name in self._adjacency

    def neighbors(self, device: str) -> List[str]:
        try:
            return sorted(self._adjacency[device])
        except KeyError:
            raise TopologyError(f"unknown device {device!r}") from None

    def degree(self, device: str) -> int:
        return len(self._adjacency[device])

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adjacency.get(a, {})

    def latency(self, a: str, b: str) -> float:
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> Iterator[Link]:
        seen: Set[Tuple[str, str]] = set()
        for a in sorted(self._adjacency):
            for b, latency in sorted(self._adjacency[a].items()):
                key = canonical_link(a, b)
                if key not in seen:
                    seen.add(key)
                    yield Link(key[0], key[1], latency)

    def link_set(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(link.endpoints() for link in self.links())

    def prefix_owner(self, prefix: str) -> Optional[str]:
        """Device owning an external prefix, or None."""
        for device, prefixes in self.external_prefixes.items():
            if prefix in prefixes:
                return device
        return None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def without_links(self, failed: Iterable[Tuple[str, str]]) -> "Topology":
        """Copy of the topology with the given links removed (a fault scene's
        topology G_f, §6)."""
        failed_set = {canonical_link(a, b) for a, b in failed}
        clone = Topology(self.name)
        for device in self._adjacency:
            clone.add_device(device)
        for link in self.links():
            if link.endpoints() not in failed_set:
                clone.add_link(link.a, link.b, link.latency)
        clone.external_prefixes = {
            dev: list(prefixes) for dev, prefixes in self.external_prefixes.items()
        }
        return clone

    def with_virtual_device(
        self, name: str, neighbors: Sequence[str], latency: float = 0.0
    ) -> "Topology":
        """Copy with an added virtual device (used for §4.3 virtual sources
        and virtual destinations)."""
        if self.has_device(name):
            raise TopologyError(f"device {name!r} already exists")
        clone = self.without_links([])
        clone.add_device(name)
        for neighbor in neighbors:
            clone.add_link(name, neighbor, latency)
        return clone

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def hop_distances_to(self, destination: str) -> Dict[str, int]:
        """BFS hop count from every device to ``destination`` (a copy the
        caller may mutate)."""
        return dict(self._distances_to(destination))

    def shortest_hops(self, source: str, destination: str) -> Optional[int]:
        """Hop count of the shortest path, or None if disconnected."""
        return self._distances_to(destination).get(source)

    def _distances_to(self, destination: str) -> Dict[str, int]:
        """The cached BFS from ``destination``: one run per destination
        until the graph next changes."""
        distances = self._hops_to.get(destination)
        if distances is not None:
            return distances
        if destination not in self._adjacency:
            raise TopologyError(f"unknown device {destination!r}")
        distances = {destination: 0}
        frontier = [destination]
        while frontier:
            next_frontier: List[str] = []
            for device in frontier:
                for neighbor in self._adjacency[device]:
                    if neighbor not in distances:
                        distances[neighbor] = distances[device] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        self._hops_to[destination] = distances
        return distances

    def latency_distances_from(self, source: str) -> Dict[str, float]:
        """Dijkstra over link latencies (used to route management traffic for
        the centralized baselines)."""
        import heapq

        if source not in self._adjacency:
            raise TopologyError(f"unknown device {source!r}")
        dist: Dict[str, float] = {source: 0.0}
        heap: List[Tuple[float, str]] = [(0.0, source)]
        done: Set[str] = set()
        while heap:
            d, device = heapq.heappop(heap)
            if device in done:
                continue
            done.add(device)
            for neighbor, latency in self._adjacency[device].items():
                nd = d + latency
                if nd < dist.get(neighbor, float("inf")):
                    dist[neighbor] = nd
                    heapq.heappush(heap, (nd, neighbor))
        return dist

    def diameter_hops(self) -> int:
        """Maximum finite hop distance over all device pairs."""
        best = 0
        for device in self._adjacency:
            distances = self._distances_to(device)
            if distances:
                best = max(best, max(distances.values()))
        return best

    def is_connected(self) -> bool:
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        return len(self._distances_to(start)) == len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, devices={self.num_devices}, "
            f"links={self.num_links})"
        )
