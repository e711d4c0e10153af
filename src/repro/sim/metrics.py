"""Measurement collection for simulation runs.

The simulator advances its clock by the *measured wall-clock cost* of each
device event handler (scaled by a CPU factor standing in for the device CPU)
plus link propagation latencies.  This module accumulates those measurements
in the shapes the paper's figures need: per-device totals and CDFs, per
message-processing times, and end-to-end verification times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import math

__all__ = [
    "CostAggregate",
    "DeviceMetrics",
    "WorkerMetrics",
    "MetricsCollector",
    "percentile",
    "cdf_points",
]


def percentile(values: List[float], q: float) -> float:
    """The q-quantile (0..1) of ``values`` by nearest-rank interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    # lo + (hi-lo)*frac is exact when the neighbors are equal, keeping the
    # result inside [min, max] under floating-point rounding.
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def cdf_points(values: List[float]) -> List[tuple]:
    """(value, cumulative fraction) pairs for CDF plotting/tables."""
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


class CostAggregate:
    """Fixed-memory summary of per-event costs (seconds).

    Keeps the count, total and max, and a log-spaced histogram: a cost
    with ``math.frexp(cost) == (mantissa, exponent)`` counts under the key
    ``exponent * 16 + int(mantissa * 16)`` — eight linear buckets per
    octave, so a quantile read back is within 6.25 % of a recorded cost.
    Memory grows with the span of the costs, never with their number.
    The simulator's handler loops inline :meth:`add` (no call per event).
    """

    __slots__ = ("count", "total", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.buckets: Dict[int, int] = {}

    def add(self, cost: float) -> None:
        self.count += 1
        self.total += cost
        if cost > self.max:
            self.max = cost
        mantissa, exponent = math.frexp(cost)
        key = exponent * 16 + int(mantissa * 16)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @classmethod
    def merged(cls, parts: Iterable["CostAggregate"]) -> "CostAggregate":
        out = cls()
        buckets = out.buckets
        for part in parts:
            out.count += part.count
            out.total += part.total
            out.max = max(out.max, part.max)
            for key, n in part.buckets.items():
                buckets[key] = buckets.get(key, 0) + n
        return out

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1): the middle of the bucket holding the
        nearest rank below :func:`percentile`'s, never above :attr:`max`
        (which ``q == 1`` returns exactly)."""
        rank = q * (self.count - 1)
        if rank >= self.count - 1:
            return self.max
        buckets = self.buckets
        seen = buckets.get(0, 0)  # key 0 holds the zero costs, and only them
        if seen > rank:
            return 0.0
        for key in sorted(buckets):
            if key:
                seen += buckets[key]
                if seen > rank:
                    middle = math.ldexp((key & 15) + 0.5, (key >> 4) - 4)
                    return min(middle, self.max)
        return 0.0


@dataclass
class DeviceMetrics:
    """Per-device accounting."""

    name: str
    events_processed: int = 0
    busy_time: float = 0.0            # simulated seconds spent processing
    # Per-handler costs (simulated seconds): DVM messages and rule updates.
    message_costs: CostAggregate = field(default_factory=CostAggregate)
    init_cost: float = 0.0            # initialization phase (Fig. 14)
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    memory_proxy_peak: int = 0
    # Transport-layer counters (all zero when the reliable direct path is
    # active).  ``messages_*`` above keep counting unique DVM payloads, so
    # they stay comparable with reliable runs; the extra wire traffic the
    # unreliable channel induces shows up here instead.
    retransmits: int = 0              # sender: timeout-driven resends
    dup_drops: int = 0                # receiver: already-delivered segment
    reorder_buffered: int = 0         # receiver: arrived ahead of a gap
    acks_sent: int = 0
    dup_acks_ignored: int = 0         # sender: cumulative ack with no news
    flows_given_up: int = 0           # sender: retries exhausted
    # (src, dst, message type, bytes) per sent message; only populated when
    # the collector's ``collect_logs`` flag is on (determinism regression).
    message_log: List[tuple] = field(default_factory=list)

    def cpu_load(self, wall: float) -> float:
        """CPU time over total time (single core), Fig. 14/15's metric."""
        return self.busy_time / wall if wall > 0 else 0.0


@dataclass
class WorkerMetrics:
    """Per-worker accounting for the process backend."""

    worker_id: int
    num_devices: int = 0
    busy_time: float = 0.0            # wall seconds spent executing commands
    rounds: int = 0                   # cross-worker message rounds received


@dataclass
class MetricsCollector:
    devices: Dict[str, DeviceMetrics] = field(default_factory=dict)
    verification_times: List[float] = field(default_factory=list)
    collect_logs: bool = False        # record per-message logs (slow)
    workers: Dict[int, WorkerMetrics] = field(default_factory=dict)
    parallel_wall: float = 0.0        # coordinator wall-clock, process backend
    routed_messages: int = 0          # cross-worker DVM messages
    routed_bytes: int = 0
    # BDD-engine profiles keyed by engine name ("serial" for the simulator's
    # shared manager, "worker<N>" per process-backend worker); values are
    # ``BddManager.profile()`` snapshots.
    engines: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Atom-index profiles, same keying scheme; values are
    # ``AtomIndex.profile()`` snapshots (only populated in "atoms" mode).
    atom_indexes: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def device(self, name: str) -> DeviceMetrics:
        metrics = self.devices.get(name)
        if metrics is None:
            metrics = DeviceMetrics(name)
            self.devices[name] = metrics
        return metrics

    def worker(self, worker_id: int) -> WorkerMetrics:
        metrics = self.workers.get(worker_id)
        if metrics is None:
            metrics = WorkerMetrics(worker_id)
            self.workers[worker_id] = metrics
        return metrics

    def record_engine(self, name: str, snapshot: Dict[str, int]) -> None:
        """Store (replacing any previous) one engine's profile snapshot."""
        self.engines[name] = dict(snapshot)

    def record_atom_index(self, name: str, snapshot: Dict[str, int]) -> None:
        """Store one atom index's profile snapshot (same keys as engines)."""
        self.atom_indexes[name] = dict(snapshot)

    def worker_busy_times(self) -> List[float]:
        return [m.busy_time for m in self.workers.values()]

    def effective_parallelism(self) -> float:
        """Aggregate worker CPU time over elapsed wall time — how many cores
        the run actually kept busy (the speedup ceiling for this partition)."""
        busy = sum(self.worker_busy_times())
        return busy / self.parallel_wall if self.parallel_wall > 0 else 0.0

    def message_costs(self) -> CostAggregate:
        """Every device's per-handler costs in one aggregate."""
        return CostAggregate.merged(
            m.message_costs for m in self.devices.values()
        )

    def total_messages(self) -> int:
        return sum(m.messages_sent for m in self.devices.values())

    def total_bytes(self) -> int:
        return sum(m.bytes_sent for m in self.devices.values())

    def transport_totals(self) -> Dict[str, int]:
        """Summed transport counters across devices (chaos/retransmission)."""
        fields_ = (
            "retransmits",
            "dup_drops",
            "reorder_buffered",
            "acks_sent",
            "dup_acks_ignored",
            "flows_given_up",
        )
        return {
            name: sum(getattr(m, name) for m in self.devices.values())
            for name in fields_
        }

    def to_dict(self) -> Dict[str, object]:
        """Full collector state as JSON-serializable plain data.

        Per-device message costs are summarized (count + total) and message
        logs are left out; every counter, profile snapshot and aggregate is
        included exactly.
        """
        devices = {}
        for name in sorted(self.devices):
            m = self.devices[name]
            devices[name] = {
                "events_processed": m.events_processed,
                "busy_time": m.busy_time,
                "init_cost": m.init_cost,
                "message_cost_count": m.message_costs.count,
                "message_cost_total": m.message_costs.total,
                "messages_sent": m.messages_sent,
                "messages_received": m.messages_received,
                "bytes_sent": m.bytes_sent,
                "bytes_received": m.bytes_received,
                "memory_proxy_peak": m.memory_proxy_peak,
                "retransmits": m.retransmits,
                "dup_drops": m.dup_drops,
                "reorder_buffered": m.reorder_buffered,
                "acks_sent": m.acks_sent,
                "dup_acks_ignored": m.dup_acks_ignored,
                "flows_given_up": m.flows_given_up,
            }
        workers = {
            str(wid): {
                "worker_id": w.worker_id,
                "num_devices": w.num_devices,
                "busy_time": w.busy_time,
                "rounds": w.rounds,
            }
            for wid, w in sorted(self.workers.items())
        }
        return {
            "devices": devices,
            "workers": workers,
            "verification_times": list(self.verification_times),
            "parallel_wall": self.parallel_wall,
            "routed_messages": self.routed_messages,
            "routed_bytes": self.routed_bytes,
            "engines": {k: dict(v) for k, v in sorted(self.engines.items())},
            "atom_indexes": {
                k: dict(v) for k, v in sorted(self.atom_indexes.items())
            },
            "totals": {
                "messages": self.total_messages(),
                "bytes": self.total_bytes(),
                "transport": self.transport_totals(),
            },
        }
