"""Worker process: hosts a partition's verifiers and drains local messages.

Each worker owns the devices of one partition block: their data planes, one
:class:`OnDeviceVerifier` per (device, invariant), and a private BDD context
(inherited across the coordinator's fork).  A worker executes *commands*
(burst install, inbox delivery, link change, scene switch, rule updates) and
after each one drains its local message queue to quiescence — messages
between co-located devices never leave the process.  Messages whose
destination lives on another worker accumulate in per-destination outbound
buckets and are flushed when the command completes (the worker goes idle):
each message crosses as the bytes of the one DVM codec,
:func:`repro.core.wire.encode_message`, in the reply on the command pipe.

Workers are *persistent* (:mod:`repro.parallel.pool`): a ``reset`` command
re-points the process at a new deployment — fresh planes and verifiers on
the same warm BDD context.

Determinism: every message carries a ``(source device, per-device sequence)``
key.  Batches are sorted by key and grouped by sorted ``(device, invariant)``
before delivery, so a fixed partition always replays identically — and the
DVM fixpoint itself is order-independent, which is what makes the result
equal to the serial simulator's byte for byte even though the non-barrier
coordinator delivers cross-worker batches in arrival order.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.serialize import serialize_predicate
from repro.core.verifier import OnDeviceVerifier
from repro.core.wire import decode_message, encode_message
from repro.dataplane.device import DevicePlane
from repro.parallel import shipping
from repro.parallel.parity import canonical_source_counts
from repro.topology.graph import canonical_link

__all__ = ["VerifierHost", "worker_main"]

# (source device, per-source sequence number): a total, partition-independent
# order over the messages any one device emits.
MessageKey = Tuple[str, int]
# One cross-worker message: (key, destination device, invariant, the
# message's repro.core.wire bytes).
WireEntry = Tuple[MessageKey, str, str, bytes]


def _fresh_stats() -> Dict[str, int]:
    return {
        "events_processed": 0,
        "messages_sent": 0,
        "bytes_sent": 0,
        "messages_received": 0,
        "bytes_received": 0,
    }


class VerifierHost:
    """The in-process state of one worker.

    Constructed from live objects inherited across the coordinator's fork
    (context, planes, tasks — no deserialization).  After the fork these are
    private copies; every later state change arrives as an explicit command,
    with rules crossing as shipped payloads and DVM messages as
    :mod:`repro.core.wire` bytes.
    """

    def __init__(self, init: Dict[str, object]) -> None:
        self.wid: int = init["wid"]  # type: ignore[assignment]
        self.ctx = init["ctx"]
        self.assignment: Dict[str, int] = dict(init["assignment"])  # type: ignore[arg-type]
        self.predicate_index: str = init.get("predicate_index", "atoms")  # type: ignore[assignment]
        self.index = (
            self.ctx.atom_index()  # type: ignore[attr-defined]
            if self.predicate_index == "atoms"
            else None
        )

        # Arm the per-worker BDD engine's garbage collector if requested.
        # Verifiers sweep at event boundaries; messages queued during a
        # drain hold Predicates (GC roots), so mid-drain sweeps are safe.
        gc_threshold = init.get("gc_threshold")
        if gc_threshold is not None:
            self.ctx.mgr.gc_threshold = gc_threshold  # type: ignore[attr-defined]

        self.busy = 0.0
        self.rounds = 0
        self._attach(
            dict(init["planes"]),  # type: ignore[arg-type]
            list(init["tasks"]),  # type: ignore[arg-type]
        )

    def _attach(self, planes: Dict[str, DevicePlane], tasks: list) -> None:
        """Bind this worker to one deployment's planes and tasks."""
        self.planes = planes
        self.verifiers: Dict[Tuple[str, str], OnDeviceVerifier] = {}
        self._by_dev: Dict[str, List[Tuple[str, OnDeviceVerifier]]] = {
            dev: [] for dev in self.planes
        }
        for task in tasks:
            verifier = OnDeviceVerifier(
                task, self.planes[task.dev],
                predicate_index=self.predicate_index,
            )
            self.verifiers[(task.dev, task.invariant_name)] = verifier
            self._by_dev[task.dev].append((task.invariant_name, verifier))
        for pairs in self._by_dev.values():
            pairs.sort(key=lambda pair: pair[0])

        self.failed: Set[Tuple[str, str]] = set()
        self._queue: List[Tuple[MessageKey, str, str, object]] = []
        self._seq: Dict[str, int] = {}
        self._outbound: Dict[int, List[tuple]] = {}
        self.stats: Dict[str, Dict[str, int]] = {
            dev: _fresh_stats() for dev in self.planes
        }
        # Delta-collect bookkeeping: everything is dirty until the first
        # collect, then only touched verifiers/devices ship.
        self._dirty_verifiers: Set[Tuple[str, str]] = set(self.verifiers)
        self._dirty_stats: Set[str] = set(self.planes)

    def reset(self, payload: Dict[str, object]) -> None:
        """Re-point this persistent worker at a new deployment.

        Planes and verifiers are rebuilt from shipped state; the BDD context
        (node table, op caches, serialize memos) and the atom index survive
        — which is what makes a redeploy on a warm pool much cheaper than a
        fresh fork."""
        tasks = shipping.unship_tasks(self.ctx, payload["tasks"])  # type: ignore[arg-type]
        planes = {
            dev: DevicePlane(dev, self.ctx)
            for dev in payload["devices"]  # type: ignore[union-attr]
        }
        self._attach(planes, tasks)

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def _route(self, src: str, invariant: str, outgoing) -> None:
        stats = self.stats[src]
        self._dirty_stats.add(src)
        for dst, message in outgoing:
            if canonical_link(src, dst) in self.failed:
                continue  # the DVM channel is down; resync on recovery
            seq = self._seq.get(src, 0)
            self._seq[src] = seq + 1
            key = (src, seq)
            stats["messages_sent"] += 1
            stats["bytes_sent"] += message.wire_size()
            dst_wid = self.assignment[dst]
            if dst_wid == self.wid:
                self._queue.append((key, dst, invariant, message))
            else:
                self._outbound.setdefault(dst_wid, []).append(
                    (key, dst, invariant, message)
                )

    def _drain(self) -> None:
        """Deliver queued local messages in waves until none remain."""
        while self._queue:
            batch, self._queue = self._queue, []
            batch.sort(key=lambda entry: entry[0])
            groups: Dict[Tuple[str, str], List[object]] = {}
            for _key, dst, invariant, message in batch:
                groups.setdefault((dst, invariant), []).append(message)
            for dst, invariant in sorted(groups):
                messages = groups[(dst, invariant)]
                stats = self.stats[dst]
                stats["events_processed"] += 1
                stats["messages_received"] += len(messages)
                stats["bytes_received"] += sum(
                    m.wire_size() for m in messages  # type: ignore[attr-defined]
                )
                self._dirty_stats.add(dst)
                verifier = self.verifiers.get((dst, invariant))
                if verifier is None:
                    continue
                self._dirty_verifiers.add((dst, invariant))
                self._route(dst, invariant, verifier.handle_batch(messages))

    def flush(self) -> List[Tuple[int, List[WireEntry]]]:
        """Encode the outbound buckets; returns one ``(dst wid, entries)``
        pair per destination worker, each message as wire bytes."""
        out = [
            (
                dst_wid,
                [
                    (key, dst, invariant, encode_message(message))
                    for key, dst, invariant, message in self._outbound[dst_wid]
                ],
            )
            for dst_wid in sorted(self._outbound)
        ]
        self._outbound = {}
        return out

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def inbox(self, entries: Sequence[WireEntry]) -> None:
        """Deliver a batch of cross-worker messages, then drain."""
        self.rounds += 1
        ctx = self.ctx
        self._queue.extend(
            (key, dst, invariant, decode_message(ctx, blob))
            for key, dst, invariant, blob in entries
        )
        self._drain()

    def burst(self, payload: Dict[str, object]) -> None:
        """Install rule bursts, then (re)initialize every local verifier."""
        installs = shipping.unship_rule_sets(self.ctx, payload)
        for dev in sorted(installs):
            self.planes[dev].install_many(installs[dev])
        for dev, invariant in sorted(self.verifiers):
            self.stats[dev]["events_processed"] += 1
            self._dirty_stats.add(dev)
            self._dirty_verifiers.add((dev, invariant))
            verifier = self.verifiers[(dev, invariant)]
            self._route(dev, invariant, verifier.initialize())
        self._drain()

    def link(self, changes: List[Tuple[str, str, bool]]) -> None:
        for a, b, is_up in changes:
            key = canonical_link(a, b)
            if is_up:
                self.failed.discard(key)
            else:
                self.failed.add(key)
        for a, b, is_up in changes:
            for endpoint, other in ((a, b), (b, a)):
                for invariant, verifier in self._by_dev.get(endpoint, ()):
                    self.stats[endpoint]["events_processed"] += 1
                    self._dirty_stats.add(endpoint)
                    self._dirty_verifiers.add((endpoint, invariant))
                    self._route(
                        endpoint,
                        invariant,
                        verifier.handle_link_change(other, is_up),
                    )
        self._drain()

    def scene(self, scene_id: Optional[int]) -> None:
        for dev, invariant in sorted(self.verifiers):
            self.stats[dev]["events_processed"] += 1
            self._dirty_stats.add(dev)
            self._dirty_verifiers.add((dev, invariant))
            verifier = self.verifiers[(dev, invariant)]
            self._route(dev, invariant, verifier.activate_scene(scene_id))
        self._drain()

    def update(self, updates: Sequence[tuple]) -> None:
        """Apply per-device batches of rule updates, then drain once.

        Each entry is ``(device, shipped (install, remove_id) pairs,
        only)``: one device event, as on the serial backend — the pairs
        mutate the plane, and the net LEC deltas go to the device's
        verifiers in one hand-off.  ``only`` (a sorted tuple of invariant
        names, or None) restricts that hand-off — the slicing scheduler's
        routing verdict, shipped with the batch.  The DVM fixpoint is
        order- and batching-independent, so draining once after n batches
        converges to the same state as n separate drains — which is what
        lets the coordinator coalesce a churn burst into one command."""
        for dev, payload, only in updates:
            apply_update = self.planes[dev].apply_update
            deltas = []
            pairs = shipping.unship_updates(self.ctx, payload)
            for install, remove_id in pairs:
                deltas.extend(apply_update(install, remove_id))
            for invariant, verifier in self._by_dev.get(dev, ()):
                if only is not None and invariant not in only:
                    continue
                self.stats[dev]["events_processed"] += 1
                self._dirty_stats.add(dev)
                self._dirty_verifiers.add((dev, invariant))
                self._route(dev, invariant, verifier.handle_lec_deltas(deltas))
        self._drain()

    # ------------------------------------------------------------------
    # State export
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, object]:
        """Delta state export: only verifiers and devices touched since the
        last collect ship their verdicts/stats (everything on the first one).

        The coordinator merges deltas into its accumulated view, so per-run
        refreshes in a churn loop cost O(touched), not O(network)."""
        verdict_parts: List[tuple] = []
        for dev, invariant in sorted(self._dirty_verifiers):
            verifier = self.verifiers.get((dev, invariant))
            if verifier is None:
                continue
            entry = {}
            for ingress, (ok, violations) in verifier.verdicts.items():
                entry[ingress] = (
                    ok,
                    [
                        {
                            "ingress": v.ingress,
                            "region": serialize_predicate(v.region),
                            "counts": v.counts,
                            "message": v.message,
                        }
                        for v in violations
                    ],
                )
            verdict_parts.append((dev, invariant, entry))
        self._dirty_verifiers.clear()
        stats = {}
        memory = {}
        for dev in sorted(self._dirty_stats):
            stats[dev] = dict(self.stats[dev])
            pairs = self._by_dev.get(dev)
            if pairs is not None:
                memory[dev] = sum(v.memory_proxy() for _inv, v in pairs)
        self._dirty_stats.clear()
        return {
            "verdicts": verdict_parts,
            "memory": memory,
            "stats": stats,
            "worker": {
                "wid": self.wid,
                "busy": self.busy,
                "rounds": self.rounds,
                "devices": len(self.planes),
            },
            "engine": self.ctx.mgr.profile(),  # type: ignore[attr-defined]
            "atom_index": (
                self.index.profile() if self.index is not None else None
            ),
        }

    def fingerprints(self):
        return canonical_source_counts(self.verifiers)


def worker_main(conn, init: Dict[str, object]) -> None:
    """Command loop: one request in, one reply out, forever until ``exit``."""
    # The fork hands us the coordinator's entire heap.  Freeze it: the
    # inherited objects are effectively immutable roots, and without the
    # freeze every cyclic-GC pass scans them (and copy-on-write-faults
    # their pages), which can multiply a worker's CPU time under a large
    # parent process such as a test runner.
    import gc

    gc.freeze()
    reply = conn.send

    try:
        start = time.process_time()
        host = VerifierHost(init)
        host.busy += time.process_time() - start
        reply(("ready", host.wid))
    except Exception:
        reply(("error", traceback.format_exc()))
        return
    while True:
        try:
            command = conn.recv()
        except EOFError:
            return
        op = command[0]
        if op == "exit":
            reply(("bye",))
            return
        try:
            # CPU time, not wall time: with more workers than cores the OS
            # time-slices, and a wall clock would count sibling workers'
            # slices as this worker's "busy" time.
            start = time.process_time()
            if op == "collect":
                reply(("state", host.collect()))
                continue
            if op == "counts":
                reply(("counts", host.fingerprints()))
                continue
            if op == "reset":
                host.reset(command[1])
                host.busy += time.process_time() - start
                reply(("ok",))
                continue
            if op == "inbox":
                host.inbox(command[1])
            elif op == "burst":
                host.burst(command[1])
            elif op == "link":
                host.link(command[1])
            elif op == "scene":
                host.scene(command[1])
            elif op == "update":
                host.update(command[1])
            else:
                raise RuntimeError(f"unknown worker command {op!r}")
            outbound = host.flush()
            host.busy += time.process_time() - start
            reply(("out", outbound))
        except Exception:
            reply(("error", traceback.format_exc()))
