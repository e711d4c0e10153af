"""The process-backend coordinator: a drop-in for :class:`SimNetwork`.

:class:`ParallelNetwork` exposes the same scenario-driver surface the serial
simulator does (``install_rules`` / ``apply_rule_updates`` / ``change_link``
/ ``activate_scene`` / ``run`` / ``verdicts`` ...), so :class:`TulkunRunner`
drives either interchangeably.  Underneath, devices are partitioned over a
pool of worker processes (:mod:`repro.parallel.worker`) that is *persistent*
(:mod:`repro.parallel.pool`): the first deployment forks it with live
copy-on-write state, later deployments reset the existing workers onto new
planes while their BDD contexts stay warm.

Cross-worker DVM traffic is routed **without barriers**: every command sent
to a worker produces exactly one reply carrying that worker's outbound
messages, each as :mod:`repro.core.wire` bytes on the command pipe.  The
coordinator forwards them to their destination worker as soon as that
worker is idle — a fast worker keeps receiving while a slow one is still
computing.  Quiescence is credit-counted: the network is quiet exactly when
no command is outstanding and no message is pending.

Results are pulled **lazily**: ``run`` only marks state dirty; the first
verdict/metric accessor triggers a delta collect in which workers ship just
the verifiers and devices touched since the last collect.

Two semantic differences from the serial simulator, both deliberate:

* **Time is real.**  ``run`` returns accumulated wall-clock seconds, not a
  simulated clock — the backend exists to measure (and deliver) actual
  parallel speedup, so ``cpu_scale`` is accepted but ignored.
* **Delivery order is arrival order**, not latency-ordered.  The DVM
  fixpoint is order-independent, so verdicts and counting results are
  byte-identical to the serial backend's (``tests/test_parallel_backend.py``
  pins this).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bdd.predicate import PacketSpaceContext
from repro.bdd.serialize import deserialize_predicate
from repro.core.result import Violation
from repro.core.tasks import TaskSet
from repro.dataplane.device import DevicePlane, RuleUpdate
from repro.dataplane.rule import Rule
from repro.errors import SimulationError
from repro.parallel import shipping
from repro.parallel.partition import cut_edges, partition_devices
from repro.parallel.pool import WorkerPool
from repro.parallel.worker import worker_main
from repro.sim.metrics import MetricsCollector
from repro.topology.graph import Topology, canonical_link

__all__ = ["ParallelNetwork", "default_worker_count"]


def default_worker_count() -> int:
    """A sane pool size: the machine's cores, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


class _KernelShim:
    """Quacks like ``SimKernel`` for the counters the drivers read.

    ``events_processed`` is a property so that reading it forces the lazy
    refresh — drivers that only look at counters still see current state."""

    def __init__(self, network: "ParallelNetwork") -> None:
        self.now = 0.0
        self._network = network

    @property
    def events_processed(self) -> int:
        self._network._refresh_if_needed()
        return self._network._events


class _MirrorDevice:
    """Coordinator-side device view: rule bookkeeping only, no LEC work."""

    def __init__(self, name: str, plane: DevicePlane) -> None:
        self.name = name
        self.plane = plane


class ParallelNetwork:
    """A worker-pool deployment of the on-device verifiers."""

    def __init__(
        self,
        topology: Topology,
        ctx: PacketSpaceContext,
        planes: Mapping[str, DevicePlane],
        task_sets: Sequence[TaskSet],
        cpu_scale: float = 1.0,
        num_workers: Optional[int] = None,
        gc_threshold: Optional[int] = None,
        predicate_index: str = "atoms",
        pool: Optional[WorkerPool] = None,
        tracer=None,
        slice_groups: Optional[Sequence[Sequence[str]]] = None,
    ) -> None:
        """``pool`` attaches an existing (possibly already spawned)
        :class:`WorkerPool` — the persistent-worker path.  Without one the
        network creates and owns a private pool, closed with the network.

        ``tracer`` optionally collects coordinator/worker IPC spans
        (``flush`` / ``drain`` / ``idle`` / ``quiescence-probe``) for
        per-worker occupancy timelines.

        ``slice_groups`` (slice-footprint components from
        :meth:`repro.slicing.SliceRegistry.device_groups`) switches the
        partition from locality clusters to slice-aligned: each component
        stays whole on one worker, so disjoint-footprint slices are
        verified by different shard workers with no cross-worker DVM
        traffic between them."""
        self.topology = topology
        self.ctx = ctx
        self.task_sets = list(task_sets)
        self.cpu_scale = cpu_scale  # interface parity; wall time is real here
        self.gc_threshold = gc_threshold  # per-worker BDD GC trigger
        self.predicate_index = predicate_index  # worker region representation
        self.kernel = _KernelShim(self)
        self.metrics = MetricsCollector()
        self.failed_links: Set[Tuple[str, str]] = set()
        self.last_activity: float = 0.0
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None

        devices = sorted(topology.devices)
        workers = num_workers if num_workers else default_worker_count()
        self.num_workers = max(1, min(workers, len(devices)))
        self.assignment = partition_devices(
            topology, self.num_workers, groups=slice_groups
        )
        self.cut_links = cut_edges(topology, self.assignment)

        self.devices: Dict[str, _MirrorDevice] = {}
        for dev in devices:
            plane = planes.get(dev)
            if plane is None:
                plane = DevicePlane(dev, ctx)
            self.devices[dev] = _MirrorDevice(dev, plane)

        self.pool = pool
        self._owns_pool = pool is None
        self._spawned = False  # this *network* attached to the pool yet?
        self._idle_since: Dict[int, float] = {}
        # Buffered scenario ops: (at, kind, *payload); run() executes them.
        # Workers attach lazily, on the first run(): by then the mirror
        # planes hold every buffered install, and (on a fresh pool) a fork
        # ships that state to the workers for free, BDD caches warm.
        self._pending: List[tuple] = []
        # Lazily-merged worker state: invariant -> dev -> {ingress: entry}.
        self._verdict_parts: Dict[str, Dict[str, dict]] = {}
        self._dev_stats: Dict[str, Dict[str, int]] = {}
        self._memory: Dict[str, int] = {}
        self._events = 0
        self._dirty = False
        self._closed = False

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_devices(self, wid: int) -> List[str]:
        return sorted(dev for dev, w in self.assignment.items() if w == wid)

    def _worker_tasks(self, mine: Sequence[str]) -> list:
        return [
            task_set.tasks[dev]
            for task_set in self.task_sets
            for dev in mine
            if dev in task_set.tasks
        ]

    def _ensure_workers(self) -> bool:
        """Attach this deployment to the pool; spawn or reset as needed.

        Returns True when the workers inherited the mirror planes via fork
        (so buffered installs are already in place and the matching commands
        only need to re-initialize)."""
        if self._spawned:
            return False
        pool = self.pool
        if pool is None:
            pool = self.pool = WorkerPool(self.num_workers)
        if pool.broken or pool.closed:
            raise SimulationError(
                "cannot deploy onto a broken or closed worker pool"
            )
        if not pool.spawned:
            # Fresh pool: fork with the coordinator's live state.  With the
            # ``fork`` start method Process args cross into the child without
            # pickling — each worker receives its partition's planes, tasks
            # and the (already warm) BDD context as live objects.  Everything
            # *after* the fork crosses as bytes: rules via :mod:`.shipping`,
            # DVM messages via :mod:`repro.core.wire`.
            inits = []
            for wid in range(self.num_workers):
                mine = self._worker_devices(wid)
                inits.append(
                    {
                        "wid": wid,
                        "ctx": self.ctx,
                        "assignment": self.assignment,
                        "planes": {
                            dev: self.devices[dev].plane for dev in mine
                        },
                        "tasks": self._worker_tasks(mine),
                        "gc_threshold": self.gc_threshold,
                        "predicate_index": self.predicate_index,
                    }
                )
            pool.spawn(inits, worker_main, self.assignment)
            inherited = True
        else:
            # Warm pool: the processes (and their BDD contexts) survive;
            # a reset re-points each worker at this deployment's planes and
            # tasks.  Rules arrive later as explicit install bursts.
            if pool.num_workers != self.num_workers:
                raise SimulationError(
                    f"persistent pool has {pool.num_workers} workers, "
                    f"deployment needs {self.num_workers}"
                )
            if pool.assignment != self.assignment:
                raise SimulationError(
                    "persistent pool partition does not match this deployment"
                )
            pool.generations += 1
            for wid in range(self.num_workers):
                mine = self._worker_devices(wid)
                pool.send(
                    wid,
                    (
                        "reset",
                        {
                            "devices": mine,
                            "tasks": shipping.ship_tasks(
                                self._worker_tasks(mine)
                            ),
                        },
                    ),
                )
            for wid in range(self.num_workers):
                reply = pool.recv(wid)
                if reply[0] == "error":
                    raise SimulationError(
                        f"worker {wid} failed to reset:\n{reply[1]}"
                    )
            inherited = False
        for wid in range(self.num_workers):
            self.metrics.worker(wid).num_devices = len(
                self._worker_devices(wid)
            )
        self._spawned = True
        return inherited

    # ------------------------------------------------------------------
    # Non-barrier command execution
    # ------------------------------------------------------------------
    def _span(self, track: str, name: str, start: float, **fields) -> None:
        if self.tracer is not None:
            self.tracer.ipc_span(
                track, name, start, self.tracer.ipc_clock(), **fields
            )

    def _execute(self, commands: Dict[int, tuple]) -> None:
        """Run one batch of commands and route the resulting cross-worker
        messages until the network is quiescent — without barriers.

        Invariants that make this correct and deadlock-free:

        * at most one command is outstanding per worker, and every command
          yields exactly one reply (so pipe writes never mutually block);
        * a reply carries all messages the command produced, each of which
          becomes a pending inbox delivery — credit counting: quiescence is
          exactly (no outstanding commands) ∧ (no pending messages);
        * messages queue per destination and are dispatched the moment the
          destination goes idle, so routing never waits for a round.
        """
        pool = self.pool
        tracer = self.tracer
        outstanding: Dict[int, Tuple[float, str]] = {}
        pending: Dict[int, List[tuple]] = {}

        def dispatch(wid: int, command: tuple, label: str) -> None:
            if tracer is not None:
                idle_from = self._idle_since.pop(wid, None)
                if idle_from is not None:
                    self._span(f"worker{wid}", "idle", idle_from)
            pool.send(wid, command)
            sent_at = tracer.ipc_clock() if tracer is not None else 0.0
            outstanding[wid] = (sent_at, label)

        for wid in sorted(commands):
            dispatch(wid, commands[wid], commands[wid][0])
        while outstanding or pending:
            for wid in sorted(pending):
                if wid not in outstanding:
                    dispatch(wid, ("inbox", pending.pop(wid)), "drain")
            probe_start = tracer.ipc_clock() if tracer is not None else 0.0
            ready = pool.wait(sorted(outstanding))
            if tracer is not None:
                self._span(
                    "coordinator",
                    "quiescence-probe",
                    probe_start,
                    outstanding=len(outstanding),
                    pending=len(pending),
                )
            for wid in ready:
                sent_at, label = outstanding.pop(wid)
                reply = pool.recv(wid)
                if reply[0] == "error":
                    raise SimulationError(f"worker {wid} failed:\n{reply[1]}")
                if tracer is not None:
                    self._span(f"worker{wid}", label, sent_at)
                    self._idle_since[wid] = tracer.ipc_clock()
                routed = reply[1]
                if routed:
                    flush_start = (
                        tracer.ipc_clock() if tracer is not None else 0.0
                    )
                    for dst, entries in routed:
                        pending.setdefault(dst, []).extend(entries)
                        self.metrics.routed_messages += len(entries)
                        self.metrics.routed_bytes += sum(
                            len(entry[3]) for entry in entries
                        )
                    if tracer is not None:
                        self._span(
                            "coordinator",
                            "flush",
                            flush_start,
                            src=wid,
                            destinations=len(routed),
                        )

    def _control(self, command: tuple) -> List[object]:
        """Synchronous broadcast for state queries (collect/counts)."""
        pool = self.pool
        for wid in range(self.num_workers):
            pool.send(wid, command)
        out: List[object] = []
        for wid in range(self.num_workers):
            reply = pool.recv(wid)
            if reply[0] == "error":
                raise SimulationError(f"worker {wid} failed:\n{reply[1]}")
            out.append(reply[1])
        return out

    # ------------------------------------------------------------------
    # Scenario drivers (SimNetwork surface)
    # ------------------------------------------------------------------
    def initialize(self, at: float = 0.0) -> None:
        self._pending.append((at, "burst", None, []))

    def install_rules(self, dev: str, rules: Sequence[Rule], at: float) -> None:
        rules = list(rules)
        self.devices[dev].plane.install_many(rules)
        self._pending.append((at, "burst", dev, rules))

    def apply_rule_updates(
        self,
        dev: str,
        at: float,
        pairs: Sequence[RuleUpdate],
        only: Optional[Set[str]] = None,
    ) -> None:
        """One device's batch of ``(install, remove_id)`` rule updates.

        The coordinator mirrors the net rule table at once; the pairs ship
        unchanged to the owning worker, which applies them as one event
        (:meth:`VerifierHost.update`), exactly as the serial backend does.
        ``only`` restricts the worker's LEC-delta hand-off to the named
        invariants (slicing: untouched verifiers provably no-op)."""
        plane = self.devices[dev].plane
        for install, remove_id in pairs:
            if remove_id is not None:
                plane.discard_rule(remove_id)
            if install is not None:
                plane.install_many([install])
        only_wire = tuple(sorted(only)) if only is not None else None
        self._pending.append((at, "update", dev, list(pairs), only_wire))

    @property
    def converged(self) -> bool:
        """Quiescence: the worker pool has no buffered scenario ops.

        The process backend has no lossy transport — ``run()`` always
        drains routing to a fixpoint — so convergence is simply "nothing
        left to execute"."""
        return not self._pending

    def pool_stats(self) -> Dict[str, int]:
        """Persistent-pool reuse counters (serving-mode telemetry)."""
        pool = self.pool
        if pool is None:
            return {"workers": self.num_workers, "generations": 0}
        return {
            "workers": pool.num_workers,
            "generations": int(getattr(pool, "generations", 0)),
        }

    def change_link(self, a: str, b: str, is_up: bool, at: float) -> None:
        link = canonical_link(a, b)
        if is_up:
            self.failed_links.discard(link)
        else:
            self.failed_links.add(link)
        self._pending.append((at, "link", a, b, is_up))

    def activate_scene(self, scene_id: Optional[int], at: float) -> None:
        self._pending.append((at, "scene", scene_id))

    # ------------------------------------------------------------------
    # Run + results
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute buffered ops and route to quiescence.

        Returns accumulated wall-clock seconds (the parallel analogue of the
        serial backend's simulated last-activity time; ``until`` is accepted
        for interface parity and ignored — routing always runs to
        quiescence).  Verdicts and metrics are *not* pulled here: the run
        only marks them dirty, and the first accessor triggers a delta
        collect."""
        del until
        start = time.perf_counter()
        inherited = self._ensure_workers()
        ops = sorted(self._pending, key=lambda op: op[0])
        self._pending = []
        i = 0
        while i < len(ops):
            kind = ops[i][1]
            if kind == "burst":
                batch: Dict[str, List[Rule]] = {}
                while i < len(ops) and ops[i][1] == "burst":
                    _at, _kind, dev, rules = ops[i]
                    if dev is not None and rules:
                        batch.setdefault(dev, []).extend(rules)
                    i += 1
                per_worker: Dict[int, Dict[str, List[Rule]]] = {
                    wid: {} for wid in range(self.num_workers)
                }
                if not inherited:
                    for dev, rules in batch.items():
                        per_worker[self.assignment[dev]][dev] = rules
                self._execute(
                    {
                        wid: ("burst", shipping.ship_rule_sets(dev_rules))
                        for wid, dev_rules in per_worker.items()
                    }
                )
            elif kind == "link":
                changes: List[Tuple[str, str, bool]] = []
                while i < len(ops) and ops[i][1] == "link":
                    _at, _kind, a, b, is_up = ops[i]
                    changes.append((a, b, is_up))
                    i += 1
                self._execute(
                    {
                        wid: ("link", changes)
                        for wid in range(self.num_workers)
                    }
                )
            elif kind == "scene":
                _at, _kind, scene_id = ops[i]
                i += 1
                self._execute(
                    {
                        wid: ("scene", scene_id)
                        for wid in range(self.num_workers)
                    }
                )
            elif kind == "update":
                # Consecutive updates coalesce into one batched command per
                # owning worker; the DVM fixpoint is batching-independent,
                # so one drain after n updates converges identically.
                batches: Dict[int, List[tuple]] = {}
                while i < len(ops) and ops[i][1] == "update":
                    _at, _kind, dev, pairs, only = ops[i]
                    i += 1
                    batches.setdefault(self.assignment[dev], []).append(
                        (dev, shipping.ship_updates(pairs), only)
                    )
                if inherited:
                    # The fork already delivered the post-update planes; a
                    # re-initialize reaches the same fixpoint as replaying
                    # the deltas would.
                    self._execute(
                        {
                            wid: ("burst", shipping.ship_rule_sets({}))
                            for wid in sorted(batches)
                        }
                    )
                else:
                    self._execute(
                        {
                            wid: ("update", updates)
                            for wid, updates in batches.items()
                        }
                    )
            else:  # pragma: no cover - guarded by the driver methods
                raise SimulationError(f"unknown buffered op {kind!r}")
        self.last_activity += time.perf_counter() - start
        self.metrics.parallel_wall = self.last_activity
        self._dirty = True
        return self.last_activity

    def _refresh_if_needed(self) -> None:
        """Merge delta collects from every worker into the cached view.

        Each worker ships only the verifiers/devices touched since its last
        collect (everything on the first), so a refresh after one
        incremental update costs O(touched), not O(network)."""
        if not self._dirty or not self._spawned:
            return
        self._dirty = False
        for wid, state in enumerate(self._control(("collect",))):
            for dev, invariant, entry in state["verdicts"]:
                self._verdict_parts.setdefault(invariant, {})[dev] = entry
            self._memory.update(state["memory"])
            for dev, stats in state["stats"].items():
                self._dev_stats[dev] = stats
                device_metrics = self.metrics.device(dev)
                device_metrics.events_processed = stats["events_processed"]
                device_metrics.messages_sent = stats["messages_sent"]
                device_metrics.bytes_sent = stats["bytes_sent"]
                device_metrics.messages_received = stats["messages_received"]
                device_metrics.bytes_received = stats["bytes_received"]
            info = state["worker"]
            worker_metrics = self.metrics.worker(wid)
            worker_metrics.busy_time = info["busy"]
            worker_metrics.rounds = info["rounds"]
            worker_metrics.num_devices = info["devices"]
            engine = state.get("engine")
            if engine is not None:
                self.metrics.record_engine(f"worker{wid}", engine)
            atom_profile = state.get("atom_index")
            if atom_profile is not None:
                self.metrics.record_atom_index(f"worker{wid}", atom_profile)
        self._events = sum(
            stats["events_processed"] for stats in self._dev_stats.values()
        )

    def _decode_violation(self, raw: Dict[str, object]) -> Violation:
        return Violation(
            ingress=raw["ingress"],  # type: ignore[arg-type]
            region=deserialize_predicate(self.ctx, raw["region"]),  # type: ignore[arg-type]
            counts=raw["counts"],  # type: ignore[arg-type]
            message=raw["message"],  # type: ignore[arg-type]
        )

    def _merged_verdicts(self, invariant: str) -> Dict[str, tuple]:
        self._refresh_if_needed()
        parts = self._verdict_parts.get(invariant, {})
        merged: Dict[str, tuple] = {}
        for dev in sorted(parts):
            merged.update(parts[dev])
        return merged

    def verdicts(
        self, invariant: str, within: Optional[Sequence[str]] = None
    ) -> Dict[str, Tuple[bool, list]]:
        # ``within`` is interface parity with the serial backend; the merged
        # view is already per-invariant (delta collects touch O(footprint)).
        del within
        out: Dict[str, Tuple[bool, list]] = {}
        for ingress, (ok, violations) in self._merged_verdicts(
            invariant
        ).items():
            out[ingress] = (
                ok,
                [self._decode_violation(raw) for raw in violations],
            )
        return out

    def all_hold(
        self, invariant: str, within: Optional[Sequence[str]] = None
    ) -> bool:
        del within
        verdicts = self._merged_verdicts(invariant)
        return bool(verdicts) and all(
            ok for ok, _violations in verdicts.values()
        )

    def violations(self, invariant: str) -> list:
        out = []
        for _ingress, (_ok, violations) in self.verdicts(invariant).items():
            out.extend(violations)
        return out

    def snapshot_memory(self) -> None:
        self._refresh_if_needed()
        for dev, total in self._memory.items():
            metrics = self.metrics.device(dev)
            metrics.memory_proxy_peak = max(metrics.memory_proxy_peak, total)

    def snapshot_engines(self) -> None:
        """Pull fresh per-worker engine/atom-index profiles into metrics."""
        if self._spawned:
            self._dirty = True  # profiles ride the collect; force a fresh one
            self._refresh_if_needed()

    def source_fingerprints(self) -> Dict[tuple, object]:
        """Canonical source-node counting results across all workers."""
        if not self._spawned:
            return {}
        merged: Dict[tuple, object] = {}
        for counts in self._control(("counts",)):
            merged.update(counts)
        return merged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the pool; private pools shut down with the network.

        An attached (runner-owned) pool stays alive — its workers keep
        their warm BDD contexts for the next deployment to reset onto."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool and self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelNetwork":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
