"""High-level scenario drivers: the experiments of §9 as reusable functions.

A :class:`TulkunRunner` wires planner → task sets → simulated network and
exposes the three DPV scenarios the paper measures:

* **burst update** — install the full data plane at t=0, run to quiescence;
  verification time is the quiescence time (Fig. 11a);
* **incremental update** — apply single rule updates to a converged network
  and measure per-update convergence time (Fig. 11b/11c);
* **fault scenes** — fail links, let verifiers recount (Fig. 12).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.bdd.predicate import PacketSpaceContext
from repro.core.invariant import Invariant
from repro.core.planner import Planner
from repro.core.tasks import TaskSet
from repro.dataplane.device import DevicePlane, RuleUpdate
from repro.dataplane.rule import Rule
from repro.errors import DataPlaneError, SimulationError
from repro.sim.network import SimNetwork
from repro.sim.transport import ChaosConfig, TransportConfig
from repro.slicing import SliceRegistry
from repro.topology.graph import Topology

__all__ = ["TulkunRunner", "BurstResult", "IncrementalResult"]


@dataclass
class BurstResult:
    verification_time: float
    holds: Dict[str, bool]
    events: int
    messages: int
    bytes_sent: int
    # Per-invariant "HOLDS" / "VIOLATED" / "UNKNOWN(unreachable_upstream)".
    # The last one means a transport flow gave up (partition): the counts
    # that survive are stale, so no verdict is claimed for the invariant.
    statuses: Dict[str, str] = field(default_factory=dict)


@dataclass
class IncrementalResult:
    times: List[float] = field(default_factory=list)

    def quantile(self, q: float) -> float:
        from repro.sim.metrics import percentile

        return percentile(self.times, q)

    def fraction_below(self, threshold: float) -> float:
        if not self.times:
            return 0.0
        return sum(1 for t in self.times if t < threshold) / len(self.times)


def _schedule_start(network) -> float:
    """Earliest time a new scenario event may be scheduled.

    Normally that is the last verification activity, but with the transport
    layer active the kernel clock can run past it (final ack deliveries and
    disarmed retransmission timers are not "activity"), and the kernel
    refuses to schedule into the past."""
    return max(network.last_activity, network.kernel.now)


class TulkunRunner:
    """Plan, deploy and drive Tulkun over a simulated network."""

    def __init__(
        self,
        topology: Topology,
        ctx: PacketSpaceContext,
        invariants: Sequence[Invariant],
        cpu_scale: float = 1.0,
        prebuilt_nets: Optional[Mapping[str, object]] = None,
        backend: str = "serial",
        workers: Optional[int] = None,
        gc_threshold: Optional[int] = None,
        predicate_index: str = "atoms",
        chaos: Optional[ChaosConfig] = None,
        transport_config: Optional[TransportConfig] = None,
        tracer=None,
        channel=None,
        slices: Union[None, str, Mapping[str, Sequence[str]]] = None,
    ) -> None:
        """``prebuilt_nets`` optionally maps invariant names to prebuilt
        DPVNets (e.g. fault-tolerant ones from
        :func:`repro.core.fault.compute_fault_plan`).

        ``backend`` selects the execution engine: ``"serial"`` is the
        discrete-event simulator with a modelled clock; ``"process"`` runs
        the verifiers on a pool of ``workers`` OS processes (wall-clock
        timing, :mod:`repro.parallel`).  Both produce byte-identical verdicts
        and counting results.

        ``gc_threshold`` arms BDD node-table garbage collection: each engine
        (the shared serial manager, or every worker's private copy) sweeps
        when its node table crosses this size.  ``None`` disables GC.

        ``predicate_index`` selects the carrier the verifiers' region
        algebra runs on: ``"atoms"`` (default, production) keeps
        CIB/interest bookkeeping as packed integer masks over a shared
        dynamic atom index; ``"bdd"`` runs the same code on raw predicates
        as the parity oracle.  Verdicts and wire bytes are identical.

        ``chaos`` arms fault injection on the DVM transport (serial backend
        only): messages ride a seeded unreliable channel with seq/ack
        retransmission; converged verdicts stay byte-identical to the
        reliable run.  ``transport_config`` tunes the retransmission policy.

        ``tracer`` attaches a :class:`repro.telemetry.Tracer`.  On the
        serial backend it collects the causally-ordered event log; on the
        process backend it collects coordinator/worker IPC spans (flush,
        drain, idle, quiescence probes) for occupancy timelines.
        ``channel`` overrides the transport channel — used by replay to
        substitute a :class:`repro.telemetry.ReplayChannel` carrying
        recorded fates (serial backend only).

        ``slices`` declares tenants (:mod:`repro.slicing`): ``"auto"``
        groups invariants into tenant slices by their ``tenant/name``
        prefix; a mapping ``{tenant: [invariant names]}`` assigns them
        explicitly (unlisted invariants fall back to the prefix
        convention).  Routing is always on: with ``None`` every invariant
        is its own slice.  Every FIB update / link / lifecycle event is
        routed only to the slices whose footprint it intersects, and
        ``statuses()`` recomputes only the invariants of touched slices.
        Declared tenants add what is tenant-facing: the serve layer's
        per-tenant delta fields and admission, and (process backend)
        disjoint-footprint slice groups partitioned onto different shard
        workers in place of locality clusters.  Verdicts are
        byte-identical to broadcasting every event to every verifier.
        """
        if backend not in ("serial", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if predicate_index not in ("atoms", "bdd"):
            raise ValueError(f"unknown predicate index {predicate_index!r}")
        if chaos is not None and backend != "serial":
            raise ValueError(
                "chaos fault injection requires the serial backend"
            )
        if channel is not None and backend != "serial":
            raise ValueError(
                "a channel override requires the serial backend"
            )
        self.topology = topology
        self.ctx = ctx
        self.invariants = list(invariants)
        self.planner = Planner(topology, ctx)
        self.task_sets: List[TaskSet] = self.planner.plan(
            self.invariants, prebuilt_nets  # type: ignore[arg-type]
        )
        self.cpu_scale = cpu_scale
        self.backend = backend
        self.workers = workers
        self.gc_threshold = gc_threshold
        self.predicate_index = predicate_index
        self.chaos = chaos
        self.transport_config = transport_config
        self.tracer = tracer
        self.channel = channel
        self.network = None  # SimNetwork | ParallelNetwork
        # Persistent worker pool (process backend): spawned on the first
        # deployment, reused by every later one via worker resets.
        self._pool = None
        # Rules withdrawn by drain_device, keyed by device, awaiting
        # restore_drained (rolling-upgrade bookkeeping; either backend).
        self._drained: Dict[str, List[Rule]] = {}
        # Intent-based slicing: footprint router + per-slice verdict
        # bookkeeping.  ``_status_dirty`` holds invariant names whose cached
        # status a touched slice invalidated; ``touched_tenants`` accumulates
        # routing verdicts until consume_touched() (the serving layer drains
        # it once per epoch for per-tenant delta fan-out).
        if isinstance(slices, str) and slices != "auto":
            raise ValueError(f"unknown slices mode {slices!r}")
        tenant_by_inv: Dict[str, str] = {}
        if slices is not None and not isinstance(slices, str):
            for tenant, names in slices.items():
                for inv_name in names:
                    tenant_by_inv[inv_name] = tenant
        self.slice_registry = SliceRegistry(
            topology,
            ctx.carrier(predicate_index),
            tenants_declared=slices is not None,
        )
        for inv, task_set in zip(self.invariants, self.task_sets):
            self.slice_registry.add_invariant(
                inv, task_set, tenant=tenant_by_inv.get(inv.name)
            )
        self._status_cache: Dict[str, str] = {}
        self._status_dirty: Set[str] = set()
        self.touched_tenants: Set[str] = set()
        self._scene_active = False

    # ------------------------------------------------------------------
    def deploy(self, planes: Mapping[str, DevicePlane]):
        """Create the (serial or parallel) network with the given planes.

        On the process backend the worker pool persists across deployments:
        the first deploy forks it, later deploys reset its workers onto the
        new planes (warm BDD contexts, no re-fork)."""
        self._close_network()
        self._drained.clear()
        registry = self.slice_registry
        registry.note_rules(
            rule for plane in planes.values() for rule in plane.rules
        )
        self._status_cache.clear()
        self._mark_touched(registry.all_tenants())
        if self.backend == "process":
            from repro.parallel.coordinator import ParallelNetwork

            self.network = ParallelNetwork(
                self.topology,
                self.ctx,
                planes,
                self.task_sets,
                cpu_scale=self.cpu_scale,
                num_workers=self.workers,
                gc_threshold=self.gc_threshold,
                predicate_index=self.predicate_index,
                pool=self._ensure_pool(),
                tracer=self.tracer,
                slice_groups=self._slice_groups(),
            )
        else:
            self.network = SimNetwork(
                self.topology,
                self.ctx,
                planes,
                self.task_sets,
                self.cpu_scale,
                gc_threshold=self.gc_threshold,
                predicate_index=self.predicate_index,
                chaos=self.chaos,
                transport_config=self.transport_config,
                tracer=self.tracer,
                channel=self.channel,
            )
        return self.network

    def _ensure_pool(self):
        """The runner's persistent worker pool, respawned only when its
        shape no longer fits (worker count, slice groups, GC/index
        settings) or a worker has died."""
        from repro.parallel.coordinator import default_worker_count
        from repro.parallel.pool import WorkerPool

        num_devices = len(self.topology.devices)
        workers = self.workers if self.workers else default_worker_count()
        num_workers = max(1, min(workers, num_devices))
        groups = self._slice_groups()
        profile = {
            "num_workers": num_workers,
            "gc_threshold": self.gc_threshold,
            "predicate_index": self.predicate_index,
            # The slice-aligned partition changes with slice membership; a
            # warm pool only fits deployments with the same assignment, so
            # the group fingerprint forces a respawn when groups move.
            "slice_groups": (
                tuple(tuple(group) for group in groups)
                if groups is not None
                else None
            ),
        }
        pool = self._pool
        if pool is not None and (
            pool.broken or pool.closed or pool.profile != profile
        ):
            pool.close()
            pool = None
        if pool is None:
            pool = WorkerPool(num_workers)
            pool.profile = profile
            self._pool = pool
        return pool

    def _slice_groups(self):
        """Slice-footprint device groups for the process partition (None
        without declared tenants — locality clusters apply)."""
        registry = self.slice_registry
        if not registry.tenants_declared:
            return None
        return registry.device_groups()

    def _mark_touched(self, tenants: Set[str]) -> None:
        """Record routing verdicts: dirty the statuses of every invariant
        in a touched slice and accumulate the tenants for the serve layer."""
        if not tenants:
            return
        self.touched_tenants.update(tenants)
        self._status_dirty.update(self.slice_registry.invariants_of(tenants))

    def consume_touched(self) -> Set[str]:
        """Drain the tenants touched since the last call (serving epochs)."""
        touched = self.touched_tenants
        self.touched_tenants = set()
        return touched

    def _close_network(self) -> None:
        network = self.network
        if network is not None and hasattr(network, "close"):
            network.close()
        self.network = None

    def close(self) -> None:
        """Shut down worker processes (no-op for the serial backend)."""
        self._close_network()
        pool = self._pool
        if pool is not None:
            pool.close()
            self._pool = None

    def __enter__(self) -> "TulkunRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def burst_update(
        self,
        rules_by_device: Mapping[str, Sequence[Rule]],
    ) -> BurstResult:
        """§9.3.2: all forwarding rules installed at once at t=0."""
        planes: Dict[str, DevicePlane] = {}
        network = self.deploy(planes)
        self.slice_registry.note_rules(
            rule for rules in rules_by_device.values() for rule in rules
        )
        for dev, rules in rules_by_device.items():
            network.install_rules(dev, list(rules), at=0.0)
        # Devices without rules still initialize (they announce zero counts).
        for dev in self.topology.devices:
            if dev not in rules_by_device:
                network.install_rules(dev, [], at=0.0)
        finish = network.run()
        network.snapshot_memory()
        network.snapshot_engines()
        return BurstResult(
            verification_time=finish,
            holds={
                inv.name: network.all_hold(inv.name) for inv in self.invariants
            },
            events=network.kernel.events_processed,
            messages=network.metrics.total_messages(),
            bytes_sent=network.metrics.total_bytes(),
            statuses=self.statuses(),
        )

    def apply_updates(
        self,
        updates: Sequence[Tuple[str, Optional[Rule], Optional[int]]],
    ) -> float:
        """Apply a burst of rule updates to the live deployment as *one*
        epoch: every update is scheduled at the same instant, per-device
        updates collapse into a single batched handler, and the network
        runs to quiescence once.  Returns the settle duration.

        This is the public "apply updates without rebuild" entry point the
        serving mode (and any other long-lived driver) reuses — two
        sequential bursts reach the same fixpoint as one combined burst.

        Each update is ``(device, rule_to_install, rule_id_to_remove)``;
        per-device order is preserved, and each becomes one
        ``(install, remove_id)`` pair (:meth:`DevicePlane.apply_update`).
        A remove-only update directly followed by an install-only one on
        the same device is the same pair as the two given together: one
        replace.  The burst is validated before any plane changes."""
        network = self._live_network()
        if not updates:
            return 0.0
        only_by_dev = self._route_updates(updates)
        start = _schedule_start(network)
        pairs_by_dev: Dict[str, List[RuleUpdate]] = {}
        for dev, install, remove_id in updates:
            pairs = pairs_by_dev.setdefault(dev, [])
            if install is None and remove_id is None:
                continue
            if remove_id is None and pairs and pairs[-1][0] is None:
                # The one pairing rule: a remove-only update directly
                # followed by an install-only one is a single replace.
                pairs[-1] = (install, pairs[-1][1])
            else:
                pairs.append((install, remove_id))
        for dev, pairs in pairs_by_dev.items():
            network.apply_rule_updates(
                dev, start, pairs, only=only_by_dev[dev]
            )
        finish = network.run()
        return max(0.0, finish - start)

    def _route_updates(
        self,
        updates: Sequence[Tuple[str, Optional[Rule], Optional[int]]],
    ) -> Dict[str, Set[str]]:
        """Slicing router for one update burst: per device, the invariant
        names of every slice the device's updates can touch.

        Runs *before* any plane mutation and validates the burst on the
        way, so a bad update raises :class:`DataPlaneError` with every
        plane (and the process backend's mirror) untouched and nothing
        scheduled: a removal must name a rule the burst's own earlier
        updates, or else the plane, leave installed; an install must carry
        an id that is not live there (unless the burst removed it earlier)
        and that no other install of the burst carries.  Installs pass
        through :meth:`SliceRegistry.note_rules` — a transform action turns
        packet gating off for this and every later burst."""
        registry = self.slice_registry
        devices = self.network.devices
        touched_all: Set[str] = set()
        slices_by_dev: Dict[str, Set[str]] = {}
        # (device, rule id) -> the rule the burst leaves there (None: removed)
        burst: Dict[Tuple[str, int], Optional[Rule]] = {}
        installed: Set[int] = set()
        for dev, install, remove_id in updates:
            dev_slices = slices_by_dev.setdefault(dev, set())
            plane = devices[dev].plane
            if remove_id is not None:
                key = (dev, remove_id)
                rule = burst.get(key, plane.get_rule(remove_id))
                if rule is None:
                    raise DataPlaneError(
                        f"rule {remove_id} not installed on {dev}"
                    )
                burst[key] = None
                dev_slices |= registry.touched_by_update(dev, rule.match)
            if install is not None:
                rule_id = install.rule_id
                key = (dev, rule_id)
                if burst.get(key, plane.get_rule(rule_id)) is not None:
                    raise DataPlaneError(
                        f"rule {rule_id} already installed on {dev}"
                    )
                if rule_id in installed:
                    raise DataPlaneError(
                        f"rule {rule_id} is installed twice in one burst"
                    )
                installed.add(rule_id)
                burst[key] = install
                registry.note_rules((install,))
                dev_slices |= registry.touched_by_update(dev, install.match)
            touched_all |= dev_slices
        self._mark_touched(touched_all)
        return {
            dev: registry.invariants_of(slices)
            for dev, slices in slices_by_dev.items()
        }

    def incremental_updates(
        self,
        updates: Sequence[Tuple[str, Optional[Rule], Optional[int]]],
    ) -> IncrementalResult:
        """Apply updates one by one to the (already deployed and converged)
        network; measure per-update convergence time.

        Each update is ``(device, rule_to_install, rule_id_to_remove)``.
        """
        network = self._live_network()
        result = IncrementalResult()
        for update in updates:
            result.times.append(self.apply_updates([update]))
        network.snapshot_memory()
        network.snapshot_engines()
        return result

    def add_invariants(
        self,
        invariants: Sequence[Invariant],
        tenants: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Deploy additional invariants onto the live network; return the
        settle duration (0.0 when nothing is deployed yet).

        On the serial backend the new verifiers are added and initialized
        in place.  The process backend redeploys from the live planes —
        worker processes and their warm BDD contexts are reused through the
        persistent pool, and every installed rule survives with its id.

        ``tenants`` (declared tenants only) maps invariant names to explicit
        tenant slices; unmapped names follow the ``tenant/name`` prefix
        convention.
        """
        invariants = list(invariants)
        existing = {inv.name for inv in self.invariants}
        for inv in invariants:
            if inv.name in existing:
                raise SimulationError(
                    f"invariant {inv.name!r} is already deployed"
                )
            existing.add(inv.name)
        new_sets = self.planner.plan(invariants)
        self.invariants.extend(invariants)
        self.task_sets.extend(new_sets)
        registry = self.slice_registry
        touched = set()
        for inv, task_set in zip(invariants, new_sets):
            touched.add(
                registry.add_invariant(
                    inv, task_set, tenant=(tenants or {}).get(inv.name)
                )
            )
        self._mark_touched(touched)
        network = self.network
        if network is None or not invariants:
            return 0.0
        if isinstance(network, SimNetwork):
            start = _schedule_start(network)
            network.add_task_sets(new_sets, at=start)
            finish = network.run()
            return max(0.0, finish - start)
        return self.redeploy()

    def remove_invariants(self, names: Sequence[str]) -> float:
        """Retire invariants from the live network by name; return the
        settle duration (0.0 when nothing is deployed yet)."""
        doomed = set(names)
        known = {inv.name for inv in self.invariants}
        missing = doomed - known
        if missing:
            raise SimulationError(
                f"unknown invariant(s): {', '.join(sorted(missing))}"
            )
        self.invariants = [
            inv for inv in self.invariants if inv.name not in doomed
        ]
        self.task_sets = [
            ts for ts in self.task_sets if ts.invariant_name not in doomed
        ]
        registry = self.slice_registry
        touched = set()
        for name in sorted(doomed):
            tenant = registry.remove_invariant(name)
            if tenant is not None:
                touched.add(tenant)
            self._status_cache.pop(name, None)
            self._status_dirty.discard(name)
        # Surviving slice members keep valid cached statuses; the tenant is
        # still reported touched (even when dissolved) so subscribers
        # observe the membership change.
        self.touched_tenants.update(touched)
        network = self.network
        if network is None or not doomed:
            return 0.0
        if isinstance(network, SimNetwork):
            start = _schedule_start(network)
            network.remove_task_sets(sorted(doomed), at=start)
            finish = network.run()
            return max(0.0, finish - start)
        return self.redeploy()

    def redeploy(self) -> float:
        """Rebuild the deployment from the live planes (same Rule objects,
        ids preserved; the process backend's worker pool is reused) and run
        back to quiescence under the current link state.  Returns the
        convergence time of the rebuilt deployment.  A drained device stays
        drained: its live plane is what is rebuilt, and the rules awaiting
        :meth:`restore_drained` are kept."""
        network = self._live_network()
        if getattr(network, "devices_down", None):
            raise SimulationError(
                "cannot redeploy while devices are crashed"
            )
        saved = {
            dev: list(network.devices[dev].plane.rules)
            for dev in network.devices
        }
        failed = [tuple(link) for link in sorted(network.failed_links)]
        drained = dict(self._drained)
        fresh = self.deploy({})
        self._drained.update(drained)
        for dev in self.topology.devices:
            fresh.install_rules(dev, saved.get(dev, []), at=0.0)
        for a, b in failed:
            fresh.change_link(a, b, is_up=False, at=0.0)
        return fresh.run()

    def fail_links(
        self, links: Sequence[Tuple[str, str]], scene_id: Optional[int] = None
    ) -> float:
        """Fail a set of links (a fault scene); return recount duration.

        With ``scene_id`` given, verifiers also switch to the precomputed
        fault-tolerant DPVNet labels for that scene after the (simulated)
        link-state flood.
        """
        network = self._live_network()
        if scene_id is not None:
            self._scene_active = True
        self._route_links(links, recount_all=scene_id is not None)
        start = _schedule_start(network)
        for a, b in links:
            network.change_link(a, b, is_up=False, at=start)
        if scene_id is not None:
            flood = start + self._flood_latency()
            network.activate_scene(scene_id, at=flood)
        finish = network.run()
        return max(0.0, finish - start)

    def recover_links(self, links: Sequence[Tuple[str, str]]) -> float:
        network = self._live_network()
        recount_all, self._scene_active = self._scene_active, False
        self._route_links(links, recount_all)
        start = _schedule_start(network)
        for a, b in links:
            network.change_link(a, b, is_up=True, at=start)
        if recount_all:  # leaving a fault scene: back to the base labels
            network.activate_scene(None, at=start + self._flood_latency())
        finish = network.run()
        return max(0.0, finish - start)

    def _route_links(
        self, links: Sequence[Tuple[str, str]], recount_all: bool
    ) -> None:
        """Slicing router for a link event.  ``recount_all``: the event
        enters or leaves a fault scene, which re-labels every verifier's
        DPVNet — all slices recount, no footprint gating applies."""
        registry = self.slice_registry
        if recount_all:
            self._mark_touched(registry.all_tenants())
            return
        touched: Set[str] = set()
        for a, b in links:
            touched |= registry.touched_by_link(a, b)
        self._mark_touched(touched)

    def statuses(self) -> Dict[str, str]:
        """Per-invariant verdict status, degrading to ``UNKNOWN`` honestly.

        Backends without a transport layer (process pool) always converge
        reliably, so their statuses are plain HOLDS/VIOLATED.

        Only invariants whose slice was touched since the last call are
        recomputed — and their verdict gathering is scoped to the
        invariant's device footprint.  Untouched invariants are answered
        from cache, making a statuses sweep O(touched footprint) instead of
        O(invariants × devices)."""
        network = self._live_network()
        status_of = getattr(network, "invariant_status", None)
        registry = self.slice_registry
        cache = self._status_cache
        for name in self._status_dirty:
            footprint = registry.footprint_of(name)
            if footprint is None:
                continue  # invariant removed since it was dirtied
            within = sorted(footprint.devices)
            if status_of is not None:
                cache[name] = status_of(name, within=within)
            else:
                cache[name] = (
                    "HOLDS" if network.all_hold(name, within) else "VIOLATED"
                )
        self._status_dirty.clear()
        return {inv.name: cache[inv.name] for inv in self.invariants}

    def crash_device(self, dev: str) -> float:
        """Crash a device (serial backend); return the settle duration."""
        network = self._sim_network()
        self._mark_touched(self.slice_registry.touched_by_lifecycle(dev))
        start = _schedule_start(network)
        network.crash_device(dev, at=start)
        finish = network.run()
        return max(0.0, finish - start)

    def restart_device(self, dev: str) -> float:
        """Restart a crashed device and resync; return the settle duration."""
        network = self._sim_network()
        self._mark_touched(self.slice_registry.touched_by_lifecycle(dev))
        start = _schedule_start(network)
        network.restart_device(dev, at=start)
        finish = network.run()
        return max(0.0, finish - start)

    def drain_device(self, dev: str) -> float:
        """Maintenance drain: withdraw the device's whole FIB and re-verify
        under the drained state; return the settle duration.

        The drain is one batch of remove-only rule updates, so it runs on
        either backend.  The withdrawn rules are kept so
        :meth:`restore_drained` can reinstall them — a crash/restart of the
        device in between (the rolling-upgrade window) does not lose them,
        matching real maintenance where the intended FIB lives in the
        controller.  The *same* Rule objects come back on restore, so their
        ids stay valid across the maintenance window (the serving mode
        addresses live rules by id through client-visible keys).
        """
        network = self._live_network()
        if dev in self._drained:
            raise SimulationError(f"device {dev!r} is already drained")
        rules = list(network.devices[dev].plane.rules)
        self._drained[dev] = rules
        return self._rewrite(dev, [(None, rule.rule_id) for rule in rules])

    def restore_drained(self, dev: str) -> float:
        """Reinstall a drained device's FIB; return the settle duration."""
        self._live_network()
        saved = self._drained.pop(dev, None)
        if saved is None:
            raise SimulationError(f"device {dev!r} is not drained")
        self.slice_registry.note_rules(saved)
        return self._rewrite(dev, [(rule, None) for rule in saved])

    def _rewrite(self, dev: str, pairs: List[RuleUpdate]) -> float:
        """A whole-FIB rewrite of one device (drain or restore) as one
        batch of rule updates, handed to every local verifier."""
        network = self.network
        self._mark_touched(self.slice_registry.touched_by_rewrite(dev))
        start = _schedule_start(network)
        network.apply_rule_updates(dev, start, pairs)
        finish = network.run()
        return max(0.0, finish - start)

    def _live_network(self):
        network = self.network
        if network is None:
            raise RuntimeError("deploy/burst_update the network first")
        return network

    def _sim_network(self) -> SimNetwork:
        network = self._live_network()
        if not isinstance(network, SimNetwork):
            raise RuntimeError(
                "device crash/restart requires the serial backend"
            )
        return network

    def _flood_latency(self) -> float:
        """Approximate link-state flood completion: diameter × max latency."""
        max_latency = max(
            (link.latency for link in self.topology.links()), default=0.0
        )
        return self.topology.diameter_hops() * max_latency


@dataclass(frozen=True)
class UpdateIntent:
    """A deferred single-rule update: resolved against the live data plane
    at apply time (rule ids churn as updates are applied).

    ``neutral`` intents reinstall the same rule under a new id — a
    behaviour-preserving update (the common case in real churn: route
    refreshes, priority reshuffles).  The device still recomputes its LEC
    delta, but nothing propagates.
    """

    dev: str
    rule_index: int
    new_next_hops: Tuple[str, ...]  # empty tuple = drop
    neutral: bool = False


def random_update_intents(
    topology: Topology,
    planes: Mapping[str, DevicePlane],
    count: int,
    seed: int,
    drop_fraction: float = 0.05,
    neutral_fraction: float = 0.5,
) -> List[UpdateIntent]:
    """§9.2/§9.3.3 incremental workload: ``count`` random rule updates.

    A ``neutral_fraction`` of them are behaviour-preserving reinstalls (the
    dominant case in production churn — the paper notes that "for most rule
    updates, the number of affected devices is small"); the rest re-point a
    random installed rule at a random neighbor (occasionally a drop,
    injecting an error the verifiers must catch).
    """
    rng = random.Random(seed)
    devices = sorted(dev for dev, plane in planes.items() if plane.num_rules)
    if not devices:
        raise ValueError("no device has rules to update")
    intents: List[UpdateIntent] = []
    for _ in range(count):
        dev = rng.choice(devices)
        if rng.random() < neutral_fraction:
            intents.append(UpdateIntent(dev, rng.randrange(10**6), (), True))
            continue
        neighbors = topology.neighbors(dev)
        if rng.random() < drop_fraction or not neighbors:
            hops: Tuple[str, ...] = ()
        else:
            hops = (rng.choice(neighbors),)
        intents.append(
            UpdateIntent(dev, rng.randrange(10**6), hops)
        )
    return intents


def apply_intents(
    runner: TulkunRunner, intents: Sequence[UpdateIntent], restore: bool = True
) -> IncrementalResult:
    """Apply intents one at a time; with ``restore`` each change is undone by
    a follow-up (also measured) update, keeping the FIB near its converged
    state as the paper's per-update methodology does."""
    from repro.dataplane.action import Action

    network = runner.network
    if network is None:
        raise RuntimeError("deploy/burst_update the network first")
    result = IncrementalResult()

    def one_update(dev: str, install: Rule, remove_id: int) -> None:
        result.times.append(runner.apply_updates([(dev, install, remove_id)]))

    for intent in intents:
        plane = network.devices[intent.dev].plane
        rules = plane.rules
        if not rules:
            continue
        rule = rules[intent.rule_index % len(rules)]
        if intent.neutral:
            # Behaviour-preserving reinstall: still a rule update the
            # verifier must process (and prove quiet), so it is measured.
            clone = Rule(rule.match, rule.action, rule.priority)
            one_update(intent.dev, clone, rule.rule_id)
            continue
        if intent.new_next_hops:
            new_action = Action.forward_all(intent.new_next_hops)
        else:
            new_action = Action.drop()
        if new_action == rule.action:
            continue  # no-op re-point carries no extra signal
        changed = Rule(rule.match, new_action, rule.priority)
        one_update(intent.dev, changed, rule.rule_id)
        if restore:
            restored = Rule(rule.match, rule.action, rule.priority)
            one_update(intent.dev, restored, changed.rule_id)
    return result
