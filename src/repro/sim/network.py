"""Simulated network of on-device verifiers.

Each :class:`SimDevice` owns a data plane and one verifier per invariant and
processes events *serially* — the clock advances by the measured wall time of
every handler (scaled to model the device CPU), so the dependency-chain
parallelism that gives Tulkun its speedup shows up faithfully: independent
devices overlap in simulated time, chained DVM hops serialize.

By default links are in-order reliable channels with propagation latency
(the TCP stand-in).  Messages crossing a failed link are dropped; verifiers
resynchronize on recovery.  With a ``chaos`` config (or an explicit
``channel``) the network instead runs every DVM message through the
:mod:`repro.sim.transport` reliability layer: a seeded
:class:`~repro.sim.transport.FaultyChannel` drops/duplicates/delays physical
copies, and per-flow seq/ack retransmission plus receive-side reorder
buffering restore the exactly-once in-order semantics the verifiers assume —
so the converged verdicts are byte-identical to the reliable run.  Devices
can also crash and restart (:meth:`SimNetwork.crash_device` /
:meth:`SimNetwork.restart_device`) with CIB resync via re-subscription.
"""

from __future__ import annotations

import time as _time
from math import frexp as _frexp
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bdd.predicate import PacketSpaceContext
from repro.core.dvm import SubscribeMessage, UpdateMessage
from repro.core.tasks import TaskSet
from repro.core.verifier import OnDeviceVerifier, Outgoing
from repro.dataplane.device import DevicePlane, RuleUpdate
from repro.dataplane.rule import Rule
from repro.errors import SimulationError
from repro.sim.kernel import SimKernel
from repro.sim.metrics import MetricsCollector
from repro.sim.transport import (
    ChaosConfig,
    Channel,
    DvmTransport,
    FaultyChannel,
    Segment,
    TransportConfig,
)
from repro.topology.graph import Topology, canonical_link

__all__ = ["SimDevice", "SimNetwork"]

#: What one device event hands back for routing: an ``(invariant,
#: outgoing)`` group per verifier that ran.
Groups = Sequence[Tuple[str, List[Outgoing]]]


class SimDevice:
    """One network device: data plane + verification agents."""

    def __init__(
        self,
        name: str,
        plane: DevicePlane,
        network: "SimNetwork",
    ) -> None:
        self.name = name
        self.plane = plane
        self.network = network
        self.verifiers: Dict[str, OnDeviceVerifier] = {}
        self.busy_until: float = 0.0

    def add_task(self, task_set: TaskSet) -> None:
        task = task_set.tasks.get(self.name)
        if task is not None:
            self.verifiers[task_set.invariant_name] = OnDeviceVerifier(
                task, self.plane,
                predicate_index=self.network.predicate_index,
                tracer=self.network.tracer,
                invariant=task_set.invariant_name,
            )

    # ------------------------------------------------------------------
    def process(
        self,
        handler: Callable[[], Groups],
        invariant: Optional[str] = None,
        record_message_cost: bool = False,
        record_init_cost: bool = False,
        label: str = "task",
    ) -> None:
        """Run a handler now as one device event; advance device time; route
        its outgoing messages.

        The handler executes at event-pop time (device events are serial, so
        state order equals processing order); its wall-clock cost, scaled by
        the network's CPU factor, becomes the simulated processing time.  It
        returns one ``(invariant, outgoing)`` group per verifier it ran — one
        for a DVM message, one per local verifier for a FIB change — so every
        message leaves under its verifier's invariant without being
        re-tupled.  ``invariant`` only names the tracer span.
        """
        network = self.network
        start = max(network.kernel.now, self.busy_until)
        t0 = _time.perf_counter()
        groups = handler()
        cost = (_time.perf_counter() - t0) * network.cpu_scale
        finish = start + cost
        self.busy_until = finish

        metrics = network.metrics.device(self.name)
        metrics.events_processed += 1
        metrics.busy_time += cost
        if record_message_cost:
            # CostAggregate.add, inlined: this runs once per handler event.
            costs = metrics.message_costs
            costs.count += 1
            costs.total += cost
            if cost > costs.max:
                costs.max = cost
            mantissa, exponent = _frexp(cost)
            key = exponent * 16 + int(mantissa * 16)
            costs.buckets[key] = costs.buckets.get(key, 0) + 1
        if record_init_cost:
            metrics.init_cost += cost
        network.note_activity(finish)
        if network.tracer is not None:
            network.tracer.task_span(
                self.name, label, invariant, start, finish
            )

        send = network.send
        for group_invariant, outgoing in groups:
            for dest, message in outgoing:
                send(self.name, dest, message, group_invariant, at=finish)


class SimNetwork:
    """The whole simulated deployment for a set of invariants."""

    def __init__(
        self,
        topology: Topology,
        ctx: PacketSpaceContext,
        planes: Mapping[str, DevicePlane],
        task_sets: Sequence[TaskSet],
        cpu_scale: float = 1.0,
        serialize_messages: bool = False,
        proxies: Optional[Mapping[str, str]] = None,
        gc_threshold: Optional[int] = None,
        predicate_index: str = "atoms",
        chaos: Optional[ChaosConfig] = None,
        channel: Optional[Channel] = None,
        transport_config: Optional[TransportConfig] = None,
        tracer=None,
    ) -> None:
        """``serialize_messages`` round-trips every DVM message through the
        byte codec (exact wire accounting + end-to-end codec exercise).

        ``proxies`` maps devices to the hosts their verifiers run on — the
        §7 *incremental deployment* mode where off-device instances play
        verifier for devices without one (RCDC generalization).  Messages
        then travel proxy-to-proxy along lowest-latency paths, and local
        data plane events pay the device→proxy hop.

        ``gc_threshold`` arms the BDD engine's node-table garbage collector:
        verifiers sweep at event-handler boundaries once the shared table
        crosses this many nodes (``None`` keeps GC off).

        ``predicate_index`` selects the region carrier of the verifiers
        and planes: ``"atoms"`` (default: packed masks over the shared
        dynamic atom index) or ``"bdd"`` (the oracle: the same code on raw
        predicates).  Verdicts and wire bytes are identical either way.

        ``chaos`` (or an explicit ``channel``) switches DVM messaging onto
        the seq/ack transport layer over an unreliable channel; see
        :mod:`repro.sim.transport`.  ``transport_config`` tunes the
        retransmission policy (defaults derive the RTO from the slowest
        link).  Without either, the transport is bypassed entirely and the
        network behaves exactly like the reliable seed simulator.

        ``tracer`` (a :class:`repro.telemetry.Tracer`) arms the causal
        event log: handler spans, DVM sends/deliveries (with Lamport
        clocks), transport fates, GC sweeps and lifecycle events are
        recorded, and any active channel is wrapped so its per-transmission
        fate schedule becomes replayable.  ``None`` (the default) keeps
        every hot path on a single pointer check.
        """
        self.topology = topology
        self.ctx = ctx
        self.predicate_index = predicate_index
        self.kernel = SimKernel()
        if tracer is not None and not tracer.enabled:
            tracer = None
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.kernel.now)
            self.kernel.tracer = tracer
            # GC sweeps invalidate external memos via this hook; piggyback
            # on it to log each sweep with the engine's own counters.
            mgr = ctx.mgr

            def _trace_gc() -> None:
                tracer.gc_event(
                    "",
                    self.kernel.now,
                    engine="serial",
                    gc_runs=mgr.stats.gc_runs,
                    live_nodes=mgr.stats.gc_last_live,
                    reclaimed_total=mgr.stats.gc_reclaimed,
                )

            mgr.register_invalidation_hook(_trace_gc)
        self.cpu_scale = cpu_scale
        self.serialize_messages = serialize_messages
        self.proxies: Dict[str, str] = dict(proxies or {})
        self._proxy_latency: Dict[str, Dict[str, float]] = {}
        self.metrics = MetricsCollector()
        self.devices: Dict[str, SimDevice] = {}
        self.task_sets = list(task_sets)
        self.failed_links: Set[Tuple[str, str]] = set()
        self.devices_down: Set[str] = set()
        self.last_activity: float = 0.0
        # Per directed (src, dst) channel: last delivery time (FIFO/TCP).
        self._last_delivery: Dict[Tuple[str, str], float] = {}
        if gc_threshold is not None:
            ctx.mgr.gc_threshold = gc_threshold
        if channel is None and chaos is not None:
            channel = FaultyChannel(chaos)
        if channel is not None and tracer is not None:
            # Record the per-transmission fate schedule for replay.
            from repro.telemetry.record import RecordingChannel

            channel = RecordingChannel(channel, tracer)
        self.channel = channel
        self.transport: Optional[DvmTransport] = None
        if channel is not None:
            self.transport = DvmTransport(
                self, channel, transport_config or TransportConfig()
            )

        for name in topology.devices:
            plane = planes.get(name)
            if plane is None:
                plane = DevicePlane(name, ctx)
            device = SimDevice(name, plane, self)
            for task_set in self.task_sets:
                device.add_task(task_set)
            self.devices[name] = device

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _latency_between(self, a: str, b: str) -> float:
        """Lowest-latency path delay between two hosts (proxy routing)."""
        if a == b:
            return 0.0
        table = self._proxy_latency.get(a)
        if table is None:
            table = self.topology.latency_distances_from(a)
            self._proxy_latency[a] = table
        latency = table.get(b)
        if latency is None:
            raise SimulationError(f"no path between proxies {a!r} and {b!r}")
        return latency

    def path_latency(self, src: str, dst: str) -> float:
        """Propagation latency for a DVM message ``src`` → ``dst``."""
        if self.proxies:
            # Proxy deployment: messages ride the management paths between
            # the hosts running the verifiers.
            src_host = self.proxies.get(src, src)
            dst_host = self.proxies.get(dst, dst)
            return self._latency_between(src_host, dst_host)
        if not self.topology.has_link(src, dst):
            raise SimulationError(f"no link {src!r}-{dst!r} for DVM message")
        return self.topology.latency(src, dst)

    def send(
        self,
        src: str,
        dst: str,
        message,
        invariant: Optional[str],
        at: float,
    ) -> None:
        if self.transport is None and not self.proxies:
            if canonical_link(src, dst) in self.failed_links:
                return  # the TCP connection is down; resync on recovery
        latency = self.path_latency(src, dst)
        if self.serialize_messages:
            from repro.core.wire import decode_message, encode_message

            message = decode_message(self.ctx, encode_message(message))
        metrics = self.metrics.device(src)
        metrics.messages_sent += 1
        size = message.wire_size() if hasattr(message, "wire_size") else 64
        metrics.bytes_sent += size
        if self.metrics.collect_logs:
            metrics.message_log.append(
                (src, dst, type(message).__name__, size)
            )
        if self.tracer is not None:
            self.tracer.dvm_send(src, dst, invariant, message, size, at)
        if self.transport is not None:
            self.transport.send(src, dst, invariant, message, at, latency)
            return
        key = (src, dst)
        arrival = max(at + latency, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = arrival
        self.kernel.schedule_at(
            arrival, lambda: self.dispatch(src, dst, invariant, message)
        )

    def schedule_segment(self, segment: Segment, arrival: float) -> None:
        """Schedule a transport segment's arrival (transport mode only).

        Liveness is checked at *arrival* time: a segment in flight when its
        link fails or its destination crashes is lost, and the sender's
        retransmission timer is what recovers it.
        """

        def deliver() -> None:
            if segment.dst in self.devices_down:
                return
            if not self.proxies and (
                canonical_link(segment.src, segment.dst) in self.failed_links
            ):
                return
            self.transport.handle_segment(segment, segment.wire_size())

        self.kernel.schedule_at(arrival, deliver)

    def dispatch(
        self, src: str, dst: str, invariant: Optional[str], message
    ) -> None:
        """Hand one in-order DVM message to the destination verifier."""
        if dst in self.devices_down:
            return
        device = self.devices[dst]
        recv = self.metrics.device(dst)
        recv.messages_received += 1
        size = message.wire_size() if hasattr(message, "wire_size") else 64
        recv.bytes_received += size
        if self.tracer is not None:
            self.tracer.dvm_deliver(
                src, dst, invariant, message, size, self.kernel.now
            )
        verifier = device.verifiers.get(invariant) if invariant else None
        if verifier is None:
            return
        if isinstance(message, UpdateMessage):
            device.process(
                lambda: ((invariant, verifier.handle_update(message)),),
                invariant,
                record_message_cost=True,
                label="update",
            )
        elif isinstance(message, SubscribeMessage):
            device.process(
                lambda: ((invariant, verifier.handle_subscribe(message)),),
                invariant,
                record_message_cost=True,
                label="subscribe",
            )
        else:
            raise SimulationError(f"unknown message type {type(message)}")

    def note_activity(self, at: float) -> None:
        if at > self.last_activity:
            self.last_activity = at

    # ------------------------------------------------------------------
    # Scenario drivers
    # ------------------------------------------------------------------
    def initialize(self, at: float = 0.0) -> None:
        """Kick off the initialization phase on every device."""
        for device in self.devices.values():
            for inv_name, verifier in device.verifiers.items():
                self._schedule_init(device, inv_name, verifier, at)

    def _schedule_init(
        self,
        device: SimDevice,
        invariant: str,
        verifier: OnDeviceVerifier,
        at: float,
    ) -> None:
        self.kernel.schedule_at(
            at,
            lambda: device.process(
                lambda: ((invariant, verifier.initialize()),),
                invariant,
                record_init_cost=True,
                label="init",
            ),
        )

    def install_rules(self, dev: str, rules: Sequence[Rule], at: float) -> None:
        """Burst-install rules on a device (data plane + verifier deltas)."""
        device = self.devices[dev]

        def handler() -> Groups:
            device.plane.install_many(rules)
            return [
                (inv_name, verifier.initialize())
                for inv_name, verifier in device.verifiers.items()
            ]

        self.kernel.schedule_at(
            at,
            lambda: device.process(
                handler, record_init_cost=True, label="install_rules"
            ),
        )

    def apply_rule_updates(
        self,
        dev: str,
        at: float,
        pairs: Sequence[RuleUpdate],
        only: Optional[Set[str]] = None,
    ) -> None:
        """Apply a batch of rule updates on one device as one event.

        ``pairs`` is an ordered sequence of ``(install, remove_id)`` rule
        updates (:meth:`DevicePlane.apply_update`).  The whole batch runs in
        *one* event handler — one plane mutation pass, one LEC-delta
        hand-off per verifier — which is the squashing win the serving
        mode's coalescer exploits; the quiescent fixpoint is identical to
        applying the same pairs one handler at a time (DVM update
        commutativity).  A drain (every rule removed) and its restore are
        such batches too.

        ``only`` restricts the LEC-delta hand-off to the named invariants
        (slicing: untouched verifiers provably no-op on these deltas).
        """
        device = self.devices.get(dev)
        if device is None:
            raise SimulationError(f"unknown device {dev!r}")

        def handler() -> Groups:
            apply_update = device.plane.apply_update
            deltas = []
            for install, remove_id in pairs:
                deltas.extend(apply_update(install, remove_id))
            return [
                (inv_name, verifier.handle_lec_deltas(deltas))
                for inv_name, verifier in device.verifiers.items()
                if only is None or inv_name in only
            ]

        self.kernel.schedule_at(
            at,
            lambda: device.process(
                handler, record_message_cost=True, label="rule_update"
            ),
        )

    def change_link(self, a: str, b: str, is_up: bool, at: float) -> None:
        """Fail or recover a link; both endpoints react locally."""
        link = canonical_link(a, b)

        def run() -> None:
            if self.tracer is not None:
                self.tracer.link_event(a, b, is_up, self.kernel.now)
            if is_up:
                self.failed_links.discard(link)
                if self.transport is not None:
                    self.transport.link_restored(a, b)
            else:
                self.failed_links.add(link)
            for endpoint, other in ((a, b), (b, a)):
                device = self.devices[endpoint]
                for inv_name, verifier in device.verifiers.items():
                    device.process(
                        lambda: ((
                            inv_name,
                            verifier.handle_link_change(other, is_up),
                        ),),
                        inv_name,
                        label="link_change",
                    )

        self.kernel.schedule_at(at, run)

    def crash_device(self, dev: str, at: float) -> None:
        """Crash a device: verifier RAM is lost, adjacent links go down.

        Neighbors observe the adjacency loss (their TCP sessions reset) and
        zero the counts they attributed through the crashed device, exactly
        as for a link failure.  The crashed device's transport state is
        wiped — a dead device sends nothing, and whatever was in flight to
        it is recovered by the senders' retransmission (or gives up into
        ``UNKNOWN`` if the device never returns).
        """
        if dev not in self.devices:
            raise SimulationError(f"unknown device {dev!r}")

        def run() -> None:
            if self.tracer is not None:
                self.tracer.crash(dev, self.kernel.now)
            self.devices_down.add(dev)
            for neighbor in self.topology.neighbors(dev):
                self.failed_links.add(canonical_link(dev, neighbor))
            if self.transport is not None:
                self.transport.device_crashed(dev)
            for neighbor in self.topology.neighbors(dev):
                device = self.devices[neighbor]
                for inv_name, verifier in device.verifiers.items():
                    device.process(
                        lambda: ((
                            inv_name, verifier.handle_link_change(dev, False)
                        ),),
                        inv_name,
                        label="neighbor_crash",
                    )

        self.kernel.schedule_at(at, run)

    def restart_device(self, dev: str, at: float) -> None:
        """Restart a crashed device and resynchronize its CIB state.

        The data plane (FIB hardware) survives the crash; the verifiers are
        rebuilt from scratch and re-run initialization, which re-announces
        their counts and re-issues their subscriptions.  Each neighbor
        clears its subscription bookkeeping toward the restarted device and
        force-re-announces its full CIB (``handle_neighbor_restart``), so
        the fresh verifiers recover every counting result they lost.
        Transport flows touching the device restart with a fresh epoch;
        stale in-flight segments from the previous incarnation are
        discarded by the epoch guard.
        """
        if dev not in self.devices:
            raise SimulationError(f"unknown device {dev!r}")

        def run() -> None:
            if self.tracer is not None:
                self.tracer.restart(dev, self.kernel.now)
            self.devices_down.discard(dev)
            for neighbor in self.topology.neighbors(dev):
                self.failed_links.discard(canonical_link(dev, neighbor))
            if self.transport is not None:
                self.transport.device_restarted(dev)
            device = self.devices[dev]
            device.verifiers.clear()
            for task_set in self.task_sets:
                device.add_task(task_set)
            for inv_name, verifier in device.verifiers.items():
                device.process(
                    lambda: ((inv_name, verifier.initialize()),),
                    inv_name,
                    record_init_cost=True,
                    label="init",
                )
            for neighbor in self.topology.neighbors(dev):
                ndev = self.devices[neighbor]
                for inv_name, verifier in ndev.verifiers.items():
                    ndev.process(
                        lambda: (
                            (inv_name, verifier.handle_neighbor_restart(dev)),
                        ),
                        inv_name,
                        label="neighbor_restart",
                    )

        self.kernel.schedule_at(at, run)

    def add_task_sets(self, task_sets: Sequence[TaskSet], at: float) -> None:
        """Deploy additional invariants onto the live network.

        Each live device gains a verifier for every new task set and runs
        its initialization (count announcement + subscriptions) in place —
        no redeploy, no disturbance to the verifiers already converged.
        Crashed devices are skipped here; their restart path rebuilds
        verifiers from ``self.task_sets``, which now includes the new ones.
        """
        task_sets = list(task_sets)
        self.task_sets.extend(task_sets)

        def run() -> None:
            for task_set in task_sets:
                for name, device in self.devices.items():
                    if name in self.devices_down:
                        continue
                    device.add_task(task_set)
                    inv_name = task_set.invariant_name
                    verifier = device.verifiers.get(inv_name)
                    if verifier is not None:
                        self._schedule_init(
                            device, inv_name, verifier, self.kernel.now
                        )

        self.kernel.schedule_at(at, run)

    def remove_task_sets(self, names: Sequence[str], at: float) -> None:
        """Retire invariants from the live network.

        Verifiers for the named invariants are dropped on every device;
        DVM messages still in flight for them are discarded on delivery
        (dispatch finds no verifier).  ``self.task_sets`` shrinks too, so a
        later device restart does not resurrect them.
        """
        doomed = set(names)
        self.task_sets = [
            ts for ts in self.task_sets if ts.invariant_name not in doomed
        ]

        def run() -> None:
            for device in self.devices.values():
                for name in doomed:
                    device.verifiers.pop(name, None)
            self.note_activity(self.kernel.now)

        self.kernel.schedule_at(at, run)

    def activate_scene(self, scene_id: Optional[int], at: float) -> None:
        """Switch every verifier to a precomputed fault scene (§6)."""

        def run() -> None:
            for device in self.devices.values():
                for inv_name, verifier in device.verifiers.items():
                    device.process(
                        lambda: ((
                            inv_name, verifier.activate_scene(scene_id)
                        ),),
                        inv_name,
                        label="scene",
                    )

        self.kernel.schedule_at(at, run)

    # ------------------------------------------------------------------
    # Run + results
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run to quiescence; returns the time of the last activity."""
        self.kernel.run(until=until)
        return self.last_activity

    @property
    def converged(self) -> bool:
        """Quiescence: no queued events, no unacked transport segments, and
        no flow that gave up (a partition prevented convergence)."""
        if self.kernel.pending:
            return False
        if self.transport is None:
            return True
        return self.transport.quiescent() and not self.transport.unreachable

    def invariant_status(
        self, invariant: str, within: Optional[Sequence[str]] = None
    ) -> str:
        """``HOLDS`` / ``VIOLATED``, or ``UNKNOWN(unreachable_upstream)``
        when a transport flow carrying this invariant's results gave up —
        the surviving counts are stale, so no verdict is reported.

        ``within`` limits the verdict gathering to the named devices (the
        slicing scheduler passes the invariant's footprint — verifiers
        cannot exist elsewhere, so the answer is unchanged)."""
        if (
            self.transport is not None
            and invariant in self.transport.unreachable_invariants()
        ):
            return "UNKNOWN(unreachable_upstream)"
        return "HOLDS" if self.all_hold(invariant, within) else "VIOLATED"

    def transport_summary(self) -> Dict[str, int]:
        """Aggregate transport/channel counters (zeros without transport)."""
        totals = self.metrics.transport_totals()
        if self.channel is not None:
            for key, value in self.channel.stats().items():
                totals[f"channel_{key}"] = value
        totals["unreachable_flows"] = (
            len(self.transport.unreachable) if self.transport else 0
        )
        totals["unacked_segments"] = (
            self.transport.unacked_segments() if self.transport else 0
        )
        return totals

    def verdicts(
        self, invariant: str, within: Optional[Sequence[str]] = None
    ) -> Dict[str, Tuple[bool, list]]:
        """Per-ingress verdicts gathered from source-node devices.

        ``within`` restricts the scan to the named devices — sound when it
        covers the invariant's footprint, since verifiers exist nowhere
        else; turns the gather from O(all devices) into O(footprint)."""
        verdicts: Dict[str, Tuple[bool, list]] = {}
        if within is None:
            devices = self.devices.values()
        else:
            devices = [
                self.devices[dev] for dev in within if dev in self.devices
            ]
        for device in devices:
            verifier = device.verifiers.get(invariant)
            if verifier is not None:
                verdicts.update(verifier.verdicts)
        return verdicts

    def all_hold(
        self, invariant: str, within: Optional[Sequence[str]] = None
    ) -> bool:
        verdicts = self.verdicts(invariant, within)
        return bool(verdicts) and all(ok for ok, _violations in verdicts.values())

    def violations(self, invariant: str) -> list:
        out = []
        for _ingress, (_ok, violations) in self.verdicts(invariant).items():
            out.extend(violations)
        return out

    def snapshot_memory(self) -> None:
        """Record each verifier's memory proxy into the metrics."""
        for name, device in self.devices.items():
            total = sum(v.memory_proxy() for v in device.verifiers.values())
            metrics = self.metrics.device(name)
            metrics.memory_proxy_peak = max(metrics.memory_proxy_peak, total)

    def snapshot_engines(self) -> None:
        """Record the shared BDD engine's profile into the metrics.

        The serial simulator runs every device on one shared manager, so
        there is a single honest engine row (per-device attribution would
        just split one cache arbitrarily)."""
        self.metrics.record_engine("serial", self.ctx.mgr.profile())
        if self.predicate_index == "atoms" and self.ctx._atom_index is not None:
            self.metrics.record_atom_index(
                "serial", self.ctx.atom_index().profile()
            )
