"""The serving session: one live deployment driven by a request stream.

A :class:`StreamSession` owns a :class:`TulkunRunner` with a deployed
network and mediates between the wire protocol and the verification layer:

* **ingest** — :meth:`handle_line` decodes one request, validates it
  against the session's *projected* state (the deployment as it will look
  once everything already enqueued is applied), and either buffers it in
  the :class:`Coalescer` or answers directly (``status`` / ``stats``).
  Validation happens at enqueue time precisely so an invalid request is
  rejected on the same line no matter how the stream is chunked into
  epochs — the differential harness depends on that.
* **apply** — :meth:`run_epoch` atomically drains the coalescer and pushes
  the squashed segments through the runner (one quiescence run per
  segment), then emits a ``delta`` frame with the verdict changes.  The
  drain happens *before* any segment is applied, so a request arriving
  while an epoch is in flight lands in the next epoch, never mid-batch.

The session is transport-agnostic: the socket daemon, the stdio loop and
the in-process test harnesses all drive the same three methods.  Rule
identity on the wire is the client-chosen *key* (initial FIB rules are
auto-keyed ``"<device>:<index>"`` in plane order); internally a key maps to
the concrete :class:`Rule` object, so redeployments (process-backend
invariant changes) preserve key validity — the same Rule objects, and
therefore the same rule ids, survive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.language import parse_invariants, parse_packet_space
from repro.dataplane.rule import Rule
from repro.errors import ReproError
from repro.serve.coalesce import Barrier, Coalescer, FibBatch
from repro.serve.deltas import DeltaEmitter
from repro.serve.protocol import (
    PROTOCOL,
    ControlRequest,
    DeviceRequest,
    InstallSpec,
    InvariantRequest,
    LinkRequest,
    ProtocolError,
    Request,
    SubscribeRequest,
    UpdateRequest,
    decode_line,
    decode_request,
    parse_action,
)
from repro.serve.subscribe import SUBSCRIBE_ALL, Subscription
from repro.sim.runner import TulkunRunner
from repro.slicing import tenant_of_invariant
from repro.telemetry.histogram import LatencyHistogram

__all__ = ["Reply", "StreamSession", "auto_key_rules"]


@dataclass
class Reply:
    """What one request produced: frames to send back, plus loop signals."""

    frames: List[Dict[str, object]] = field(default_factory=list)
    flush: bool = False      # client asked for an immediate epoch
    shutdown: bool = False   # client asked the daemon to stop
    # A subscribe request changes the *requesting* client's broadcast
    # filter; the transport applies it after sending the ack.
    subscribe: Optional[Subscription] = None


def auto_key_rules(
    rules_by_device: Mapping[str, Sequence[Rule]]
) -> Dict[str, Tuple[str, Rule]]:
    """Key map for an initial FIB: ``"<device>:<index>"`` in plane order."""
    keys: Dict[str, Tuple[str, Rule]] = {}
    for dev in sorted(rules_by_device):
        for index, rule in enumerate(rules_by_device[dev]):
            keys[f"{dev}:{index}"] = (dev, rule)
    return keys


class StreamSession:
    """Protocol-to-runner bridge for one always-on deployment."""

    def __init__(
        self,
        runner: TulkunRunner,
        rules_by_device: Mapping[str, Sequence[Rule]],
        histogram: Optional[LatencyHistogram] = None,
        max_pending_per_tenant: Optional[int] = None,
        max_slices_per_tenant: Optional[int] = None,
    ) -> None:
        """``max_pending_per_tenant`` caps how many un-drained events may be
        attributed to one tenant slice (needs a runner that declares tenants,
        since attribution routes through the slice registry); excess requests
        are rejected with a ``tenant-backlog`` error.  ``max_slices_per_tenant``
        caps how many invariants one tenant slice may hold (``tenant-quota``).
        Both default to ``None`` — unlimited — which keeps admission out of
        the request/response stream entirely."""
        if (
            max_pending_per_tenant is not None
            and not runner.slice_registry.tenants_declared
        ):
            raise ValueError(
                "max_pending_per_tenant needs a runner that declares tenants"
            )
        self.runner = runner
        self.rules_by_device = {
            dev: list(rules) for dev, rules in rules_by_device.items()
        }
        self.coalescer = Coalescer()
        self.deltas = DeltaEmitter()
        self.histogram = histogram if histogram is not None else LatencyHistogram()
        self.max_pending_per_tenant = max_pending_per_tenant
        self.max_slices_per_tenant = max_slices_per_tenant
        self.epoch = 0
        self.total_events = 0
        self.total_ops = 0
        # Per-tenant epoch latency (recorded for every tenant an epoch
        # touched) and the pending-event admission counters.
        self.tenant_histograms: Dict[str, LatencyHistogram] = {}
        self._pending_by_tenant: Dict[str, int] = {}
        # Transport hook: the daemon installs a callable returning its
        # per-client table (queue depth, drops, subscription) for ``stats``.
        self.stats_clients: Optional[
            Callable[[], List[Dict[str, object]]]
        ] = None
        # Projected state: the deployment after everything enqueued applies.
        self._keys: Dict[str, Tuple[str, Rule]] = {}
        self._invariant_names: Set[str] = set()
        self._tenant_of_projected: Dict[str, str] = {}
        self._devices_down: Set[str] = set()
        self._drained: Set[str] = set()
        self._links_down: Set[Tuple[str, str]] = set()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Dict[str, object]:
        """Deploy the initial FIB, run to quiescence, return the ``hello``
        frame (protocol id, deployment shape, initial statuses)."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        result = self.runner.burst_update(self.rules_by_device)
        self._keys = auto_key_rules(self.rules_by_device)
        self._invariant_names = {inv.name for inv in self.runner.invariants}
        for name in self._invariant_names:
            self._tenant_of_projected[name] = self.tenant_of(name)
        self.runner.consume_touched()  # deploy touches everything
        statuses = self.runner.statuses()
        self.deltas.diff(statuses)  # set the baseline clients start from
        return {
            "frame": "hello",
            "proto": PROTOCOL,
            "backend": self.runner.backend,
            "devices": len(self.runner.topology.devices),
            "rules": sum(len(r) for r in self.rules_by_device.values()),
            "invariants": sorted(self._invariant_names),
            "statuses": statuses,
            "deploy_time": result.verification_time,
        }

    def close(self) -> None:
        self.runner.close()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> Reply:
        """Process one request line; never raises on bad input."""
        try:
            request = decode_request(decode_line(line))
        except ProtocolError as exc:
            return Reply(frames=[self._error(None, exc.code, exc.detail)])
        return self.handle_request(request)

    def handle_request(self, request: Request) -> Reply:
        try:
            if isinstance(request, UpdateRequest):
                self._enqueue_update(request)
                return Reply(frames=[self._ack(request, "update")])
            if isinstance(request, LinkRequest):
                self._enqueue_link(request)
                return Reply(frames=[self._ack(request, "link")])
            if isinstance(request, DeviceRequest):
                self._enqueue_device(request)
                return Reply(frames=[self._ack(request, request.op)])
            if isinstance(request, InvariantRequest):
                self._enqueue_invariant(request)
                return Reply(frames=[self._ack(request, "invariant")])
            if isinstance(request, SubscribeRequest):
                subscription = self._subscription_for(request)
                frame = self._ack(request, "subscribe")
                frame["subscription"] = subscription.describe()
                return Reply(frames=[frame], subscribe=subscription)
            if isinstance(request, ControlRequest):
                return self._control(request)
        except ProtocolError as exc:
            return Reply(frames=[self._error(request.id, exc.code, exc.detail)])
        raise AssertionError(f"unhandled request {request!r}")

    # ------------------------------------------------------------------
    # Tenancy + admission
    # ------------------------------------------------------------------
    def tenant_of(self, invariant_name: str) -> str:
        """Resolve an invariant's tenant through the slice registry's
        declared tenants, then the projected membership, and finally the
        ``tenant/`` name-prefix convention."""
        tenant = self.runner.slice_registry.tenant_of(invariant_name)
        if tenant is not None:
            return tenant
        tenant = self._tenant_of_projected.get(invariant_name)
        if tenant is not None:
            return tenant
        return tenant_of_invariant(invariant_name)

    def _subscription_for(self, request: SubscribeRequest) -> Subscription:
        if request.all:
            return SUBSCRIBE_ALL
        if request.invariants is not None:
            for name in request.invariants:
                if name not in self._invariant_names:
                    raise ProtocolError(
                        "unknown-invariant", f"no invariant {name!r}"
                    )
            return Subscription("invariants", frozenset(request.invariants))
        assert request.tenants is not None
        # Tenant slices come and go with invariant churn, so any name is
        # accepted — an unknown tenant simply matches nothing yet.
        return Subscription("tenants", frozenset(request.tenants))

    def _admit(self, tenants: Iterable[str], cost: int = 1) -> None:
        """Charge ``cost`` pending events to each touched tenant, rejecting
        the request (before any projection commits) when a tenant would
        exceed its backlog limit.  No-op with the limit unset."""
        limit = self.max_pending_per_tenant
        if limit is None:
            return
        charged = sorted(set(tenants))
        counts = self._pending_by_tenant
        for tenant in charged:
            if counts.get(tenant, 0) + cost > limit:
                raise ProtocolError(
                    "tenant-backlog",
                    f"tenant {tenant!r} has {counts.get(tenant, 0)} pending "
                    f"events (limit {limit})",
                )
        for tenant in charged:
            counts[tenant] = counts.get(tenant, 0) + cost

    # ------------------------------------------------------------------
    # Per-op validation + enqueue (all against projected state)
    # ------------------------------------------------------------------
    def _enqueue_update(self, request: UpdateRequest) -> None:
        topology = self.runner.topology
        if not topology.has_device(request.device):
            raise ProtocolError(
                "unknown-device", f"no device {request.device!r}"
            )
        # A dead or drained box takes no FIB updates; the projection makes
        # this verdict independent of where epoch boundaries fall.
        if request.device in self._devices_down:
            raise ProtocolError(
                "device-down", f"device {request.device!r} is crashed"
            )
        if request.device in self._drained:
            raise ProtocolError(
                "device-drained", f"device {request.device!r} is drained"
            )
        remove_entry: Optional[Tuple[str, Rule]] = None
        if request.remove is not None:
            remove_entry = self._keys.get(request.remove)
            if remove_entry is None:
                raise ProtocolError(
                    "unknown-key", f"no live rule under key {request.remove!r}"
                )
            if remove_entry[0] != request.device:
                raise ProtocolError(
                    "key-device-mismatch",
                    f"key {request.remove!r} lives on {remove_entry[0]!r}, "
                    f"not {request.device!r}",
                )
        install_rule: Optional[Rule] = None
        if request.install is not None:
            install_rule = self._parse_install(request.device, request.install)
        if self.max_pending_per_tenant is not None:
            registry = self.runner.slice_registry
            touched: Set[str] = set()
            cost = 0
            if remove_entry is not None:
                touched |= registry.touched_by_update(
                    request.device, remove_entry[1].match
                )
                cost += 1
            if install_rule is not None:
                touched |= registry.touched_by_update(
                    request.device, install_rule.match
                )
                cost += 1
            self._admit(touched, cost)
        # Both halves validated — now commit projections and enqueue.
        if request.remove is not None and remove_entry is not None:
            del self._keys[request.remove]
            self.coalescer.remove(
                request.remove, request.device, remove_entry[1].rule_id
            )
            self.total_events += 1
        if request.install is not None and install_rule is not None:
            self._keys[request.install.key] = (request.device, install_rule)
            self.coalescer.install(
                request.install.key, request.device, install_rule
            )
            self.total_events += 1

    def _parse_install(self, device: str, spec: InstallSpec) -> Rule:
        if spec.key in self._keys:
            owner = self._keys[spec.key][0]
            raise ProtocolError(
                "duplicate-key",
                f"key {spec.key!r} is already live on {owner!r}",
            )
        try:
            match = parse_packet_space(self.runner.ctx, spec.match)
        except ReproError as exc:
            raise ProtocolError("bad-match", str(exc)) from None
        action, hops = parse_action(spec.action)
        neighbors = set(self.runner.topology.neighbors(device))
        for hop in hops:
            if hop not in neighbors:
                raise ProtocolError(
                    "bad-next-hop",
                    f"{hop!r} is not adjacent to {device!r}",
                )
        return Rule(match, action, spec.priority)

    def _enqueue_link(self, request: LinkRequest) -> None:
        topology = self.runner.topology
        if not topology.has_link(request.a, request.b):
            raise ProtocolError(
                "unknown-link",
                f"no link between {request.a!r} and {request.b!r}",
            )
        link = (min(request.a, request.b), max(request.a, request.b))
        if request.up and link not in self._links_down:
            raise ProtocolError(
                "link-not-down", f"link {link[0]}:{link[1]} is up"
            )
        if not request.up and link in self._links_down:
            raise ProtocolError(
                "link-already-down",
                f"link {link[0]}:{link[1]} is already down",
            )
        if self.max_pending_per_tenant is not None:
            self._admit(
                self.runner.slice_registry.touched_by_link(request.a, request.b)
            )
        if request.up:
            self._links_down.discard(link)
        else:
            self._links_down.add(link)
        self.coalescer.barrier("link", (request.a, request.b, request.up))
        self.total_events += 1

    def _enqueue_device(self, request: DeviceRequest) -> None:
        backend = self.runner.backend
        if request.op in ("crash", "restart") and backend != "serial":
            raise ProtocolError(
                "serial-only",
                f"op {request.op!r} needs the serial backend "
                f"(got {backend!r})",
            )
        dev = request.device
        if not self.runner.topology.has_device(dev):
            raise ProtocolError("unknown-device", f"no device {dev!r}")
        if request.op == "crash" and dev in self._devices_down:
            raise ProtocolError(
                "already-crashed", f"device {dev!r} is already down"
            )
        if request.op == "restart" and dev not in self._devices_down:
            raise ProtocolError("not-crashed", f"device {dev!r} is not down")
        if request.op == "drain" and dev in self._drained:
            raise ProtocolError(
                "already-drained", f"device {dev!r} is already drained"
            )
        if request.op == "restore" and dev not in self._drained:
            raise ProtocolError(
                "not-drained", f"device {dev!r} is not drained"
            )
        if self.max_pending_per_tenant is not None:
            registry = self.runner.slice_registry
            if request.op in ("crash", "restart"):
                self._admit(registry.touched_by_lifecycle(dev))
            else:  # drain / restore: whole-FIB rewrite on the device
                self._admit(registry.touched_by_rewrite(dev))
        if request.op == "crash":
            self._devices_down.add(dev)
        elif request.op == "restart":
            self._devices_down.discard(dev)
        elif request.op == "drain":
            self._drained.add(dev)
        else:
            self._drained.discard(dev)
        self.coalescer.barrier(request.op, (dev,))
        self.total_events += 1

    def _enqueue_invariant(self, request: InvariantRequest) -> None:
        if request.add_spec is not None:
            try:
                invariants = parse_invariants(
                    self.runner.ctx, request.add_spec
                )
            except ReproError as exc:
                raise ProtocolError("bad-spec", str(exc)) from None
            if not invariants:
                raise ProtocolError("bad-spec", "spec defines no invariants")
            for inv in invariants:
                if inv.name in self._invariant_names:
                    raise ProtocolError(
                        "duplicate-invariant",
                        f"invariant {inv.name!r} is already deployed",
                    )
            tenants = {
                inv.name: (
                    request.tenant
                    if request.tenant is not None
                    else tenant_of_invariant(inv.name)
                )
                for inv in invariants
            }
            if self.max_slices_per_tenant is not None:
                load: Dict[str, int] = {}
                for tenant in self._tenant_of_projected.values():
                    load[tenant] = load.get(tenant, 0) + 1
                incoming: Dict[str, int] = {}
                for tenant in tenants.values():
                    incoming[tenant] = incoming.get(tenant, 0) + 1
                for tenant in sorted(incoming):
                    if (
                        load.get(tenant, 0) + incoming[tenant]
                        > self.max_slices_per_tenant
                    ):
                        raise ProtocolError(
                            "tenant-quota",
                            f"tenant {tenant!r} holds {load.get(tenant, 0)} "
                            f"invariants "
                            f"(limit {self.max_slices_per_tenant})",
                        )
            self._admit(set(tenants.values()))
            self._invariant_names.update(tenants)
            self._tenant_of_projected.update(tenants)
            self.coalescer.barrier(
                "invariant-add", (tuple(invariants), request.tenant)
            )
        else:
            name = request.remove
            if name not in self._invariant_names:
                raise ProtocolError(
                    "unknown-invariant", f"no invariant {name!r}"
                )
            self._admit([self.tenant_of(name)])
            self._invariant_names.discard(name)
            self._tenant_of_projected.pop(name, None)
            self.coalescer.barrier("invariant-remove", (name,))
        self.total_events += 1

    # ------------------------------------------------------------------
    # Control ops
    # ------------------------------------------------------------------
    def _control(self, request: ControlRequest) -> Reply:
        if request.op == "flush":
            return Reply(frames=[self._ack(request, "flush")], flush=True)
        if request.op == "status":
            return Reply(frames=[self.status_frame()])
        if request.op == "stats":
            return Reply(frames=[self.stats_frame()])
        # shutdown: the loop drains pending work, then says goodbye.
        return Reply(
            frames=[self._ack(request, "shutdown")], flush=True, shutdown=True
        )

    def status_frame(self) -> Dict[str, object]:
        return {
            "frame": "status",
            "epoch": self.epoch,
            "statuses": self.runner.statuses(),
            "pending": self.coalescer.events,
            "converged": not self.coalescer.pending,
        }

    def stats_frame(self) -> Dict[str, object]:
        frame: Dict[str, object] = {
            "frame": "stats",
            "backend": self.runner.backend,
            "epochs": self.epoch,
            "events": self.total_events,
            "ops": self.total_ops,
            "latency": self.histogram.summary(),
        }
        pool_stats = getattr(self.runner.network, "pool_stats", None)
        if pool_stats is not None:
            frame["pool"] = pool_stats()
        if self.tenant_histograms:
            frame["tenants"] = {
                tenant: hist.summary()
                for tenant, hist in sorted(self.tenant_histograms.items())
            }
        if (
            self.max_pending_per_tenant is not None
            or self.max_slices_per_tenant is not None
        ):
            frame["admission"] = {
                "max_pending_per_tenant": self.max_pending_per_tenant,
                "max_slices_per_tenant": self.max_slices_per_tenant,
                "pending": {
                    tenant: count
                    for tenant, count in sorted(self._pending_by_tenant.items())
                    if count
                },
            }
        if self.stats_clients is not None:
            frame["clients"] = self.stats_clients()
        return frame

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        return self.coalescer.pending

    def run_epoch(self, reason: str) -> List[Dict[str, object]]:
        """Drain the coalescer and re-verify; return the frames to emit
        (any apply-time errors, then the ``delta``).  No-op → no frames."""
        if not self.coalescer.pending:
            return []
        segments, events = self.coalescer.drain()
        self._pending_by_tenant = {}
        self.epoch += 1
        epoch = self.epoch
        tracer = self.runner.tracer
        t0 = tracer.ipc_clock() if tracer is not None else 0.0
        wall_start = time.perf_counter()
        frames: List[Dict[str, object]] = []
        settle = 0.0
        ops = 0
        for segment in segments:
            try:
                settle += self._apply_segment(segment)
            except ReproError as exc:
                # Projection and deployment disagreed (should not happen;
                # surfaced rather than killing the daemon).
                frames.append(
                    self._error(None, "apply-failed", str(exc), epoch=epoch)
                )
                continue
            if isinstance(segment, FibBatch):
                ops += len(segment.ops)
            else:
                ops += 1
        latency = time.perf_counter() - wall_start
        self.histogram.record(latency)
        self.total_ops += ops
        # Deployments that declare tenants report which tenant slices this
        # epoch touched (and record the epoch's latency against each of
        # them); the others keep the original frame shape exactly.
        touched: Optional[List[str]] = sorted(self.runner.consume_touched())
        if not self.runner.slice_registry.tenants_declared:
            touched = None
        for tenant in touched or ():
            hist = self.tenant_histograms.get(tenant)
            if hist is None:
                hist = self.tenant_histograms[tenant] = LatencyHistogram()
            hist.record(latency)
        if tracer is not None:
            t1 = tracer.ipc_clock()
            tracer.epoch_span(
                epoch, reason, t0, t1, events=events, ops=ops, settle=settle
            )
            for tenant in touched or ():
                tracer.slice_span(epoch, tenant, t0, t1, events=events)
        changed = self.deltas.diff(self.runner.statuses())
        delta: Dict[str, object] = {
            "frame": "delta",
            "epoch": epoch,
            "reason": reason,
            "events": events,
            "ops": ops,
            "settle": settle,
            "changed": changed,
            "converged": True,
        }
        if touched is not None:
            delta["touched"] = touched
        frames.append(delta)
        return frames

    def _apply_segment(self, segment) -> float:
        runner = self.runner
        if isinstance(segment, FibBatch):
            return runner.apply_updates(segment.ops)
        assert isinstance(segment, Barrier)
        kind, payload = segment.kind, segment.payload
        if kind == "link":
            a, b, up = payload
            if up:
                return runner.recover_links([(a, b)])
            return runner.fail_links([(a, b)])
        if kind == "crash":
            return runner.crash_device(payload[0])
        if kind == "restart":
            return runner.restart_device(payload[0])
        if kind == "drain":
            return runner.drain_device(payload[0])
        if kind == "restore":
            return runner.restore_drained(payload[0])
        if kind == "invariant-add":
            invariants, tenant = payload
            tenant_map = (
                {inv.name: tenant for inv in invariants}
                if tenant is not None
                else None
            )
            return runner.add_invariants(list(invariants), tenants=tenant_map)
        if kind == "invariant-remove":
            return runner.remove_invariants(list(payload))
        raise AssertionError(f"unknown barrier kind {kind!r}")

    def shutdown_frames(self, reason: str = "shutdown") -> List[Dict[str, object]]:
        """Graceful stop: drain whatever is still pending, then ``bye``."""
        frames = self.run_epoch(reason)
        frames.append({"frame": "bye", "epochs": self.epoch})
        return frames

    # ------------------------------------------------------------------
    # Frame helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _ack(request: Request, op: str) -> Dict[str, object]:
        frame: Dict[str, object] = {"frame": "ack", "op": op}
        if request.id is not None:
            frame["id"] = request.id
        return frame

    @staticmethod
    def _error(
        request_id: Optional[str], code: str, detail: str, **fields: object
    ) -> Dict[str, object]:
        frame: Dict[str, object] = {
            "frame": "error", "code": code, "detail": detail, **fields,
        }
        if request_id is not None:
            frame["id"] = request_id
        return frame
