"""Typed trace-event records.

Every observable action in a traced simulation run becomes one
:class:`TraceEvent`: a kind tag, the device it happened on (``""`` for
kernel-level events), the simulated timestamp, a per-device Lamport clock
value, and kind-specific fields.  Records are plain data — exporters
(:mod:`repro.telemetry.chrome`, :mod:`repro.telemetry.timeline`) and the
provenance walker consume them without touching live simulator state, so a
trace loaded from disk is as analyzable as one captured in process.

Lamport-clock rules (documented in docs/PROTOCOL.md):

* every traced event on device ``d`` increments ``L_d`` and is stamped with
  the incremented value;
* a DVM send event carries the sender's stamped clock with the message;
* the matching deliver event first merges ``L_dst = max(L_dst, L_send)``
  and then increments — so ``deliver.lamport > send.lamport`` always holds,
  and the happens-before partial order of the run is recoverable from the
  log alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "TraceEvent",
    "TASK",
    "DVM_SEND",
    "DVM_DELIVER",
    "TRANSPORT_SEND",
    "TRANSPORT_RETRANSMIT",
    "TRANSPORT_ACK",
    "TRANSPORT_GIVEUP",
    "TRANSPORT_DUP_DROP",
    "TRANSPORT_BUFFER",
    "GC",
    "VERDICT",
    "LINK",
    "CRASH",
    "RESTART",
    "KERNEL_RUN",
    "IPC",
    "SERVE_EPOCH",
    "SLICE_SPAN",
    "SPAN_KINDS",
]

# Span events (carry ``start``/``finish`` fields; everything else is an
# instant at ``ts``).
TASK = "task"
KERNEL_RUN = "kernel_run"
# Process-backend coordinator/worker IPC: command execution ("drain" for
# inbox deliveries), outbound-message routing ("flush"), worker idle gaps and
# quiescence probes — the per-worker occupancy timeline.
IPC = "ipc"
# Serving-mode epochs: one span per coalesced re-verification pass through
# the always-on daemon (events ingested, ops applied, wall latency).
SERVE_EPOCH = "serve_epoch"
# Tenant-slice activity: one span per slice touched by an epoch, on a
# ``slice:<tenant>`` track — which tenants each verification pass reached.
SLICE_SPAN = "slice_span"
SPAN_KINDS = frozenset({TASK, KERNEL_RUN, IPC, SERVE_EPOCH, SLICE_SPAN})

# DVM messaging (the CIB announce / subscribe / update traffic).
DVM_SEND = "dvm_send"
DVM_DELIVER = "dvm_deliver"

# Transport reliability layer.
TRANSPORT_SEND = "transport_send"
TRANSPORT_RETRANSMIT = "transport_retransmit"
TRANSPORT_ACK = "transport_ack"
TRANSPORT_GIVEUP = "transport_giveup"
TRANSPORT_DUP_DROP = "transport_dup_drop"
TRANSPORT_BUFFER = "transport_buffer"

# Engine and lifecycle events.
GC = "gc"
VERDICT = "verdict"
LINK = "link"
CRASH = "crash"
RESTART = "restart"


@dataclass
class TraceEvent:
    """One record in the causal event log."""

    seq: int                  # global record order (monotone)
    kind: str
    device: str               # "" = kernel/network-level event
    ts: float                 # simulated time
    lamport: int              # per-device Lamport clock after this event
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "device": self.device,
            "ts": self.ts,
            "lamport": self.lamport,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            device=str(data["device"]),
            ts=float(data["ts"]),
            lamport=int(data["lamport"]),
            fields=dict(data.get("fields", {})),
        )
