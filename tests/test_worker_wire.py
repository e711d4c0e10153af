"""Cross-worker DVM messages: one codec, the command pipe, serial parity.

A worker flushes the messages bound for other workers as
``(key, dst, invariant, encode_message(msg))`` entries, and the receiving
worker rebuilds each with :func:`repro.core.wire.decode_message` in its own
context.  Pinned here:

* a multi-entry flush → inbox round trip between two contexts delivers
  exactly ``decode_message(encode_message(m))`` for every message, on both
  carriers, and the flushed bytes are the messages' wire sizes;
* a truncated blob raises :class:`SerializationError`;
* on randomized differential scenarios the process backend (GC armed, both
  carriers) reaches the serial backend's verdicts, violation regions and
  source fingerprints.
"""

import pytest

from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.bdd.serialize import serialize_predicate
from repro.core.dvm import SubscribeMessage, UpdateMessage
from repro.core.wire import decode_message, encode_message
from repro.dataplane.device import DevicePlane
from repro.errors import SerializationError
from repro.parallel.worker import VerifierHost

from tests.test_parallel_backend import serial_fingerprints

ASSIGNMENT = {"a": 0, "b": 1, "c": 1, "d": 2}


class _Recorder:
    """Stands in for a verifier: records each delivered batch."""

    def __init__(self) -> None:
        self.batches = []

    def handle_batch(self, messages):
        self.batches.append(list(messages))
        return []


def _host(wid, ctx, predicate_index):
    mine = sorted(dev for dev, w in ASSIGNMENT.items() if w == wid)
    return VerifierHost(
        {
            "wid": wid,
            "ctx": ctx,
            "assignment": ASSIGNMENT,
            "predicate_index": predicate_index,
            "planes": {dev: DevicePlane(dev, ctx) for dev in mine},
            "tasks": [],
        }
    )


def _messages(ctx):
    a = ctx.ip_prefix("10.0.0.0/24")
    b = ctx.ip_prefix("10.0.1.0/24")
    c = ctx.ip_prefix("10.1.0.0/16")
    return [
        ("b", UpdateMessage((1, 2), a | b, ((a, ((1,), (2,))), (b, ((0,),))))),
        ("c", SubscribeMessage((3, 4), c, a)),
        ("d", UpdateMessage((5, 6), c, ((c, ((300, 1),)),))),
        ("b", UpdateMessage((7, 8), ctx.empty, ())),
    ]


@pytest.mark.parametrize("predicate_index", ["atoms", "bdd"])
def test_flush_inbox_roundtrip(predicate_index):
    sender_ctx = PacketSpaceContext(HeaderLayout.dst_only())
    receiver_ctx = PacketSpaceContext(HeaderLayout.dst_only())
    sender = _host(0, sender_ctx, predicate_index)
    receiver = _host(1, receiver_ctx, predicate_index)
    outgoing = _messages(sender_ctx)
    sender._route("a", "inv", outgoing)

    flushed = dict(sender.flush())
    assert sorted(flushed) == [1, 2]
    assert sender.flush() == []
    entries = flushed[1]
    assert [(key, dst, inv) for key, dst, inv, _blob in entries] == [
        (("a", 0), "b", "inv"),
        (("a", 1), "c", "inv"),
        (("a", 3), "b", "inv"),
    ]
    sent = [blob for routed in flushed.values() for *_head, blob in routed]
    assert sum(map(len, sent)) == sum(m.wire_size() for _d, m in outgoing)
    assert sender.stats["a"]["bytes_sent"] == sum(map(len, sent))

    recorders = {dev: _Recorder() for dev in ("b", "c")}
    for dev, recorder in recorders.items():
        receiver.verifiers[(dev, "inv")] = recorder
    receiver.inbox(entries)

    def expected(*indices):
        return [
            decode_message(receiver_ctx, encode_message(outgoing[i][1]))
            for i in indices
        ]

    assert recorders["b"].batches == [expected(0, 3)]
    assert recorders["c"].batches == [expected(1)]
    assert receiver.stats["b"]["messages_received"] == 2
    assert receiver.stats["b"]["bytes_received"] == sum(
        outgoing[i][1].wire_size() for i in (0, 3)
    )


def test_truncated_blob_raises_serialization_error():
    sender_ctx = PacketSpaceContext(HeaderLayout.dst_only())
    receiver = _host(1, PacketSpaceContext(HeaderLayout.dst_only()), "atoms")
    receiver.verifiers[("b", "inv")] = _Recorder()
    blob = encode_message(_messages(sender_ctx)[0][1])
    for cut in (0, 1, len(blob) // 2, len(blob) - 1):
        with pytest.raises(SerializationError):
            receiver.inbox([(("a", 0), "b", "inv", blob[:cut])])


# ----------------------------------------------------------------------
# Process backend vs serial backend (differential scenarios)
# ----------------------------------------------------------------------
def _outcome(topology, ctx, rules, pairs, predicate_index, backend):
    from repro.core.library import reachability
    from repro.dataplane.rule import Rule
    from repro.sim import TulkunRunner

    invariants = []
    for src, dst in pairs:
        prefix = topology.external_prefixes[dst][0]
        invariants.append(
            reachability(ctx.ip_prefix(prefix), src, dst, max_extra_hops=2)
        )
    kwargs = {"workers": 2} if backend == "process" else {}
    runner = TulkunRunner(
        topology,
        ctx,
        invariants,
        backend=backend,
        gc_threshold=256,
        predicate_index=predicate_index,
        **kwargs,
    )
    fresh = {
        dev: [Rule(r.match, r.action, r.priority) for r in dev_rules]
        for dev, dev_rules in rules.items()
    }
    try:
        result = runner.burst_update(fresh)
        violations = {
            inv.name: sorted(
                (v.ingress, serialize_predicate(v.region), v.counts, v.message)
                for v in runner.network.violations(inv.name)
            )
            for inv in invariants
        }
        if backend == "process":
            fingerprints = runner.network.source_fingerprints()
        else:
            fingerprints = serial_fingerprints(runner)
        return {
            "holds": dict(result.holds),
            "violations": violations,
            "fingerprints": fingerprints,
        }
    finally:
        runner.close()


@pytest.mark.parametrize("predicate_index", ["atoms", "bdd"])
@pytest.mark.parametrize("seed", [101, 119, 137])
def test_process_matches_serial_on_random_scenarios(seed, predicate_index):
    from tests.test_differential_random import _build_scenario

    topology, ctx, rules, pairs = _build_scenario(seed)
    serial = _outcome(topology, ctx, rules, pairs, predicate_index, "serial")
    process = _outcome(topology, ctx, rules, pairs, predicate_index, "process")
    assert process["holds"] == serial["holds"], f"seed={seed}"
    assert process["violations"] == serial["violations"], f"seed={seed}"
    assert process["fingerprints"] == serial["fingerprints"], f"seed={seed}"
