"""Per-client subscriptions, backpressure and tenant admission control.

Pinned contracts:

* ``subscribe`` wire grammar: exactly one of ``tenants`` / ``invariants`` /
  ``all``; unknown invariant names are rejected at the session; the ack
  echoes the accepted subscription.
* Fan-out: a client subscribed to tenant ``alice`` never receives tenant
  ``bob``'s verdict deltas — ``changed`` is filtered, ``touched`` is
  filtered, and a delta with nothing relevant is suppressed entirely
  (golden-frame pinned on both the filtered and the unfiltered leg).
  Deployments without declared tenants keep the exact original delta shape
  (no ``touched``).
* Backpressure: outbound frames go through a bounded per-client queue —
  when it fills, the frame is dropped and the client's ``dropped`` counter
  flags it (surfaced in the ``stats`` frame's per-client table); a slow
  or dead peer never blocks the daemon.
* Admission: ``max_pending_per_tenant`` rejects events past a tenant's
  un-drained backlog (``tenant-backlog``), clearing on epoch drain;
  ``max_slices_per_tenant`` caps a tenant slice's invariant count
  (``tenant-quota``).  Both default to off.
"""

import io
import json
import socket
import threading
import types

import pytest

from repro.serve import (
    StreamSession,
    Subscription,
    SUBSCRIBE_ALL,
    ServeDaemon,
    decode_line,
    decode_request,
    encode_frame,
    filter_delta,
    serve_stdio,
)
from repro.serve.daemon import _Client
from repro.serve.protocol import (
    InvariantRequest,
    ProtocolError,
    SubscribeRequest,
)
from tests.test_slicing_differential import FIG2A_TENANTS, fig2a_session

pytestmark = [pytest.mark.serve, pytest.mark.slicing]

WAYPOINT_FIX = (
    '{"op":"update","device":"A","install":{"key":"fix",'
    '"match":"dst_ip = 10.0.0.0/23","action":"all W","priority":500}}'
)
EXTRA_SPEC = (
    "invariant extra {\n"
    "    packet_space: dst_ip = 10.0.0.0/23;\n"
    "    ingress: S;\n"
    "    behavior: exist >= 1 on (S .* D) with loop_free;\n"
    "}\n"
)


def run_stdio(lines, slices=FIG2A_TENANTS, **session_kwargs):
    session = fig2a_session(slices)
    if session_kwargs:
        for key, value in session_kwargs.items():
            setattr(session, key, value)
    out = io.StringIO()
    serve_stdio(session, iter(line + "\n" for line in lines), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


# ----------------------------------------------------------------------
# Wire grammar
# ----------------------------------------------------------------------
class TestSubscribeDecode:
    def test_tenants_round_trip(self):
        req = decode_request(
            decode_line('{"op":"subscribe","tenants":["alice","bob"]}')
        )
        assert isinstance(req, SubscribeRequest)
        assert req.tenants == ("alice", "bob")
        assert req.invariants is None and not req.all

    def test_invariants_round_trip(self):
        req = decode_request(
            decode_line('{"op":"subscribe","invariants":["reach"]}')
        )
        assert req.invariants == ("reach",)

    def test_all_resets(self):
        req = decode_request(decode_line('{"op":"subscribe","all":true}'))
        assert req.all

    @pytest.mark.parametrize(
        "line",
        [
            '{"op":"subscribe"}',
            '{"op":"subscribe","tenants":["a"],"all":true}',
            '{"op":"subscribe","tenants":["a"],"invariants":["b"]}',
            '{"op":"subscribe","tenants":[]}',
            '{"op":"subscribe","tenants":["a",""]}',
            '{"op":"subscribe","tenants":"a"}',
            '{"op":"subscribe","all":1}',
        ],
    )
    def test_bad_selectors_rejected(self, line):
        with pytest.raises(ProtocolError) as err:
            decode_request(decode_line(line))
        assert err.value.code == "bad-request"

    def test_invariant_add_carries_tenant(self):
        req = decode_request(
            decode_line(
                json.dumps({"op": "invariant", "add": "spec", "tenant": "t"})
            )
        )
        assert isinstance(req, InvariantRequest)
        assert req.tenant == "t"

    @pytest.mark.parametrize(
        "obj",
        [
            {"op": "invariant", "remove": "x", "tenant": "t"},
            {"op": "invariant", "add": "spec", "tenant": ""},
            {"op": "invariant", "add": "spec", "tenant": 3},
        ],
    )
    def test_bad_tenant_rejected(self, obj):
        with pytest.raises(ProtocolError):
            decode_request(decode_line(json.dumps(obj)))


# ----------------------------------------------------------------------
# Filtering semantics (pure)
# ----------------------------------------------------------------------
class TestFilterDelta:
    TENANT_OF = staticmethod(lambda name: {"w": "alice", "r": "bob"}[name])

    def delta(self, changed, touched=None):
        frame = {"frame": "delta", "epoch": 1, "changed": changed}
        if touched is not None:
            frame["touched"] = touched
        return frame

    def test_all_mode_passes_unchanged(self):
        frame = self.delta({"w": {"from": "HOLDS", "to": "VIOLATED"}})
        assert filter_delta(frame, SUBSCRIBE_ALL, self.TENANT_OF) is frame

    def test_non_delta_frames_never_filtered(self):
        sub = Subscription("tenants", frozenset({"alice"}))
        frame = {"frame": "status", "statuses": {}}
        assert filter_delta(frame, sub, self.TENANT_OF) is frame

    def test_tenant_filter_projects_changed_and_touched(self):
        sub = Subscription("tenants", frozenset({"alice"}))
        frame = self.delta(
            {"w": {"from": "HOLDS", "to": "VIOLATED"},
             "r": {"from": "HOLDS", "to": "VIOLATED"}},
            touched=["alice", "bob"],
        )
        out = filter_delta(frame, sub, self.TENANT_OF)
        assert set(out["changed"]) == {"w"}
        assert out["touched"] == ["alice"]

    def test_irrelevant_delta_suppressed(self):
        sub = Subscription("tenants", frozenset({"alice"}))
        frame = self.delta(
            {"r": {"from": "HOLDS", "to": "VIOLATED"}}, touched=["bob"]
        )
        assert filter_delta(frame, sub, self.TENANT_OF) is None

    def test_invariant_mode_filters_by_name(self):
        sub = Subscription("invariants", frozenset({"r"}))
        frame = self.delta(
            {"w": {"from": "HOLDS", "to": "VIOLATED"},
             "r": {"from": "HOLDS", "to": "VIOLATED"}},
        )
        out = filter_delta(frame, sub, self.TENANT_OF)
        assert set(out["changed"]) == {"r"}

    def test_prefix_convention_fallback(self):
        sub = Subscription("tenants", frozenset({"alice"}))
        assert sub.wants_invariant("alice/x", None)
        assert not sub.wants_invariant("bob/x", None)


# ----------------------------------------------------------------------
# Scripted stdio sessions (deterministic, golden-pinned)
# ----------------------------------------------------------------------
class TestStdioSubscribe:
    def test_subscribed_client_never_sees_other_tenants_delta(self):
        frames = run_stdio([
            '{"op":"subscribe","tenants":["alice"]}',
            '{"op":"invariant","remove":"reach"}',   # bob-only event
            '{"op":"flush"}',
            WAYPOINT_FIX,                             # alice-only change
            '{"op":"flush"}',
            '{"op":"shutdown"}',
        ])
        deltas = [f for f in frames if f["frame"] == "delta"]
        # Epoch 1 (bob's invariant retired) was suppressed entirely.
        assert [d["epoch"] for d in deltas] == [2]
        assert set(deltas[0]["changed"]) == {"waypoint"}
        assert deltas[0]["touched"] == ["alice"]

    def test_subscribe_ack_echoes_subscription(self):
        frames = run_stdio([
            '{"op":"subscribe","tenants":["alice"]}',
            '{"op":"shutdown"}',
        ])
        ack = next(f for f in frames if f.get("op") == "subscribe")
        assert ack["subscription"] == {"mode": "tenants", "names": ["alice"]}

    def test_unfiltered_leg_golden_frame(self):
        """The unfiltered delta for an invariant retirement is bytes-stable
        (settle is exactly 0.0: no forwarding change to settle)."""
        frames = run_stdio([
            '{"op":"invariant","remove":"reach"}',
            '{"op":"flush"}',
            '{"op":"shutdown"}',
        ])
        delta = next(f for f in frames if f["frame"] == "delta")
        assert encode_frame(delta) == (
            '{"changed":{"reach":{"from":"HOLDS","to":null}},'
            '"converged":true,"epoch":1,"events":1,"frame":"delta",'
            '"ops":1,"reason":"flush","settle":0.0,"touched":["bob"]}\n'
        )

    def test_subscribe_unknown_invariant_rejected(self):
        frames = run_stdio([
            '{"op":"subscribe","invariants":["nope"]}',
            '{"op":"shutdown"}',
        ])
        err = next(f for f in frames if f["frame"] == "error")
        assert err["code"] == "unknown-invariant"

    def test_subscribe_all_resets_filter(self):
        frames = run_stdio([
            '{"op":"subscribe","tenants":["alice"]}',
            '{"op":"subscribe","all":true}',
            '{"op":"invariant","remove":"reach"}',
            '{"op":"flush"}',
            '{"op":"shutdown"}',
        ])
        deltas = [f for f in frames if f["frame"] == "delta"]
        assert deltas and set(deltas[0]["changed"]) == {"reach"}

    def test_unsliced_delta_keeps_prior_shape(self):
        frames = run_stdio(
            [
                '{"op":"update","device":"A","remove":"A:0"}',
                '{"op":"flush"}',
                '{"op":"shutdown"}',
            ],
            slices=None,
        )
        delta = next(f for f in frames if f["frame"] == "delta")
        assert "touched" not in delta

    def test_invariant_add_with_tenant_routes_to_that_slice(self):
        frames = run_stdio([
            json.dumps(
                {"op": "invariant", "add": EXTRA_SPEC, "tenant": "carol"}
            ),
            '{"op":"flush"}',
            '{"op":"shutdown"}',
        ])
        delta = next(f for f in frames if f["frame"] == "delta")
        assert delta["touched"] == ["carol"]
        assert set(delta["changed"]) == {"extra"}


# ----------------------------------------------------------------------
# Socket fan-out (two live clients)
# ----------------------------------------------------------------------
def test_socket_fanout_filters_per_client():
    """A subscribes to alice, B stays on the full broadcast: B sees both
    epochs, A sees only the alice one — over real sockets."""
    session = fig2a_session(FIG2A_TENANTS)
    daemon = ServeDaemon(session, coalesce_window=10.0)
    host, port = daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        a = socket.create_connection((host, port), timeout=30)
        a_stream = a.makefile("rw", encoding="utf-8", newline="\n")
        assert json.loads(a_stream.readline())["frame"] == "hello"
        a_stream.write('{"op":"subscribe","tenants":["alice"]}\n')
        a_stream.flush()
        assert json.loads(a_stream.readline())["frame"] == "ack"

        b = socket.create_connection((host, port), timeout=30)
        b_stream = b.makefile("rw", encoding="utf-8", newline="\n")
        assert json.loads(b_stream.readline())["frame"] == "hello"

        # Epoch 1: bob-only (invariant retirement).  B sees it...
        b_stream.write('{"op":"invariant","remove":"reach"}\n{"op":"flush"}\n')
        b_stream.flush()
        kinds = [json.loads(b_stream.readline())["frame"] for _ in range(3)]
        assert kinds == ["ack", "ack", "delta"]

        # Epoch 2: alice's verdict flips.  Both see it; A's first delta
        # ever is this one — the bob epoch never reached A.
        b_stream.write(WAYPOINT_FIX + '\n{"op":"flush"}\n')
        b_stream.flush()
        frames_b = [json.loads(b_stream.readline()) for _ in range(3)]
        assert frames_b[2]["frame"] == "delta"

        frame_a = json.loads(a_stream.readline())
        assert frame_a["frame"] == "delta"
        assert frame_a["epoch"] == 2
        assert set(frame_a["changed"]) == {"waypoint"}
        assert frame_a["touched"] == ["alice"]

        b_stream.write('{"op":"stats"}\n')
        b_stream.flush()
        stats = json.loads(b_stream.readline())
        table = {row["id"]: row for row in stats["clients"]}
        assert table[1]["subscription"] == {
            "mode": "tenants", "names": ["alice"],
        }
        assert table[2]["subscription"] == {"mode": "all"}

        b_stream.write('{"op":"shutdown"}\n')
        b_stream.flush()
        tail = [json.loads(line) for line in b_stream]
        assert tail[-1]["frame"] == "bye"
        assert json.loads(a_stream.readline())["frame"] == "bye"
        a.close()
        b.close()
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# Backpressure (bounded queue, drop-and-flag)
# ----------------------------------------------------------------------
class _BlockedSock:
    """A peer that never drains: every send would block."""

    def send(self, data):
        raise BlockingIOError

    def close(self):
        pass


class _TrickleSock:
    """A peer draining three bytes per readiness wakeup."""

    def __init__(self):
        self.received = b""

    def send(self, data):
        taken = min(3, len(data))
        self.received += data[:taken]
        return taken

    def close(self):
        pass


class _DeadSock:
    def send(self, data):
        raise ConnectionResetError

    def close(self):
        pass


def _daemon(queue_limit=256):
    return ServeDaemon(
        types.SimpleNamespace(stats_clients=None), queue_limit=queue_limit
    )


class TestBackpressure:
    def test_full_queue_drops_and_flags(self):
        daemon = _daemon(queue_limit=2)
        client = _Client(_BlockedSock(), 1)
        daemon._clients[client.sock] = client
        for n in range(5):
            daemon._enqueue(client, f"frame-{n}\n")
        assert len(client.outq) == 2
        assert client.dropped == 3
        assert daemon._client_stats() == [{
            "id": 1,
            "queued": 2,
            "dropped": 3,
            "subscription": {"mode": "all"},
        }]

    def test_partial_sends_resume_across_flushes(self):
        daemon = _daemon()
        sock = _TrickleSock()
        client = _Client(sock, 1)
        daemon._clients[sock] = client
        daemon._enqueue(client, "abcdefgh\n")
        while client.outq:
            daemon._flush(client)
        assert sock.received == b"abcdefgh\n"
        assert client.dropped == 0

    def test_dead_peer_dropped_not_raised(self):
        daemon = _daemon()
        sock = _DeadSock()
        client = _Client(sock, 1)
        daemon._clients[sock] = client
        daemon._enqueue(client, "x\n")
        assert sock not in daemon._clients

    def test_queue_limit_floor(self):
        assert _daemon(queue_limit=0).queue_limit == 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def make_session(self, **kwargs):
        base = fig2a_session(FIG2A_TENANTS)
        session = StreamSession(
            base.runner, base.rules_by_device, **kwargs
        )
        return session

    def test_pending_limit_rejects_then_recovers(self):
        session = self.make_session(max_pending_per_tenant=1)
        try:
            session.start()
            ok = session.handle_line(
                '{"op":"update","device":"A","remove":"A:0"}'
            )
            assert ok.frames[0]["frame"] == "ack"
            rejected = session.handle_line(
                '{"op":"update","device":"A","remove":"A:1"}'
            )
            assert rejected.frames[0]["frame"] == "error"
            assert rejected.frames[0]["code"] == "tenant-backlog"
            stats = session.stats_frame()
            assert stats["admission"]["pending"] == {"alice": 1, "bob": 1}
            # Draining the epoch clears the backlog.
            session.run_epoch("flush")
            again = session.handle_line(
                '{"op":"update","device":"A","remove":"A:1"}'
            )
            assert again.frames[0]["frame"] == "ack"
        finally:
            session.close()

    def test_untouched_tenants_not_charged(self):
        session = self.make_session(max_pending_per_tenant=1)
        try:
            session.start()
            # A match disjoint from every tenant's packet space charges
            # nobody, so any number of them is admitted.
            for n in range(3):
                reply = session.handle_line(json.dumps({
                    "op": "update",
                    "device": "A",
                    "install": {
                        "key": f"k{n}",
                        "match": "dst_ip = 192.168.0.0/16",
                        "action": "drop",
                        "priority": 300 + n,
                    },
                }))
                assert reply.frames[0]["frame"] == "ack"
            assert session.stats_frame()["admission"]["pending"] == {}
        finally:
            session.close()

    def test_slice_quota_on_invariant_add(self):
        session = self.make_session(max_slices_per_tenant=1)
        try:
            session.start()
            # alice already holds "waypoint": a second invariant is over
            # quota; a fresh tenant is fine.
            rejected = session.handle_line(json.dumps(
                {"op": "invariant", "add": EXTRA_SPEC, "tenant": "alice"}
            ))
            assert rejected.frames[0]["code"] == "tenant-quota"
            ok = session.handle_line(json.dumps(
                {"op": "invariant", "add": EXTRA_SPEC, "tenant": "carol"}
            ))
            assert ok.frames[0]["frame"] == "ack"
        finally:
            session.close()

    def test_pending_limit_requires_slicing(self):
        base = fig2a_session(None)
        with pytest.raises(ValueError):
            StreamSession(
                base.runner, base.rules_by_device, max_pending_per_tenant=1
            )
        base.runner.close()
