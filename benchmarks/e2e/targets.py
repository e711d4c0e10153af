"""The three ways a deployed instance is reached.

* :class:`InProcessTarget` - ``TulkunRunner.apply_updates`` + ``statuses``;
* :class:`SessionTarget` - an in-process ``StreamSession`` driven in the
  order ``ServeDaemon._service`` / ``_broadcast`` perform the calls (the
  traced twin of the wire path: same serve stack, no socket);
* :class:`WireTarget` - a real ``ServeDaemon`` in a child process over
  loopback TCP, default socket options on both ends.

All three answer a step with ``(seconds, verdict view, ok)``.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import StreamSession, Subscription, encode_frame, filter_delta

from benchmarks.e2e import child_env
from benchmarks.e2e.streams import (
    FLUSH_LINE,
    SUBSCRIBED_TENANTS,
    FibOp,
    Link,
    RuleRenderer,
    link_line,
    wire_line,
)
from benchmarks.e2e.workloads import Instance, Workload

__all__ = [
    "InProcessTarget",
    "SessionTarget",
    "WireTarget",
    "subscribed_tenants",
    "pin_to",
    "peak_rss_mb",
]

STEP_TIMEOUT = 10.0     # no delta within this many seconds: the op failed
CHILD_TIMEOUT = 120.0   # build + burst of the largest instance, with slack
EXIT_TIMEOUT = 15.0     # a daemon told to shut down is gone within this

Step = Tuple[float, Dict[str, str], bool]


def subscribed_tenants() -> List[str]:
    return [f"t{k:04d}" for k in range(SUBSCRIBED_TENANTS)]


def pin_to(core: Optional[int]) -> None:
    if core is not None:
        os.sched_setaffinity(0, {core})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def apply_changed(view: Dict[str, str], delta: Dict[str, object]) -> None:
    """Fold one delta frame into a client's verdict view."""
    for name, change in delta.get("changed", {}).items():  # type: ignore[union-attr]
        if change["to"] is None:
            view.pop(name, None)
        else:
            view[name] = change["to"]


# ----------------------------------------------------------------------
class InProcessTarget:
    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.runner = instance.runner
        self.renderer = RuleRenderer(instance)
        self.deployed: Dict[str, str] = {}

    def deploy(self) -> float:
        start = time.perf_counter()
        self.runner.burst_update(self.instance.rules)
        seconds = time.perf_counter() - start
        self.deployed = dict(self.runner.statuses())
        return seconds

    def _timed(self, call, argument) -> Step:
        start = time.perf_counter()
        call(argument)
        view = self.runner.statuses()
        return time.perf_counter() - start, view, True

    def fib(self, ops: Sequence[FibOp]) -> Step:
        # Rendering is the generator's work: outside the timed region.
        updates = [self.renderer.render(op) for op in ops]
        return self._timed(self.runner.apply_updates, updates)

    def link(self, link: Link, up: bool) -> Step:
        change = self.runner.recover_links if up else self.runner.fail_links
        return self._timed(change, [link])

    def final_statuses(self) -> Dict[str, str]:
        return self.runner.statuses()

    def problems(self) -> List[str]:
        return []

    def close(self) -> None:
        self.runner.close()


# ----------------------------------------------------------------------
class SessionTarget:
    """The serve stack without the socket: decode -> validate -> coalesce ->
    epoch -> status sweep -> delta -> encode -> subscription projection."""

    def __init__(self, instance: Instance, with_subscriber: bool) -> None:
        self.session = StreamSession(instance.runner, instance.rules)
        self.subscription = (
            Subscription("tenants", frozenset(subscribed_tenants()))
            if with_subscriber
            else None
        )
        self.deployed: Dict[str, str] = {}
        self.view: Dict[str, str] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.broadcast = 0     # delta frames offered to the subscriber
        self.delivered = 0     # ... that its subscription let through

    def deploy(self) -> float:
        start = time.perf_counter()
        hello = self.session.start()
        seconds = time.perf_counter() - start
        self.deployed = dict(hello["statuses"])
        self.view = dict(self.deployed)
        return seconds

    def _send(self, frame: Dict[str, object]) -> None:
        self.bytes_out += len(encode_frame(frame))

    def _step(self, lines: Sequence[str]) -> Step:
        session = self.session
        ok = True
        start = time.perf_counter()
        for line in lines:
            self.bytes_in += len(line) + 1
            reply = session.handle_line(line)
            for frame in reply.frames:
                ok = ok and frame["frame"] != "error"
                self._send(frame)
            if reply.flush:
                for frame in session.run_epoch("flush"):
                    ok = ok and frame["frame"] == "delta"
                    self._send(frame)  # the "all" subscribers' copy
                    if self.subscription is not None:
                        self.broadcast += 1
                        projected = filter_delta(
                            frame, self.subscription, session.tenant_of
                        )
                        if projected is not None:
                            self.delivered += 1
                            self._send(projected)
                    apply_changed(self.view, frame)
        return time.perf_counter() - start, self.view, ok

    def fib(self, ops: Sequence[FibOp]) -> Step:
        return self._step([wire_line(op) for op in ops] + [FLUSH_LINE])

    def link(self, link: Link, up: bool) -> Step:
        return self._step([link_line(link, up), FLUSH_LINE])

    def final_statuses(self) -> Dict[str, str]:
        return self.session.status_frame()["statuses"]  # type: ignore[return-value]

    def problems(self) -> List[str]:
        if self.final_statuses() != self.view:
            return ["view rebuilt from hello + deltas differs from status"]
        return []

    def close(self) -> None:
        self.session.close()


# ----------------------------------------------------------------------
class _Connection:
    """A blocking newline-JSON client connection with default options."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=CHILD_TIMEOUT)
        self.buffer = b""

    def send(self, lines: Sequence[str]) -> None:
        self.sock.sendall(("\n".join(lines) + "\n").encode("utf-8"))

    def _pop(self) -> Optional[Dict[str, object]]:
        raw, sep, rest = self.buffer.partition(b"\n")
        if not sep:
            return None
        self.buffer = rest
        return json.loads(raw)

    def read(self, timeout: float) -> Dict[str, object]:
        """The next frame; ``TimeoutError`` when none arrives in time."""
        deadline = time.monotonic() + timeout
        while True:
            frame = self._pop()
            if frame is not None:
                return frame
            self.sock.settimeout(max(0.001, deadline - time.monotonic()))
            try:
                data = self.sock.recv(65536)
            except socket.timeout:
                raise TimeoutError("no frame from the daemon") from None
            if not data:
                raise ConnectionError("the daemon closed the connection")
            self.buffer += data

    def read_until(self, kind: str, timeout: float) -> List[Dict[str, object]]:
        frames = []
        while True:
            frame = self.read(timeout)
            frames.append(frame)
            if frame["frame"] == kind:
                return frames

    def drain(self) -> List[Dict[str, object]]:
        """Every frame already delivered, without waiting."""
        self.sock.setblocking(False)
        try:
            while True:
                data = self.sock.recv(65536)
                if not data:
                    break
                self.buffer += data
        except BlockingIOError:
            pass
        frames = []
        while True:
            frame = self._pop()
            if frame is None:
                return frames
            frames.append(frame)

    def close(self) -> None:
        self.sock.close()


class WireTarget:
    """One ``ServeDaemon`` child and the generator's connections to it."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        with_reference: bool,
        daemon_core: Optional[int],
    ) -> None:
        self.subscribed = (
            frozenset(subscribed_tenants()) if workload.tenants else None
        )
        self.epochs = 0
        self.frames = 0
        self.expected_deliveries = 0
        self.deliveries = 0
        self.frames_dropped = 0
        self._problems: List[str] = []
        command = [
            sys.executable, "-m", "benchmarks.e2e.daemon_child",
            "--workload", workload.name, "--seed", str(seed),
            "--core", str(-1 if daemon_core is None else daemon_core),
        ]
        if with_reference:
            command.append("--reference")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        try:
            ready = self.proc.stdout.readline()
            if not ready:
                raise RuntimeError("the daemon child died before binding")
            address = ("127.0.0.1", json.loads(ready)["port"])
            self.conn = _Connection(address)
            self.watcher = (
                _Connection(address) if self.subscribed is not None else None
            )
        except BaseException:
            self._reap(kill=True)
            raise
        self.setup_seconds = time.perf_counter() - start
        self.deployed: Dict[str, str] = {}
        self.view: Dict[str, str] = {}

    def deploy(self) -> None:
        """Wait for the burst (the daemon deploys before it accepts)."""
        hello = self.conn.read(CHILD_TIMEOUT)
        self.deployed = dict(hello["statuses"])
        self.view = dict(self.deployed)
        if self.watcher is not None:
            self.watcher.read(CHILD_TIMEOUT)  # its hello
            self.watcher.send(
                [json.dumps({"op": "subscribe", "tenants": sorted(self.subscribed)})]
            )
            self.watcher.read_until("ack", STEP_TIMEOUT)

    def _step(self, lines: Sequence[str]) -> Step:
        conn = self.conn
        start = time.perf_counter()
        conn.send(lines)
        frames = conn.read_until("delta", STEP_TIMEOUT)
        seconds = time.perf_counter() - start
        self.frames += len(frames)
        delta = frames[-1]
        ok = all(frame["frame"] == "ack" for frame in frames[:-1])
        apply_changed(self.view, delta)
        self.epochs += 1
        if self.watcher is not None:
            self._watch(delta)
        return seconds, self.view, ok

    def _watch(self, delta: Dict[str, object]) -> None:
        """Connection 2 must see this epoch iff it concerns its tenants -
        and never anything else.  Its copy may still be in flight, so
        deliveries are only counted here and compared at the end."""
        subscribed = self.subscribed
        relevant = any(t in subscribed for t in delta.get("touched", ())) or any(
            name.partition("/")[0] in subscribed for name in delta["changed"]
        )
        self.expected_deliveries += relevant
        self._count_deliveries(self.watcher.drain())

    def _count_deliveries(self, frames: Sequence[Dict[str, object]]) -> None:
        for frame in frames:
            if frame["frame"] != "delta":
                continue
            self.deliveries += 1
            foreign = [
                name for name in frame["changed"]
                if name.partition("/")[0] not in self.subscribed
            ] + [t for t in frame.get("touched", ()) if t not in self.subscribed]
            if foreign:
                self._problems.append(
                    f"connection 2 received foreign verdicts: {foreign[:4]}"
                )

    def fib(self, ops: Sequence[FibOp]) -> Step:
        return self._step([wire_line(op) for op in ops] + [FLUSH_LINE])

    def link(self, link: Link, up: bool) -> Step:
        return self._step([link_line(link, up), FLUSH_LINE])

    def final_statuses(self) -> Dict[str, str]:
        self.conn.send([json.dumps({"op": "status"})])
        status = self.conn.read_until("status", STEP_TIMEOUT)[-1]
        return status["statuses"]  # type: ignore[return-value]

    def problems(self) -> List[str]:
        """End-of-run checks; call once, before :meth:`close`."""
        problems = list(self._problems)
        if self.final_statuses() != self.view:
            problems.append("view rebuilt from hello + deltas differs from status")
        # The status round trip above also orders connection 2's last delta
        # before this drain: the daemon sends both from one thread.
        self.conn.send([json.dumps({"op": "stats"})])
        stats = self.conn.read_until("stats", STEP_TIMEOUT)[-1]
        self.frames_dropped = sum(c["dropped"] for c in stats["clients"])
        if self.frames_dropped:
            problems.append(f"the daemon dropped {self.frames_dropped} frames")
        if self.watcher is not None:
            self._count_deliveries(self.watcher.drain())
            if self.deliveries != self.expected_deliveries:
                problems.append(
                    f"connection 2 received {self.deliveries} deltas, "
                    f"expected {self.expected_deliveries}"
                )
        return problems

    def close(self) -> Dict[str, object]:
        """Shut the daemon down; returns its exit line (burst time, peak
        RSS, reference replay when asked for)."""
        try:
            self.conn.send([json.dumps({"op": "shutdown"})])
            self.conn.read_until("bye", STEP_TIMEOUT)
        except (OSError, TimeoutError):
            pass
        finally:
            self.conn.close()
            if self.watcher is not None:
                self.watcher.close()
        out = self._reap(kill=False)
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"the daemon child exited with code {self.proc.returncode}"
            )
        return json.loads(lines[-1])

    def _reap(self, kill: bool) -> str:
        """Wait for the child to end (it always does: killed if it must be)."""
        if kill:
            self.proc.kill()
        try:
            out, _ = self.proc.communicate(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""
