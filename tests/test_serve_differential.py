"""Streaming-vs-batch differential harness for the serving mode.

The serving daemon's core claim: however a stream of FIB updates, link
flaps, device lifecycle events and invariant changes is chunked into
coalesced epochs, the quiescent outcome is **byte-identical** to applying
the whole stream as one batch.  Each test case draws a seeded random
stream, runs it through two fresh deployments — the *batch* leg applies
everything in a single epoch, the *streaming* leg flushes at random
points — and compares:

* per-invariant statuses (HOLDS / VIOLATED / UNKNOWN...),
* per-ingress verdict flags,
* violation regions (canonical ROBDD bytes + counts + messages),
* the full canonical source-node counting state (the DVM wire content at
  fixpoint, serialized to comparable bytes).

Also pinned: *validation* is chunking-independent — a generator only emits
requests that are valid against the session's projected state, and both
legs must accept every line (no ``error`` frames), wherever the epoch
boundaries fall.

Coverage: fig2a under both predicate-index modes, fig2a lifecycle streams
(crash/drain windows over the reliable transport, honest UNKNOWN
degradation), FT-4 streams, and the process backend (pool reuse across
epochs, invariant-change redeploys, drain/restore windows).
"""

import json
import random
from pathlib import Path

import pytest

from repro.bdd import PacketSpaceContext
from repro.core.language import parse_invariants
from repro.dataplane import DevicePlane, Rule
from repro.dataplane.fib import parse_fib_text
from repro.datasets import build_dataset
from repro.serve import StreamSession
from repro.sim import ReliableChannel, TulkunRunner
from repro.topology.fileformat import parse_topology_text
from tests.test_parallel_backend import (
    serial_fingerprints,
    verdict_flags,
    violation_fingerprints,
)

pytestmark = pytest.mark.serve

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

# Spec text per fig2a invariant, so streams can retire and re-deploy them.
INVARIANT_SPECS = {
    "waypoint": (
        "invariant waypoint {\n"
        "    packet_space: dst_ip = 10.0.0.0/23;\n"
        "    ingress: S;\n"
        "    behavior: exist >= 1 on (S .* W .* D) with loop_free;\n"
        "}\n"
    ),
    "reach": (
        "invariant reach {\n"
        "    packet_space: dst_ip = 10.0.0.0/23;\n"
        "    ingress: S;\n"
        "    behavior: exist >= 1 on (S .* D) with loop_free, "
        "<= shortest + 2;\n"
        "}\n"
    ),
}

# The auto-assigned keys of the fig2a FIB ("<device>:<index>" in plane
# order) — what a client knows after the hello frame.
FIG2A_KEYS = {
    "S:0": "S", "A:0": "A", "A:1": "A", "B:0": "B", "W:0": "W", "D:0": "D",
}
FIG2A_LINKS = [
    ("A", "B"), ("A", "S"), ("A", "W"), ("B", "D"), ("B", "W"), ("D", "W"),
]
MATCH_POOL = [
    "dst_ip = 10.0.0.0/23",
    "dst_ip = 10.0.0.0/24",
    "dst_ip = 10.0.1.0/24",
    "dst_ip = 10.0.0.0/25",
    "dst_ip = 10.0.0.128/25",
    "dst_ip = 10.0.1.128/25",
]


def fig2a_session(
    backend="serial",
    predicate_index="atoms",
    channel=None,
    workers=2,
):
    """A fresh fig2a deployment wrapped in an (unstarted) StreamSession."""
    ctx = PacketSpaceContext()
    topology = parse_topology_text((SPECS / "fig2a.topo").read_text())
    planes = parse_fib_text(ctx, (SPECS / "fig2a.fib").read_text())
    invariants = parse_invariants(
        ctx, (SPECS / "invariants.tulkun").read_text()
    )
    for dev in topology.devices:
        planes.setdefault(dev, DevicePlane(dev, ctx))
    runner = TulkunRunner(
        topology,
        ctx,
        invariants,
        backend=backend,
        workers=workers,
        predicate_index=predicate_index,
        channel=channel,
    )
    rules = {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }
    return StreamSession(runner, rules)


def dataset_session(predicate_index="atoms", backend="serial", workers=2):
    """A fresh FT-4 deployment (deterministic build) as a StreamSession."""
    ds = build_dataset("FT-4", pair_limit=6, seed=3)
    runner = TulkunRunner(
        ds.topology,
        ds.ctx,
        ds.invariants,
        backend=backend,
        workers=workers,
        predicate_index=predicate_index,
    )
    return StreamSession(runner, ds.rules_by_device)


# ----------------------------------------------------------------------
# Stream generators (mirror the session's projections, so every emitted
# request is valid regardless of chunking)
# ----------------------------------------------------------------------
class StreamGen:
    """Seeded random request stream against a known topology."""

    def __init__(
        self,
        seed,
        *,
        topology,
        initial_keys,
        links,
        matches,
        invariant_specs=None,
        churn_initial=True,
        flap_links=True,
        lifecycle=False,
        crashes=True,
    ):
        self.rng = random.Random(seed)
        self.topology = topology
        # key -> device (enough to emit valid removes)
        self.keys = dict(initial_keys) if churn_initial else {}
        self.own_keys = {}
        self.links = list(links)
        self.matches = list(matches)
        self.invariant_specs = dict(invariant_specs or {})
        self.live_invs = sorted(self.invariant_specs)
        self.removed_invs = []
        self.flap_links = flap_links
        self.lifecycle = lifecycle
        self.crashes = crashes  # False: drain/restore only (either backend)
        self.links_down = set()
        self.down = set()
        self.drained = set()
        self.counter = 0

    # -- helpers -------------------------------------------------------
    def _avail(self, dev):
        return dev not in self.down and dev not in self.drained

    def _removable(self):
        pool = {**self.keys, **self.own_keys}
        return sorted(k for k, d in pool.items() if self._avail(d))

    def _emit_install(self):
        devices = [d for d in self.topology.devices if self._avail(d)]
        if not devices:
            return None
        dev = self.rng.choice(devices)
        key = f"g{self.counter}"
        self.counter += 1
        neighbors = [n for n in self.topology.neighbors(dev)]
        roll = self.rng.random()
        if roll < 0.2 or not neighbors:
            action = "drop"
        elif roll < 0.6:
            action = f"all {self.rng.choice(neighbors)}"
        else:
            picks = self.rng.sample(
                neighbors, k=min(len(neighbors), self.rng.choice((1, 2)))
            )
            action = f"any {','.join(picks)}"
        self.own_keys[key] = dev
        return {
            "op": "update",
            "device": dev,
            "install": {
                "key": key,
                "match": self.rng.choice(self.matches),
                "action": action,
                "priority": self.rng.randrange(150, 400),
            },
        }

    def _emit_remove(self):
        candidates = self._removable()
        if not candidates:
            return None
        key = self.rng.choice(candidates)
        dev = self.keys.pop(key, None) or self.own_keys.pop(key)
        return {"op": "update", "device": dev, "remove": key}

    def _emit_replace(self):
        # remove + install in one request (the atomic wire form)
        removal = self._emit_remove()
        if removal is None:
            return None
        install = self._emit_install()
        if install is None or install["device"] != removal["device"]:
            # keep them as two events: put the install back as-is
            return removal if install is None else [removal, install]
        removal["install"] = install["install"]
        return removal

    def _emit_link(self):
        candidates = [
            (a, b)
            for a, b in self.links
            if a not in self.down and b not in self.down
        ]
        if not candidates:
            return None
        a, b = self.rng.choice(candidates)
        link = (min(a, b), max(a, b))
        up = link in self.links_down
        if up:
            self.links_down.discard(link)
        else:
            self.links_down.add(link)
        return {"op": "link", "a": a, "b": b, "up": up}

    def _emit_lifecycle(self):
        roll = self.rng.random()
        if self.down and roll < 0.5:
            dev = self.rng.choice(sorted(self.down))
            self.down.discard(dev)
            return {"op": "restart", "device": dev}
        if self.drained and roll < 0.5:
            dev = self.rng.choice(sorted(self.drained))
            self.drained.discard(dev)
            return {"op": "restore", "device": dev}
        devices = [d for d in self.topology.devices if self._avail(d)]
        if not devices:
            return None
        dev = self.rng.choice(devices)
        if self.crashes and self.rng.random() < 0.5 and not self.down:
            self.down.add(dev)
            return {"op": "crash", "device": dev}
        if not self.drained:
            self.drained.add(dev)
            return {"op": "drain", "device": dev}
        return None

    def _emit_invariant(self):
        if self.live_invs and (not self.removed_invs or self.rng.random() < 0.5):
            name = self.rng.choice(self.live_invs)
            self.live_invs.remove(name)
            self.removed_invs.append(name)
            return {"op": "invariant", "remove": name}
        if self.removed_invs:
            name = self.rng.choice(self.removed_invs)
            self.removed_invs.remove(name)
            self.live_invs.append(name)
            return {"op": "invariant", "add": self.invariant_specs[name]}
        return None

    # -- driver --------------------------------------------------------
    def generate(self, count):
        kinds = ["install", "install", "remove", "replace"]
        if self.flap_links:
            kinds += ["link", "link"]
        if self.lifecycle:
            kinds += ["lifecycle", "lifecycle"]
        if self.invariant_specs:
            kinds += ["invariant"]
        lines = []
        while len(lines) < count:
            kind = self.rng.choice(kinds)
            event = getattr(self, f"_emit_{kind}" if kind != "lifecycle"
                            else "_emit_lifecycle")()
            if event is None:
                continue
            if isinstance(event, list):
                lines.extend(json.dumps(e) for e in event)
            else:
                lines.append(json.dumps(event))
        return lines[:count]


def fig2a_stream(
    seed, *, lifecycle=False, crashes=True, invariants=True, count=24
):
    topology = parse_topology_text((SPECS / "fig2a.topo").read_text())
    return StreamGen(
        seed,
        topology=topology,
        initial_keys=FIG2A_KEYS,
        links=FIG2A_LINKS,
        matches=MATCH_POOL,
        invariant_specs=INVARIANT_SPECS if invariants else None,
        lifecycle=lifecycle,
        crashes=crashes,
    ).generate(count)


def ft4_stream(seed, count=12):
    ds = build_dataset("FT-4", pair_limit=6, seed=3)
    prefixes = sorted({q.prefix for q in ds.queries})
    links = [(link.a, link.b) for link in ds.topology.links()]
    return StreamGen(
        seed,
        topology=ds.topology,
        initial_keys={},        # dataset rules stay; churn is additive
        links=links,
        matches=[f"dst_ip = {p}" for p in prefixes],
    ).generate(count)


# ----------------------------------------------------------------------
# Legs + comparison
# ----------------------------------------------------------------------
def collect_outcome(session):
    runner = session.runner
    network = runner.network
    if runner.backend == "process":
        sources = network.source_fingerprints()
    else:
        sources = serial_fingerprints(runner)
    return {
        "statuses": runner.statuses(),
        "flags": verdict_flags(network, runner.invariants),
        "violations": violation_fingerprints(network, runner.invariants),
        "sources": sources,
    }


def run_stream(session_factory, lines, flush_seed=None):
    """Feed ``lines``; with ``flush_seed`` sprinkle random mid-stream
    epochs (the streaming leg), else apply everything as one batch."""
    session = session_factory()
    try:
        session.start()
        rng = random.Random(flush_seed) if flush_seed is not None else None
        for line in lines:
            reply = session.handle_line(line)
            for frame in reply.frames:
                assert frame["frame"] != "error", (line, frame)
            if rng is not None and rng.random() < 0.35:
                session.run_epoch("flush")
        session.run_epoch("final")
        assert not session.pending
        return collect_outcome(session)
    finally:
        session.close()


def assert_identical(batch, streaming):
    assert batch["statuses"] == streaming["statuses"]
    assert batch["flags"] == streaming["flags"]
    assert batch["violations"] == streaming["violations"]
    assert batch["sources"] == streaming["sources"]


def differential(make_session, lines, seed):
    batch = run_stream(make_session, lines)
    # Two independent chunkings: both must match the one-shot batch.
    for salt in (1, 2):
        streaming = run_stream(make_session, lines, flush_seed=seed * 17 + salt)
        assert_identical(batch, streaming)


# ----------------------------------------------------------------------
# fig2a, serial backend
# ----------------------------------------------------------------------
class TestFig2aStreams:
    @pytest.mark.parametrize("seed", range(12))
    def test_atoms(self, seed):
        differential(fig2a_session, fig2a_stream(seed), seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_bdd_index(self, seed):
        differential(
            lambda: fig2a_session(predicate_index="bdd"),
            fig2a_stream(seed + 100),
            seed,
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_lifecycle_over_reliable_transport(self, seed):
        """Crash/drain windows: flows may honestly give up into UNKNOWN;
        the degradation must be chunking-independent too."""
        lines = fig2a_stream(seed + 200, lifecycle=True, invariants=False)
        differential(
            lambda: fig2a_session(channel=ReliableChannel()),
            lines,
            seed,
        )


# ----------------------------------------------------------------------
# FT-4 and the process backend (heavier: marked slow, run by the CI
# serve job and the full suite)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHeavyStreams:
    @pytest.mark.parametrize("seed", range(2))
    def test_ft4_serial_atoms(self, seed):
        differential(dataset_session, ft4_stream(seed + 300), seed)

    def test_ft4_serial_bdd(self):
        differential(
            lambda: dataset_session(predicate_index="bdd"),
            ft4_stream(310),
            310,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_fig2a_process_backend(self, seed):
        """Process pool: epochs reuse the persistent workers; invariant
        changes redeploy through the same pool with rule ids preserved."""
        lines = fig2a_stream(seed + 400)
        differential(
            lambda: fig2a_session(backend="process", workers=2),
            lines,
            seed,
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_fig2a_process_backend_drain_restore(self, seed):
        """Drain/restore windows on the process backend (invariant changes
        redeploy inside them): chunking-independent, and equal to the
        serial backend's outcome for the same stream."""
        lines = fig2a_stream(seed + 450, lifecycle=True, crashes=False)
        assert any('"drain"' in line for line in lines)
        assert any('"restore"' in line for line in lines)

        def process():
            return fig2a_session(backend="process", workers=2)

        differential(process, lines, seed)
        assert_identical(
            run_stream(fig2a_session, lines), run_stream(process, lines)
        )

    def test_process_pool_reused_across_stream_epochs(self):
        """The worker pool must be forked once, then reused: generations
        only ever advance by resets, never by respawns."""
        session = fig2a_session(backend="process", workers=2)
        lines = fig2a_stream(500, invariants=True, count=10)
        redeploys = sum(1 for line in lines if '"invariant"' in line)
        try:
            session.start()
            for line in lines:
                reply = session.handle_line(line)
                assert all(f["frame"] != "error" for f in reply.frames)
                session.run_epoch("flush")
            stats = session.stats_frame()
            assert stats["pool"]["workers"] == 2
            # One fork (generation 1) plus one worker *reset* per
            # redeploy-causing invariant change — never one per epoch.
            assert stats["pool"]["generations"] == 1 + redeploys
        finally:
            session.close()
