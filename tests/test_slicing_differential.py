"""Routed-vs-broadcast differential: routing must never change a verdict.

Slicing is a pure scheduling optimization — routing events only to the
slices whose footprint they intersect, caching untouched verdicts — so a
routed deployment must produce **byte-identical** outcomes to one that
broadcasts every event to every slice (:mod:`tests.broadcast`) on the same
stream: per-invariant statuses, per-ingress verdict flags, violation
regions (canonical ROBDD bytes) and the full source counting state.  Each
case draws a seeded multi-tenant request stream, runs it through a
broadcast batch leg, the declared-tenant legs (batch + a random chunking)
and the default one-slice-per-invariant leg (another chunking), and
compares everything.  Every leg's final statuses must also equal a fresh
deployment of its final FIB and offline Algorithm 1.

Coverage: fig2a multi-tenant streams (explicit tenant mapping, invariant
churn carrying the wire ``tenant`` field) under both predicate-index modes
and both backends, plus FT-4 streams where every invariant is its own
auto slice and with an explicit four-tenant grouping.
"""

import json
import random
from functools import partial

import pytest

from repro.bdd import PacketSpaceContext
from repro.core.language import parse_invariants
from repro.dataplane import DevicePlane, Rule
from repro.dataplane.fib import parse_fib_text
from repro.datasets import build_dataset
from repro.serve import StreamSession
from repro.sim import TulkunRunner
from repro.topology.fileformat import parse_topology_text
from tests.broadcast import broadcast_routing, final_state_statuses
from tests.test_serve_differential import (
    FIG2A_KEYS,
    FIG2A_LINKS,
    INVARIANT_SPECS,
    MATCH_POOL,
    SPECS,
    StreamGen,
    assert_identical,
    collect_outcome,
    ft4_stream,
)

pytestmark = [pytest.mark.slicing, pytest.mark.serve]

# fig2a invariants grouped into two tenants via the explicit mapping mode
# (names stay unprefixed, so in-stream add/remove specs keep working).
FIG2A_TENANTS = {"alice": ["waypoint"], "bob": ["reach"]}
TENANT_OF_SPEC = {"waypoint": "alice", "reach": "bob"}


def fig2a_session(slices, predicate_index="atoms", backend="serial"):
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
        workers=2,
        predicate_index=predicate_index,
        slices=slices,
    )
    rules = {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }
    return StreamSession(runner, rules)


def ft4_session(slices, predicate_index="atoms", backend="serial"):
    ds = build_dataset("FT-4", pair_limit=6, seed=3)
    runner = TulkunRunner(
        ds.topology,
        ds.ctx,
        ds.invariants,
        backend=backend,
        workers=2,
        predicate_index=predicate_index,
        slices=slices,
    )
    return StreamSession(runner, ds.rules_by_device)


def ft4_tenant_mapping():
    """Round-robin the FT-4 invariants over four explicit tenants."""
    ds = build_dataset("FT-4", pair_limit=6, seed=3)
    mapping = {f"t{i}": [] for i in range(4)}
    for i, inv in enumerate(ds.invariants):
        mapping[f"t{i % 4}"].append(inv.name)
    return {tenant: names for tenant, names in mapping.items() if names}


def multi_tenant_stream(seed, *, invariants=True, count=24):
    """A fig2a stream whose invariant-add requests carry the wire
    ``tenant`` field, exercising the explicit-slice path end to end."""
    topology = parse_topology_text((SPECS / "fig2a.topo").read_text())
    lines = StreamGen(
        seed,
        topology=topology,
        initial_keys=FIG2A_KEYS,
        links=FIG2A_LINKS,
        matches=MATCH_POOL,
        invariant_specs=INVARIANT_SPECS if invariants else None,
    ).generate(count)
    stamped = []
    for line in lines:
        obj = json.loads(line)
        if obj.get("op") == "invariant" and "add" in obj:
            for name, tenant in TENANT_OF_SPEC.items():
                if f"invariant {name}" in obj["add"]:
                    obj["tenant"] = tenant
                    break
        stamped.append(json.dumps(obj))
    return stamped


def run_stream(session_factory, lines, flush_seed=None):
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
        outcome = collect_outcome(session)
        deployed, offline = final_state_statuses(session.runner)
        assert outcome["statuses"] == deployed == offline
        return outcome
    finally:
        session.close()


def sliced_differential(make_session, slices, lines, seed):
    """The broadcast batch leg vs the declared-tenant legs (batch + one
    chunking) and the default leg (another chunking)."""
    def broadcast_session():
        with broadcast_routing():
            return make_session(None)

    base = run_stream(broadcast_session, lines)
    assert_identical(base, run_stream(lambda: make_session(slices), lines))
    assert_identical(
        base,
        run_stream(
            lambda: make_session(slices), lines, flush_seed=seed * 23 + 7
        ),
    )
    assert_identical(
        base,
        run_stream(lambda: make_session(None), lines, flush_seed=seed * 29 + 3),
    )


# ----------------------------------------------------------------------
# fig2a, serial backend (the smoke set: 12 streams)
# ----------------------------------------------------------------------
class TestFig2aSliced:
    @pytest.mark.parametrize("seed", range(8))
    def test_atoms(self, seed):
        sliced_differential(
            fig2a_session, FIG2A_TENANTS, multi_tenant_stream(seed), seed
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_bdd_index(self, seed):
        sliced_differential(
            partial(fig2a_session, predicate_index="bdd"),
            FIG2A_TENANTS,
            multi_tenant_stream(seed + 100),
            seed,
        )


# ----------------------------------------------------------------------
# FT-4 and the process backend (heavier: marked slow, run by the CI
# slicing job and the full suite)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHeavySliced:
    @pytest.mark.parametrize("seed", range(3))
    def test_ft4_auto_slices(self, seed):
        """Every FT-4 invariant is its own auto slice (no tenant prefixes):
        the maximally-fragmented routing case."""
        sliced_differential(ft4_session, "auto", ft4_stream(seed + 200), seed)

    def test_ft4_explicit_tenants(self):
        mapping = ft4_tenant_mapping()
        sliced_differential(ft4_session, mapping, ft4_stream(210), 210)

    def test_ft4_bdd_index(self):
        sliced_differential(
            partial(ft4_session, predicate_index="bdd"),
            "auto",
            ft4_stream(220),
            220,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_fig2a_process_backend(self, seed):
        """Process pool: the sliced leg partitions workers along slice
        device groups and ships ``only`` filters with every update op."""
        sliced_differential(
            partial(fig2a_session, backend="process"),
            FIG2A_TENANTS,
            multi_tenant_stream(seed + 300),
            seed,
        )

    def test_ft4_process_backend(self):
        sliced_differential(
            partial(ft4_session, backend="process"),
            "auto",
            ft4_stream(310),
            310,
        )
