"""Predicate-index parity: ``atoms`` vs ``bdd`` must be byte-identical.

The atom index is a pure representation change — all DVM wire messages,
verdict flags, canonical source-node counting results and violation regions
must match the raw-BDD path byte for byte, with engine GC armed, on both
execution backends, through burst convergence, link churn and incremental
rule updates.  This is the acceptance gate that lets ``atoms`` be the
default without perturbing any seed behaviour.
"""

import ipaddress
import random

import pytest

from repro.bdd import PacketSpaceContext
from repro.core.counting import CountExp
from repro.core.invariant import Atom, Invariant, MatchKind, PathExpr
from repro.core.library import reachability, waypoint_reachability
from repro.dataplane import Action, Rule, Transform
from repro.datasets import build_dataset
from repro.sim import TulkunRunner, apply_intents, random_update_intents
from repro.topology import Topology, fig2a_example
from tests.conftest import build_fig2_planes
from tests.test_parallel_backend import (
    serial_fingerprints,
    verdict_flags,
    violation_fingerprints,
)

GC_THRESHOLD = 64


def fig2_outcome(predicate_index, *, break_plane=False):
    """Burst + link churn + one incremental update on the §2 example."""
    ctx = PacketSpaceContext()
    topology = fig2a_example()
    p1 = ctx.ip_prefix("10.0.0.0/23")
    invariants = [
        reachability(p1, "S", "D"),
        waypoint_reachability(p1, "S", "W", "D"),
    ]
    planes = build_fig2_planes(ctx)
    rules = {
        dev: [Rule(r.match, r.action, r.priority) for r in plane.rules]
        for dev, plane in planes.items()
    }
    if break_plane:
        # Blackhole W's forwarding: waypointed traffic dies at the waypoint.
        rules["W"] = [
            Rule(r.match, Action.drop(), r.priority) for r in rules["W"]
        ]
    runner = TulkunRunner(
        topology, ctx, invariants,
        gc_threshold=GC_THRESHOLD, predicate_index=predicate_index,
    )
    result = runner.burst_update(rules)
    runner.fail_links([("A", "W")])
    runner.recover_links([("A", "W")])
    # One single-rule update after convergence: re-point S, then restore.
    plane = runner.network.devices["S"].plane
    victim = plane.rules[0]
    runner.incremental_updates(
        [
            ("S", Rule(victim.match, Action.forward_all(["B"]),
                       victim.priority), victim.rule_id),
        ]
    )
    return (
        result.holds,
        verdict_flags(runner.network, invariants),
        violation_fingerprints(runner.network, invariants),
        serial_fingerprints(runner),
        ctx.mgr.stats.gc_runs,
    )


class TestFig2aParity:
    def test_serial_byte_identical(self):
        holds_a, flags_a, viol_a, prints_a, gc_a = fig2_outcome("atoms")
        holds_b, flags_b, viol_b, prints_b, gc_b = fig2_outcome("bdd")
        assert gc_a > 0 and gc_b > 0, "GC never armed: parity gate is void"
        assert holds_a == holds_b
        assert flags_a == flags_b
        assert viol_a == viol_b
        assert prints_a == prints_b

    def test_broken_plane_same_violation_bytes(self):
        holds_a, flags_a, viol_a, prints_a, _ = fig2_outcome(
            "atoms", break_plane=True
        )
        holds_b, flags_b, viol_b, prints_b, _ = fig2_outcome(
            "bdd", break_plane=True
        )
        assert not all(all(v.values()) for v in flags_a.values())
        assert holds_a == holds_b
        assert flags_a == flags_b
        assert viol_a == viol_b
        assert prints_a == prints_b


def transform_outcome(predicate_index):
    """A rewrite chain S → N → M → D: burst, a transform rule installed
    after convergence (the SUBSCRIBE path), then one link flap.

    Transforms are the one place the verifier text leaves pure word algebra
    (image/preimage round-trip through BDDs and refine the atom index
    mid-handler), so this is the path where a missed ``resolve`` would show
    as a verdict or region difference between the carriers.
    """
    ctx = PacketSpaceContext()
    topology = Topology("nat-chain")
    for a, b in (("S", "N"), ("N", "M"), ("M", "D")):
        topology.add_link(a, b)
    space = ctx.range_("dst_port", 80, 83)
    p80, p81 = ctx.value("dst_port", 80), ctx.value("dst_port", 81)
    p8080, p9090 = ctx.value("dst_port", 8080), ctx.value("dst_port", 9090)
    to_8080 = Transform.set_fields(dst_port=8080)
    to_9090 = Transform.set_fields(dst_port=9090)
    rules = {
        "S": [Rule(space, Action.forward_all(["N"]), 1)],
        # Port 80 is rewritten, 81-83 pass through unchanged.
        "N": [
            Rule(p80, Action.forward_all(["M"], transform=to_8080), 2),
            Rule(space, Action.forward_all(["M"]), 1),
        ],
        # M forwards only 81 at first: rewritten traffic dies here.
        "M": [Rule(p81, Action.forward_all(["D"]), 1)],
        "D": [Rule(p81, Action.deliver(), 1), Rule(p9090, Action.deliver(), 1)],
    }
    invariant = Invariant(
        space, ("S",),
        Atom(PathExpr.parse("S N M D"), MatchKind.EXIST, CountExp(">=", 1)),
        name="nat",
    )
    runner = TulkunRunner(
        topology, ctx, [invariant],
        gc_threshold=GC_THRESHOLD, predicate_index=predicate_index,
    )

    def checkpoint():
        return (
            verdict_flags(runner.network, [invariant]),
            violation_fingerprints(runner.network, [invariant]),
            serial_fingerprints(runner),
        )

    result = runner.burst_update(rules)
    checkpoints = [result.holds, checkpoint()]
    # The second rewrite appears after convergence: M must SUBSCRIBE to D
    # for the 9090 image, N's 8080 subscription at M starts to matter.
    runner.incremental_updates(
        [("M", Rule(p8080, Action.forward_all(["D"], transform=to_9090), 2), None)]
    )
    checkpoints.append(checkpoint())
    runner.fail_links([("N", "M")])
    checkpoints.append(checkpoint())
    runner.recover_links([("N", "M")])
    checkpoints.append(checkpoint())
    subscribes = sum(
        verifier.stats.subscribes_sent
        for device in runner.network.devices.values()
        for verifier in device.verifiers.values()
    )
    return checkpoints, subscribes, ctx.mgr.stats.gc_runs


class TestTransformParity:
    def test_transform_chain_byte_identical(self):
        atoms, subs_a, gc_a = transform_outcome("atoms")
        bdd, subs_b, gc_b = transform_outcome("bdd")
        assert gc_a > 0 and gc_b > 0, "GC never armed: parity gate is void"
        assert subs_a > 0 and subs_b > 0, "no SUBSCRIBE sent: no transform ran"
        assert atoms == bdd
        # The scenario means something: port 80 reaches D only once both
        # rewrites exist and the link is up; 82-83 never do.
        flags = [flags for flags, _viol, _prints in atoms[1:]]
        assert all(not f["nat"]["S"] for f in flags)
        regions = [len(viol[("nat", "S")]) for _f, viol, _p in atoms[1:]]
        assert all(regions)


class TestBitsetAlgebraProperty:
    """Seeded random-rule workloads: packed-bitset AtomSet algebra must
    agree with raw Predicate (BDD) semantics operation for operation,
    through interleaved refinement, merge-on-collect and engine GC."""

    @staticmethod
    def random_prefix_preds(ctx, rng, count):
        preds = []
        for _ in range(count):
            plen = rng.randint(6, 28)
            net = ipaddress.ip_network((rng.getrandbits(32), plen), strict=False)
            preds.append(ctx.ip_prefix(str(net)))
        return preds

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_algebra_agrees_with_bdd(self, seed):
        rng = random.Random(seed)
        ctx = PacketSpaceContext()
        index = ctx.atom_index()
        preds = self.random_prefix_preds(ctx, rng, 24)
        # Derived regions diversify beyond pure prefixes (unions and
        # carve-outs are what CIB entries actually look like).
        for _ in range(12):
            a, b = rng.sample(preds, 2)
            preds.append((a | b) if rng.random() < 0.5 else (a - b))
        sets = [index.atomize(p) for p in preds]
        live = list(zip(preds, sets))
        for step in range(150):
            (pa, sa), (pb, sb) = rng.sample(live, 2)
            assert (sa & sb).to_predicate() == pa & pb
            assert (sa | sb).to_predicate() == pa | pb
            assert (sa - sb).to_predicate() == pa - pb
            assert (sa ^ sb).to_predicate() == (pa | pb) - (pa & pb)
            assert sa.covers(sb) == pa.covers(pb)
            assert sa.overlaps(sb) == (not (pa & pb).is_empty)
            assert (sa - sb).is_empty == (pa - pb).is_empty
            if step % 10 == 9:
                # Refine mid-stream: all live masks go stale and must
                # renormalize through the rewrite tables.
                extra = self.random_prefix_preds(ctx, rng, 1)[0]
                live.append((extra, index.atomize(extra)))
            if step % 40 == 39:
                # Shrink the live set, merge-on-collect, then sweep the
                # engine: conversions must survive both.
                live = rng.sample(live, max(8, len(live) // 2))
                import gc as pygc

                pygc.collect()
                index.compact()
                ctx.mgr.collect()
                for pred, aset in rng.sample(live, 4):
                    assert aset.to_predicate() == pred

    @pytest.mark.parametrize("seed", [3, 11])
    def test_sets_stay_valid_dict_keys(self, seed):
        """Hash/equality survive splits and merges: a CIB keyed by AtomSet
        must still find its entries after arbitrary refinement."""
        rng = random.Random(seed)
        ctx = PacketSpaceContext()
        index = ctx.atom_index()
        preds = self.random_prefix_preds(ctx, rng, 16)
        table = {index.atomize(p): i for i, p in enumerate(preds)}
        self.random_prefix_preds(ctx, rng, 16)  # refine under the keys
        index.compact()
        for i, p in enumerate(preds):
            hits = [v for aset, v in table.items() if aset == index.atomize(p)]
            assert i in hits


def fattree_outcome(predicate_index, backend, workers=2):
    ds = build_dataset("FT-4", pair_limit=6, seed=3)
    kwargs = {
        "gc_threshold": GC_THRESHOLD, "predicate_index": predicate_index,
        "backend": backend,
    }
    if backend == "process":
        kwargs["workers"] = workers
    runner = TulkunRunner(ds.topology, ds.ctx, ds.invariants, **kwargs)
    try:
        rules = {
            dev: [Rule(r.match, r.action, r.priority) for r in rules]
            for dev, rules in ds.rules_by_device.items()
        }
        result = runner.burst_update(rules)
        planes = {
            dev: runner.network.devices[dev].plane
            for dev in ds.topology.devices
        }
        intents = random_update_intents(ds.topology, planes, 6, seed=11)
        apply_intents(runner, intents)
        flags = verdict_flags(runner.network, ds.invariants)
        viol = violation_fingerprints(runner.network, ds.invariants)
        if backend == "process":
            prints = runner.network.source_fingerprints()
        else:
            prints = serial_fingerprints(runner)
        return result.holds, flags, viol, prints
    finally:
        runner.close()


class TestFattreeParity:
    def test_serial_byte_identical(self):
        atoms = fattree_outcome("atoms", "serial")
        bdd = fattree_outcome("bdd", "serial")
        assert atoms == bdd

    def test_process_byte_identical(self):
        atoms = fattree_outcome("atoms", "process")
        bdd = fattree_outcome("bdd", "process")
        assert atoms == bdd

    def test_backends_agree_in_atoms_mode(self):
        serial = fattree_outcome("atoms", "serial")
        process = fattree_outcome("atoms", "process")
        assert serial == process

    def test_pipe_transport_byte_identical(self):
        """The bdd carrier's messages cross workers as wire bytes on the
        command pipe; the outcome equals the serial backend's."""
        serial = fattree_outcome("bdd", "serial")
        process = fattree_outcome("bdd", "process")
        assert serial == process

    def test_backends_agree_on_three_workers(self):
        """A different partition routes different messages over the pipe;
        the fixpoint stays the serial one."""
        serial = fattree_outcome("atoms", "serial")
        process = fattree_outcome("atoms", "process", workers=3)
        assert serial == process


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        ds_ctx = PacketSpaceContext()
        with pytest.raises(ValueError):
            TulkunRunner(
                fig2a_example(), ds_ctx, [], predicate_index="wat"
            )
