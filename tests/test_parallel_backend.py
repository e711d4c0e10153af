"""Serial/process backend equivalence.

The process backend replays the same DVM protocol over OS processes with
round-based delivery, so its fixpoint must be *byte-identical* to the serial
simulator's: same verdict flags, same canonical source-node counting results
(merged ROBDD bytes), same violation regions — on correct planes, broken
planes, and across fail/recover churn.
"""

import pytest

from repro.bdd.serialize import serialize_predicate
from repro.core.library import reachability, waypoint_reachability
from repro.dataplane import Action, DevicePlane, Rule
from repro.datasets import build_dataset
from repro.parallel import (
    canonical_source_counts,
    cut_edges,
    partition_devices,
)
from repro.sim import TulkunRunner
from repro.topology import fattree, fig2a_example
from tests.conftest import build_fig2_planes


def fresh_rules(ds):
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in rules]
        for dev, rules in ds.rules_by_device.items()
    }


def serial_fingerprints(runner):
    verifiers = {}
    for dev, device in runner.network.devices.items():
        for inv_name, verifier in device.verifiers.items():
            verifiers[(dev, inv_name)] = verifier
    return canonical_source_counts(verifiers)


def verdict_flags(network, invariants):
    return {
        inv.name: {
            ingress: ok
            for ingress, (ok, _violations) in network.verdicts(inv.name).items()
        }
        for inv in invariants
    }


def violation_fingerprints(network, invariants):
    """Canonical (region bytes, counts, message) sets per (invariant, ingress)."""
    out = {}
    for inv in invariants:
        for ingress, (_ok, violations) in network.verdicts(inv.name).items():
            out[(inv.name, ingress)] = sorted(
                (serialize_predicate(v.region), tuple(v.counts), v.message)
                for v in violations
            )
    return out


@pytest.fixture(scope="module")
def ft4():
    return build_dataset("FT-4", pair_limit=6, seed=3)


class TestPartition:
    def test_covers_every_device_exactly_once(self, ft4):
        devices = ft4.topology.devices
        for groups in (None, [devices[:5], devices[5:9]]):
            assignment = partition_devices(ft4.topology, 3, groups=groups)
            assert sorted(assignment) == ft4.topology.devices
            assert set(assignment.values()) <= set(range(3))

    def test_deterministic(self, ft4):
        first = partition_devices(ft4.topology, 4)
        second = partition_devices(ft4.topology, 4)
        assert first == second

    def test_locality_cuts_fewer_edges_than_round_robin(self):
        topology = fattree(4)
        locality = partition_devices(topology, 4)
        scattered = {
            dev: i % 4 for i, dev in enumerate(sorted(topology.devices))
        }
        assert cut_edges(topology, locality) <= cut_edges(topology, scattered)


class TestFattreeParity:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_burst_byte_identical(self, ft4, workers):
        serial = TulkunRunner(ft4.topology, ft4.ctx, ft4.invariants)
        serial_result = serial.burst_update(fresh_rules(ft4))

        parallel = TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=workers,
        )
        try:
            parallel_result = parallel.burst_update(fresh_rules(ft4))
            assert parallel_result.holds == serial_result.holds
            assert verdict_flags(parallel.network, ft4.invariants) == (
                verdict_flags(serial.network, ft4.invariants)
            )
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
        finally:
            parallel.close()

    def test_broken_plane_same_violations(self, ft4):
        rules = fresh_rules(ds=ft4)
        # Blackhole the first invariant's ingress FIB entry.
        query = ft4.queries[0]
        target = ft4.ctx.ip_prefix(query.prefix)
        dev_rules = rules[query.ingress]
        for i, rule in enumerate(dev_rules):
            if rule.match == target:
                dev_rules[i] = Rule(rule.match, Action.drop(), rule.priority)
                break

        def rebuilt():
            return {
                dev: [Rule(r.match, r.action, r.priority) for r in rs]
                for dev, rs in rules.items()
            }

        serial = TulkunRunner(ft4.topology, ft4.ctx, ft4.invariants)
        serial_result = serial.burst_update(rebuilt())
        assert not all(serial_result.holds.values())

        parallel = TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=2,
        )
        try:
            parallel_result = parallel.burst_update(rebuilt())
            assert parallel_result.holds == serial_result.holds
            assert violation_fingerprints(
                parallel.network, ft4.invariants
            ) == violation_fingerprints(serial.network, ft4.invariants)
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
        finally:
            parallel.close()

    def test_fail_and_recover_links_byte_identical(self, ft4):
        links = [list(ft4.topology.links())[0].endpoints()]

        serial = TulkunRunner(ft4.topology, ft4.ctx, ft4.invariants)
        serial.burst_update(fresh_rules(ft4))
        parallel = TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=3,
        )
        try:
            parallel.burst_update(fresh_rules(ft4))

            serial.fail_links(links)
            parallel.fail_links(links)
            assert verdict_flags(parallel.network, ft4.invariants) == (
                verdict_flags(serial.network, ft4.invariants)
            )
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )

            serial.recover_links(links)
            parallel.recover_links(links)
            assert verdict_flags(parallel.network, ft4.invariants) == (
                verdict_flags(serial.network, ft4.invariants)
            )
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
        finally:
            parallel.close()


class TestFig2aParity:
    def scenario(self, ctx):
        p1 = ctx.ip_prefix("10.0.0.0/23")
        return [
            reachability(p1, "S", "D"),
            waypoint_reachability(p1, "S", "W", "D"),
        ]

    def test_example_byte_identical_through_churn(self, ctx):
        topology = fig2a_example()
        invariants = self.scenario(ctx)

        def rules():
            planes = build_fig2_planes(ctx)
            return {
                dev: [
                    Rule(r.match, r.action, r.priority) for r in plane.rules
                ]
                for dev, plane in planes.items()
            }

        serial = TulkunRunner(topology, ctx, invariants)
        serial_result = serial.burst_update(rules())
        parallel = TulkunRunner(
            topology, ctx, invariants, backend="process", workers=2
        )
        try:
            parallel_result = parallel.burst_update(rules())
            assert parallel_result.holds == serial_result.holds
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
            assert violation_fingerprints(parallel.network, invariants) == (
                violation_fingerprints(serial.network, invariants)
            )

            serial.fail_links([("A", "W")])
            parallel.fail_links([("A", "W")])
            assert verdict_flags(parallel.network, invariants) == (
                verdict_flags(serial.network, invariants)
            )
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )

            serial.recover_links([("A", "W")])
            parallel.recover_links([("A", "W")])
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
        finally:
            parallel.close()


class TestBackendPlumbing:
    def test_unknown_backend_rejected(self, ft4):
        with pytest.raises(ValueError):
            TulkunRunner(
                ft4.topology, ft4.ctx, ft4.invariants, backend="threads"
            )

    def test_burst_result_counters_populated(self, ft4):
        with TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=2,
        ) as runner:
            result = runner.burst_update(fresh_rules(ft4))
            assert result.events > 0
            assert result.messages > 0
            assert result.bytes_sent > 0
            assert result.verification_time > 0
            metrics = runner.network.metrics
            assert set(metrics.workers) == {0, 1}
            assert sum(m.num_devices for m in metrics.workers.values()) == (
                len(ft4.topology.devices)
            )
            assert metrics.parallel_wall > 0
            assert metrics.effective_parallelism() > 0

    def test_incremental_updates_through_process_backend(self, ft4):
        serial = TulkunRunner(ft4.topology, ft4.ctx, ft4.invariants)
        serial.burst_update(fresh_rules(ft4))
        with TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=2,
        ) as parallel:
            parallel.burst_update(fresh_rules(ft4))
            for runner in (serial, parallel):
                dev = ft4.queries[0].ingress
                victim = runner.network.devices[dev].plane.rules[0]
                broken = Rule(victim.match, Action.drop(), victim.priority)
                runner.incremental_updates([(dev, broken, victim.rule_id)])
                restored = Rule(victim.match, victim.action, victim.priority)
                runner.incremental_updates([(dev, restored, broken.rule_id)])
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )


class TestGcParity:
    """GC sweeps inside worker processes must be invisible on the wire:
    verdicts and canonical counting fingerprints stay byte-identical to a
    GC-free serial run."""

    def test_gc_enabled_workers_byte_identical(self, ft4):
        serial = TulkunRunner(ft4.topology, ft4.ctx, ft4.invariants)
        serial_result = serial.burst_update(fresh_rules(ft4))

        parallel = TulkunRunner(
            ft4.topology, ft4.ctx, ft4.invariants,
            backend="process", workers=2, gc_threshold=256,
        )
        try:
            parallel_result = parallel.burst_update(fresh_rules(ft4))
            assert parallel_result.holds == serial_result.holds
            assert verdict_flags(parallel.network, ft4.invariants) == (
                verdict_flags(serial.network, ft4.invariants)
            )
            assert parallel.network.source_fingerprints() == (
                serial_fingerprints(serial)
            )
            # The threshold is low enough that the workers really swept.
            engines = parallel.network.metrics.engines
            assert engines, "worker engine profiles were not collected"
            assert sum(e["gc_runs"] for e in engines.values()) > 0
        finally:
            parallel.close()
