"""Persistent worker pool: reuse, crash detection, IPC telemetry.

The process backend's pool outlives any single deployment.  These tests pin
the lifecycle contract (fork once → reset thereafter, byte-identical
outcomes either way, and equal to the serial backend's), the crash story (a
dead worker breaks the pool, the runner respawns a fresh one), and the
coordinator's IPC span telemetry — including the regression guard that a
disabled tracer stays a single attribute check on the hot path.
"""

import dis

import pytest

from repro.dataplane.rule import Rule
from repro.errors import SimulationError
from repro.sim import TulkunRunner
from repro.telemetry import Tracer

from tests.test_parallel_backend import (
    build_dataset,
    fresh_rules,
    serial_fingerprints,
    verdict_flags,
)


@pytest.fixture(scope="module")
def ds():
    return build_dataset("FT-4", pair_limit=6, seed=3)


def _runner(ds, **kwargs):
    kwargs.setdefault("backend", "process")
    kwargs.setdefault("workers", 2)
    return TulkunRunner(ds.topology, ds.ctx, ds.invariants, **kwargs)


class TestPersistentPool:
    def test_pool_survives_redeployment(self, ds):
        with _runner(ds) as runner:
            first = runner.burst_update(fresh_rules(ds))
            pool = runner._pool
            assert pool.generations == 1
            second = runner.burst_update(fresh_rules(ds))
            # Same processes, reset onto the new deployment — and the reset
            # path must reproduce the fork path's outcome exactly.
            assert runner._pool is pool
            assert pool.generations == 2
            assert second.holds == first.holds
            assert second.events == first.events
            assert second.messages == first.messages
            assert second.bytes_sent == first.bytes_sent
        assert pool.closed

    def test_incremental_updates_on_reset_pool(self, ds):
        """Updates applied after a redeploy run on reset (warm) workers."""
        with _runner(ds) as runner:
            runner.burst_update(fresh_rules(ds))
            runner.burst_update(fresh_rules(ds))
            dev, rules = next(
                (dev, rules)
                for dev, rules in sorted(ds.rules_by_device.items())
                if rules
            )
            live = runner.network.devices[dev].plane.rules[0]
            clone = Rule(live.match, live.action, live.priority)
            result = runner.incremental_updates([(dev, clone, live.rule_id)])
            assert len(result.times) == 1

    def test_burst_matches_serial(self, ds):
        """Cross-worker messages ride the command pipe as wire bytes; the
        outcome equals the serial backend's, and the routed bytes are
        exactly the wire size of the messages that crossed."""
        with TulkunRunner(ds.topology, ds.ctx, ds.invariants) as serial:
            baseline = serial.burst_update(fresh_rules(ds))
            serial_flags = verdict_flags(serial.network, ds.invariants)
            serial_prints = serial_fingerprints(serial)
        with _runner(ds) as runner:
            result = runner.burst_update(fresh_rules(ds))
            network = runner.network
            assert result.holds == baseline.holds
            assert verdict_flags(network, ds.invariants) == serial_flags
            assert network.source_fingerprints() == serial_prints
            metrics = network.metrics
            assert metrics.routed_messages > 0
            assert 0 < metrics.routed_bytes <= result.bytes_sent

    def test_profile_change_respawns_pool(self, ds):
        with _runner(ds) as runner:
            runner.burst_update(fresh_rules(ds))
            pool = runner._pool
            # A different worker count is an incompatible pool shape.
            runner.workers = 1
            runner.burst_update(fresh_rules(ds))
            assert runner._pool is not pool
            assert pool.closed
            assert runner._pool.num_workers == 1

    def test_worker_crash_breaks_pool_and_runner_recovers(self, ds):
        with _runner(ds) as runner:
            runner.burst_update(fresh_rules(ds))
            pool = runner._pool
            pool.kill_worker(0)
            with pytest.raises(SimulationError, match="worker 0 died"):
                runner.network.snapshot_engines()
            assert pool.broken
            # A broken pool refuses work...
            with pytest.raises(SimulationError):
                pool.send(0, ("collect",))
            # ...and the next deployment silently replaces it.
            result = runner.burst_update(fresh_rules(ds))
            assert runner._pool is not pool
            assert not runner._pool.broken
            assert all(result.holds.values())


class TestIpcTelemetry:
    def test_process_backend_emits_ipc_spans(self, ds):
        tracer = Tracer()
        with _runner(ds, tracer=tracer) as runner:
            runner.burst_update(fresh_rules(ds))
        ipc = [e for e in tracer.events if e.kind == "ipc"]
        assert ipc, "process backend produced no IPC spans"
        names = {e.fields["name"] for e in ipc}
        # burst command execution, cross-worker routing, waiting.
        assert "burst" in names
        assert "drain" in names
        assert "flush" in names
        assert "quiescence-probe" in names
        tracks = {e.device for e in ipc}
        assert "coordinator" in tracks
        assert any(track.startswith("worker") for track in tracks)
        for event in ipc:
            assert event.fields["finish"] >= event.fields["start"] >= 0.0

    def test_ipc_spans_export_to_chrome_trace(self, ds):
        from repro.telemetry import export_chrome_trace

        tracer = Tracer()
        with _runner(ds, tracer=tracer) as runner:
            runner.burst_update(fresh_rules(ds))
        doc = export_chrome_trace(tracer.events)
        spans = [
            e for e in doc["traceEvents"] if e.get("cat") == "ipc"
        ]
        begins = [e for e in spans if e["ph"] == "B"]
        ends = [e for e in spans if e["ph"] == "E"]
        assert begins and len(begins) == len(ends)

    def test_disabled_tracer_records_nothing(self, ds):
        tracer = Tracer(enabled=False)
        with _runner(ds, tracer=tracer) as runner:
            runner.burst_update(fresh_rules(ds))
        assert tracer.events == []
        assert tracer.clocks == {}

    def test_disabled_fast_path_is_a_single_attribute_check(self):
        """Regression guard: the first thing ``Tracer._record`` does must be
        the ``self.enabled`` test — no other attribute access, call or
        allocation may precede it, or every traced-off hot path pays it."""
        instructions = list(dis.get_instructions(Tracer._record))
        attr_loads = [
            i for i, ins in enumerate(instructions)
            if ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
        ]
        assert attr_loads, "expected an attribute load in Tracer._record"
        first_attr = instructions[attr_loads[0]]
        assert first_attr.argval == "enabled", (
            f"first attribute touched is {first_attr.argval!r}, "
            "not the enabled guard"
        )
        # ...and the guard must branch before anything heavier happens.
        jump_index = next(
            i for i, ins in enumerate(instructions)
            if "JUMP" in ins.opname or ins.opname.startswith("POP_JUMP")
        )
        assert jump_index <= attr_loads[0] + 3, (
            "enabled guard does not branch immediately"
        )
