"""The traced run: per-layer numbers for one workload.

It repeats the workload in-process with the shims of ``tracing.py``
installed (wire workloads drive the serve stack through ``SessionTarget``),
then takes the shims off and measures the same instance again - the ratio
of the two medians is the tracing overhead - and finally runs the part only
another process can show: the wire (``daemon.wire_overhead_ms``) for serve
workloads, the process backend (``parallel.*``, informational) otherwise.
The measured seconds are split 1/2 : 1/4 : 1/4 between the three.

End-to-end metrics never come from here.
"""

from __future__ import annotations

import os
from typing import Dict

from benchmarks.e2e import ROOT, tracing
from benchmarks.e2e.phases import PhaseRunner, quantile
from benchmarks.e2e.streams import make_plan
from benchmarks.e2e.targets import (
    InProcessTarget,
    SessionTarget,
    WireTarget,
    pin_to,
)
from benchmarks.e2e.worker import cores, provenance, result
from benchmarks.e2e.workloads import Workload, build_instance

CLOSURE_RANGE = (0.90, 1.10)
# Measured in another process, and only by the kind of workload that has
# the layer; the other kind reports 0.
OTHER_PROCESS_METRICS = (
    "parallel.burst_verify_s", "parallel.burst_over_serial",
    "parallel.updates_per_s", "daemon.wire_overhead_ms",
    "daemon.frames_per_epoch", "daemon.frames_dropped",
)


def run_traced(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    generator_core, program_core = cores()
    plan = make_plan(workload, build_instance(workload, with_runner=False), seed)
    metrics: Dict[str, float] = dict.fromkeys(OTHER_PROCESS_METRICS, 0.0)
    others = []
    if not workload.wire:
        # First, while the heap is empty and both cores are still allowed.
        parallel, phases = parallel_layer(workload, plan, seconds / 4)
        metrics.update(parallel)
        others.append(phases)

    pin_to(program_core)
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        instance = build_instance(workload)
        if workload.wire:
            target = SessionTarget(instance, with_subscriber=bool(workload.tenants))
        else:
            target = InProcessTarget(instance)
        target.deploy()
        setup = recorder.snapshot()
        engine = instance.dataset.ctx.mgr.stats
        network = instance.runner.network

        def probe() -> Dict[str, float]:
            out = recorder.snapshot()
            bdd = engine.snapshot()
            out["bdd.ops"] = sum(v for k, v in bdd.items() if k.startswith("ops_"))
            out["kernel.events"] = network.kernel.events_processed
            out["dvm.messages"] = network.metrics.total_messages()
            out["dvm.bytes"] = network.metrics.total_bytes()
            for field in ("bytes_in", "bytes_out", "broadcast", "delivered"):
                out["target." + field] = getattr(target, field, 0)
            return out

        traced = PhaseRunner(target, plan, None, probe=probe)
        traced.warmup()
        traced.measure(seconds / 2)
    finally:
        uninstall()
    try:
        untraced = PhaseRunner(target, plan, None)
        untraced.measure(seconds / 4, rounds=5)
        untraced.finish()
        others.append(untraced)
        metrics.update(layer_metrics(recorder, setup, traced, target, instance))
        session_p50 = quantile(untraced.single, 0.5)
        metrics["trace.overhead_ratio"] = quantile(traced.single, 0.5) / session_p50
    finally:
        target.close()

    if workload.wire:
        pin_to(generator_core)
        wire, phases = wire_layer(workload, plan, seconds / 4, session_p50,
                                  program_core)
        metrics.update(wire)
        others.append(phases)
    else:
        # Against the traced serial burst, which the shims slow by ~10 %.
        metrics["parallel.burst_over_serial"] = (
            metrics["parallel.burst_verify_s"] / metrics["runner.burst_update_s"]
        )
    for phases in others:
        traced.absorb(phases)
    closure = metrics["trace.closure_ratio"]
    if not CLOSURE_RANGE[0] <= closure <= CLOSURE_RANGE[1]:
        traced.fail(1, f"layer spans cover {closure:.3f} of the step wall time")
    trace_path = os.path.join(ROOT, "benchmarks", "e2e", "out",
                              f"{workload.name}.trace.json")
    stamp = provenance(workload, plan, seconds, 1,
                       {"generator": generator_core, "program": program_core})
    recorder.write_chrome_trace(trace_path, stamp)
    out = result(workload, traced, metrics, stamp)
    out["trace_file"] = os.path.relpath(trace_path, ROOT)
    return out


# ----------------------------------------------------------------------
def layer_metrics(recorder, setup, traced, target, instance) -> Dict[str, float]:
    """Every per-layer metric this process can see.  ``*_us`` / ``*_ms`` are
    mean per call and ``per_update`` counts per FIB op, both over the single
    phase (one update per epoch, so the layer means add up to the update
    latency); link-event layers are read off the link phase."""
    probed = traced.probed
    fib = probed["single"]
    link = probed["link"]
    updates = len(traced.single)
    link_events = sum(len(v) for v in traced.link_samples.values())

    def mean(source, name, scale, kind="total") -> float:
        calls = source.get(name + ".calls", 0)
        return source.get(f"{name}.{kind}", 0.0) / calls * scale if calls else 0.0

    def per(source, key, count) -> float:
        return source.get(key, 0.0) / count if count else 0.0

    bdd = instance.dataset.ctx.mgr.stats.snapshot()
    atoms = instance.dataset.ctx.atom_index().profile()
    lookups = bdd["cache_hits"] + bdd["cache_misses"]
    decode_calls = fib.get("protocol.decode_line.calls", 0)
    decode_total = (fib.get("protocol.decode_line.total", 0.0)
                    + fib.get("protocol.decode_request.total", 0.0))
    steps_total = sum(p.get("step.total", 0.0) for p in probed.values())
    steps_self = sum(p.get("step.self", 0.0) for p in probed.values())
    session = getattr(target, "session", None)
    histograms = []
    if session is not None:
        histograms = [session.histogram, *session.tenant_histograms.values()]
    us, ms = 1e6, 1e3
    return {
        "datasets.build_s": setup.get("datasets.build.total", 0.0),
        "runner.init_s": setup.get("runner.init.total", 0.0),
        "planner.decompose_s": setup.get("planner.decompose.total", 0.0),
        "planner.decompose_n": setup.get("planner.decompose.calls", 0),
        "runner.burst_update_s": setup.get("runner.burst_update.total", 0.0),
        "runner.apply_updates_us": mean(fib, "runner.apply_updates", us),
        "runner.apply_updates_self_us": mean(fib, "runner.apply_updates", us, "self"),
        "runner.statuses_us": mean(fib, "runner.statuses", us),
        "runner.fail_links_ms": mean(link, "runner.fail_links", ms),
        "runner.recover_links_ms": mean(link, "runner.recover_links", ms),
        "network.apply_rule_updates_us": mean(fib, "network.apply_rule_updates", us),
        "network.run_us": mean(fib, "network.run", us),
        "network.invariant_status_us": mean(fib, "network.invariant_status", us),
        "kernel.events_per_update": per(fib, "kernel.events", updates),
        "dataplane.install_rule_us": mean(fib, "dataplane.install_rule", us),
        "dataplane.remove_rule_us": mean(fib, "dataplane.remove_rule", us),
        "dataplane.lec_deltas_per_update": per(fib, "dataplane.lec_deltas", updates),
        "verifier.handle_lec_deltas_us": mean(fib, "verifier.handle_lec_deltas", us),
        "verifier.handle_batch_us": mean(fib, "verifier.handle_batch", us),
        "verifier.handle_link_change_us": mean(link, "verifier.handle_link_change", us),
        "verifier.calls_per_update": per(
            fib, "verifier.handle_lec_deltas.calls", updates
        ) + per(fib, "verifier.handle_batch.calls", updates),
        "dvm.messages_per_update": per(fib, "dvm.messages", updates),
        "dvm.bytes_per_update": per(fib, "dvm.bytes", updates),
        "atomindex.atomize_us": mean(fib, "atomindex.atomize", us),
        "atomindex.atomize_n": atoms["atomize_calls"],
        "atomindex.num_atoms": atoms["atoms"],
        "atomindex.compactions": atoms["compactions"],
        "bdd.ops_per_update": per(fib, "bdd.ops", updates),
        "bdd.cache_hit_ratio": bdd["cache_hits"] / lookups if lookups else 0.0,
        "bdd.peak_nodes": bdd["peak_nodes"],
        "bdd.gc_runs": bdd["gc_runs"],
        "protocol.decode_us": decode_total / decode_calls * us if decode_calls else 0.0,
        "protocol.encode_us": mean(fib, "protocol.encode", us),
        "protocol.bytes_in_per_update": per(fib, "target.bytes_in", updates),
        "protocol.bytes_out_per_update": per(fib, "target.bytes_out", updates),
        "session.handle_request_us": mean(fib, "session.handle_request", us),
        "session.run_epoch_us": mean(fib, "session.run_epoch", us),
        "session.run_epoch_self_us": mean(fib, "session.run_epoch", us, "self"),
        "coalesce.drain_us": mean(fib, "coalesce.drain", us),
        "coalesce.ops_per_event": (
            session.total_ops / session.total_events
            if session is not None and session.total_events else 0.0
        ),
        "deltas.diff_us": mean(fib, "deltas.diff", us),
        "subscribe.filter_delta_us": mean(fib, "subscribe.filter_delta", us),
        "subscribe.delivered_share": per(
            fib, "target.delivered", fib.get("target.broadcast", 0)
        ),
        "slicing.add_invariant_s": setup.get("slicing.add_invariant.total", 0.0),
        "slicing.touched_by_update_us": mean(fib, "slicing.touched_by_update", us),
        "slicing.touched_by_link_us": mean(link, "slicing.touched_by_link", us),
        "slicing.invariants_of_us": mean(fib, "slicing.invariants_of", us),
        "slicing.touched_slices_per_update": per(
            fib, "slicing.touched_by_update.slices",
            fib.get("slicing.touched_by_update.calls", 0),
        ),
        "slicing.touched_slices_per_link_event": per(
            link, "slicing.touched_by_link.slices", link_events
        ),
        "histogram.record_us": mean(fib, "histogram.record", us),
        "histogram.samples_held": sum(len(h) for h in histograms),
        "trace.closure_ratio": 1.0 - steps_self / steps_total,
    }


def wire_layer(workload, plan, seconds, session_p50, daemon_core):
    """One daemon child, single-update steps only: what the socket adds to
    the in-process session on the same stream."""
    target = WireTarget(workload, plan.seed, with_reference=False,
                        daemon_core=daemon_core)
    try:
        target.deploy()
        wire = PhaseRunner(target, plan, None)
        wire.measure(seconds, rounds=1, shares={"single": 1.0})
        wire.finish()
    finally:
        target.close()
    return {
        "daemon.wire_overhead_ms": (quantile(wire.single, 0.5) - session_p50) * 1e3,
        "daemon.frames_per_epoch": target.frames / target.epochs,
        "daemon.frames_dropped": target.frames_dropped,
    }, wire


def parallel_layer(workload, plan, seconds):
    """The process backend with two workers on the same burst and batch
    stream.  Informational: it gives ROADMAP item 4 its measured row."""
    target = InProcessTarget(build_instance(workload, backend="process", workers=2))
    try:
        burst = target.deploy()
        phases = PhaseRunner(target, plan, None)
        phases.measure(seconds, rounds=1, shares={"batch": 1.0})
        phases.finish()
    finally:
        target.close()
    return {
        "parallel.burst_verify_s": burst,
        "parallel.updates_per_s": phases.batch_rate(),
    }, phases
