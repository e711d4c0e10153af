"""Parallel-backend speedup — serial simulator vs the process worker pool.

Burst-verifies fattree(8) ("FT-8") both ways and reports wall-clock times,
per-worker CPU times, and two speedup figures:

* **measured** — serial wall / parallel wall, the number you get on *this*
  machine.  Only meaningful as a parallelism claim when the host has at
  least as many cores as workers.
* **modelled** — serial wall / (max per-worker CPU + coordinator overhead),
  the wall-clock the pool would deliver with one core per worker.  On a
  single-core CI box the workers time-slice, so this is the honest
  scalability figure there.

A second benchmark runs the sharded-churn workload: a long single-rule
update stream on FT-8 under the atoms predicate index, process pool vs the
serial simulator, applied in small device-disjoint bursts (churn arrives in
bursts in practice; the DVM fixpoint is batching-independent, so verdicts
are unchanged).  The pool's persistent workers, coalesced update commands
and lazy verdict refresh are exactly what this stream exercises — each
update touches one shard and ships only that shard's delta back.  It too
reports measured and modelled rates: the stream splits across shards, so
the per-worker critical path is genuinely shorter than the serial pass.

Every run updates its row in ``BENCH_parallel_speedup.json`` in the repo
root (keyed on benchmark + workload, so re-runs replace rather than stack).
Both ``os.cpu_count()`` and the scheduler affinity are stored alongside;
on hosts without at least two schedulable cores the speedup assertion is
skipped and the row flagged ``speedup_asserted: false`` — a time-sliced
"loss" is not a parallelism result and must not read as one.
"""

import time
from pathlib import Path

import pytest

from benchmarks._common import (
    SCALE,
    fresh_rules,
    host_cores,
    print_header,
    print_row,
    record_trajectory,
)
from repro.dataplane.action import Action
from repro.dataplane.rule import Rule
from repro.datasets import build_dataset
from repro.sim import TulkunRunner, random_update_intents
from repro.sim.runner import _schedule_start

WORKERS = 4
# Smoke is a bitrot check on a workload too small to time; no floor there.
SPEEDUP_FLOORS = {"smoke": None, "small": 1.5, "large": 1.5}

# (pair_limit, rule_multiplier) for the FT-8 burst at each scale.
SIZES = {"smoke": (8, 1), "small": (24, 2), "large": (32, 4)}

# (pair_limit, rule_multiplier, num_intents) for the sharded-churn stream.
CHURN_SIZES = {"smoke": (6, 2, 8), "small": (32, 4, 40), "large": (32, 8, 80)}
CHURN_WORKERS = 2
CHURN_BATCH = 8  # updates per burst before converging
# Timed passes per backend (median-free: rates come from the totals).
CHURN_REPEATS = {"smoke": 1, "small": 3, "large": 3}
# Smoke is a bitrot check on a workload too small to time; no floor there.
CHURN_FLOORS = {"smoke": None, "small": 1.0, "large": 1.0}

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_parallel_speedup.json"
TRAJECTORY_KEY = ("bench", "scale", "dataset", "workers")


@pytest.mark.benchmark(group="parallel_speedup")
def test_parallel_speedup_ft8(benchmark):
    pair_limit, multiplier = SIZES[SCALE]
    host = host_cores()
    cores = min(host["cpu_count"], host["affinity_cores"])

    def measure():
        ds = build_dataset(
            "FT-8", pair_limit=pair_limit, seed=1, rule_multiplier=multiplier
        )
        serial = TulkunRunner(ds.topology, ds.ctx, ds.invariants)
        start = time.perf_counter()
        serial_result = serial.burst_update(fresh_rules(ds))
        serial_wall = time.perf_counter() - start

        ds2 = build_dataset(
            "FT-8", pair_limit=pair_limit, seed=1, rule_multiplier=multiplier
        )
        parallel = TulkunRunner(
            ds2.topology, ds2.ctx, ds2.invariants,
            backend="process", workers=WORKERS,
        )
        try:
            start = time.perf_counter()
            parallel_result = parallel.burst_update(fresh_rules(ds2))
            parallel_wall = time.perf_counter() - start
            metrics = parallel.network.metrics
            busy = [
                metrics.workers[wid].busy_time
                for wid in sorted(metrics.workers)
            ]
            stats = {
                "serial_wall_s": serial_wall,
                "parallel_wall_s": parallel_wall,
                "worker_cpu_s": busy,
                "coordinator_overhead_s": parallel_wall - sum(busy),
                "routed_messages": metrics.routed_messages,
                "routed_bytes": metrics.routed_bytes,
                "cut_links": parallel.network.cut_links,
                "verdict_parity": (
                    parallel_result.holds == serial_result.holds
                ),
            }
        finally:
            parallel.close()
        return stats

    stats = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert stats["verdict_parity"], "serial and process verdicts diverged"

    serial_wall = stats["serial_wall_s"]
    parallel_wall = stats["parallel_wall_s"]
    busy = stats["worker_cpu_s"]
    overhead = max(stats["coordinator_overhead_s"], 0.0)
    measured = serial_wall / parallel_wall
    # With one core per worker the pool's wall-clock is the slowest
    # worker's CPU time plus whatever the coordinator adds on top.
    modelled = serial_wall / (max(busy) + overhead)

    print_header(
        f"Parallel speedup [FT-8, {WORKERS} workers, "
        f"{host['cpu_count']} cpu / {host['affinity_cores']} schedulable]"
    )
    print_row("series", "time (ms)", "speedup")
    print_row("serial", f"{serial_wall * 1e3:.1f}", "1.00x")
    print_row("process", f"{parallel_wall * 1e3:.1f}", f"{measured:.2f}x")
    print_row(
        "modelled",
        f"{(max(busy) + overhead) * 1e3:.1f}",
        f"{modelled:.2f}x",
    )
    print_row(
        "worker CPU (s)",
        " ".join(f"{b:.3f}" for b in busy),
        f"+{overhead * 1e3:.0f}ms coord",
    )

    record = {
        "bench": "parallel_speedup",
        "dataset": "FT-8",
        "workers": WORKERS,
        **host,
        "scale": SCALE,
        "pair_limit": pair_limit,
        "rule_multiplier": multiplier,
        "measured_speedup": round(measured, 3),
        "modelled_speedup": round(modelled, 3),
        "speedup_asserted": SPEEDUP_FLOORS[SCALE] is not None and cores >= 2,
        **{
            k: (round(v, 4) if isinstance(v, float) else v)
            for k, v in stats.items()
            if k != "worker_cpu_s"
        },
        "worker_cpu_s": [round(b, 4) for b in busy],
    }
    record_trajectory(TRAJECTORY, record, TRAJECTORY_KEY)
    benchmark.extra_info.update(record)

    floor = SPEEDUP_FLOORS[SCALE]
    if floor is None:
        return
    if cores < 2:
        pytest.skip(
            f"single schedulable core ({host['cpu_count']} cpu, "
            f"{host['affinity_cores']} affinity): {WORKERS} workers "
            f"time-slice one core, so neither figure is a parallelism "
            f"result — recorded measured {measured:.2f}x / modelled "
            f"{modelled:.2f}x with speedup_asserted=false"
        )
    # The acceptance bar applies to the figure that is physically
    # meaningful on this host: measured wall-clock when there is a core per
    # worker, the modelled critical path otherwise.
    effective = measured if cores >= WORKERS else modelled
    assert effective >= floor, (
        f"parallel speedup {effective:.2f}x below {floor}x "
        f"(measured {measured:.2f}x, modelled {modelled:.2f}x, "
        f"{cores} core(s))"
    )
    if cores >= WORKERS:
        assert measured > 1.0, (
            f"process backend slower than serial ({measured:.2f}x) on a "
            f"{cores}-core host — the pool must win outright with a core "
            "per worker"
        )


def _batched_churn(network, intents, batch_size=CHURN_BATCH):
    """Apply an intent stream in device-disjoint bursts; return the number
    of updates applied.

    Intents resolve against the live plane, so a burst never touches the
    same device twice (its second resolution would race the first update's
    id churn); a change and its restore travel together — both are built
    from objects in hand.  Identical loop for both backends: batching is
    the workload model, not a backend-specific trick."""
    applied = 0
    touched = set()
    pending = 0

    def flush():
        nonlocal pending, touched
        if pending:
            network.run()
            pending = 0
            touched = set()

    for intent in intents:
        if intent.dev in touched or pending >= batch_size:
            flush()
        rules = network.devices[intent.dev].plane.rules
        if not rules:
            continue
        rule = rules[intent.rule_index % len(rules)]
        start = _schedule_start(network)
        touched.add(intent.dev)
        if intent.neutral:
            clone = Rule(rule.match, rule.action, rule.priority)
            network.apply_rule_updates(
                intent.dev, start, [(clone, rule.rule_id)]
            )
            pending += 1
            applied += 1
            continue
        if intent.new_next_hops:
            new_action = Action.forward_all(intent.new_next_hops)
        else:
            new_action = Action.drop()
        if new_action == rule.action:
            continue
        changed = Rule(rule.match, new_action, rule.priority)
        network.apply_rule_updates(
            intent.dev, start, [(changed, rule.rule_id)]
        )
        restored = Rule(rule.match, rule.action, rule.priority)
        network.apply_rule_updates(
            intent.dev, start, [(restored, changed.rule_id)]
        )
        pending += 2
        applied += 2
    flush()
    return applied


def _worker_busy(network):
    """Cumulative per-worker CPU seconds (forces a delta collect first)."""
    _ = network.kernel.events_processed
    return {wid: w.busy_time for wid, w in network.metrics.workers.items()}


def _churn_rates(pair_limit, multiplier, intents_count, backend):
    """(measured, modelled) updates/sec for the FT-8 churn stream.

    Fresh dataset per cell (no inherited BDD caches), atoms predicate
    index on both sides: the comparison isolates the execution backend.
    For the serial backend measured == modelled; for the process backend
    the modelled rate replaces total wall with the one-core-per-worker
    critical path (slowest worker's CPU + coordinator overhead)."""
    ds = build_dataset(
        "FT-8", pair_limit=pair_limit, seed=7, rule_multiplier=multiplier
    )
    kwargs = {"predicate_index": "atoms", "backend": backend}
    if backend == "process":
        kwargs["workers"] = CHURN_WORKERS
    runner = TulkunRunner(ds.topology, ds.ctx, ds.invariants, **kwargs)
    try:
        runner.burst_update(fresh_rules(ds))
        network = runner.network
        planes = {
            dev: network.devices[dev].plane for dev in ds.topology.devices
        }

        def stream():
            # Re-resolved each pass: rule ids churn, the shape does not.
            return random_update_intents(
                ds.topology, planes, intents_count, seed=9
            )

        _batched_churn(network, stream())  # warmup; restores the FIB
        busy_before = _worker_busy(network) if backend == "process" else {}
        applied = 0
        wall = 0.0
        for _ in range(CHURN_REPEATS[SCALE]):
            start = time.perf_counter()
            applied += _batched_churn(network, stream())
            wall += time.perf_counter() - start
        measured = applied / wall
        if backend == "process":
            busy = _worker_busy(network)
            deltas = [busy[w] - busy_before.get(w, 0.0) for w in busy]
            overhead = max(wall - sum(deltas), 0.0)
            modelled = applied / (max(deltas) + overhead)
        else:
            modelled = measured
        flags = {
            inv.name: {
                ingress: ok
                for ingress, (ok, _v) in network.verdicts(inv.name).items()
            }
            for inv in ds.invariants
        }
        return measured, modelled, flags
    finally:
        runner.close()


@pytest.mark.benchmark(group="parallel_speedup")
def test_sharded_churn_ft8(benchmark):
    """Process-atoms vs serial-atoms updates/s on the FT-8 churn stream.

    The asserted figure follows the host: measured wall when there is a
    core per worker, the critical-path model otherwise (the stream splits
    across shards, so the slowest worker's pass is genuinely shorter than
    the serial one — on one core the processes merely time-slice)."""
    pair_limit, multiplier, intents_count = CHURN_SIZES[SCALE]
    host = host_cores()
    cores = min(host["cpu_count"], host["affinity_cores"])

    rates = {}

    def measure():
        flags = {}
        for backend in ("serial", "process"):
            measured, modelled, flags[backend] = _churn_rates(
                pair_limit, multiplier, intents_count, backend
            )
            rates[backend] = measured
            rates[backend + "_modelled"] = modelled
        assert flags["serial"] == flags["process"], (
            "sharded churn verdicts diverged between backends"
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    measured_ratio = rates["process"] / rates["serial"]
    modelled_ratio = rates["process_modelled"] / rates["serial"]
    use_measured = cores >= CHURN_WORKERS
    effective = measured_ratio if use_measured else modelled_ratio

    print_header(
        f"Sharded churn [FT-8, atoms index, {CHURN_WORKERS} workers, "
        f"{intents_count} intents, scale={SCALE}]"
    )
    print_row("backend", "updates/s", "vs serial")
    print_row("serial", f"{rates['serial']:.1f}", "1.00x")
    print_row("process", f"{rates['process']:.1f}", f"{measured_ratio:.2f}x")
    print_row(
        "modelled",
        f"{rates['process_modelled']:.1f}",
        f"{modelled_ratio:.2f}x",
    )

    record = {
        "bench": "sharded_churn_ft8",
        "dataset": "FT-8",
        "workers": CHURN_WORKERS,
        **host,
        "scale": SCALE,
        "pair_limit": pair_limit,
        "rule_multiplier": multiplier,
        "intents": intents_count,
        "batch_size": CHURN_BATCH,
        "predicate_index": "atoms",
        "serial_updates_per_sec": round(rates["serial"], 2),
        "process_updates_per_sec": round(rates["process"], 2),
        "process_modelled_updates_per_sec": round(
            rates["process_modelled"], 2
        ),
        "measured_ratio": round(measured_ratio, 3),
        "modelled_ratio": round(modelled_ratio, 3),
        # The headline figure, from whichever comparison is physically
        # meaningful on this host.
        "process_over_serial": round(effective, 3),
        "effective_figure": "measured" if use_measured else "modelled",
        "speedup_asserted": CHURN_FLOORS[SCALE] is not None,
    }
    record_trajectory(TRAJECTORY, record, TRAJECTORY_KEY)
    benchmark.extra_info.update(record)

    floor = CHURN_FLOORS[SCALE]
    if floor is not None:
        assert effective >= floor, (
            f"process-atoms churn below serial-atoms: effective "
            f"{effective:.2f}x (measured {measured_ratio:.2f}x, modelled "
            f"{modelled_ratio:.2f}x, {cores} core(s)) — the persistent "
            "pool must not lose the sharded stream"
        )
