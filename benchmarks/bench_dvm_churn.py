"""DVM incremental rule-churn throughput — atom index vs raw BDD algebra.

The §9.3.3-shaped workload: deploy a dataset, converge a burst install,
then apply a long stream of single-rule updates (half behaviour-preserving
route refreshes, the rest re-points with occasional drops, each followed by
a measured restore) and report sustained updates/sec.

Two runs per backend, identical except for the carrier the one verifier /
LEC / PredMap text runs on:

* **atoms** — the production carrier: regions are packed ``int`` masks over
  the dynamic atomic-predicate index, so every CIB/LEC split is inline int
  algebra; BDDs only run at refinement and wire boundaries.
* **bdd** — the reference carrier: the same text on canonical BDD
  ``Predicate``s, one BDD operation per ``&`` / ``|`` / ``& ~``.  It is the
  parity suites' oracle, not a deployable mode; its column is recorded to
  show what the mask carrier buys.

Both runs must produce identical verdicts (asserted here; the byte-level
parity is pinned by ``tests/test_predicate_index_parity.py``).  A warmup
pass (change + restore returns the FIB to its initial state) precedes the
timed pass so one-time costs — per-device atom bookkeeping builds, BDD
operation caches — are excluded from the steady-state rate on both sides.

Every run updates its row (keyed on the workload parameters — re-runs
replace, not stack) with all four baselines (serial/process × bdd/atoms)
in ``BENCH_dvm_churn.json`` in the repo root.

Scales: ``REPRO_BENCH_SCALE=smoke`` is the CI bitrot check (tiny workload,
no speedup assertion); ``small`` (default) and ``large`` assert the ≥3×
serial-backend acceptance bar.
"""

import json
import time
from pathlib import Path

import pytest

from benchmarks._common import (
    BDD_COLUMN,
    SCALE,
    print_header,
    print_row,
    record_trajectory,
)
from repro.core.language import parse_packet_space
from repro.dataplane import Action, Rule
from repro.datasets import build_dataset
from repro.serve import StreamSession
from repro.sim import TulkunRunner, apply_intents, random_update_intents

# Serial-backend atoms/bdd acceptance floor, per scale.  Smoke is a bitrot
# check on a workload too small to time meaningfully: no floor applies, and
# its trajectory rows must not carry one (a 3.0x bar on a smoke row reads
# as a standing failure in the history).
SPEEDUP_FLOORS = {"smoke": None, "small": 3.0, "large": 3.0}

# (dataset, pair_limit, rule_multiplier, num_intents)
SERIAL_WORKLOADS = {
    "smoke": [("FT-4", 4, 2, 6)],
    "small": [("FT-4", 16, 32, 60)],
    "large": [("FT-4", 24, 32, 120), ("INet2", 12, 32, 120)],
}
# The process backend pays a pipe round trip per update round; a shorter
# stream keeps the wall time sane and the rate is reported, not asserted
# (IPC dominates, so the algebra speedup is structurally damped there).
PROCESS_INTENTS = {"smoke": 4, "small": 12, "large": 24}
PROCESS_WORKERS = 2

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_dvm_churn.json"
TRAJECTORY_KEY = (
    "scale", "dataset", "pair_limit", "rule_multiplier", "intents", "mode",
)

# Steady-state serving workloads: (dataset, pair_limit, rule_multiplier,
# update_count, coalesce_chunk).  The serving pipeline (protocol decode →
# validation → coalescer → epoch → delta) must sustain ≥ RATIO_FLOOR × the
# raw apply_updates batch rate on the same op stream — i.e. staying resident
# behind the daemon costs at most ~10% over driving the runner directly.
STREAM_WORKLOADS = {
    "smoke": [("FT-4", 4, 2, 24, 4)],
    "small": [("FT-4", 16, 32, 96, 8)],
    "large": [("FT-4", 24, 32, 192, 8), ("INet2", 12, 32, 192, 8)],
}
STREAM_RATIO_FLOORS = {"smoke": None, "small": 0.9, "large": 0.9}


def _fresh_rules(ds):
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in rules]
        for dev, rules in ds.rules_by_device.items()
    }


def _verdict_flags(runner, invariants):
    return {
        inv.name: {
            ingress: ok
            for ingress, (ok, _v) in runner.network.verdicts(inv.name).items()
        }
        for inv in invariants
    }


def _churn_rate(name, pair_limit, multiplier, intents_count,
                predicate_index, backend):
    """Sustained updates/sec for one (dataset, mode, backend) cell.

    A fresh dataset per cell keeps the comparison fair: neither mode
    inherits the other's warm BDD caches or atom boundaries."""
    ds = build_dataset(
        name, pair_limit=pair_limit, seed=3, rule_multiplier=multiplier
    )
    kwargs = {"predicate_index": predicate_index, "backend": backend}
    if backend == "process":
        kwargs["workers"] = PROCESS_WORKERS
    runner = TulkunRunner(ds.topology, ds.ctx, ds.invariants, **kwargs)
    try:
        runner.burst_update(_fresh_rules(ds))
        planes = {
            dev: runner.network.devices[dev].plane
            for dev in ds.topology.devices
        }
        intents = random_update_intents(
            ds.topology, planes, intents_count, seed=5
        )
        apply_intents(runner, intents)  # warmup; restores the FIB
        start = time.perf_counter()
        outcome = apply_intents(runner, intents)
        wall = time.perf_counter() - start
        flags = _verdict_flags(runner, ds.invariants)
        return len(outcome.times) / wall, flags
    finally:
        runner.close()


@pytest.mark.benchmark(group="dvm_churn")
@pytest.mark.parametrize(
    "name,pair_limit,multiplier,intents",
    SERIAL_WORKLOADS[SCALE],
    ids=[entry[0] for entry in SERIAL_WORKLOADS[SCALE]],
)
def test_dvm_churn(benchmark, name, pair_limit, multiplier, intents):
    results = {}

    def measure():
        for backend, count in (
            ("serial", intents),
            ("process", PROCESS_INTENTS[SCALE]),
        ):
            flags = {}
            for mode in ("bdd", "atoms"):
                rate, flags[mode] = _churn_rate(
                    name, pair_limit, multiplier, count, mode, backend
                )
                results[(backend, mode)] = rate
            # Same workload, same verdicts — the speedup is representation
            # only.  (Byte-level parity is pinned in the test suite.)
            assert flags["bdd"] == flags["atoms"], (
                f"verdict mismatch between predicate-index modes ({backend})"
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)

    speedups = {
        backend: results[(backend, "atoms")] / results[(backend, "bdd")]
        for backend in ("serial", "process")
    }
    print_header(
        f"DVM incremental churn — {name} ×{multiplier} "
        f"({intents} intents, scale={SCALE})"
    )
    print_row("backend", "bdd (ref) up/s", "atoms up/s", "speedup")
    for backend in ("serial", "process"):
        print_row(
            backend,
            f"{results[(backend, 'bdd')]:.1f}",
            f"{results[(backend, 'atoms')]:.1f}",
            f"{speedups[backend]:.2f}x",
        )

    record_trajectory(
        TRAJECTORY,
        {
            "scale": SCALE,
            "dataset": name,
            "pair_limit": pair_limit,
            "rule_multiplier": multiplier,
            "intents": intents,
            "mode": "batch",
            "updates_per_sec": {
                f"{backend}_{mode}": results[(backend, mode)]
                for backend, mode in results
            },
            "speedup": {
                backend: speedups[backend] for backend in speedups
            },
            "speedup_floor": SPEEDUP_FLOORS[SCALE],
            "bdd_column": BDD_COLUMN,
            # Smoke rows are bitrot checks: no floor was enforced, so a
            # sub-floor ratio there must not read as a standing loss.
            "speedup_asserted": SPEEDUP_FLOORS[SCALE] is not None,
        },
        TRAJECTORY_KEY,
    )

    floor = SPEEDUP_FLOORS[SCALE]
    if floor is not None:
        assert speedups["serial"] >= floor, (
            f"atoms predicate index {speedups['serial']:.2f}x over bdd on "
            f"{name} (serial churn); acceptance floor {floor}x"
        )


# ----------------------------------------------------------------------
# Steady-state streaming mode (`pytest benchmarks/bench_dvm_churn.py
# --streaming`): the serving pipeline vs raw apply_updates on the same
# op stream.
# ----------------------------------------------------------------------
def _shadow_chunks(ds, count, chunk):
    """A deterministic shadow-rule churn plan over the dataset's query
    prefixes: step ``i`` installs shadow key ``i`` at its query's ingress
    and (once the window is full) withdraws the key installed ``chunk``
    steps earlier.  Installs and removals inside one chunk therefore touch
    disjoint keys — the coalescer cannot squash anything away, so both
    legs apply the identical op multiset per epoch."""
    devs = [q.ingress for q in ds.queries]
    prefixes = [q.prefix for q in ds.queries]
    steps = []
    for i in range(count):
        step = {
            "key": f"shadow:{i}",
            "device": devs[i % len(devs)],
            "prefix": prefixes[i % len(prefixes)],
        }
        if i >= chunk:
            step["remove_key"] = f"shadow:{i - chunk}"
            step["remove_device"] = devs[(i - chunk) % len(devs)]
        steps.append(step)
    return [steps[i:i + chunk] for i in range(0, len(steps), chunk)]


def _stream_batch_rate(name, pair_limit, multiplier, count, chunk):
    """Reference leg: the same chunked op stream driven straight into
    ``TulkunRunner.apply_updates`` (one quiescence epoch per chunk), rule
    objects prepared outside the timed window."""
    ds = build_dataset(
        name, pair_limit=pair_limit, seed=3, rule_multiplier=multiplier
    )
    runner = TulkunRunner(
        ds.topology, ds.ctx, ds.invariants, predicate_index="atoms"
    )
    try:
        runner.burst_update(_fresh_rules(ds))
        live, prepared, total_ops = {}, [], 0
        for steps in _shadow_chunks(ds, count, chunk):
            updates = []
            for step in steps:
                if "remove_key" in step:
                    gone = live.pop(step["remove_key"])
                    updates.append((step["remove_device"], None, gone.rule_id))
                rule = Rule(
                    parse_packet_space(ds.ctx, f"dst_ip = {step['prefix']}"),
                    Action.drop(),
                    0,
                )
                live[step["key"]] = rule
                updates.append((step["device"], rule, None))
            prepared.append(updates)
            total_ops += len(updates)
        start = time.perf_counter()
        for updates in prepared:
            runner.apply_updates(updates)
        wall = time.perf_counter() - start
        return total_ops / wall, runner.statuses()
    finally:
        runner.close()


def _stream_serve_rate(name, pair_limit, multiplier, count, chunk):
    """Serving leg: the identical op stream as ``tulkun-serve-v1`` lines
    through a resident :class:`StreamSession` — protocol decode, validation,
    coalescing and delta emission all inside the timed window, one flushed
    epoch per chunk."""
    ds = build_dataset(
        name, pair_limit=pair_limit, seed=3, rule_multiplier=multiplier
    )
    runner = TulkunRunner(
        ds.topology, ds.ctx, ds.invariants, predicate_index="atoms"
    )
    session = StreamSession(runner, _fresh_rules(ds))
    try:
        session.start()
        line_chunks, total_ops = [], 0
        for steps in _shadow_chunks(ds, count, chunk):
            lines = []
            for step in steps:
                if "remove_key" in step:
                    lines.append(json.dumps({
                        "op": "update",
                        "device": step["remove_device"],
                        "remove": step["remove_key"],
                    }))
                lines.append(json.dumps({
                    "op": "update",
                    "device": step["device"],
                    "install": {
                        "key": step["key"],
                        "match": f"dst_ip = {step['prefix']}",
                        "action": "drop",
                        "priority": 0,
                    },
                }))
            line_chunks.append(lines)
            total_ops += len(lines)
        start = time.perf_counter()
        for lines in line_chunks:
            for line in lines:
                reply = session.handle_line(line)
                assert not any(
                    frame["frame"] == "error" for frame in reply.frames
                ), reply.frames
            session.run_epoch("flush")
        wall = time.perf_counter() - start
        return total_ops / wall, runner.statuses(), session.histogram.summary()
    finally:
        session.close()


@pytest.mark.streaming
@pytest.mark.benchmark(group="dvm_streaming")
@pytest.mark.parametrize(
    "name,pair_limit,multiplier,updates,chunk",
    STREAM_WORKLOADS[SCALE],
    ids=[entry[0] for entry in STREAM_WORKLOADS[SCALE]],
)
def test_dvm_streaming(benchmark, name, pair_limit, multiplier, updates, chunk):
    results = {}

    def measure():
        batch_rate, batch_statuses = _stream_batch_rate(
            name, pair_limit, multiplier, updates, chunk
        )
        serve_rate, serve_statuses, latency = _stream_serve_rate(
            name, pair_limit, multiplier, updates, chunk
        )
        # Same op stream, same epochs — the serving pipeline must land on
        # the same verdicts as driving the runner directly.
        assert serve_statuses == batch_statuses, "serving verdicts diverged"
        results.update(
            batch=batch_rate, streaming=serve_rate, latency=latency
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)

    ratio = results["streaming"] / results["batch"]
    latency = results["latency"]
    print_header(
        f"DVM steady-state serving — {name} ×{multiplier} "
        f"({updates} updates, chunk={chunk}, scale={SCALE})"
    )
    print_row("leg", "ops/s", "p50 ms", "p99 ms")
    print_row("batch", f"{results['batch']:.1f}", "-", "-")
    print_row(
        "streaming",
        f"{results['streaming']:.1f}",
        f"{latency['p50'] * 1e3:.2f}",
        f"{latency['p99'] * 1e3:.2f}",
    )
    print_row("ratio", f"{ratio:.3f}", "", "")

    record_trajectory(
        TRAJECTORY,
        {
            "scale": SCALE,
            "dataset": name,
            "pair_limit": pair_limit,
            "rule_multiplier": multiplier,
            "intents": updates,
            "mode": "streaming",
            "chunk": chunk,
            "updates_per_sec": {
                "batch_serial_atoms": results["batch"],
                "streaming_serial_atoms": results["streaming"],
            },
            "verdict_latency": latency,
            "ratio": ratio,
            "ratio_floor": STREAM_RATIO_FLOORS[SCALE],
            "speedup_asserted": STREAM_RATIO_FLOORS[SCALE] is not None,
        },
        TRAJECTORY_KEY,
    )

    floor = STREAM_RATIO_FLOORS[SCALE]
    if floor is not None:
        assert ratio >= floor, (
            f"streaming serving sustained only {ratio:.3f}x of the batch "
            f"apply_updates rate on {name}; acceptance floor {floor}x"
        )
