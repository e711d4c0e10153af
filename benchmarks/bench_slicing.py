"""Slice-aware routing — update cost vs tenant-slice count.

The multi-tenant scaling claim behind ``src/repro/slicing``: with K tenant
intents resident, the cost of one FIB update must scale with the number of
slices the update *touches* (here: exactly one), not with K.  The broadcast
reference router (``tests/broadcast.py``) pays O(K) per update — every
verifier on the updated device inspects the LEC delta, and every invariant
is re-gathered for the verdict sweep — while the sliced runner routes the
update through the registry's inverted footprint index to the single
intersecting slice and answers every other tenant from its cached verdict.

Workload: a WAN-zoo topology (NTT, 47 PoPs) with synthesized shortest-path
FIBs; K overlapping tenant intents, each a reachability invariant over its
own sub-prefix of a PoP's address block (device footprints overlap heavily
across tenants, packet spaces are disjoint).  The update stream cycles over
tenants: withdraw one tenant's traffic at its ingress (a winning drop rule),
re-verify, restore, re-verify — each op flips exactly one slice.  Median
per-op verdict latency (apply + status sweep) and sustained ops/sec are
reported for the sliced and the broadcast runner on the identical stream,
with verdict parity asserted between the two.

Acceptance (scales ``small``/``large``): at ≥100 resident slices the sliced
median latency must be ≤0.5× the broadcast median.  ``smoke`` records the
same rows without asserting — flagged ``speedup_asserted: false`` so a
too-small-to-time run never reads as a standing loss in the trajectory
(``BENCH_slicing.json``, rows keyed on scale/topology/slice count).
"""

import dataclasses
import statistics
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
from repro.core.language import parse_packet_space
from repro.core.library import reachability
from repro.dataplane import Action, Rule
from repro.datasets import build_dataset
from repro.datasets.routing import split_prefix
from repro.sim import TulkunRunner
from tests.broadcast import broadcast_routing

TOPOLOGY = "NTT"  # WAN-zoo style: 47 PoPs, rocketfuel-like mesh

# Resident tenant-slice counts per scale; the acceptance bar applies from
# ASSERT_MIN_SLICES up (below that the O(K) term is too small to dominate).
SLICE_COUNTS = {"smoke": [1, 8, 32], "small": [1, 32, 128], "large": [1, 100, 1000]}
UPDATES = {"smoke": 12, "small": 48, "large": 96}
LATENCY_CEILINGS = {"smoke": None, "small": 0.5, "large": 0.5}
ASSERT_MIN_SLICES = 100

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_slicing.json"
TRAJECTORY_KEY = ("scale", "topology", "slices", "updates")


def tenant_invariants(ds, count):
    """``count`` overlapping tenant intents: tenant k wants reachability to
    its own sub-prefix of PoP ``k % D``'s block from a pseudo-random far
    ingress.  Footprints overlap (paths share the WAN core); packet spaces
    are pairwise disjoint (distinct sub-prefixes)."""
    devices = list(ds.topology.devices)
    ways = 1
    while ways * len(devices) < count:
        ways *= 2
    invariants, spaces = [], []
    for k in range(count):
        dest = devices[k % len(devices)]
        ingress = devices[(k * 13 + 5) % len(devices)]
        if ingress == dest:
            ingress = devices[(k * 13 + 6) % len(devices)]
        block = ds.topology.external_prefixes[dest][0]
        sub = split_prefix(block, ways)[k // len(devices)]
        space = parse_packet_space(ds.ctx, f"dst_ip = {sub}")
        # shortest+2 length bound (§9.2's practical filter): keeps the
        # DPVNet unroll shallow so K-invariant deployments stay tractable.
        inv = dataclasses.replace(
            reachability(space, ingress, dest, max_extra_hops=2),
            name=f"t{k:04d}/reach",
        )
        invariants.append(inv)
        spaces.append((ingress, sub))
    return invariants, spaces


def _bench_leg(broadcast, count, num_updates):
    """One runner (sliced, or routing by broadcast) under the identical
    tenant set + update stream.  Returns (per-op latencies, final
    statuses)."""
    ds = build_dataset(TOPOLOGY, pair_limit=2, seed=5)
    invariants, spaces = tenant_invariants(ds, count)
    if broadcast:
        with broadcast_routing():
            runner = TulkunRunner(
                ds.topology, ds.ctx, invariants, cpu_scale=0.0
            )
    else:
        runner = TulkunRunner(
            ds.topology, ds.ctx, invariants, cpu_scale=0.0, slices="auto"
        )
    try:
        runner.burst_update(fresh_rules(ds))
        runner.statuses()
        steps = []
        for i in range(num_updates):
            ingress, sub = spaces[i % count]
            rule = Rule(
                parse_packet_space(ds.ctx, f"dst_ip = {sub}"),
                Action.drop(),
                500,  # outranks the synthesized LPM rules: the drop wins
            )
            steps.append((ingress, rule))
        # Warmup pass: populates split tables, BDD memos and the registry's
        # lazily built slice handles; restores the FIB.
        for dev, rule in steps:
            runner.apply_updates([(dev, rule, None)])
            runner.statuses()
            runner.apply_updates([(dev, None, rule.rule_id)])
            runner.statuses()
        latencies = []
        for dev, rule in steps:
            start = time.perf_counter()
            runner.apply_updates([(dev, rule, None)])
            runner.statuses()
            latencies.append(time.perf_counter() - start)
            start = time.perf_counter()
            runner.apply_updates([(dev, None, rule.rule_id)])
            statuses = runner.statuses()
            latencies.append(time.perf_counter() - start)
        return latencies, statuses
    finally:
        runner.close()


def _percentile(latencies, q):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@pytest.mark.slicing
@pytest.mark.benchmark(group="slicing")
@pytest.mark.parametrize("count", SLICE_COUNTS[SCALE])
def test_slicing_scaling(benchmark, count):
    num_updates = UPDATES[SCALE]
    results = {}

    def measure():
        broadcast, base_statuses = _bench_leg(True, count, num_updates)
        sliced, slice_statuses = _bench_leg(False, count, num_updates)
        # Routing is a scheduling optimization only: identical verdicts.
        assert slice_statuses == base_statuses, (
            "sliced and broadcast verdicts diverged"
        )
        results["broadcast"] = broadcast
        results["sliced"] = sliced

    benchmark.pedantic(measure, rounds=1, iterations=1)

    stats = {}
    for leg, latencies in results.items():
        stats[leg] = {
            "median_ms": statistics.median(latencies) * 1e3,
            "p99_ms": _percentile(latencies, 0.99) * 1e3,
            "ops_per_sec": len(latencies) / sum(latencies),
        }
    ratio = stats["sliced"]["median_ms"] / stats["broadcast"]["median_ms"]

    ceiling = LATENCY_CEILINGS[SCALE]
    asserted = ceiling is not None and count >= ASSERT_MIN_SLICES

    print_header(
        f"Slice routing — {TOPOLOGY}, {count} tenant slices, "
        f"{len(results['sliced'])} timed ops (scale={SCALE})"
    )
    print_row("leg", "median ms", "p99 ms", "ops/s")
    for leg in ("broadcast", "sliced"):
        print_row(
            leg,
            f"{stats[leg]['median_ms']:.3f}",
            f"{stats[leg]['p99_ms']:.3f}",
            f"{stats[leg]['ops_per_sec']:.1f}",
        )
    print_row("ratio", f"{ratio:.3f}x", "", f"(asserted: {asserted})")

    record = {
        "scale": SCALE,
        "topology": TOPOLOGY,
        "slices": count,
        "updates": len(results["sliced"]),
        **host_cores(),
        "broadcast": {k: round(v, 4) for k, v in stats["broadcast"].items()},
        "sliced": {k: round(v, 4) for k, v in stats["sliced"].items()},
        "sliced_over_broadcast_median": round(ratio, 4),
        "latency_ceiling": ceiling if asserted else None,
        # PR 7 convention: rows where no bar was enforced say so explicitly,
        # so a smoke-scale (or low-K) "loss" never reads as a regression.
        "speedup_asserted": asserted,
    }
    record_trajectory(TRAJECTORY, record, TRAJECTORY_KEY)
    benchmark.extra_info.update(record)

    if asserted:
        assert ratio <= ceiling, (
            f"sliced median latency {ratio:.3f}x of broadcast with {count} "
            f"resident slices; acceptance ceiling {ceiling}x — update cost "
            "must track touched slices, not tenant count"
        )
