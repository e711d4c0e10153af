"""The four workloads and how one instance of each is built.

Every workload has the same shape (R fresh instances burst-deployed, then
warmup / single / link / batch phases on the last one), so every end-to-end
metric exists on every workload; they differ in which layers do the work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.invariant import Invariant
from repro.core.language import parse_packet_space
from repro.core.library import reachability
from repro.dataplane import Rule
from repro.datasets import BuiltDataset, build_dataset
from repro.datasets.routing import split_prefix
from repro.sim import TulkunRunner

__all__ = ["Workload", "WORKLOADS", "Instance", "build_instance"]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    pair_limit: Optional[int]
    rule_multiplier: Optional[int]  # None: the registry's own scaling
    dataset_seed: int
    instances: int                  # R: fresh instances built and deployed
    wire: bool = False              # a ServeDaemon child over loopback TCP
    tenants: int = 0                # >0: that many tenant slices, slices="auto"


# What each one is for is written once, in BENCHMARK.json ("why") and at
# length in README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("burst_ft8", "FT-8", pair_limit=192, rule_multiplier=8,
                 dataset_seed=7, instances=3),
        Workload("churn_ft4", "FT-4", pair_limit=None, rule_multiplier=32,
                 dataset_seed=7, instances=5),
        Workload("serve_churn_ft4", "FT-4", pair_limit=None, rule_multiplier=32,
                 dataset_seed=7, instances=3, wire=True),
        Workload("serve_tenants_ntt", "NTT", pair_limit=2, rule_multiplier=None,
                 dataset_seed=5, instances=2, wire=True, tenants=128),
    )
}


@dataclass
class Instance:
    """One built (not yet deployed) deployment of a workload."""

    dataset: BuiltDataset
    invariants: List[Invariant]
    rules: Dict[str, List[Rule]]
    # None in the generator of a wire workload: it needs the inputs to make
    # the op stream, never the planned runner.
    runner: Optional[TulkunRunner]
    # The verified (ingress, destination) pairs, one per invariant.
    pairs: List[Tuple[str, str]]
    # Per tenant (ingress device, sub-prefix); empty without tenants.
    tenant_spaces: List[Tuple[str, str]]


def tenant_invariants(ds: BuiltDataset, count: int):
    """``count`` overlapping tenant intents, as ``bench_slicing`` builds
    them: tenant k wants reachability (shortest+2) to its own sub-prefix of
    PoP ``k % D``'s block from a far ingress.  Device footprints overlap,
    packet spaces are pairwise disjoint."""
    devices = list(ds.topology.devices)
    ways = 1
    while ways * len(devices) < count:
        ways *= 2
    invariants, pairs, spaces = [], [], []
    for k in range(count):
        dest = devices[k % len(devices)]
        ingress = devices[(k * 13 + 5) % len(devices)]
        if ingress == dest:
            ingress = devices[(k * 13 + 6) % len(devices)]
        block = ds.topology.external_prefixes[dest][0]
        sub = split_prefix(block, ways)[k // len(devices)]
        space = parse_packet_space(ds.ctx, f"dst_ip = {sub}")
        invariants.append(
            dataclasses.replace(
                reachability(space, ingress, dest, max_extra_hops=2),
                name=f"t{k:04d}/reach",
            )
        )
        pairs.append((ingress, dest))
        spaces.append((ingress, sub))
    return invariants, pairs, spaces


def build_instance(
    workload: Workload, with_runner: bool = True, **runner_kwargs
) -> Instance:
    """Dataset, invariants, a fresh copy of the FIB and the planned runner
    (slice registry included) - everything before the burst."""
    ds = build_dataset(
        workload.dataset,
        pair_limit=workload.pair_limit,
        seed=workload.dataset_seed,
        rule_multiplier=workload.rule_multiplier,
    )
    spaces: List[Tuple[str, str]] = []
    invariants, pairs = list(ds.invariants), list(ds.pairs)
    if workload.tenants:
        invariants, pairs, spaces = tenant_invariants(ds, workload.tenants)
        runner_kwargs.setdefault("slices", "auto")
    rules = {
        dev: [Rule(r.match, r.action, r.priority) for r in dev_rules]
        for dev, dev_rules in ds.rules_by_device.items()
    }
    runner = None
    if with_runner:
        runner = TulkunRunner(ds.topology, ds.ctx, invariants, **runner_kwargs)
    return Instance(ds, invariants, rules, runner, pairs, spaces)
