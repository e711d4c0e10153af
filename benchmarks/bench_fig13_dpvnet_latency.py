"""Figure 13 — planner latency to compute k-link-failure-tolerant DPVNets.

For each topology and k ∈ {0, 1, 2}: the wall-clock time the planner needs
to precompute the fault-tolerant DPVNet for a (≤ shortest+1) reachability
invariant (symbolic filter → the full §6 per-scene labeling algorithm).
The paper's shape: steep growth in k (scene count is C(links, k)).

``any_3`` on the larger WANs is capped by ``max_scenes`` at small scale —
uncapped it is exactly the paper's up-to-1440-second regime.
"""

import time

import pytest

from benchmarks._common import SCALE, print_header, print_row
from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.core.counting import CountExp
from repro.core.fault import compute_fault_plan
from repro.core.invariant import (
    Atom,
    FaultSpec,
    Invariant,
    LengthFilter,
    MatchKind,
    PathExpr,
)
from repro.core.planner import Planner
from repro.datasets import build_dataset

TOPOLOGIES = {
    "smoke": ["INet2", "FT-4"],
    "small": ["INet2", "B4-13", "FT-4"],
    "large": ["INet2", "B4-13", "STFD", "AT1-1", "BTNA", "FT-4", "NGDC"],
}
MAX_K = {"smoke": 1, "small": 2, "large": 3}
MAX_SCENES = {"smoke": 20, "small": 60, "large": None}


def _invariant(ds, k):
    src, dst = ds.pairs[0]
    space = ds.ctx.ip_prefix(ds.topology.external_prefixes[dst][0])
    return Invariant(
        space,
        (src,),
        Atom(
            PathExpr.parse(
                f"{src} .* {dst}", (LengthFilter("<=", "shortest", 1),), True
            ),
            MatchKind.EXIST,
            CountExp(">=", 1),
        ),
        FaultSpec.up_to(k) if k else None,
        name=f"ft{k}_{src}_{dst}",
    )


@pytest.mark.benchmark(group="fig13")
@pytest.mark.parametrize("name", TOPOLOGIES[SCALE])
def test_fig13_dpvnet_computation_latency(benchmark, name):
    ds = build_dataset(name, pair_limit=4, seed=1)
    planner = Planner(ds.topology, ds.ctx)
    timings = {}

    def run_all():
        for k in range(0, MAX_K[SCALE] + 1):
            start = time.perf_counter()
            if k == 0:
                planner.build_dpvnet(_invariant(ds, 0))
            else:
                compute_fault_plan(
                    planner, _invariant(ds, k), max_scenes=MAX_SCENES[SCALE]
                )
            timings[k] = time.perf_counter() - start
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_header(f"Figure 13 [{name}]: fault-tolerant DPVNet computation latency")
    print_row("k", "time (s)")
    previous = None
    for k, seconds in sorted(timings.items()):
        print_row(k, f"{seconds:.4f}")
        benchmark.extra_info[f"k{k}_s"] = seconds
        previous = seconds
    # Latency must grow with k (the paper's monotone trend).
    assert timings[MAX_K[SCALE]] >= timings[0]
