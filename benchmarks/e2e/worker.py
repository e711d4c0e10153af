"""Run one workload in this (fresh) process and print its result as JSON.

The orchestrator (``cli.py``) starts one worker per workload run so that
no run inherits another's heap, caches or rule-id counter.  The last line
of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import ROOT
from benchmarks.e2e.phases import (
    MIN_P95_SAMPLES,
    ROUNDS,
    SHARES,
    PhaseRunner,
    Reference,
    replay_reference,
)
from benchmarks.e2e.streams import StreamPlan, make_plan
from benchmarks.e2e.targets import (
    InProcessTarget,
    WireTarget,
    peak_rss_mb,
    pin_to,
)
from benchmarks.e2e.workloads import WORKLOADS, Workload, build_instance

SMOKE_SAMPLES = 20


def cores() -> Tuple[Optional[int], Optional[int]]:
    """(generator core, program core): one each when two are available,
    otherwise no pinning.  The program - the process hosting the
    ``TulkunRunner`` - gets the highest-numbered core."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[-1]


def private_reference(workload: Workload, plan: StreamPlan) -> Reference:
    """R = 1: no spare instance exists, so build one just for the replay."""
    target = InProcessTarget(build_instance(workload))
    try:
        target.deploy()
        return replay_reference(target.runner, plan, target.renderer)
    finally:
        target.close()


def commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # the driver's checkout is not a repository
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or None


def provenance(workload: Workload, plan: StreamPlan, seconds: float,
               instances: int, pins: Dict[str, Optional[int]]) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "seed": plan.seed,
        "stream_sha256": plan.sha256(),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": pins,
        "measured_seconds": seconds,
        "phase_shares": SHARES,
        "rounds": ROUNDS,
        "instances": instances,
    }


# ----------------------------------------------------------------------
def run_in_process(workload: Workload, seed: int, seconds: float,
                   instances: int, min_samples: int) -> Dict[str, object]:
    _generator_core, program_core = cores()
    pin_to(program_core)
    setups: List[float] = []
    bursts: List[float] = []
    reference = None
    target = None
    try:
        for index in range(instances):
            if target is not None:
                # Drop the spent instance before the next is built: left
                # alive, its heap is traversed by every full collection of
                # the next burst (0.2 s of 1.5 s on burst_ft8).
                target.close()
                target = None
            gc.collect()
            start = time.perf_counter()
            instance = build_instance(workload)
            setups.append(time.perf_counter() - start)
            target = InProcessTarget(instance)
            del instance
            bursts.append(target.deploy())
            if index == 0:
                plan = make_plan(workload, target.instance, seed)
                if instances > 1:
                    reference = replay_reference(
                        target.runner, plan, target.renderer
                    )
        if reference is None:
            reference = private_reference(workload, plan)
        phases = PhaseRunner(target, plan, reference)
        warmup = phases.warmup()
        phases.measure(seconds)
        metrics = phases.end_to_end(min_samples)
        metrics["peak_rss_mb"] = peak_rss_mb()
        phases.finish()
    finally:
        if target is not None:
            target.close()
    metrics["setup_s"] = statistics.median(setups) + warmup
    metrics["burst_verify_s"] = statistics.median(bursts)
    return result(
        workload, phases, metrics,
        provenance(workload, plan, seconds, instances,
                   {"program": program_core}),
    )


def run_wire(workload: Workload, seed: int, seconds: float,
             instances: int, min_samples: int) -> Dict[str, object]:
    generator_core, program_core = cores()
    pin_to(generator_core)
    plan = make_plan(workload, build_instance(workload, with_runner=False), seed)
    setups: List[float] = []
    bursts: List[float] = []
    reference = None
    if instances == 1:
        reference = private_reference(workload, plan)
    for index in range(instances):
        gc.collect()
        spare = index < instances - 1
        target = WireTarget(
            workload, seed, with_reference=(spare and index == 0),
            daemon_core=program_core,
        )
        try:
            target.deploy()
            setups.append(target.setup_seconds)
            if not spare:
                phases = PhaseRunner(target, plan, reference)
                warmup = phases.warmup()
                phases.measure(seconds)
                metrics = phases.end_to_end(min_samples)
                phases.finish()
        finally:
            info = target.close()
        bursts.append(info["burst_verify_s"])
        if "reference" in info:
            reference = Reference(**info["reference"])
    metrics["peak_rss_mb"] = info["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(setups) + warmup
    metrics["burst_verify_s"] = statistics.median(bursts)
    return result(
        workload, phases, metrics,
        provenance(workload, plan, seconds, instances,
                   {"generator": generator_core, "daemon": program_core}),
    )


def result(workload: Workload, phases: PhaseRunner, metrics: Dict[str, float],
           stamp: Dict[str, object]) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "metrics": metrics,
        "ops_attempted": phases.attempted,
        "ops_failed": phases.failed,
        "failures": phases.failures,
        "samples": {
            "single": len(phases.single),
            "link": sum(len(v) for v in phases.link_samples.values()),
            "batch_ops": phases.batch_ops,
        },
        "provenance": stamp,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="R=1, and p95 from as few as 20 samples")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    instances = 1 if args.smoke else workload.instances
    min_samples = SMOKE_SAMPLES if args.smoke else MIN_P95_SAMPLES
    if args.trace:
        from benchmarks.e2e.traced import run_traced

        out = run_traced(workload, args.seed, args.seconds)
    elif workload.wire:
        out = run_wire(workload, args.seed, args.seconds, instances, min_samples)
    else:
        out = run_in_process(workload, args.seed, args.seconds, instances, min_samples)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
