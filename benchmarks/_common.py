"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index) and prints the same rows/series the paper
reports.  Absolute numbers differ — the substrate is a Python simulator, not
the authors' switches — but the comparisons (who wins, by roughly what
factor) are the reproduction target; EXPERIMENTS.md records both.

Scaling: set ``REPRO_BENCH_SCALE=large`` for bigger datasets / more samples
(several minutes), default ``small`` keeps the whole suite in a few minutes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.baselines import ALL_BASELINES
from repro.dataplane import DevicePlane, Rule
from repro.datasets import BuiltDataset, build_dataset
from repro.sim import TulkunRunner

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def host_cores() -> Dict[str, int]:
    """Both core figures a speedup claim needs: the machine's core count
    and the (possibly smaller) set this process may actually run on —
    containers and CI runners routinely pin affinity below ``cpu_count``."""
    cpu_count = os.cpu_count() or 1
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        affinity = cpu_count
    return {"cpu_count": cpu_count, "affinity_cores": affinity}


# What a ``bdd`` column in a trajectory row measures: the verifier, LEC
# maintenance and PredMap are one text over a region carrier, and ``bdd``
# runs it on the oracle.
BDD_COLUMN = "reference carrier (parity oracle), not a deployable mode"


def record_trajectory(path: Path, record: dict, key_fields: Sequence[str]) -> None:
    """Append ``record`` to the JSON trajectory at ``path``, replacing any
    existing entry with the same key in place.

    Keying on the workload parameters (scale, dataset, sizes) keeps the
    trajectory one-row-per-configuration: re-running a benchmark updates
    its row instead of stacking near-identical entries."""
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            history = []
    key = tuple(record.get(field) for field in key_fields)
    for i, entry in enumerate(history):
        if tuple(entry.get(field) for field in key_fields) == key:
            history[i] = record
            break
    else:
        history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")

# Datasets exercised per figure at each scale: (name, pair_limit, multiplier)
BURST_DATASETS = {
    "smoke": [("INet2", 4, 1), ("FT-4", 4, 1)],
    "small": [
        ("INet2", 12, 8),
        ("B4-13", 12, 4),
        ("STFD", 12, 4),
        ("AT1-1", 10, 1),
        ("AT1-2", 10, 4),
        ("FT-4", 16, 4),
        ("NGDC", 16, 2),
    ],
    "large": [
        ("INet2", None, 16),
        ("B4-13", 24, 8),
        ("STFD", 24, 8),
        ("AT1-1", 20, 1),
        ("AT1-2", 20, 4),
        ("B4-18", 20, 4),
        ("BTNA", 16, 2),
        ("NTT", 16, 2),
        ("AT2-1", 12, 1),
        ("AT2-2", 12, 8),
        ("OTEG", 10, 1),
        ("FT-4", 32, 8),
        ("FT-8", 24, 2),
        ("NGDC", 24, 4),
    ],
}

INCREMENTAL_DATASETS = {
    "smoke": [("INet2", 4, 1)],
    "small": [("INet2", 10, 8), ("B4-13", 10, 4), ("STFD", 10, 4)],
    "large": [
        ("INet2", 16, 16), ("B4-13", 16, 8), ("STFD", 16, 8),
        ("AT1-1", 12, 2), ("NTT", 10, 2), ("FT-4", 16, 4),
    ],
}

NUM_UPDATES = {"smoke": 4, "small": 8, "large": 40}
NUM_SCENES = {"smoke": 2, "small": 6, "large": 50}


def fresh_rules(ds: BuiltDataset) -> Dict[str, List[Rule]]:
    return {
        dev: [Rule(r.match, r.action, r.priority) for r in rules]
        for dev, rules in ds.rules_by_device.items()
    }


def fresh_planes(ds: BuiltDataset) -> Dict[str, DevicePlane]:
    planes: Dict[str, DevicePlane] = {}
    for dev, rules in fresh_rules(ds).items():
        plane = DevicePlane(dev, ds.ctx)
        plane.install_many(rules)
        planes[dev] = plane
    return planes


def dataset_for(name: str, pair_limit, multiplier: int, seed: int = 1) -> BuiltDataset:
    """A fresh dataset build (fresh BDD context — keeps tool timings fair:
    no tool inherits another's warm operation caches)."""
    return build_dataset(
        name, pair_limit=pair_limit, seed=seed, rule_multiplier=multiplier
    )


def run_tulkun_burst(ds: BuiltDataset, cpu_scale: float = 1.0):
    runner = TulkunRunner(ds.topology, ds.ctx, ds.invariants, cpu_scale=cpu_scale)
    result = runner.burst_update(fresh_rules(ds))
    return runner, result


def run_baseline_burst(tool_cls, name: str, pair_limit, multiplier: int):
    """Burst-verify with a freshly built dataset so BDD caches start cold."""
    ds = dataset_for(name, pair_limit, multiplier)
    tool = tool_cls(ds.topology, ds.ctx, ds.queries)
    report = tool.burst_verify(fresh_planes(ds))
    return ds, tool, report


def print_header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def print_row(*cells, widths=(12, 14, 14, 14, 10)) -> None:
    parts = []
    for cell, width in zip(cells, list(widths) + [12] * 10):
        parts.append(f"{cell!s:<{width}}")
    print("  ".join(parts))
