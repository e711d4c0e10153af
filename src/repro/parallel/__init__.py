"""Process-parallel execution backend for the on-device verifiers.

The serial simulator (:mod:`repro.sim`) measures Tulkun's behaviour under a
modelled clock; this package actually *runs* the per-device verification in
parallel: devices are partitioned across a *persistent* pool of worker
processes (:mod:`.pool` — spawned once, reset across deployments), rule and
task state ships as canonical BDD bytes (:mod:`repro.bdd.serialize`),
cross-worker DVM messages travel as :mod:`repro.core.wire` bytes over each
worker's command pipe, and the coordinator routes them without barriers,
credit-counting quiescence.  The DVM fixpoint is
order-independent, so verdicts stay byte-identical to the serial backend's.
Select it with ``TulkunRunner(..., backend="process")`` or
``python -m repro simulate --backend process``.
"""

from repro.parallel.coordinator import ParallelNetwork, default_worker_count
from repro.parallel.parity import canonical_counts, canonical_source_counts
from repro.parallel.partition import cut_edges, partition_devices
from repro.parallel.pool import WorkerPool

__all__ = [
    "ParallelNetwork",
    "default_worker_count",
    "canonical_counts",
    "canonical_source_counts",
    "cut_edges",
    "partition_devices",
    "WorkerPool",
]
