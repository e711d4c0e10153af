"""Atom-algebra microbenchmarks — packed bitsets vs frozensets, fused pass.

Two throughput figures for the packed-bitset atom universe:

* **bulk set ops** — the AtomSet algebra (``& | -`` plus covers/overlaps
  membership tests) over the atomized rule matches of a real dataset,
  against a *raw frozenset* baseline running the identical op sequence on
  the same id sets.  The baseline is conservative: the old AtomSet paid
  per-coerce re-resolution and wrapper overhead *on top of* frozenset
  costs, so the measured ratio understates the end-to-end win.

* **fused LEC+count passes** — full idempotent ``_recompute`` sweeps over
  every counting node of a converged FT-4 deployment: the one verifier
  text on the packed-int mask carrier (``atoms``, production) vs the same
  text on the BDD ``Predicate`` carrier (``bdd``, the parity oracle — a
  reference, not a deployable mode).  This is the steady-state verifier
  inner loop: LEC split, CIBIn lookups, ⊕/⊗ combination, verdict,
  announce-diff.

Every run updates its row (keyed on scale + workload) in
``BENCH_atom_ops.json`` in the repo root.  ``REPRO_BENCH_SCALE=smoke`` is
the CI bitrot check — tiny workload, records without asserting; ``small``
(default) and ``large`` assert the ≥2x bulk-op throughput floor.
"""

import random
import time
from pathlib import Path

import pytest

from benchmarks._common import (
    BDD_COLUMN,
    SCALE,
    fresh_rules,
    print_header,
    print_row,
    record_trajectory,
)
from repro.datasets import build_dataset
from repro.sim import TulkunRunner

# Bulk-op acceptance floor (bitset ops/sec over frozenset ops/sec).  Smoke
# rows carry no floor: the workload is too small to time meaningfully.
RATIO_FLOORS = {"smoke": None, "small": 2.0, "large": 2.0}

# Bulk ops run over INet2 (many distinct prefixes -> a wide atom universe);
# (dataset, pair_limit, rule_multiplier, rounds)
OP_WORKLOADS = {
    "smoke": ("INet2", 6, 4, 10),
    "small": ("INet2", 12, 32, 60),
    "large": ("INet2", 12, 64, 120),
}
# Fused passes run on the FT-4 deployment the churn benchmark uses;
# (dataset, pair_limit, rule_multiplier, rounds)
PASS_WORKLOADS = {
    "smoke": ("FT-4", 4, 2, 2),
    "small": ("FT-4", 16, 8, 10),
    "large": ("FT-4", 24, 16, 20),
}

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_atom_ops.json"
TRAJECTORY_KEY = ("scale", "benchmark", "dataset", "pair_limit",
                  "rule_multiplier")

NUM_OPERANDS = 96


def _operand_regions(ds, seed=7):
    """CIB-entry-shaped operands: unions of sampled rule matches.

    The hot-path sets are interests, CIB entries and LEC pieces — regions
    spanning *many* atoms, not single rule matches.  Sampling unions of
    the dataset's atomized matches reproduces that shape (mixed sizes up
    to roughly half the universe) over one shared index.
    """
    index = ds.ctx.atom_index()
    matches = []
    for rules in ds.rules_by_device.values():
        for rule in rules:
            matches.append(index.atomize(rule.match))
    matches = list({aset.mask(): aset for aset in matches}.values())
    rng = random.Random(seed)
    operands = []
    for _ in range(NUM_OPERANDS):
        k = rng.randint(2, max(3, len(matches) // 3))
        operands.append(index.union(rng.sample(matches, min(k, len(matches)))))
    return index, operands


def _run_op_sequence(operands, rounds):
    """The timed kernel: pairwise algebra + membership tests, cyclically."""
    n = len(operands)
    ops = 0
    acc = operands[0]
    start = time.perf_counter()
    for r in range(rounds):
        for i in range(n):
            a = operands[i]
            b = operands[(i + r + 1) % n]
            x = a & b
            y = a | b
            z = a - b
            acc = (acc | x) - z if (i & 1) else acc
            ops += 3
    wall = time.perf_counter() - start
    return ops / wall, wall, acc


def _run_test_sequence(operands, covers, overlaps, rounds):
    """Membership predicates (covers/overlaps) over the same pair stream."""
    n = len(operands)
    ops = 0
    sink = 0
    start = time.perf_counter()
    for r in range(rounds):
        for i in range(n):
            a = operands[i]
            b = operands[(i + r + 1) % n]
            sink += covers(a, b)
            sink += overlaps(a, b)
            ops += 2
    wall = time.perf_counter() - start
    return ops / wall, sink


@pytest.mark.benchmark(group="atom_ops")
def test_bulk_set_op_throughput(benchmark):
    name, pair_limit, multiplier, rounds = OP_WORKLOADS[SCALE]
    ds = build_dataset(
        name, pair_limit=pair_limit, seed=3, rule_multiplier=multiplier
    )
    index, asets = _operand_regions(ds)
    frozensets = [aset.ids() for aset in asets]

    results = {}

    def measure():
        # frozenset baseline first so the bitset run can't warm it.
        fs_rate, _, fs_acc = _run_op_sequence(frozensets, rounds)
        bs_rate, _, bs_acc = _run_op_sequence(asets, rounds)
        # Same op stream, same result — the ratio is representation only.
        assert bs_acc.ids() == fs_acc
        results["frozenset_ops_per_sec"] = fs_rate
        results["bitset_ops_per_sec"] = bs_rate
        fs_t, fs_sink = _run_test_sequence(
            frozensets, lambda a, b: b <= a,
            lambda a, b: not a.isdisjoint(b), rounds,
        )
        bs_t, bs_sink = _run_test_sequence(
            asets, lambda a, b: a.covers(b),
            lambda a, b: a.overlaps(b), rounds,
        )
        assert fs_sink == bs_sink
        results["frozenset_tests_per_sec"] = fs_t
        results["bitset_tests_per_sec"] = bs_t

    benchmark.pedantic(measure, rounds=1, iterations=1)

    ratio = results["bitset_ops_per_sec"] / results["frozenset_ops_per_sec"]
    test_ratio = (
        results["bitset_tests_per_sec"] / results["frozenset_tests_per_sec"]
    )
    print_header(
        f"Atom bulk set ops — {name} ×{multiplier} "
        f"({len(asets)} operands, {index.num_atoms} atoms, scale={SCALE})"
    )
    print_row("repr", "ops/s", "tests/s")
    print_row("frozenset", f"{results['frozenset_ops_per_sec']:.0f}",
              f"{results['frozenset_tests_per_sec']:.0f}")
    print_row("bitset", f"{results['bitset_ops_per_sec']:.0f}",
              f"{results['bitset_tests_per_sec']:.0f}")
    print_row("ratio", f"{ratio:.2f}x", f"{test_ratio:.2f}x")

    record_trajectory(
        TRAJECTORY,
        {
            "scale": SCALE,
            "benchmark": "bulk_set_ops",
            "dataset": name,
            "pair_limit": pair_limit,
            "rule_multiplier": multiplier,
            "operands": len(asets),
            "atoms": index.num_atoms,
            **{k: round(v, 2) for k, v in results.items()},
            "bitset_over_frozenset": round(ratio, 2),
            "tests_bitset_over_frozenset": round(test_ratio, 2),
            "ratio_floor": RATIO_FLOORS[SCALE],
            "speedup_asserted": RATIO_FLOORS[SCALE] is not None,
        },
        TRAJECTORY_KEY,
    )

    floor = RATIO_FLOORS[SCALE]
    if floor is not None:
        assert ratio >= floor, (
            f"packed bitset bulk ops {ratio:.2f}x over frozensets; "
            f"acceptance floor {floor}x"
        )


def _fused_pass_rate(ds_params, predicate_index, rounds):
    """Idempotent full recompute sweeps/sec on a converged deployment."""
    name, pair_limit, multiplier = ds_params
    ds = build_dataset(
        name, pair_limit=pair_limit, seed=3, rule_multiplier=multiplier
    )
    runner = TulkunRunner(
        ds.topology, ds.ctx, ds.invariants, predicate_index=predicate_index
    )
    try:
        runner.burst_update(fresh_rules(ds))
        verifiers = [
            v
            for dev in runner.network.devices.values()
            for v in dev.verifiers.values()
            if not v.is_local_check
        ]
        nodes = sum(len(v.nodes) for v in verifiers)

        def sweep():
            for v in verifiers:
                word = v._carrier.word
                for nid in v.nodes:
                    v._recompute(nid, word(v.state[nid].interest))

        sweep()  # warmup: populate split tables and kernel memos
        start = time.perf_counter()
        for _ in range(rounds):
            sweep()
        wall = time.perf_counter() - start
        return (rounds * nodes) / wall, nodes
    finally:
        runner.close()


@pytest.mark.benchmark(group="atom_ops")
def test_fused_pass_throughput(benchmark):
    name, pair_limit, multiplier, rounds = PASS_WORKLOADS[SCALE]
    results = {}

    def measure():
        for mode in ("bdd", "atoms"):
            rate, nodes = _fused_pass_rate(
                (name, pair_limit, multiplier), mode, rounds
            )
            results[mode] = rate
            results["nodes"] = nodes

    benchmark.pedantic(measure, rounds=1, iterations=1)

    speedup = results["atoms"] / results["bdd"]
    print_header(
        f"Fused LEC+count sweeps — {name} ×{multiplier} "
        f"({results['nodes']} nodes, scale={SCALE})"
    )
    print_row("mode", "node recomputes/s")
    print_row("bdd (ref)", f"{results['bdd']:.0f}")
    print_row("atoms", f"{results['atoms']:.0f}")
    print_row("speedup", f"{speedup:.2f}x")

    record_trajectory(
        TRAJECTORY,
        {
            "scale": SCALE,
            "benchmark": "fused_lec_count_pass",
            "dataset": name,
            "pair_limit": pair_limit,
            "rule_multiplier": multiplier,
            "nodes": results["nodes"],
            "bdd_recomputes_per_sec": round(results["bdd"], 2),
            "atoms_recomputes_per_sec": round(results["atoms"], 2),
            "speedup": round(speedup, 2),
            "bdd_column": BDD_COLUMN,
            # Informational series — no floor is enforced at any scale.
            "speedup_asserted": False,
        },
        TRAJECTORY_KEY,
    )
