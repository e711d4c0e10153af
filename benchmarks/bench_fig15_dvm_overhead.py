"""Figure 15 — DVM UPDATE message processing overhead.

Drives a burst + incremental workload, collecting every device's per-message
processing costs (a fixed-memory aggregate: count, total, max and log-spaced
buckets) and the message/byte counters, then reports the CDF points
the paper plots: per-message processing time, per-device totals, CPU load.
Paper's numbers: 90% of messages processed in ≤3.52 ms, 90% of devices under
0.29 s total — ours are host-relative; the shape (sub-millisecond mode with
a short tail) is the target.
"""

import pytest

from benchmarks._common import (
    NUM_UPDATES,
    SCALE,
    dataset_for,
    print_header,
    print_row,
    run_tulkun_burst,
)
from repro.sim import apply_intents, percentile, random_update_intents

DATASETS = {
    "smoke": [("FT-4", 4, 1)],
    "small": [("INet2", 12, 8)],
    "large": [("INet2", None, 16), ("B4-13", 16, 8), ("FT-4", 24, 4)],
}


@pytest.mark.benchmark(group="fig15")
@pytest.mark.parametrize(
    "name,pair_limit,multiplier",
    DATASETS[SCALE],
    ids=[entry[0] for entry in DATASETS[SCALE]],
)
def test_fig15_dvm_processing_overhead(benchmark, name, pair_limit, multiplier):
    outcome = {}

    def run():
        ds = dataset_for(name, pair_limit, multiplier)
        runner, _burst = run_tulkun_burst(ds)
        planes = {
            d: runner.network.devices[d].plane for d in ds.topology.devices
        }
        intents = random_update_intents(
            ds.topology, planes, NUM_UPDATES[SCALE], seed=21
        )
        apply_intents(runner, intents)
        outcome["metrics"] = runner.network.metrics
        outcome["wall"] = runner.network.last_activity
        return outcome

    benchmark.pedantic(run, rounds=1, iterations=1)
    metrics = outcome["metrics"]

    message_costs = metrics.message_costs()
    device_totals = [m.message_costs.total for m in metrics.devices.values()]
    loads = [m.cpu_load(outcome["wall"]) for m in metrics.devices.values()]
    bytes_sent = [m.bytes_sent for m in metrics.devices.values()]

    print_header(f"Figure 15 [{name}]: DVM UPDATE processing overhead")
    print_row("metric", "p50", "p90", "max")
    print_row(
        "per-message (ms)",
        f"{message_costs.quantile(0.5) * 1e3:.4f}",
        f"{message_costs.quantile(0.9) * 1e3:.4f}",
        f"{message_costs.max * 1e3:.4f}",
    )
    print_row(
        "per-device total (ms)",
        f"{percentile(device_totals, 0.5) * 1e3:.3f}",
        f"{percentile(device_totals, 0.9) * 1e3:.3f}",
        f"{max(device_totals) * 1e3:.3f}",
    )
    print_row(
        "CPU load",
        f"{percentile(loads, 0.5):.4f}",
        f"{percentile(loads, 0.9):.4f}",
        f"{max(loads):.4f}",
    )
    total_messages = metrics.total_messages()
    total_bytes = metrics.total_bytes()
    print_row("messages", total_messages, "", "")
    print_row("bytes sent", total_bytes, "", "")

    benchmark.extra_info["p90_per_message_ms"] = message_costs.quantile(0.9) * 1e3
    benchmark.extra_info["total_messages"] = total_messages
    benchmark.extra_info["total_bytes"] = total_bytes
    assert message_costs.count
    assert max(loads) <= 1.0
