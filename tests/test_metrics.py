"""Metrics helpers: percentiles, CDFs, device accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    CostAggregate,
    DeviceMetrics,
    MetricsCollector,
    cdf_points,
    percentile,
)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.8) == 0.0

    def test_single(self):
        assert percentile([42.0], 0.8) == 42.0

    def test_median_of_two(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=30),
           st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_q(self, values):
        assert percentile(values, 0.2) <= percentile(values, 0.8)


class TestCostAggregate:
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40),
           st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_the_nearest_rank_within_a_bucket(self, values, q):
        costs = CostAggregate()
        for value in values:
            costs.add(value)
        ordered = sorted(values)
        nearest = ordered[int(q * (len(values) - 1))]
        assert abs(costs.quantile(q) - nearest) <= nearest / 16
        assert costs.quantile(q) <= costs.max == ordered[-1]
        assert sum(costs.buckets.values()) == costs.count == len(values)

    def test_zero_costs_read_back_as_zero(self):
        costs = CostAggregate()
        for value in (0.0, 0.0, 0.25):
            costs.add(value)
        assert costs.quantile(0.5) == 0.0
        assert costs.quantile(1.0) == 0.25

    def test_memory_follows_the_span_not_the_count(self):
        costs = CostAggregate()
        for i in range(10_000):
            costs.add(1e-4 * (1 + i % 100) / 100)
        assert costs.count == 10_000
        assert len(costs.buckets) <= 8 * 7  # 1e-6 .. 1e-4 s: < 7 octaves


class TestCdf:
    def test_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_last_point_is_one(self):
        points = cdf_points([5.0] * 7)
        assert points[-1][1] == 1.0


class TestCollector:
    def test_device_created_on_demand(self):
        collector = MetricsCollector()
        metrics = collector.device("X")
        assert metrics.name == "X"
        assert collector.device("X") is metrics

    def test_aggregates(self):
        collector = MetricsCollector()
        a = collector.device("a")
        b = collector.device("b")
        a.messages_sent = 3
        a.bytes_sent = 100
        for cost in (0.1, 0.2):
            a.message_costs.add(cost)
        b.messages_sent = 2
        b.bytes_sent = 50
        b.message_costs.add(0.3)
        assert collector.total_messages() == 5
        assert collector.total_bytes() == 150
        costs = collector.message_costs()
        assert (costs.count, costs.max) == (3, 0.3)
        assert costs.total == pytest.approx(0.6)
        assert costs.quantile(0.5) == pytest.approx(0.2, rel=1 / 16)
        assert costs.quantile(1.0) == 0.3
        assert a.message_costs.count == 2  # the merge copies, never moves

    def test_cpu_load(self):
        metrics = DeviceMetrics("x", busy_time=0.5)
        assert metrics.cpu_load(2.0) == 0.25
        assert metrics.cpu_load(0.0) == 0.0
