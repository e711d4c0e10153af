"""Topology model, generators and the WAN zoo."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    Topology,
    WAN_BUILDERS,
    canonical_link,
    clos,
    clos3,
    fattree,
    fig2a_example,
    grid,
    inet2,
    line,
    random_wan,
    ring,
    star,
    stanford,
)


class TestGraphBasics:
    def test_add_and_query(self):
        topo = Topology("t")
        topo.add_link("a", "b", 0.5)
        assert topo.has_link("a", "b") and topo.has_link("b", "a")
        assert topo.latency("a", "b") == 0.5
        assert topo.neighbors("a") == ["b"]
        assert topo.num_devices == 2
        assert topo.num_links == 1

    def test_self_loop_rejected(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.add_link("a", "a")

    def test_negative_latency_rejected(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.add_link("a", "b", -1)

    def test_unknown_device_queries(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.neighbors("missing")
        with pytest.raises(TopologyError):
            topo.hop_distances_to("missing")

    def test_canonical_link(self):
        assert canonical_link("b", "a") == ("a", "b")
        assert canonical_link("a", "b") == ("a", "b")

    def test_links_iteration(self):
        topo = ring(4)
        links = list(topo.links())
        assert len(links) == 4
        assert all(link.a <= link.b for link in links)

    def test_attach_prefix_unknown_device(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.attach_prefix("missing", "10.0.0.0/24")

    def test_prefix_owner(self):
        topo = fig2a_example()
        assert topo.prefix_owner("10.0.0.0/23") == "D"
        assert topo.prefix_owner("99.0.0.0/8") is None


class TestDistances:
    def test_hop_distances(self):
        topo = line(5)
        distances = topo.hop_distances_to("d4")
        assert distances["d0"] == 4
        assert distances["d4"] == 0

    def test_hop_cache_follows_graph_changes(self):
        topo = line(5)
        assert topo.shortest_hops("d0", "d4") == 4
        topo.add_link("d0", "d4")
        assert topo.shortest_hops("d0", "d4") == 1
        topo.add_device("d5")
        assert topo.shortest_hops("d5", "d4") is None
        topo.add_link("d5", "d0")
        assert topo.shortest_hops("d5", "d4") == 2

    def test_hop_distances_are_a_private_copy(self):
        topo = line(3)
        topo.hop_distances_to("d2")["d0"] = 99
        assert topo.shortest_hops("d0", "d2") == 2
        assert topo.hop_distances_to("d2") == {"d0": 2, "d1": 1, "d2": 0}

    def test_clone_does_not_share_hop_cache(self):
        topo = line(4)
        assert topo.shortest_hops("d0", "d3") == 3
        cut = topo.without_links([("d1", "d2")])
        assert cut.shortest_hops("d0", "d3") is None
        assert topo.shortest_hops("d0", "d3") == 3
        cut.add_link("d0", "d3")
        assert cut.shortest_hops("d0", "d3") == 1
        assert topo.shortest_hops("d0", "d3") == 3

    def test_shortest_hops_disconnected(self):
        topo = Topology("t")
        topo.add_device("x")
        topo.add_device("y")
        assert topo.shortest_hops("x", "y") is None

    def test_latency_distances(self):
        topo = Topology("t")
        topo.add_link("a", "b", 1.0)
        topo.add_link("b", "c", 1.0)
        topo.add_link("a", "c", 5.0)
        dist = topo.latency_distances_from("a")
        assert dist["c"] == 2.0  # via b, not the direct 5.0 link

    def test_diameter(self):
        assert line(6).diameter_hops() == 5
        assert star(5).diameter_hops() == 2

    def test_is_connected(self):
        topo = line(3)
        assert topo.is_connected()
        topo.add_device("isolated")
        assert not topo.is_connected()


class TestDerivedGraphs:
    def test_without_links(self):
        topo = ring(4)
        cut = topo.without_links([("d0", "d1")])
        assert not cut.has_link("d0", "d1")
        assert cut.num_links == 3
        assert topo.num_links == 4  # original untouched

    def test_without_links_preserves_prefixes(self):
        topo = fig2a_example()
        cut = topo.without_links([("S", "A")])
        assert cut.external_prefixes == topo.external_prefixes

    def test_with_virtual_device(self):
        topo = fig2a_example()
        extended = topo.with_virtual_device("V", ["S", "B"])
        assert extended.has_link("V", "S")
        assert extended.has_link("V", "B")
        assert not topo.has_device("V")
        with pytest.raises(TopologyError):
            extended.with_virtual_device("V", ["S"])


class TestGenerators:
    def test_fig2a_shape(self):
        topo = fig2a_example()
        assert topo.num_devices == 5
        assert topo.num_links == 6
        assert sorted(topo.devices) == ["A", "B", "D", "S", "W"]

    def test_fattree_counts(self):
        k = 4
        topo = fattree(k)
        # 5k^2/4 switches for a k-ary fattree.
        assert topo.num_devices == 5 * k * k // 4
        # Each pod: (k/2)^2 agg-edge links; each agg: k/2 core links.
        assert topo.num_links == k * (k // 2) ** 2 + k * (k // 2) * (k // 2)
        assert len(topo.external_prefixes) == k * k // 2  # one per edge switch

    def test_fattree_odd_k_rejected(self):
        with pytest.raises(TopologyError):
            fattree(3)

    def test_fattree_diameter(self):
        assert fattree(4).diameter_hops() == 4

    def test_clos(self):
        topo = clos(4, 8)
        assert topo.num_devices == 12
        assert topo.num_links == 32

    def test_clos3(self):
        topo = clos3(2, 3, 2, 4)
        assert topo.num_devices == 2 + 3 * (2 + 4)
        assert topo.is_connected()

    def test_grid(self):
        topo = grid(3, 4)
        assert topo.num_devices == 12
        assert topo.num_links == 3 * 3 + 2 * 4

    def test_random_wan_deterministic(self):
        a = random_wan(20, 10, seed=5)
        b = random_wan(20, 10, seed=5)
        assert a.link_set() == b.link_set()
        assert a.is_connected()

    def test_ring_min_size(self):
        with pytest.raises(TopologyError):
            ring(2)


class TestZoo:
    def test_inet2_shape(self):
        topo = inet2()
        assert topo.num_devices == 9
        assert topo.is_connected()

    def test_stanford_shape(self):
        topo = stanford()
        assert topo.num_devices == 16
        assert topo.is_connected()

    def test_pairwise_identical_topologies(self):
        at1a = WAN_BUILDERS["AT1-1"]()
        at1b = WAN_BUILDERS["AT1-2"]()
        assert at1a.link_set() == at1b.link_set()

    @pytest.mark.parametrize("name", sorted(WAN_BUILDERS))
    def test_all_zoo_networks_connected(self, name):
        topo = WAN_BUILDERS[name]()
        assert topo.is_connected()
        assert topo.num_devices >= 9
