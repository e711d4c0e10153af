"""The goal-directed enumeration against the unpruned oracle.

:mod:`repro.core.dpvnet` prunes its path search by each prefix's product
distance to acceptance, and the planner bounds the search depth per
ingress.  Neither may change a net: node ids reach verifiers and the DVM
wire (``parent_node_id`` / ``child_node_id``).  Every test here builds the
same invariants twice — through the planner as shipped and with
``Planner._build`` replaced by :func:`tests.dpvnet_oracle.oracle_build`
(the unpruned search at the all-pairs depth) — and asserts byte-identical
nets: ids, devices, labels, acceptance, children and parents in order,
sources and fault-scene labels.

The dense-id pins check that the product, enumeration and fault-tolerant
constructions number nodes ``0..n-1``, and that the product construction's
structure did not move when its ids became dense.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import compile_regex, parse_regex
from repro.bdd import PacketSpaceContext
from repro.core.counting import CountExp
from repro.core.dpvnet import accept_distances, build_product_dpvnet
from repro.core.fault import compute_fault_plan
from repro.core.invariant import (
    And,
    Atom,
    FaultSpec,
    Invariant,
    LengthFilter,
    MatchKind,
    PathExpr,
)
from repro.core.library import multicast, reachability
from repro.core.planner import Planner
from repro.datasets import build_dataset
from repro.topology import Topology, fig2a_example, grid, line, ring
from tests.dpvnet_oracle import net_bytes, oracle_build

CTX = PacketSpaceContext()
SPACE = CTX.ip_prefix("10.0.0.0/23")


def exist(regex, filters=(), simple=True):
    return Atom(
        PathExpr.parse(regex, tuple(filters), simple),
        MatchKind.EXIST,
        CountExp(">=", 1),
    )


def built_both(planner, invariants):
    """(shipped, oracle) ``net_bytes`` for each distinct shape."""
    shapes = {}
    for inv in invariants:
        shapes.setdefault((inv.ingress_set, inv.behavior, inv.fault_spec), inv)
    shipped = [net_bytes(planner.build_dpvnet(inv)) for inv in shapes.values()]
    with mock.patch.object(Planner, "_build", oracle_build):
        oracle = [net_bytes(planner.build_dpvnet(inv)) for inv in shapes.values()]
    return shipped, oracle


def assert_identical(planner, invariants):
    shipped, oracle = built_both(planner, invariants)
    assert shipped == oracle
    # The differential is about non-trivial nets.
    assert any(nodes for nodes, *_rest in shipped)


# The filter kinds the planner resolves to a search depth: none (loop_free
# alone), ``<= N``, ``< N``, ``== shortest``, ``<= shortest+k``, and one
# that leaves the depth at the device-count fallback.
FILTERS = {
    "loop_free": (),
    "le_n": (LengthFilter("<=", 4),),
    "lt_n": (LengthFilter("<", 4),),
    "eq_shortest": (LengthFilter("==", "shortest"),),
    "shortest_plus_k": (LengthFilter("<=", "shortest", 2),),
    "ge_n": (LengthFilter(">=", 2),),
}


class TestOracleDifferential:
    @pytest.mark.parametrize("kind", sorted(FILTERS))
    @pytest.mark.parametrize(
        "regex, ingresses",
        [
            ("S .* D", ("S",)),
            ("S .* W .* D", ("S",)),
            ("S [^B]* D", ("S",)),
            (".* D", ("S", "A", "B")),
        ],
    )
    def test_fig2a_filters(self, kind, regex, ingresses):
        inv = Invariant(SPACE, ingresses, exist(regex, FILTERS[kind]))
        assert_identical(Planner(fig2a_example(), CTX), [inv])

    @pytest.mark.parametrize("kind", sorted(FILTERS))
    def test_inet2_filters(self, kind):
        ds = build_dataset("INet2", pair_limit=None, seed=7)
        devices = ds.topology.devices
        invariants = [
            Invariant(ds.ctx.ip_prefix("10.0.0.0/8"), (src,),
                      exist(f"{src} .* {dst}", FILTERS[kind]))
            for src in devices[:3]
            for dst in devices
            if src != dst
        ]
        assert_identical(Planner(ds.topology, ds.ctx), invariants)

    @pytest.mark.parametrize("name", ["INet2", "FT-4"])
    def test_dataset_all_pairs(self, name):
        ds = build_dataset(name, pair_limit=None, seed=7)
        assert_identical(Planner(ds.topology, ds.ctx), ds.invariants)

    def test_multi_atom_takes_the_minimum_over_components(self):
        """Two atoms, two depths: a prefix survives while *either* DFA can
        still accept in time."""
        topo = ring(7)
        behavior = And((
            exist("d0 .* d3", (LengthFilter("<=", "shortest", 1),)),
            exist("d0 .* d5", (LengthFilter("==", "shortest"),)),
        ))
        inv = Invariant(SPACE, ("d0",), behavior)
        assert_identical(Planner(topo, CTX), [inv])
        mc = multicast(SPACE, "S", ["B", "D"])
        assert_identical(Planner(fig2a_example(), CTX), [mc])

    def test_per_ingress_depths_differ(self):
        """A multi-ingress ``shortest+k`` invariant on a line: each ingress
        gets its own depth, the net is still the all-pairs one."""
        topo = line(6)
        inv = Invariant(
            SPACE, ("d0", "d2", "d4"),
            exist(".* d5", (LengthFilter("<=", "shortest", 1),)),
        )
        planner = Planner(topo, CTX)
        atoms, dfas = planner.compile_atoms(inv)
        bounds = planner._max_hops_bound(topo, atoms, dfas, inv.ingress_set)
        assert bounds == {"d0": 5, "d2": 4, "d4": 2}
        assert_identical(planner, [inv])

    @pytest.mark.parametrize(
        "filters",
        [(LengthFilter("<=", "shortest", 1),), (LengthFilter("<=", 4),)],
        ids=["symbolic", "concrete"],
    )
    @pytest.mark.parametrize("topo_name", ["fig2a", "INet2"])
    def test_fault_plans(self, topo_name, filters):
        """§6 scene subgraphs: every per-scene build inside
        ``compute_fault_plan`` goes through the oracle too."""
        if topo_name == "fig2a":
            topo, src, dst = fig2a_example(), "S", "D"
        else:
            topo = build_dataset("INet2", pair_limit=2, seed=7).topology
            src, dst = topo.devices[0], topo.devices[-1]
        inv = Invariant(
            SPACE, (src,), exist(f"{src} .* {dst}", filters),
            FaultSpec.up_to(1), name="ft",
        )

        def plan_bytes():
            plan = compute_fault_plan(Planner(topo, CTX), inv)
            return net_bytes(plan.net), plan.scenes, plan.intolerable

        shipped = plan_bytes()
        with mock.patch.object(Planner, "_build", oracle_build):
            assert plan_bytes() == shipped

    def test_ntt_tenant_sample(self):
        """Every eighth of the NTT tenant shapes (the slow leg runs all)."""
        ds = _ntt_dataset()
        invariants = _ntt_tenant_invariants(ds)
        shapes = list({inv.behavior: inv for inv in invariants}.values())
        assert_identical(Planner(ds.topology, ds.ctx), shapes[::8])

    @pytest.mark.slow
    def test_ntt_tenants_full(self):
        ds = _ntt_dataset()
        assert_identical(Planner(ds.topology, ds.ctx), _ntt_tenant_invariants(ds))

    @pytest.mark.slow
    def test_ft8_full(self):
        ds = build_dataset("FT-8", pair_limit=192, seed=7, rule_multiplier=8)
        assert_identical(Planner(ds.topology, ds.ctx), ds.invariants)


def _ntt_dataset():
    return build_dataset("NTT", pair_limit=2, seed=5)


def _ntt_tenant_invariants(ds):
    from benchmarks.e2e.workloads import tenant_invariants

    invariants, _pairs, _spaces = tenant_invariants(ds, 128)
    return invariants


@st.composite
def small_networks(draw):
    """A connected topology of 3–7 devices and one invariant on it whose
    build goes through the enumeration (a length filter or loop_free)."""
    n = draw(st.integers(min_value=3, max_value=7))
    devices = [f"n{i}" for i in range(n)]
    topo = Topology("random")
    for i in range(1, n):
        topo.add_link(devices[i], devices[draw(st.integers(0, i - 1))])
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=n)):
        if a != b:
            topo.add_link(devices[a], devices[b])
    src, way, dst = (draw(st.sampled_from(devices)) for _ in range(3))
    regex = draw(st.sampled_from([
        f"{src} .* {dst}", f"{src} .* {way} .* {dst}",
        f"{src} [^{way}]* {dst}", f".* {dst}",
    ]))
    ingresses = (src,)
    if regex.startswith(".*"):
        ingresses = tuple(draw(st.lists(st.sampled_from(devices), min_size=1,
                                        max_size=3, unique=True)))
    filters = FILTERS[draw(st.sampled_from(sorted(FILTERS)))]
    simple = draw(st.booleans()) or not filters
    atoms = [exist(regex, filters, simple)]
    if draw(st.booleans()):
        other = draw(st.sampled_from(devices))
        atoms.append(exist(f".* {other}", (LengthFilter("<=", "shortest", 1),)))
    behavior = And(tuple(atoms)) if len(atoms) > 1 else atoms[0]
    return topo, Invariant(SPACE, ingresses, behavior)


@given(case=small_networks())
@settings(max_examples=60, deadline=None)
def test_random_topologies_match_the_oracle(case):
    topo, inv = case
    shipped, oracle = built_both(Planner(topo, CTX), [inv])
    assert shipped == oracle


# ----------------------------------------------------------------------
# Dense ids
# ----------------------------------------------------------------------
def structure_digest(net):
    """A digest of the net up to renumbering: per source, the recursive
    (device, acceptance, child structures) signature."""
    memo = {}

    def sig(nid):
        if nid not in memo:
            node = net.nodes[nid]
            kids = sorted(sig(child) for child in node.children)
            memo[nid] = hashlib.sha256(
                repr((node.dev, node.accept, kids)).encode()
            ).hexdigest()
        return memo[nid]

    roots = sorted(
        (ingress, None if source is None else sig(source))
        for ingress, source in net.sources.items()
    )
    return hashlib.sha256(
        repr((net.num_nodes, net.num_edges, net.arity, roots)).encode()
    ).hexdigest()[:16]


TOPOLOGIES = {
    "fig2a": fig2a_example,
    "ring6": lambda: ring(6),
    "line5": lambda: line(5),
    "grid3": lambda: grid(3, 3),
}

# Digests recorded from the product construction before its ids were made
# dense: the renumbering must not move its structure.
PRODUCT_CASES = [
    ("fig2a", ("S .* D",), ("S",), 4, "eed1930c6d7b3f85"),
    ("fig2a", ("S .* W .* D",), ("S",), 4, "4ad1d2e7043255b5"),
    ("fig2a", ("S [^B]* D",), ("S",), 4, "487c1043643c44c4"),
    ("fig2a", ("S (A|W)* D",), ("S",), 5, "f43630bdedd9a098"),
    ("fig2a", ("S .* B", "S .* D"), ("S",), 4, "ad844759ca7db6d2"),
    ("fig2a", (".* D",), ("S", "A", "B"), 4, "90c2c115cbaa598b"),
    ("ring6", ("d0 .* d3",), ("d0",), 6, "1f221dd19a697313"),
    ("line5", ("d0 .* d4",), ("d0",), 4, "2a2149a9c46153b7"),
    ("grid3", ("g0_0 .* g2_2",), ("g0_0", "g0_2"), 6, "c2280b91354ae1a0"),
]


def assert_dense(net):
    assert list(net.nodes) == list(range(net.num_nodes))
    assert all(node.node_id == nid for nid, node in net.nodes.items())


class TestDenseIds:
    @pytest.mark.parametrize("topo_name, regexes, ingresses, hops, digest",
                             PRODUCT_CASES)
    def test_product_dense_and_unchanged(self, topo_name, regexes, ingresses,
                                         hops, digest):
        topo = TOPOLOGIES[topo_name]()
        dfas = [compile_regex(parse_regex(r), topo.devices) for r in regexes]
        net = build_product_dpvnet(topo, dfas, list(ingresses), max_hops=hops)
        assert_dense(net)
        assert structure_digest(net) == digest

    @pytest.mark.parametrize("name", ["INet2", "FT-4"])
    def test_enumeration_dense(self, name):
        ds = build_dataset(name, pair_limit=None, seed=7)
        planner = Planner(ds.topology, ds.ctx)
        for inv in ds.invariants:
            net = planner.build_dpvnet(inv)
            assert_dense(net)
            with mock.patch.object(Planner, "_build", oracle_build):
                assert_dense(planner.build_dpvnet(inv))

    def test_fault_scene_subgraph_and_fault_plan_dense(self):
        topo = fig2a_example()
        failed = topo.without_links([("A", "W")])
        inv = reachability(SPACE, "S", "D", FaultSpec.up_to(1), max_extra_hops=1)
        assert_dense(Planner(failed, CTX).build_dpvnet(inv, failed))
        plan = compute_fault_plan(Planner(topo, CTX), inv)
        assert_dense(plan.net)
        assert {nid for nid, _child in plan.net.edge_scenes} <= set(plan.net.nodes)


class TestAcceptDistances:
    def test_line_distances(self):
        topo = line(4)
        dfa = compile_regex(parse_regex("d0 .* d3"), topo.devices)
        dist = accept_distances(dfa, topo)
        after_d0 = dfa.step(dfa.start, "d0")
        assert dist[(after_d0, "d0")] == 3
        assert dist[(dfa.step(after_d0, "d3"), "d3")] == 0
        assert all(state != dfa.dead for state, _dev in dist)

    def test_never_overestimates(self):
        """Admissible: from every prefix of an accepted path, the table's
        distance is at most the links the path still takes."""
        topo = fig2a_example()
        inv = Invariant(SPACE, ("S",), exist("S .* W .* D"))
        planner = Planner(topo, CTX)
        _atoms, (dfa,) = planner.compile_atoms(inv)
        dist = accept_distances(dfa, topo)
        for path in planner.build_dpvnet(inv).enumerate_paths():
            state = dfa.start
            for i, dev in enumerate(path):
                state = dfa.step(state, dev)
                assert dist[(state, dev)] <= len(path) - 1 - i

