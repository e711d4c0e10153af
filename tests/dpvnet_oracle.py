"""The unpruned enumeration: a test oracle for the shipped construction.

:func:`build_enumeration_dpvnet` here walks every (simple) path up to one
search depth, with no pruning toward acceptance, and :func:`oracle_build`
plans the way the planner did before the search became goal-directed: one
depth for every ingress, the worst ``shortest`` distance over all ingresses
and all devices.  Both end in the shipped ``_prune_and_build`` /
``_suffix_merge``, so any difference from :mod:`repro.core.dpvnet` is the
search itself.  The differential tests assert that the two give
byte-identical :class:`DpvNet`\\ s (:func:`net_bytes`).

Substitute :func:`oracle_build` for ``Planner._build`` to route every
planner entry point (``build_dpvnet``, ``plan``, ``compute_fault_plan``)
through the oracle.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.automata.dfa import Dfa
from repro.core import dpvnet
from repro.core.dpvnet import DpvNet, build_product_dpvnet
from repro.core.invariant import Atom, Invariant
from repro.errors import PlannerError
from repro.topology.graph import Topology


def build_enumeration_dpvnet(
    topology: Topology,
    dfas: Sequence[Dfa],
    ingresses: Sequence[str],
    accept_path,
    max_hops: int,
    simple_only: bool = True,
) -> DpvNet:
    """Enumerate every (simple) prefix up to ``max_hops`` links, keep the
    ones that end an accepted path, and build the suffix-shared DAG."""
    if not dfas:
        raise PlannerError("need at least one automaton")
    arity = len(dfas)
    start_states = tuple(dfa.start for dfa in dfas)

    def step(states: Tuple[int, ...], dev: str) -> Tuple[int, ...]:
        return tuple(dfa.step(state, dev) for dfa, state in zip(dfas, states))

    def all_dead(states: Tuple[int, ...]) -> bool:
        return all(dfa.is_dead(state) for dfa, state in zip(dfas, states))

    # Trie of explored prefixes.  Node 0 is a virtual pre-ingress root.
    trie_children: List[Dict[str, int]] = [{}]
    trie_dev: List[Optional[str]] = [None]
    trie_accept: List[List[bool]] = [[False] * arity]
    raw_sources: Dict[str, Optional[int]] = {ingress: None for ingress in ingresses}

    def trie_get(parent: int, dev: str) -> int:
        child = trie_children[parent].get(dev)
        if child is None:
            child = len(trie_children)
            trie_children[parent][dev] = child
            trie_children.append({})
            trie_dev.append(dev)
            trie_accept.append([False] * arity)
        return child

    for ingress in ingresses:
        if not topology.has_device(ingress):
            raise PlannerError(f"ingress {ingress!r} not in topology")
        states = step(start_states, ingress)
        if all_dead(states):
            continue
        root = trie_get(0, ingress)
        raw_sources[ingress] = root
        stack: List[Tuple[int, str, Tuple[int, ...], Tuple[str, ...]]] = [
            (root, ingress, states, (ingress,))
        ]
        while stack:
            tnode, dev, cur_states, path = stack.pop()
            for i, (dfa, state) in enumerate(zip(dfas, cur_states)):
                if state in dfa.accepting and accept_path(i, ingress, path):
                    trie_accept[tnode][i] = True
            if len(path) - 1 >= max_hops:
                continue
            for neighbor in topology.neighbors(dev):
                if simple_only and neighbor in path:
                    continue
                nxt = step(cur_states, neighbor)
                if all_dead(nxt):
                    continue
                child = trie_get(tnode, neighbor)
                stack.append((child, neighbor, nxt, path + (neighbor,)))

    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]] = {}
    raw_edges: Dict[int, List[int]] = {}
    for nid in range(1, len(trie_children)):
        raw_nodes[nid] = (trie_dev[nid], tuple(trie_accept[nid]))
        raw_edges[nid] = sorted(trie_children[nid].values())
    net = dpvnet._prune_and_build(raw_nodes, raw_edges, raw_sources, arity)
    return dpvnet._suffix_merge(net)


def global_max_hops(
    topo: Topology, atoms: Sequence[Atom], ingresses: Sequence[str]
) -> int:
    """One search depth for every ingress: ``shortest+k`` resolved by the
    worst shortest-path distance over all (ingress, device) pairs."""
    fallback = topo.num_devices - 1
    bounds: List[int] = []
    for atom in atoms:
        atom_bound = fallback
        for filt in atom.path.length_filters:
            if filt.op in ("<=", "<", "=="):
                if filt.symbolic:
                    worst = 0
                    for ingress in ingresses:
                        for dev in topo.devices:
                            hops = topo.shortest_hops(ingress, dev)
                            if hops is not None:
                                worst = max(worst, hops)
                    atom_bound = min(atom_bound, filt.max_hops(worst, fallback))
                else:
                    atom_bound = min(atom_bound, filt.max_hops(None, fallback))
        bounds.append(atom_bound)
    return max(bounds) if bounds else fallback


def oracle_build(
    planner,
    invariant: Invariant,
    atoms: Sequence[Atom],
    dfas: Sequence[Dfa],
    topo: Topology,
) -> DpvNet:
    """``Planner._build`` with the unpruned search and the global depth."""
    ingresses = list(invariant.ingress_set)
    if not any(atom.path.simple_only or atom.path.length_filters for atom in atoms):
        return build_product_dpvnet(topo, dfas, ingresses, max_hops=topo.num_devices)

    def accept_path(atom_index: int, ingress: str, path: Tuple[str, ...]) -> bool:
        hops = len(path) - 1
        return all(
            filt.admits(hops, topo.shortest_hops(ingress, path[-1]))
            for filt in atoms[atom_index].path.length_filters
        )

    return build_enumeration_dpvnet(
        topo,
        dfas,
        ingresses,
        accept_path,
        global_max_hops(topo, atoms, ingresses),
        simple_only=any(atom.path.simple_only for atom in atoms),
    )


def net_bytes(net: DpvNet) -> tuple:
    """Everything of a net that reaches a verifier or the DVM wire: ids in
    table order, devices, labels, acceptance, children and parents in
    order, sources, arity and any fault-scene labels."""
    return (
        tuple(
            (nid, node.node_id, node.dev, node.label, node.accept,
             tuple(node.children), tuple(node.parents))
            for nid, node in net.nodes.items()
        ),
        tuple(net.sources.items()),
        net.arity,
        None if net.edge_scenes is None else sorted(net.edge_scenes.items()),
        sorted(getattr(net, "accept_scenes", {}).items()),
    )
