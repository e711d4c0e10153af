"""DPVNet: the DAG of all valid paths (§4.1).

A DPVNet compactly represents every path in the topology that matches the
invariant's path expression(s).  Nodes map many-to-one onto devices; each
node also remembers, per behavior atom, whether a trace *ending* at it is
accepted by that atom's regex (the count-vector acceptance used by the
counting algorithm).

Two constructions are provided:

* :func:`build_product_dpvnet` — the paper's automaton × topology product,
  minimized, and unrolled by a depth bound when the product has cycles
  (wildcard expressions like ``S.*D`` admit arbitrarily long paths; the
  unrolling bound comes from the invariant's length filters, defaulting to
  the device count).
* :func:`build_enumeration_dpvnet` — explicit simple-path enumeration with
  suffix sharing, used for ``loop_free`` behaviors and symbolic length
  filters (``== shortest`` etc.), where path-dependent constraints make the
  plain product unsound.  The paper leans on the same observation to keep
  DPVNets small: operators want limited-hop paths, and there are few.  The
  search is pruned by each prefix's product distance to acceptance.

Both produce identical counting semantics; the test suite cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.automata.dfa import Dfa
from repro.errors import PlannerError
from repro.topology.graph import Topology

__all__ = [
    "DpvNode",
    "DpvNet",
    "accept_distances",
    "build_product_dpvnet",
    "build_enumeration_dpvnet",
]


@dataclass
class DpvNode:
    """One node of a DPVNet.

    ``accept`` has one boolean per behavior atom: True when a trace ending at
    this node matches that atom's path expression (including its length
    filters).
    """

    node_id: int
    dev: str
    accept: Tuple[bool, ...]
    children: List[int] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    label: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DpvNode({self.label or self.node_id}, dev={self.dev})"


class DpvNet:
    """The valid-path DAG plus per-ingress source nodes."""

    def __init__(
        self,
        nodes: Dict[int, DpvNode],
        sources: Dict[str, Optional[int]],
        arity: int,
    ) -> None:
        self.nodes = nodes
        self.sources = sources
        self.arity = arity
        # dev -> [nodes] grouping, built lazily on first nodes_of_device
        # (the planner asks per device, per invariant — the node table is
        # immutable once constructed).
        self._nodes_by_dev: Optional[Dict[str, List[DpvNode]]] = None
        # child (node -> dev -> child id); devices are unique among children
        # because both constructions are deterministic per device step.
        self.child_by_dev: Dict[int, Dict[str, int]] = {}
        for node in nodes.values():
            mapping: Dict[str, int] = {}
            for child_id in node.children:
                child = nodes[child_id]
                if child.dev in mapping:
                    raise PlannerError(
                        f"node {node.node_id} has two children on device "
                        f"{child.dev!r}; construction is not deterministic"
                    )
                mapping[child.dev] = child_id
            self.child_by_dev[node.node_id] = mapping
        # Optional fault-scene labels on edges: (parent, child) -> scene ids.
        # ``None`` means the edge is valid in every scene.
        self.edge_scenes: Optional[Dict[Tuple[int, int], FrozenSet[int]]] = None
        self._assign_labels()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(node.children) for node in self.nodes.values())

    def node(self, node_id: int) -> DpvNode:
        return self.nodes[node_id]

    def devices(self) -> Set[str]:
        return {node.dev for node in self.nodes.values()}

    def nodes_of_device(self, dev: str) -> List[DpvNode]:
        by_dev = self._nodes_by_dev
        if by_dev is None:
            by_dev = self._nodes_by_dev = {}
            for node in self.nodes.values():
                by_dev.setdefault(node.dev, []).append(node)
        return list(by_dev.get(dev, ()))

    def reverse_topological_order(self) -> List[int]:
        """Children before parents — the traversal order of Algorithm 1."""
        order: List[int] = []
        state: Dict[int, int] = {}  # 0 unseen, 1 in progress, 2 done

        def visit(node_id: int) -> None:
            stack = [(node_id, False)]
            while stack:
                nid, expanded = stack.pop()
                if expanded:
                    state[nid] = 2
                    order.append(nid)
                    continue
                mark = state.get(nid, 0)
                if mark == 2:
                    continue
                if mark == 1:
                    raise PlannerError("DPVNet contains a cycle")
                state[nid] = 1
                stack.append((nid, True))
                for child in self.nodes[nid].children:
                    if state.get(child, 0) == 0:
                        stack.append((child, False))
                    elif state.get(child) == 1:
                        raise PlannerError("DPVNet contains a cycle")
        for nid in self.nodes:
            if state.get(nid, 0) == 0:
                visit(nid)
        return order

    def enumerate_paths(self, max_paths: int = 100000) -> List[Tuple[str, ...]]:
        """All device paths from sources to atom-accepting nodes.

        Exponential in general; exists for tests and small demos.
        """
        paths: List[Tuple[str, ...]] = []

        def walk(node_id: int, prefix: Tuple[str, ...]) -> None:
            if len(paths) >= max_paths:
                return
            node = self.nodes[node_id]
            here = prefix + (node.dev,)
            if any(node.accept):
                paths.append(here)
            for child in node.children:
                walk(child, here)

        for source in self.sources.values():
            if source is not None:
                walk(source, ())
        return paths

    def _assign_labels(self) -> None:
        counters: Dict[str, int] = {}
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            counters[node.dev] = counters.get(node.dev, 0) + 1
            node.label = f"{node.dev}{counters[node.dev]}"

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "devices": len(self.devices()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DpvNet(nodes={self.num_nodes}, edges={self.num_edges})"


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _prune_and_build(
    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]],
    raw_edges: Dict[int, List[int]],
    raw_sources: Dict[str, Optional[int]],
    arity: int,
) -> DpvNet:
    """Drop nodes that cannot reach an accepting node or be reached from a
    source, then materialize the DpvNet with ids ``0..n-1`` in raw-id
    order."""
    # Backward reachability from accepting nodes.
    reverse: Dict[int, List[int]] = {nid: [] for nid in raw_nodes}
    for src, targets in raw_edges.items():
        for dst in targets:
            reverse[dst].append(src)
    useful: Set[int] = {nid for nid, (_dev, accept) in raw_nodes.items() if any(accept)}
    stack = list(useful)
    while stack:
        nid = stack.pop()
        for pred in reverse[nid]:
            if pred not in useful:
                useful.add(pred)
                stack.append(pred)
    # Forward reachability from sources.
    reachable: Set[int] = set()
    stack = [nid for nid in raw_sources.values() if nid is not None and nid in useful]
    for nid in stack:
        reachable.add(nid)
    while stack:
        nid = stack.pop()
        for child in raw_edges.get(nid, ()):
            if child in useful and child not in reachable:
                reachable.add(child)
                stack.append(child)
    # Dense ids by rank, walked in raw-id order: the net depends only on the
    # kept nodes' relative order, never on their raw ids or a set's layout.
    rank = {nid: i for i, nid in enumerate(sorted(useful & reachable))}

    nodes: Dict[int, DpvNode] = {}
    for nid, new in rank.items():
        dev, accept = raw_nodes[nid]
        nodes[new] = DpvNode(new, dev, accept)
    for nid, new in rank.items():
        for child in raw_edges.get(nid, ()):
            if child in rank:
                nodes[new].children.append(rank[child])
                nodes[rank[child]].parents.append(new)
    sources = {ingress: rank.get(nid) for ingress, nid in raw_sources.items()}
    return DpvNet(nodes, sources, arity)


def _suffix_merge(net: DpvNet) -> DpvNet:
    """Merge nodes with identical device, acceptance and child structure.

    This is the "state minimization to remove redundant nodes" step of §4.1
    applied directly on the DAG (Myhill–Nerode on the finite path language).
    Iterates bottom-up until a fixpoint.
    """
    order = net.reverse_topological_order()
    canonical: Dict[Tuple, int] = {}
    replacement: Dict[int, int] = {}
    for nid in order:
        node = net.nodes[nid]
        children = tuple(
            sorted(replacement.get(child, child) for child in node.children)
        )
        key = (node.dev, node.accept, children)
        existing = canonical.get(key)
        if existing is None:
            canonical[key] = nid
            replacement[nid] = nid
        else:
            replacement[nid] = existing

    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]] = {}
    raw_edges: Dict[int, List[int]] = {}
    for nid in set(replacement.values()):
        node = net.nodes[nid]
        raw_nodes[nid] = (node.dev, node.accept)
        children = sorted({replacement[child] for child in node.children})
        raw_edges[nid] = children
    raw_sources = {
        ingress: (replacement[nid] if nid is not None else None)
        for ingress, nid in net.sources.items()
    }
    return _prune_and_build(raw_nodes, raw_edges, raw_sources, net.arity)


# ----------------------------------------------------------------------
# Product construction
# ----------------------------------------------------------------------
def build_product_dpvnet(
    topology: Topology,
    dfas: Sequence[Dfa],
    ingresses: Sequence[str],
    max_hops: Optional[int] = None,
) -> DpvNet:
    """Multiply the behavior automata with the topology (§4.1).

    ``dfas`` holds one complete DFA per behavior atom (all over the same
    alphabet, which must contain every topology device).  The combined state
    is the tuple of per-atom states; a combined state is dead when every
    component is dead.

    If the reachable product contains a cycle, the graph is unrolled by hop
    count up to ``max_hops`` (default: number of devices), which bounds path
    length exactly like a concrete length filter would.
    """
    if not dfas:
        raise PlannerError("need at least one automaton")
    for ingress in ingresses:
        if not topology.has_device(ingress):
            raise PlannerError(f"ingress {ingress!r} not in topology")
    arity = len(dfas)

    def step(states: Tuple[int, ...], dev: str) -> Tuple[int, ...]:
        return tuple(dfa.step(state, dev) for dfa, state in zip(dfas, states))

    def all_dead(states: Tuple[int, ...]) -> bool:
        return all(dfa.is_dead(state) for dfa, state in zip(dfas, states))

    def acceptance(states: Tuple[int, ...]) -> Tuple[bool, ...]:
        return tuple(state in dfa.accepting for dfa, state in zip(dfas, states))

    start_states = tuple(dfa.start for dfa in dfas)

    # First pass: plain (dev, states) product.
    index: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]] = {}
    raw_edges: Dict[int, List[int]] = {}

    def get_node(dev: str, states: Tuple[int, ...]) -> int:
        key = (dev, states)
        nid = index.get(key)
        if nid is None:
            nid = len(index)
            index[key] = nid
            raw_nodes[nid] = (dev, acceptance(states))
            raw_edges[nid] = []
        return nid

    raw_sources: Dict[str, Optional[int]] = {}
    worklist: List[Tuple[str, Tuple[int, ...]]] = []
    for ingress in ingresses:
        states = step(start_states, ingress)
        if all_dead(states):
            raw_sources[ingress] = None
            continue
        nid = get_node(ingress, states)
        raw_sources[ingress] = nid
        worklist.append((ingress, states))
    visited: Set[Tuple[str, Tuple[int, ...]]] = set(worklist)
    while worklist:
        dev, states = worklist.pop()
        nid = index[(dev, states)]
        for neighbor in topology.neighbors(dev):
            nxt = step(states, neighbor)
            if all_dead(nxt):
                continue
            child = get_node(neighbor, nxt)
            if child not in raw_edges[nid]:
                raw_edges[nid].append(child)
            if (neighbor, nxt) not in visited:
                visited.add((neighbor, nxt))
                worklist.append((neighbor, nxt))

    if _is_acyclic(raw_nodes, raw_edges):
        net = _prune_and_build(raw_nodes, raw_edges, raw_sources, arity)
        return _suffix_merge(net)

    # Cyclic product: unroll by depth.
    bound = max_hops if max_hops is not None else topology.num_devices
    uindex: Dict[Tuple[str, Tuple[int, ...], int], int] = {}
    unodes: Dict[int, Tuple[str, Tuple[bool, ...]]] = {}
    uedges: Dict[int, List[int]] = {}

    def uget(dev: str, states: Tuple[int, ...], depth: int) -> int:
        key = (dev, states, depth)
        nid = uindex.get(key)
        if nid is None:
            nid = len(uindex)
            uindex[key] = nid
            unodes[nid] = (dev, acceptance(states))
            uedges[nid] = []
        return nid

    usources: Dict[str, Optional[int]] = {}
    uworklist: List[Tuple[str, Tuple[int, ...], int]] = []
    for ingress in ingresses:
        states = step(start_states, ingress)
        if all_dead(states):
            usources[ingress] = None
            continue
        usources[ingress] = uget(ingress, states, 0)
        uworklist.append((ingress, states, 0))
    useen = set(uworklist)
    while uworklist:
        dev, states, depth = uworklist.pop()
        if depth >= bound:
            continue
        nid = uindex[(dev, states, depth)]
        for neighbor in topology.neighbors(dev):
            nxt = step(states, neighbor)
            if all_dead(nxt):
                continue
            child = uget(neighbor, nxt, depth + 1)
            if child not in uedges[nid]:
                uedges[nid].append(child)
            key = (neighbor, nxt, depth + 1)
            if key not in useen:
                useen.add(key)
                uworklist.append(key)
    net = _prune_and_build(unodes, uedges, usources, arity)
    return _suffix_merge(net)


def _is_acyclic(
    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]],
    raw_edges: Dict[int, List[int]],
) -> bool:
    state: Dict[int, int] = {}
    for start in raw_nodes:
        if state.get(start, 0):
            continue
        stack: List[Tuple[int, bool]] = [(start, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                state[nid] = 2
                continue
            mark = state.get(nid, 0)
            if mark == 2:
                continue
            if mark == 1:
                continue
            state[nid] = 1
            stack.append((nid, True))
            for child in raw_edges.get(nid, ()):
                child_mark = state.get(child, 0)
                if child_mark == 1:
                    return False
                if child_mark == 0:
                    stack.append((child, False))
    return True


# ----------------------------------------------------------------------
# Simple-path enumeration construction
# ----------------------------------------------------------------------
def accept_distances(dfa: Dfa, topology: Topology) -> Dict[Tuple[int, str], int]:
    """Fewest links from ``(state, device)`` to an accepting state of
    ``dfa`` in the DFA × topology product (§4.1), ignoring simplicity and
    length filters.  A pair absent from the table never reaches acceptance
    (the dead state, for one).

    One backward BFS seeded at every accepting state on every device."""
    index = dfa.symbol_index
    # (device, target) -> states that step into ``target`` on ``device``.
    into: Dict[Tuple[str, int], List[int]] = {}
    for dev in topology.devices:
        column = index[dev]
        for state, row in enumerate(dfa.transitions):
            into.setdefault((dev, row[column]), []).append(state)
    frontier = [(state, dev) for state in dfa.accepting for dev in topology.devices]
    dist = {pair: 0 for pair in frontier}
    hops = 0
    while frontier:
        hops += 1
        reached: List[Tuple[int, str]] = []
        for target, dev in frontier:
            for state in into.get((dev, target), ()):
                for prev in topology.neighbors(dev):
                    if (state, prev) not in dist:
                        dist[(state, prev)] = hops
                        reached.append((state, prev))
        frontier = reached
    return dist


def build_enumeration_dpvnet(
    topology: Topology,
    dfas: Sequence[Dfa],
    ingresses: Sequence[str],
    accept_path,
    max_hops: Union[int, Mapping[str, int]],
    simple_only: bool = True,
) -> DpvNet:
    """Enumerate (simple) matching paths and build the suffix-shared DAG.

    ``accept_path(atom_index, ingress, path) -> bool`` refines automaton
    acceptance with path-dependent checks (length filters, including the
    symbolic ``shortest`` ones).  ``max_hops`` bounds the search depth in
    links, for every ingress or per ingress.

    The search is goal-directed: a prefix is not extended to a device from
    which no component DFA can reach acceptance within the remaining hops
    (:func:`accept_distances`).  The bound ignores simplicity and length
    filters, so it only cuts prefixes that could never end an accepted
    path; the survivors keep their relative order, and the dense ids of
    :func:`_prune_and_build` make the net exactly the one the unpruned
    search would build.
    """
    if not dfas:
        raise PlannerError("need at least one automaton")
    arity = len(dfas)
    start_states = tuple(dfa.start for dfa in dfas)
    dists = [accept_distances(dfa, topology) for dfa in dfas]
    neighbors = {dev: topology.neighbors(dev) for dev in topology.devices}

    def step(states: Tuple[int, ...], dev: str) -> Tuple[int, ...]:
        return tuple(dfa.step(state, dev) for dfa, state in zip(dfas, states))

    def reaches_acceptance(states: Tuple[int, ...], dev: str, budget: int) -> bool:
        """Some component accepts within ``budget`` more links."""
        for dist, state in zip(dists, states):
            hops = dist.get((state, dev))
            if hops is not None and hops <= budget:
                return True
        return False

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
        bound = max_hops if isinstance(max_hops, int) else max_hops[ingress]
        states = step(start_states, ingress)
        if not reaches_acceptance(states, ingress, bound):
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
            budget = bound - len(path)  # links left after one more hop
            if budget < 0:
                continue
            for neighbor in neighbors[dev]:
                if simple_only and neighbor in path:
                    continue
                nxt = step(cur_states, neighbor)
                if not reaches_acceptance(nxt, neighbor, budget):
                    continue
                child = trie_get(tnode, neighbor)
                stack.append((child, neighbor, nxt, path + (neighbor,)))

    raw_nodes: Dict[int, Tuple[str, Tuple[bool, ...]]] = {}
    raw_edges: Dict[int, List[int]] = {}
    for nid in range(1, len(trie_children)):
        raw_nodes[nid] = (trie_dev[nid], tuple(trie_accept[nid]))
        raw_edges[nid] = sorted(trie_children[nid].values())
    net = _prune_and_build(raw_nodes, raw_edges, raw_sources, arity)
    return _suffix_merge(net)
