"""Invariant fault tolerance with minimal planner involvement (§6).

The planner precomputes one *fault-tolerant DPVNet* representing the union of
the valid paths of every operator-specified fault scene, labels nodes/edges
with the scenes they belong to, and ships the labeled tasks once.  When a
scene happens, on-device verifiers flood the failure (simulated by the
runner), switch to the scene's labels and recount — the planner is never
contacted unless the scene was not pre-specified or has no valid path.

Implementation of the Proposition 2 algorithm:

* no symbolic length filter → the fault-tolerant DPVNet *is* the base DPVNet
  (valid paths only shrink when links fail); verifiers just zero counts over
  failed links.
* symbolic filters (``== shortest`` …) → scenes are traversed in ascending
  order of failure count; a scene whose failed links are untouched by the
  previously computed paths, or whose symbolic-filter values match an
  already-traversed subset scene, reuses that scene's paths (filtered by
  link liveness); otherwise a fresh bounded search runs.  All labeled paths
  are merged into one suffix-shared DAG.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.dpvnet import DpvNet, DpvNode
from repro.core.invariant import FaultSpec, Invariant
from repro.core.planner import Planner
from repro.errors import PlannerError
from repro.topology.graph import Topology, canonical_link

__all__ = ["FaultScene", "FaultPlan", "compute_fault_plan", "enumerate_scenes"]

Link = Tuple[str, str]
LabeledPath = Tuple[str, Tuple[str, ...], Tuple[bool, ...]]  # ingress, path, accept


@dataclass(frozen=True)
class FaultScene:
    """One fault scene: a set of failed links.  Scene 0 is always 'no
    failure'."""

    scene_id: int
    failed_links: FrozenSet[Link]


@dataclass
class FaultPlan:
    """The precomputed fault-tolerant DPVNet and its scene index."""

    invariant_name: str
    net: DpvNet
    scenes: List[FaultScene]
    intolerable: List[FaultScene] = field(default_factory=list)

    def scene_for(self, failed_links: Sequence[Link]) -> Optional[FaultScene]:
        """Look up the precomputed scene matching a set of failures, or
        ``None`` (the §6 "unspecified fault scene" case — verifiers would
        report it to the planner)."""
        key = frozenset(canonical_link(a, b) for a, b in failed_links)
        for scene in self.scenes:
            if scene.failed_links == key:
                return scene
        return None


def enumerate_scenes(
    topology: Topology,
    spec: FaultSpec,
    max_scenes: Optional[int] = None,
) -> List[FrozenSet[Link]]:
    """Expand a :class:`FaultSpec` into concrete scenes, ascending by the
    number of failed links; the empty scene comes first.

    ``max_scenes`` optionally truncates ``any_k`` expansion (large topologies
    have combinatorially many scenes; the paper samples 50 in §9.3.4)."""
    scenes: List[FrozenSet[Link]] = [frozenset()]
    if spec.any_k is not None:
        links = sorted(topology.link_set())
        for size in range(1, spec.any_k + 1):
            for combo in itertools.combinations(links, size):
                scenes.append(frozenset(combo))
                if max_scenes is not None and len(scenes) > max_scenes:
                    return scenes
    else:
        explicit = sorted(spec.scenes, key=lambda scene: (len(scene), sorted(scene)))
        for scene in explicit:
            normalized = frozenset(canonical_link(a, b) for a, b in scene)
            if normalized and normalized not in scenes:
                scenes.append(normalized)
    return scenes


def _enumerate_labeled_paths(
    planner: Planner,
    invariant: Invariant,
    topology: Topology,
) -> List[LabeledPath]:
    """All valid (ingress, path, acceptance) triples in ``topology``.

    Built from the enumeration DPVNet so exactly the planner's semantics
    (length filters, loop_free, multi-atom acceptance) apply.
    """
    scene_planner = Planner(topology, planner.ctx)
    net = scene_planner.build_dpvnet(invariant, topology)
    labeled: List[LabeledPath] = []
    for ingress, source in net.sources.items():
        if source is None:
            continue

        def walk(node_id: int, prefix: Tuple[str, ...]) -> None:
            node = net.node(node_id)
            here = prefix + (node.dev,)
            if any(node.accept):
                labeled.append((ingress, here, node.accept))
            for child in node.children:
                walk(child, here)

        walk(source, ())
    return labeled


def _filter_signature(
    topology: Topology, invariant: Invariant
) -> Tuple:
    """Concrete values of every symbolic length filter: the shortest-hop
    distances from each ingress to every device (the quantities ``shortest``
    resolves to)."""
    signature = []
    for ingress in invariant.ingress_set:
        distances = []
        for dev in topology.devices:
            distances.append((dev, topology.shortest_hops(ingress, dev)))
        signature.append((ingress, tuple(distances)))
    return tuple(signature)


def compute_fault_plan(
    planner: Planner,
    invariant: Invariant,
    max_scenes: Optional[int] = None,
) -> FaultPlan:
    """Run the §6 precomputation and return the labeled DPVNet + scene
    table."""
    if invariant.fault_spec is None:
        raise PlannerError("invariant has no fault_scenes field")
    topology = planner.topology
    scene_links = enumerate_scenes(topology, invariant.fault_spec, max_scenes)
    scenes = [FaultScene(i, links) for i, links in enumerate(scene_links)]

    atoms = invariant.atoms()
    symbolic = any(atom.path.has_symbolic_filter() for atom in atoms)

    if not symbolic:
        # Proposition 2, easy half: valid paths only shrink under failures,
        # so the base DPVNet covers every scene; verifiers zero counts over
        # failed links with no re-planning at all.
        net = planner.build_dpvnet(invariant)
        intolerable = _find_intolerable(net, scenes, invariant)
        return FaultPlan(invariant.name, net, scenes, intolerable)

    # Symbolic filters: per-scene path sets with the reuse rules.
    base_paths = _enumerate_labeled_paths(planner, invariant, topology)
    base_signature = _filter_signature(topology, invariant)
    path_scenes: Dict[LabeledPath, Set[int]] = {p: {0} for p in base_paths}
    computed: List[Tuple[FrozenSet[Link], Tuple, List[LabeledPath]]] = [
        (frozenset(), base_signature, base_paths)
    ]
    intolerable: List[FaultScene] = []

    def links_of(path: Tuple[str, ...]) -> Set[Link]:
        return {canonical_link(a, b) for a, b in zip(path, path[1:])}

    for scene in scenes[1:]:
        failed = scene.failed_links
        topo_f = topology.without_links(failed)
        signature = _filter_signature(topo_f, invariant)

        base_uses_failed = any(
            links_of(path) & failed for _ing, path, _acc in base_paths
        )
        if not base_uses_failed and signature == base_signature:
            # R(G, Ψ) untouched by this scene: same valid paths.
            scene_paths = base_paths
        else:
            reused: Optional[List[LabeledPath]] = None
            # Maximal previously-traversed subset scene with equal filter
            # values: its surviving paths are exactly this scene's paths.
            for prev_failed, prev_signature, prev_paths in sorted(
                computed, key=lambda item: -len(item[0])
            ):
                if prev_failed <= failed and prev_signature == signature:
                    reused = [
                        labeled
                        for labeled in prev_paths
                        if not (links_of(labeled[1]) & failed)
                    ]
                    break
            if reused is not None:
                scene_paths = reused
            else:
                scene_paths = _enumerate_labeled_paths(planner, invariant, topo_f)
        computed.append((failed, signature, scene_paths))
        if not scene_paths:
            intolerable.append(scene)
            continue
        for labeled in scene_paths:
            path_scenes.setdefault(labeled, set()).add(scene.scene_id)

    net = _merge_labeled_paths(path_scenes, invariant, len(atoms))
    return FaultPlan(invariant.name, net, scenes, intolerable)


def _find_intolerable(
    net: DpvNet, scenes: List[FaultScene], invariant: Invariant
) -> List[FaultScene]:
    """Scenes under which some ingress loses every valid path (checked on
    the DAG with failed edges removed)."""
    intolerable: List[FaultScene] = []
    for scene in scenes[1:]:
        ok = True
        for ingress, source in net.sources.items():
            if source is None:
                continue
            if not _can_accept(net, source, scene.failed_links):
                ok = False
                break
        if not ok:
            intolerable.append(scene)
    return intolerable


def _can_accept(net: DpvNet, source: int, failed: FrozenSet[Link]) -> bool:
    stack = [source]
    seen = {source}
    while stack:
        nid = stack.pop()
        node = net.node(nid)
        if any(node.accept):
            return True
        for child in node.children:
            link = canonical_link(node.dev, net.node(child).dev)
            if link in failed or child in seen:
                continue
            seen.add(child)
            stack.append(child)
    return False


def _merge_labeled_paths(
    path_scenes: Mapping[LabeledPath, Set[int]],
    invariant: Invariant,
    arity: int,
) -> DpvNet:
    """Merge scene-labeled paths into one suffix-shared DAG.

    Edge labels = scenes of the paths crossing the edge; acceptance labels =
    scenes of the paths *ending* at the node (kept per atom).  Suffix merging
    keys on the labels so per-scene counting stays exact.
    """
    # Build a per-ingress prefix trie carrying labels.
    trie_children: List[Dict[str, int]] = [{}]
    trie_dev: List[Optional[str]] = [None]
    trie_accept: List[List[FrozenSet[int]]] = [[frozenset()] * arity]
    trie_edge_scenes: List[Dict[int, Set[int]]] = [{}]
    roots: Dict[str, Optional[int]] = {
        ingress: None for ingress in invariant.ingress_set
    }

    def trie_get(parent: int, dev: str) -> int:
        child = trie_children[parent].get(dev)
        if child is None:
            child = len(trie_children)
            trie_children[parent][dev] = child
            trie_children.append({})
            trie_dev.append(dev)
            trie_accept.append([frozenset()] * arity)
            trie_edge_scenes.append({})
        return child

    for (ingress, path, accept), scenes in sorted(path_scenes.items()):
        node = trie_get(0, path[0])
        if roots.get(ingress) is None:
            roots[ingress] = node
        for dev in path[1:]:
            child = trie_get(node, dev)
            existing = trie_edge_scenes[node].get(child, set())
            trie_edge_scenes[node][child] = existing | set(scenes)
            node = child
        for i, flag in enumerate(accept):
            if flag:
                trie_accept[node][i] = trie_accept[node][i] | frozenset(scenes)

    # Bottom-up suffix merge with labels in the signature.
    order = _postorder(trie_children)
    canonical: Dict[Tuple, int] = {}
    replacement: Dict[int, int] = {}
    for tid in order:
        children_sig = tuple(
            sorted(
                (replacement[child], frozenset(trie_edge_scenes[tid].get(child, ())))
                for child in trie_children[tid].values()
            )
        )
        key = (trie_dev[tid], tuple(trie_accept[tid]), children_sig)
        existing = canonical.get(key)
        if existing is None:
            canonical[key] = tid
            replacement[tid] = tid
        else:
            replacement[tid] = existing

    # Dense ids by rank of the kept trie ids, as every DPVNet numbers them.
    keep = sorted(set(replacement[tid] for tid in order if trie_dev[tid] is not None))
    rank = {tid: i for i, tid in enumerate(keep)}
    nodes: Dict[int, DpvNode] = {}
    edge_scenes: Dict[Tuple[int, int], FrozenSet[int]] = {}
    accept_scenes: Dict[Tuple[int, int], FrozenSet[int]] = {}
    for tid, nid in rank.items():
        accept_vec = tuple(bool(s) for s in trie_accept[tid])
        nodes[nid] = DpvNode(nid, trie_dev[tid], accept_vec)
        for i, scene_set in enumerate(trie_accept[tid]):
            if scene_set:
                accept_scenes[(nid, i)] = frozenset(scene_set)
    for tid, nid in rank.items():
        merged_children: Dict[int, Set[int]] = {}
        for child, scene_set in trie_edge_scenes[tid].items():
            target = rank[replacement[child]]
            merged_children.setdefault(target, set()).update(scene_set)
        for target, scene_set in sorted(merged_children.items()):
            nodes[nid].children.append(target)
            nodes[target].parents.append(nid)
            edge_scenes[(nid, target)] = frozenset(scene_set)

    sources = {
        ingress: (rank[replacement[root]] if root is not None else None)
        for ingress, root in roots.items()
    }
    net = DpvNet(nodes, sources, arity)
    net.edge_scenes = edge_scenes
    net.accept_scenes = accept_scenes  # type: ignore[attr-defined]
    return net


def _postorder(trie_children: List[Dict[str, int]]) -> List[int]:
    order: List[int] = []
    stack: List[Tuple[int, bool]] = [(0, False)]
    seen: Set[int] = set()
    while stack:
        tid, expanded = stack.pop()
        if expanded:
            order.append(tid)
            continue
        if tid in seen:
            continue
        seen.add(tid)
        stack.append((tid, True))
        for child in trie_children[tid].values():
            stack.append((child, False))
    return order
