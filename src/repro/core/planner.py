"""The verification planner (§4).

Given an invariant and the topology (never the data plane — DPVNet is
data-plane independent, §2.2.2), the planner:

1. compiles every behavior atom's path expression to a minimal DFA;
2. builds the DPVNet, choosing the product construction for plain regexes
   and the simple-path enumeration for ``loop_free`` / length-filtered
   expressions (see :mod:`repro.core.dpvnet`);
3. decomposes the counting problem into per-device :class:`DeviceTask`s;
4. for one-shot (centralized) verification, runs Algorithm 1 and evaluates
   the behavior formula over the resulting count sets.

``equal``-operator atoms short-circuit into *local checks* (§4.2): every
node only checks that its device forwards the packet space to all of the
node's downstream-neighbor devices — the RCDC local contract as a special
case; no counting or communication is needed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.automata.dfa import Dfa, compile_regex
from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.core.counting import CountSet, singleton, zero_vec
from repro.core.dpvnet import (
    DpvNet,
    build_enumeration_dpvnet,
    build_product_dpvnet,
)
from repro.core.invariant import (
    Atom,
    Behavior,
    Invariant,
    MatchKind,
    collect_atoms,
    evaluate_behavior,
    positive_count_exps,
)
from repro.core.offline import count_sources
from repro.core.result import VerificationResult, Violation
from repro.core.tasks import DeviceTask, NeighborRef, NodeTask, TaskSet
from repro.dataplane.action import EXTERNAL
from repro.dataplane.device import DevicePlane
from repro.errors import PlannerError, SpecificationError
from repro.topology.graph import Topology

__all__ = ["Planner"]


class Planner:
    """Plans and (optionally) centrally executes verification."""

    def __init__(self, topology: Topology, ctx: PacketSpaceContext) -> None:
        self.topology = topology
        self.ctx = ctx

    # ------------------------------------------------------------------
    # DPVNet construction
    # ------------------------------------------------------------------
    def counting_atoms(self, invariant: Invariant) -> List[Atom]:
        """The invariant's counting components, checked for combinability."""
        atoms = collect_atoms(invariant.behavior)
        if not atoms:
            raise SpecificationError("behavior has no atoms")
        kinds = {atom.kind for atom in atoms}
        if MatchKind.EQUAL in kinds and len(atoms) > 1:
            raise SpecificationError(
                "equal atoms cannot be combined with other atoms"
            )
        return atoms

    def compile_atoms(self, invariant: Invariant) -> Tuple[List[Atom], List[Dfa]]:
        atoms = self.counting_atoms(invariant)
        alphabet = self.topology.devices
        dfas = [compile_regex(atom.path.regex, alphabet) for atom in atoms]
        return atoms, dfas

    def build_dpvnet(
        self,
        invariant: Invariant,
        topology: Optional[Topology] = None,
    ) -> DpvNet:
        """Construct the DPVNet for an invariant (§4.1).

        ``topology`` overrides the planner's topology (fault scenes pass the
        failed-link subgraph here).
        """
        atoms, dfas = self.compile_atoms(invariant)
        return self._build(invariant, atoms, dfas, topology or self.topology)

    def _build(
        self,
        invariant: Invariant,
        atoms: Sequence[Atom],
        dfas: Sequence[Dfa],
        topo: Topology,
    ) -> DpvNet:
        needs_enumeration = any(
            atom.path.simple_only or atom.path.length_filters for atom in atoms
        )
        ingresses = list(invariant.ingress_set)
        if not needs_enumeration:
            return build_product_dpvnet(
                topo, dfas, ingresses, max_hops=topo.num_devices
            )

        def accept_path(atom_index: int, ingress: str, path: Tuple[str, ...]) -> bool:
            atom = atoms[atom_index]
            hops = len(path) - 1
            for filt in atom.path.length_filters:
                if not filt.admits(hops, topo.shortest_hops(ingress, path[-1])):
                    return False
            return True

        max_hops = self._max_hops_bound(topo, atoms, dfas, ingresses)
        simple = any(atom.path.simple_only for atom in atoms)
        return build_enumeration_dpvnet(
            topo, dfas, ingresses, accept_path, max_hops, simple_only=simple
        )

    def _max_hops_bound(
        self,
        topo: Topology,
        atoms: Sequence[Atom],
        dfas: Sequence[Dfa],
        ingresses: Sequence[str],
    ) -> Dict[str, int]:
        """Per ingress, the smallest safe search depth the length filters
        imply.

        A symbolic ``shortest+k`` filter bounds a path by the shortest-hop
        distance from its ingress to its last device, and an accepted path
        can only end on a device where the atom's DFA steps into acceptance
        (for ``S .* D``, only ``D``): the worst case is taken over those."""
        fallback = topo.num_devices - 1
        ends = [
            {
                dfa.alphabet[column]
                for row in dfa.transitions
                for column, target in enumerate(row)
                if target in dfa.accepting
            }
            for dfa in dfas
        ]
        bounds: Dict[str, int] = {}
        for ingress in ingresses:
            atom_bounds: List[int] = []
            for atom, atom_ends in zip(atoms, ends):
                atom_bound = fallback
                for filt in atom.path.length_filters:
                    if filt.op not in ("<=", "<", "=="):
                        continue
                    worst = None
                    if filt.symbolic:
                        hops = [topo.shortest_hops(ingress, end) for end in atom_ends]
                        worst = max((h for h in hops if h is not None), default=0)
                    atom_bound = min(atom_bound, filt.max_hops(worst, fallback))
                atom_bounds.append(atom_bound)
            bounds[ingress] = max(atom_bounds)
        return bounds

    def plan(
        self,
        invariants: Sequence[Invariant],
        prebuilt_nets: Optional[Mapping[str, DpvNet]] = None,
    ) -> List[TaskSet]:
        """Decompose a batch of invariants, one :class:`TaskSet` each, in
        order — planning once per shape.

        A DPVNet depends on the topology, the ingress set and the behavior,
        never on the packet space, so invariants that differ only in packet
        space share one build, and a behavior's DFAs are compiled once.  The
        memo lives for this call only; every invariant still gets its own
        task set.  ``prebuilt_nets`` maps invariant names to DPVNets used
        as given (e.g. fault-tolerant ones from
        :func:`repro.core.fault.compute_fault_plan`).
        """
        prebuilt = prebuilt_nets or {}
        compiled: Dict[Behavior, Tuple[List[Atom], List[Dfa]]] = {}
        nets: Dict[tuple, DpvNet] = {}
        task_sets: List[TaskSet] = []
        for inv in invariants:
            net = prebuilt.get(inv.name)
            if net is None:
                key = (tuple(inv.ingress_set), inv.behavior, inv.fault_spec)
                net = nets.get(key)
                if net is None:
                    if inv.behavior not in compiled:
                        compiled[inv.behavior] = self.compile_atoms(inv)
                    atoms, dfas = compiled[inv.behavior]
                    net = nets[key] = self._build(inv, atoms, dfas, self.topology)
            task_sets.append(self.decompose(inv, net))
        return task_sets

    # ------------------------------------------------------------------
    # Task decomposition (§2.2.2)
    # ------------------------------------------------------------------
    def decompose(self, invariant: Invariant, net: Optional[DpvNet] = None) -> TaskSet:
        """Split the DPVNet into per-device counting tasks."""
        atoms = self.counting_atoms(invariant)
        if net is None:
            net = self.build_dpvnet(invariant)
        node_home = {nid: node.dev for nid, node in net.nodes.items()}
        source_of = {
            nid: ingress
            for ingress, nid in net.sources.items()
            if nid is not None
        }
        reduction = tuple(positive_count_exps(invariant.behavior, atoms))
        tasks: Dict[str, DeviceTask] = {}
        for nid, node in net.nodes.items():
            task = tasks.get(node.dev)
            if task is None:
                task = DeviceTask(
                    dev=node.dev,
                    invariant_name=invariant.name,
                    packet_space=invariant.packet_space,
                    atoms=tuple(atoms),
                    behavior=invariant.behavior,
                    reduction_exps=reduction,
                )
                tasks[node.dev] = task
            edge_scenes = {}
            if net.edge_scenes is not None:
                for child in node.children:
                    scenes = net.edge_scenes.get((nid, child))
                    if scenes is not None:
                        edge_scenes[child] = scenes
            accept_scenes = {}
            net_accept_scenes = getattr(net, "accept_scenes", None)
            if net_accept_scenes:
                for i in range(net.arity):
                    scenes = net_accept_scenes.get((nid, i))
                    if scenes is not None:
                        accept_scenes[i] = scenes
            task.nodes.append(
                NodeTask(
                    node_id=nid,
                    label=node.label,
                    dev=node.dev,
                    accept=node.accept,
                    accept_scenes=accept_scenes,
                    downstream=[
                        NeighborRef(child, net.node(child).dev)
                        for child in node.children
                    ],
                    upstream=[
                        NeighborRef(parent, net.node(parent).dev)
                        for parent in node.parents
                    ],
                    is_source_for=source_of.get(nid),
                    edge_scenes=edge_scenes,
                )
            )
        return TaskSet(
            invariant_name=invariant.name,
            tasks=tasks,
            node_home=node_home,
            source_nodes=dict(net.sources),
            arity=net.arity,
        )

    # ------------------------------------------------------------------
    # One-shot centralized verification (reference path)
    # ------------------------------------------------------------------
    def verify(
        self,
        invariant: Invariant,
        planes: Mapping[str, DevicePlane],
        net: Optional[DpvNet] = None,
    ) -> VerificationResult:
        """Verify the invariant against a data plane snapshot (Algorithm 1 +
        behavior evaluation, or local checks for ``equal``)."""
        atoms = self.counting_atoms(invariant)
        if net is None:
            net = self.build_dpvnet(invariant)
        if atoms[0].kind is MatchKind.EQUAL:
            return self._verify_equal(invariant, planes, net)

        source_counts = count_sources(net, planes, atoms, invariant.packet_space)
        violations: List[Violation] = []
        for ingress, pieces in source_counts.items():
            for region, countset in pieces:
                bad = tuple(
                    vec
                    for vec in countset
                    if not evaluate_behavior(invariant.behavior, atoms, vec)
                )
                if bad:
                    violations.append(Violation(ingress, region, bad))
        return VerificationResult(
            invariant_name=invariant.name,
            holds=not violations,
            violations=violations,
            source_counts=source_counts,
            dpvnet_stats=net.stats(),
        )

    def _verify_equal(
        self,
        invariant: Invariant,
        planes: Mapping[str, DevicePlane],
        net: DpvNet,
    ) -> VerificationResult:
        """§4.2 local checks: minimal counting information is the empty set.

        Node ``u`` passes iff ``u.dev`` forwards every packet of the space
        (with an ALL-type action) to exactly the devices of u's downstream
        neighbors, and accepting nodes deliver.
        """
        violations: List[Violation] = []
        space = invariant.packet_space
        for nid, node in net.nodes.items():
            plane = planes.get(node.dev)
            expected = {net.node(child).dev for child in node.children}
            if any(node.accept):
                expected = expected | {EXTERNAL}
            if plane is None:
                violations.append(
                    Violation(node.dev, space, message=f"{node.label}: no data plane")
                )
                continue
            for piece, action in plane.fwd(space):
                actual = set(action.group)
                missing = expected - actual
                if missing:
                    violations.append(
                        Violation(
                            node.dev,
                            piece,
                            message=(
                                f"{node.label}: next-hop group must include "
                                f"{sorted(expected)}, got {action}"
                            ),
                        )
                    )
        return VerificationResult(
            invariant_name=invariant.name,
            holds=not violations,
            violations=violations,
            dpvnet_stats=net.stats(),
        )

    # ------------------------------------------------------------------
    # §3 consistency validation
    # ------------------------------------------------------------------
    def validate(self, invariant: Invariant) -> None:
        """Raise if the destination IPs in the packet space are inconsistent
        with the destination devices of the path expressions (§3)."""
        if not self.topology.external_prefixes:
            return  # nothing to check against
        if not self.ctx.layout.has_field("dst_ip"):
            return
        atoms = collect_atoms(invariant.behavior)
        mentioned = set()
        for atom in atoms:
            mentioned |= set(atom.path.devices())
        owners: List[str] = []
        for device, prefixes in self.topology.external_prefixes.items():
            for prefix in prefixes:
                pred = self.ctx.ip_prefix(prefix)
                if pred.overlaps(invariant.packet_space):
                    owners.append(device)
                    break
        if owners and mentioned and not (set(owners) & mentioned):
            raise SpecificationError(
                f"packet space is owned by {sorted(set(owners))} but the path "
                f"expressions only mention {sorted(mentioned)}"
            )
