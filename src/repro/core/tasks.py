"""On-device counting task descriptors (§2.2.2, "Counting decomposition and
distribution").

The planner compiles a DPVNet into one :class:`DeviceTask` per device: the
DPVNet nodes hosted on that device, each node's upstream/downstream neighbor
lists (with the devices those neighbors live on — that is where DVM messages
go), the invariant atoms and the packet space.  This is exactly the payload
the paper's planner ships to on-device verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.bdd.predicate import Predicate
from repro.core.counting import CountExp
from repro.core.invariant import Atom, Behavior

__all__ = ["NodeTask", "DeviceTask", "TaskSet"]


@dataclass(frozen=True)
class NeighborRef:
    """A DPVNet neighbor: node id + hosting device."""

    node_id: int
    dev: str


@dataclass
class NodeTask:
    """Counting task for one DPVNet node.

    ``edge_scenes`` optionally labels each downstream edge with the fault
    scenes in which it is part of a valid path (§6); ``None`` = all scenes.
    """

    node_id: int
    label: str
    dev: str
    accept: Tuple[bool, ...]
    downstream: List[NeighborRef] = field(default_factory=list)
    upstream: List[NeighborRef] = field(default_factory=list)
    is_source_for: Optional[str] = None  # ingress name if this is its source
    edge_scenes: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    # Per-atom scene-restricted acceptance: atom index -> scene ids in which
    # a trace ending here matches.  Atoms absent from the dict accept in all
    # scenes (plain, non-fault-tolerant DPVNets).
    accept_scenes: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    # scene id -> effective acceptance vector; the verifier asks on every
    # counted piece and the inputs are immutable after planning.
    _accept_memo: Dict[int, Tuple[bool, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def accept_in_scene(self, scene: Optional[int]) -> Tuple[bool, ...]:
        """Effective acceptance vector for the given fault scene (scene
        ``None`` means the base no-failure scene 0)."""
        if not self.accept_scenes:
            return self.accept
        sid = 0 if scene is None else scene
        vec = self._accept_memo.get(sid)
        if vec is None:
            vec = self._accept_memo[sid] = tuple(
                flag
                and (i not in self.accept_scenes or sid in self.accept_scenes[i])
                for i, flag in enumerate(self.accept)
            )
        return vec

    def downstream_devices(self) -> List[str]:
        return [ref.dev for ref in self.downstream]


@dataclass
class DeviceTask:
    """Everything one device needs to run its share of the verification."""

    dev: str
    invariant_name: str
    packet_space: Predicate
    atoms: Tuple[Atom, ...]
    behavior: Behavior
    nodes: List[NodeTask] = field(default_factory=list)
    # Proposition 1 reduction parameters, one per atom (None = send full).
    reduction_exps: Tuple[Optional[CountExp], ...] = ()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class TaskSet:
    """The full decomposition of one invariant."""

    invariant_name: str
    tasks: Dict[str, DeviceTask]
    # (node_id -> hosting device), for message routing in the simulator.
    node_home: Dict[int, str]
    source_nodes: Dict[str, Optional[int]]  # ingress -> source node id
    arity: int

    def devices(self) -> List[str]:
        return sorted(self.tasks)

    def total_nodes(self) -> int:
        return sum(task.num_nodes for task in self.tasks.values())
