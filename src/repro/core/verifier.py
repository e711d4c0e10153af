"""On-device verifiers (§5, §8).

An :class:`OnDeviceVerifier` executes the counting tasks the planner assigned
to one device.  It is a pure event-driven state machine: every handler takes
an event (a DVM message, a LEC delta from the local data plane, a link state
change, a fault-scene activation) and returns the list of DVM messages to
send, each addressed to a neighbor device.  The discrete-event simulator —
or, in a real deployment, a TCP agent — moves the messages.

State per DPVNet node (§5.1):

* ``CIBIn(v)`` — latest counting results received from downstream neighbor
  ``v``, a disjoint predicate → count-set map.
* ``LocCIB`` — this node's own latest counts.  Causality is implicit: every
  recomputation rebuilds the affected region from the CIBIn tables, which is
  the paper's inverse-⊗/⊕-then-reapply update expressed without storing the
  causality tuples.
* ``CIBOut`` — what upstream neighbors currently believe (after
  Proposition 1 minimal-information reduction); used to suppress no-op
  UPDATEs, so only changed results travel.

Region algebra (``predicate_index``): every handler below is written once
over *words* of a region carrier (:meth:`PacketSpaceContext.carrier`),
combined only with ``&``, ``|``, ``& ~`` and truthiness.  ``"atoms"`` (the
default, and the only deployable mode) runs it on packed ``int`` masks over
the context's shared :class:`~repro.core.atomindex.AtomIndex`; ``"bdd"``
runs the same text on canonical :class:`Predicate`s as the oracle the parity
suites compare against.  One rule keeps raw words sound: they never outlive
a handler (anything stored — CIB entries, interests, subscriptions — is a
carrier handle, ``keep``/``word``) and they are ``resolve``d after anything
that may refine the carrier (``lift``, ``image``, ``preimage``, a
from-scratch LEC table build).  The *wire* is carrier-independent: messages,
verdicts and violations always carry canonical BDD predicates, converted
(``lift``/``lower``) at the handler boundaries.  The local data plane is not
a boundary: a counting verifier attaches its carrier to the plane, and reads
the LEC table and its deltas as that carrier's handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bdd.predicate import PacketSpaceContext, Predicate
from repro.core.counting import (
    CountSet,
    cross_sum,
    make_reduce_kernel,
    singleton,
    union,
    zero_vec,
)
from repro.core.dvm import SubscribeMessage, UpdateMessage
from repro.core.invariant import EndKind, MatchKind
from repro.core.kernels import BehaviorKernel
from repro.core.offline import node_base_vector
from repro.core.predmap import PredMap
from repro.core.result import Violation
from repro.core.tasks import DeviceTask, NodeTask
from repro.dataplane.action import EXTERNAL, Action, GroupType
from repro.dataplane.device import DevicePlane
from repro.dataplane.lec import LecDelta
from repro.errors import ProtocolError

__all__ = ["OnDeviceVerifier", "Outgoing"]

Outgoing = Tuple[str, object]  # (destination device, DVM message)


@dataclass
class _NodeState:
    # ``interest`` and ``subscribed`` hold carrier handles, never raw words.
    loc_cib: PredMap
    cib_out: PredMap
    interest: object
    cib_in: Dict[int, PredMap] = field(default_factory=dict)
    subscribed: Dict[int, object] = field(default_factory=dict)


@dataclass
class _Stats:
    updates_received: int = 0
    updates_sent: int = 0
    subscribes_received: int = 0
    subscribes_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    recomputations: int = 0


class OnDeviceVerifier:
    """The verification agent of one device for one invariant."""

    def __init__(
        self,
        task: DeviceTask,
        plane: DevicePlane,
        predicate_index: str = "atoms",
        tracer=None,
        invariant: Optional[str] = None,
    ) -> None:
        self.task = task
        self.plane = plane
        # Optional telemetry sink (repro.telemetry.Tracer) and the invariant
        # name used to attribute verdict events.  Both default off so the
        # parallel workers (which construct verifiers directly) are
        # unaffected.
        self.tracer = tracer
        self.invariant = invariant
        self.ctx: PacketSpaceContext = task.packet_space.ctx
        self.arity = len(task.atoms)
        self.is_local_check = task.atoms[0].kind is MatchKind.EQUAL
        # The one place the representation is chosen.  ``equal``-operator
        # local contracts never touch region algebra (they read the plane
        # through ``fwd``, in predicates), so they take the reference
        # carrier and refine no atom index; a counting verifier reads the
        # plane's LEC table and deltas as words, so the plane keeps them on
        # this verifier's carrier.
        if self.is_local_check:
            carrier = self.ctx.carrier("bdd")
        else:
            carrier = self.ctx.carrier(predicate_index)
            plane.use_carrier(carrier)
        self._carrier = carrier

        self.nodes: Dict[int, NodeTask] = {n.node_id: n for n in task.nodes}
        self._child_by_dev: Dict[int, Dict[str, int]] = {
            nid: {ref.dev: ref.node_id for ref in node.downstream}
            for nid, node in self.nodes.items()
        }
        self._child_dev: Dict[int, Dict[int, str]] = {
            nid: {ref.node_id: ref.dev for ref in node.downstream}
            for nid, node in self.nodes.items()
        }
        space = carrier.lift(task.packet_space)
        self.state: Dict[int, _NodeState] = {
            nid: _NodeState(
                loc_cib=PredMap(carrier),
                cib_out=PredMap(carrier),
                interest=carrier.keep(space),
            )
            for nid in self.nodes
        }

        # Per-node memo of the LEC split of ``interest`` as (word, action)
        # pairs — the table :meth:`_recompute` bulk-intersects against —
        # keyed on (FIB epoch, interest word) so rule updates and
        # subscribe-driven interest growth both invalidate it.  The one
        # place words are cached across handlers: the key is the *current*
        # interest word, which any refinement or merge inside the interest
        # changes, and every use ``resolve``s.
        self._fwd_split_cache: Dict[int, Tuple[Tuple[int, object], list]] = {}

        # Compiled per-invariant kernels (see repro.core.kernels): the
        # behavior check as one closure with pre-bound component indexes +
        # a count-set verdict memo, and a memoized Proposition-1 reducer.
        self._behavior_kernel = (
            None if self.is_local_check
            else BehaviorKernel(task.behavior, task.atoms)
        )
        self._reduce = make_reduce_kernel(task.reduction_exps)
        self._zero_cs = singleton(zero_vec(self.arity))
        # (accept vector, end kind) -> base count vector; accept_in_scene
        # and node_base_vector are pure in these.
        self._base_vec_memo: Dict[Tuple[Tuple[bool, ...], EndKind], tuple] = {}

        self.dead_neighbors: Set[str] = set()
        self.active_scene: Optional[int] = None
        # Per-ingress verdict at source nodes hosted here.
        self.verdicts: Dict[str, Tuple[bool, List[Violation]]] = {}
        self.local_violations: List[Violation] = []
        self.stats = _Stats()

    def _interest_fwd(self, node_id: int) -> List[Tuple[object, Action]]:
        """Memoized LEC split of a node's interest: ``(word, action)`` pairs
        in LEC-table entry order, the uncovered remainder mapped to drop.

        ``_recompute``, ``_preimage_region`` and ``_region_toward`` all read
        the (mostly static) interest through this split; it only changes
        when the FIB changes (plane epoch) or the interest itself grows.
        May refine the carrier (a from-scratch table build lifts its
        entries).
        """
        st = self.state[node_id]
        # Get the table BEFORE reading the interest word.
        table = self.plane.lec_table()
        interest = self._carrier.word(st.interest)
        key = (self.plane.epoch, interest)
        cached = self._fwd_split_cache.get(node_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        split = table.split(interest)
        self._fwd_split_cache[node_id] = (key, split)
        return split

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def initialize(self) -> List[Outgoing]:
        """Compute initial LEC + CIB state and announce it (§9.4's
        "initialization phase")."""
        self.plane.lec_table()  # force the LEC build
        if self.is_local_check:
            self._run_local_checks()
            return []
        outgoing = self._recompute_interests()
        self.ctx.mgr.maybe_collect()
        return outgoing

    def _recompute_interests(self) -> List[Outgoing]:
        word = self._carrier.word
        outgoing: List[Outgoing] = []
        for nid, st in self.state.items():
            outgoing.extend(self._recompute(nid, word(st.interest)))
        return outgoing

    def handle_update(self, message: UpdateMessage) -> List[Outgoing]:
        """§5.2 UPDATE handling: steps 1-3 (a batch of one)."""
        return self.handle_batch([message])

    def handle_batch(self, messages: Sequence[object]) -> List[Outgoing]:
        """Process a batch of queued DVM messages with one recomputation per
        affected node.

        Step 1 (CIBIn maintenance) runs per message, then the affected
        regions are unioned and steps 2+3 run once per node.  Because
        recomputation rebuilds LocCIB from the CIBIn tables, the fixpoint is
        identical to processing the messages one at a time — this is the
        batched round primitive the parallel backend's workers execute.
        """
        carrier = self._carrier
        lift, resolve = carrier.lift, carrier.resolve
        outgoing: List[Outgoing] = []
        regions: Dict[int, object] = {}
        for message in messages:
            if isinstance(message, SubscribeMessage):
                outgoing.extend(self.handle_subscribe(message))
                continue
            if not isinstance(message, UpdateMessage):
                raise ProtocolError(f"unknown message type {type(message)}")
            self.stats.updates_received += 1
            self.stats.bytes_received += message.wire_size()
            parent_id, child_id = message.intended_link
            if parent_id not in self.nodes:
                raise ProtocolError(
                    f"device {self.task.dev} received UPDATE for foreign "
                    f"node {parent_id}"
                )
            st = self.state[parent_id]
            cib = st.cib_in.get(child_id)
            if cib is None:
                cib = PredMap(carrier)
                st.cib_in[child_id] = cib
            # Lift everything first (each lift may refine), then resolve.
            withdrawn = lift(message.withdrawn)
            results = [(lift(pred), cs) for pred, cs in message.results]
            withdrawn = resolve(withdrawn)
            cib.remove(withdrawn)
            cib.assign([(resolve(region), cs) for region, cs in results])
            affected = self._preimage_region(parent_id, child_id, withdrawn)
            prev = regions.get(parent_id)
            regions[parent_id] = affected if prev is None else prev | affected
        for nid in sorted(regions):
            outgoing.extend(self._recompute(nid, regions[nid]))
        # End-of-event safe point: every live packet set is back inside a
        # Predicate or a carrier handle (state tables or the outgoing
        # messages), so the engine may compact its node table here.
        self.ctx.mgr.maybe_collect()
        return outgoing

    def handle_subscribe(self, message: SubscribeMessage) -> List[Outgoing]:
        """A parent subscribed to transformed-predicate results (§5.2)."""
        self.stats.subscribes_received += 1
        _parent_id, child_id = message.intended_link
        node = self.nodes.get(child_id)
        if node is None:
            raise ProtocolError(
                f"device {self.task.dev} received SUBSCRIBE for foreign node "
                f"{child_id}"
            )
        st = self.state[child_id]
        carrier = self._carrier
        outgoing: List[Outgoing] = []
        pred_to = carrier.lift(message.pred_to)
        interest = carrier.word(st.interest)
        new_region = pred_to & ~interest
        if new_region:
            st.interest = carrier.keep(interest | pred_to)
            outgoing.extend(self._recompute(child_id, new_region))
        # Re-announce current results over the subscribed region so the
        # subscriber converges regardless of message ordering.
        outgoing.extend(
            self._announce_region(
                child_id, carrier.resolve(pred_to), force=True
            )
        )
        return outgoing

    def handle_lec_deltas(self, deltas: Sequence[LecDelta]) -> List[Outgoing]:
        """Internal rule-update event (§5.2 "Internal event handling")."""
        if not deltas:
            return []
        if self.is_local_check:
            self._run_local_checks()
            return []
        # The plane is on this verifier's carrier: each region is a kept
        # handle, read current here whatever refined since the update.
        word = self._carrier.word
        changed = word(deltas[0].region)
        for delta in deltas[1:]:
            changed = changed | word(delta.region)
        outgoing: List[Outgoing] = []
        for nid in self.nodes:
            outgoing.extend(self._recompute(nid, changed))
        self.ctx.mgr.maybe_collect()
        return outgoing

    def handle_link_change(self, neighbor: str, is_up: bool) -> List[Outgoing]:
        """Adjacent link failure/recovery: zero (restore) the counts of
        predicates forwarded over that link (§6, concrete-filter case)."""
        if is_up:
            self.dead_neighbors.discard(neighbor)
        else:
            self.dead_neighbors.add(neighbor)
        if self.is_local_check:
            self._run_local_checks()
            return []
        outgoing: List[Outgoing] = []
        for nid in self.nodes:
            region = self._region_toward(nid, neighbor)
            outgoing.extend(self._recompute(nid, region))
        if is_up:
            # Parents on the recovered link missed our updates while it was
            # down: force a full re-announcement toward them so their CIBIn
            # resynchronizes.
            word = self._carrier.word
            for nid, node in self.nodes.items():
                if any(ref.dev == neighbor for ref in node.upstream):
                    outgoing.extend(
                        self._announce_region(
                            nid, word(self.state[nid].interest), force=True
                        )
                    )
        self.ctx.mgr.maybe_collect()
        return outgoing

    def handle_neighbor_restart(self, neighbor: str) -> List[Outgoing]:
        """A neighbor device crashed and came back with empty verifier state.

        Unlike a plain link recovery, the neighbor's interest extensions are
        gone: clear the subscription bookkeeping toward its nodes so the
        recomputation below re-issues every SUBSCRIBE, then resync exactly
        like a link-up event (recount through the neighbor and force-
        re-announce the full CIB toward it)."""
        for nid in self.nodes:
            st = self.state[nid]
            for child_id, dev in self._child_dev[nid].items():
                if dev == neighbor:
                    st.subscribed.pop(child_id, None)
        return self.handle_link_change(neighbor, True)

    def activate_scene(self, scene_id: Optional[int]) -> List[Outgoing]:
        """Switch to a precomputed fault scene: recount along the DPVNet
        edges labeled for this scene (§6 "online recounting")."""
        if scene_id == self.active_scene:
            return []
        self.active_scene = scene_id
        if self.is_local_check:
            self._run_local_checks()
            return []
        outgoing = self._recompute_interests()
        self.ctx.mgr.maybe_collect()
        return outgoing

    # ------------------------------------------------------------------
    # Counting kernel
    # ------------------------------------------------------------------
    def _edge_alive(self, node: NodeTask, child_id: int, child_dev: str) -> bool:
        if child_dev in self.dead_neighbors:
            return False
        scenes = node.edge_scenes.get(child_id)
        if scenes is not None:
            sid = 0 if self.active_scene is None else self.active_scene
            return sid in scenes
        return True

    def _preimage_region(self, node_id: int, child_id: int, downstream):
        """Map a child's changed region back into this node's packet frame
        (identity without transforms, pre-image through them)."""
        carrier = self._carrier
        child_dev = self._child_dev[node_id].get(child_id)
        if child_dev is None:
            return carrier.empty
        resolve = carrier.resolve
        split = self._interest_fwd(node_id)
        downstream = resolve(downstream)
        region = carrier.empty
        for piece, action in split:
            if child_dev not in action.group:
                continue
            if action.transform is None:
                region = region | (resolve(piece) & downstream)
            else:
                pre = carrier.preimage(action.transform, downstream)
                region = region | (resolve(piece) & pre)
                downstream = resolve(downstream)
        return resolve(region)

    def _region_toward(self, node_id: int, neighbor: str):
        """Packet space this node's device forwards toward ``neighbor``."""
        region = self._carrier.empty
        for piece, action in self._interest_fwd(node_id):
            if neighbor in action.group:
                region = region | piece
        return region

    def _base_vector(self, accept, end: EndKind):
        """Memoized :func:`node_base_vector` (pure in its arguments)."""
        key = (accept, end)
        vec = self._base_vec_memo.get(key)
        if vec is None:
            vec = self._base_vec_memo[key] = node_base_vector(
                accept, self.task.atoms, end
            )
        return vec

    def _recompute(self, node_id: int, region) -> List[Outgoing]:
        """Steps 2 and 3 of UPDATE handling, fused into one pass: rebuild
        LocCIB over the word ``region`` from the LEC table and the CIBIn
        tables, then propagate changes.

        One loop bulk-intersects the changed region against the memoized
        interest split and counts each piece with inline word algebra.
        LEC entries are disjoint, so splitting the pre-split interest
        against ``region`` equals splitting ``region`` against the table —
        same pieces, same order.  A transform-bearing action may refine the
        carrier mid-loop, hence the ``resolve`` at every use point and the
        final ``resolve`` of the accumulated pieces (handles are only
        compacted between handlers, so resolution always succeeds).
        """
        st = self.state[node_id]
        carrier = self._carrier
        resolve = carrier.resolve
        region = resolve(region) & carrier.word(st.interest)
        if not region:
            return []
        self.stats.recomputations += 1
        node = self.nodes[node_id]
        subscribes: List[Outgoing] = []
        pieces: List[Tuple[object, CountSet]] = []
        for lec_piece, action in self._interest_fwd(node_id):
            piece = resolve(region) & resolve(lec_piece)
            if piece:
                pieces.extend(
                    self._count_action(node, piece, action, subscribes)
                )
        final = [(resolve(piece), cs) for piece, cs in pieces]
        st.loc_cib.assign(final)
        if node.is_source_for is not None:
            self._update_verdict(node)
        outgoing = self._announce_region(
            node_id, resolve(region), precomputed=final
        )
        return subscribes + outgoing

    def _count_action(
        self,
        node: NodeTask,
        piece,
        action: Action,
        subscribes: List[Outgoing],
    ) -> List[Tuple[object, CountSet]]:
        """Count one LEC piece (a word): seeds, then ⊕ (``ANY``) or ⊗
        (``ALL``) over the group members' CIBIn results, refining the piece
        along their boundaries."""
        st = self.state[node.node_id]
        accept = node.accept_in_scene(self.active_scene)
        if action.is_drop:
            base = self._base_vector(accept, EndKind.DROPPED)
            return [(piece, singleton(base))]
        deliver_cs = singleton(self._base_vector(accept, EndKind.DELIVERED))
        zero = self._zero_cs
        transform = action.transform
        child_by_dev = self._child_by_dev[node.node_id]
        cib_in = st.cib_in

        def member_pieces(member: str, region):
            if member == EXTERNAL:
                return [(region, deliver_cs)]
            child_id = child_by_dev.get(member)
            if child_id is None or not self._edge_alive(node, child_id, member):
                return [(region, zero)]
            cib = cib_in.get(child_id)
            if transform is not None:
                return self._through_transform(
                    node, child_id, member, cib, transform, region, subscribes
                )
            if cib is None:
                return [(region, zero)]
            return cib.lookup_with_default(region, zero)

        if action.group_type is GroupType.ANY:
            combine, parts = union, [(piece, ())]
        else:
            combine, parts = cross_sum, [(piece, zero)]
        for member in action.group:
            refined: List[Tuple[object, CountSet]] = []
            for region, cs in parts:
                for sub, cs_member in member_pieces(member, region):
                    refined.append((sub, combine(cs, cs_member)))
            parts = refined
        return parts

    def _through_transform(
        self, node: NodeTask, child_id: int, child_dev: str, cib,
        transform, region, subscribes: List[Outgoing],
    ) -> List[Tuple[object, CountSet]]:
        """The child's results for ``region`` seen through a header rewrite:
        look up the image, map each piece back.  The one escape from pure
        word algebra — ``image``/``preimage`` round-trip through BDDs and
        may refine the carrier, so ``region`` is re-resolved after each."""
        carrier = self._carrier
        resolve = carrier.resolve
        zero = self._zero_cs
        target = carrier.image(transform, region)
        region = resolve(region)
        self._maybe_subscribe(
            node, child_id, child_dev, region, target, subscribes
        )
        if cib is None:
            parts = [(target, zero)]
        else:
            parts = cib.lookup_with_default(target, zero)
        mapped = []
        for sub, cs in parts:
            back = carrier.preimage(transform, sub)
            region = resolve(region)
            back = back & region
            if back:
                mapped.append((back, cs))
        return mapped

    def _maybe_subscribe(
        self,
        node: NodeTask,
        child_id: int,
        child_dev: str,
        region,
        target,
        subscribes: List[Outgoing],
    ) -> None:
        st = self.state[node.node_id]
        carrier = self._carrier
        handle = st.subscribed.get(child_id)
        already = carrier.empty if handle is None else carrier.word(handle)
        if not (target & ~already):
            return
        st.subscribed[child_id] = carrier.keep(already | target)
        self.stats.subscribes_sent += 1
        subscribes.append(
            (
                child_dev,
                SubscribeMessage(
                    intended_link=(node.node_id, child_id),
                    pred_from=carrier.lower(region),
                    pred_to=carrier.lower(target),
                ),
            )
        )

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _announce_region(
        self,
        node_id: int,
        region,
        precomputed: Optional[List[Tuple[object, CountSet]]] = None,
        force: bool = False,
    ) -> List[Outgoing]:
        """Send UPDATEs upstream for the parts of the word ``region`` whose
        (reduced) counting result actually changed.

        Diffing against CIBOut, the Proposition-1 reduction and payload
        carving all run on words; only the final wire conversion lowers
        them to canonical predicates.
        """
        node = self.nodes[node_id]
        if not node.upstream:
            return []
        st = self.state[node_id]
        carrier = self._carrier
        if precomputed is None:
            current = st.loc_cib.lookup_with_default(region, self._zero_cs)
        else:
            current = precomputed
        reduce_ = self._reduce
        reduced = [(piece, reduce_(cs)) for piece, cs in current]
        if force:
            changed = region
        else:
            # A region never announced is equivalent to the all-zero count:
            # receivers default missing CIBIn entries to zero, so suppressing
            # initial zero announcements keeps the protocol quiet and correct.
            zero_cs = reduce_(self._zero_cs)
            changed = carrier.empty
            for piece, cs in reduced:
                for sub, old in st.cib_out.lookup_with_default(piece, None):
                    effective_old = old if old is not None else zero_cs
                    if effective_old != cs:
                        changed = changed | sub
        if not changed:
            return []
        payload: List[Tuple[object, CountSet]] = []
        for piece, cs in reduced:
            part = piece & changed
            if part:
                payload.append((part, cs))
        st.cib_out.assign(payload)
        # Boundary: the wire always carries canonical BDD predicates.
        lower = carrier.lower
        wire_withdrawn = lower(changed)
        wire_results = tuple((lower(part), cs) for part, cs in payload)
        outgoing: List[Outgoing] = []
        for parent in node.upstream:
            message = UpdateMessage(
                intended_link=(parent.node_id, node_id),
                withdrawn=wire_withdrawn,
                results=wire_results,
            )
            self.stats.updates_sent += 1
            self.stats.bytes_sent += message.wire_size()
            outgoing.append((parent.dev, message))
        return outgoing

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def _update_verdict(self, node: NodeTask) -> None:
        assert node.is_source_for is not None
        st = self.state[node.node_id]
        carrier = self._carrier
        bad_of = self._behavior_kernel.bad_of
        lower = carrier.lower
        violations: List[Violation] = []
        # The packet space was lifted at init, so this is a cache hit.
        space = carrier.lift(self.task.packet_space)
        for piece, cs in st.loc_cib.lookup_with_default(space, self._zero_cs):
            bad = bad_of(cs)
            if bad:
                violations.append(
                    Violation(node.is_source_for, lower(piece), bad)
                )
        self.verdicts[node.is_source_for] = (not violations, violations)
        if self.tracer is not None:
            self.tracer.verdict(
                self.task.dev,
                self.invariant,
                node.is_source_for,
                not violations,
                len(violations),
                self.tracer.now(),
            )

    def _run_local_checks(self) -> None:
        """``equal``-operator local contracts (§4.2): no counting at all."""
        self.local_violations = []
        space = self.task.packet_space
        for nid, node in self.nodes.items():
            expected = {ref.dev for ref in node.downstream
                        if self._edge_alive(node, ref.node_id, ref.dev)}
            if any(node.accept):
                expected = expected | {EXTERNAL}
            for piece, action in self.plane.fwd(space):
                actual = set(action.group)
                if expected - actual:
                    self.local_violations.append(
                        Violation(
                            self.task.dev,
                            piece,
                            message=(
                                f"{node.label}: next-hop group must include "
                                f"{sorted(expected)}, got {action}"
                            ),
                        )
                    )
        self.verdicts[self.task.dev] = (
            not self.local_violations,
            list(self.local_violations),
        )
        if self.tracer is not None:
            self.tracer.verdict(
                self.task.dev,
                self.invariant,
                self.task.dev,
                not self.local_violations,
                len(self.local_violations),
                self.tracer.now(),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_proxy(self) -> int:
        """A rough memory footprint: total BDD nodes referenced by CIBs."""
        carrier = self._carrier
        word, lower = carrier.word, carrier.lower
        total = 0
        for st in self.state.values():
            for cib in (st.loc_cib, *st.cib_in.values()):
                for handle, _cs in cib:
                    total += lower(word(handle)).size()
        return total

    def source_counts(self, ingress: str):
        """Counting results at this device's source node for ``ingress``.

        Pieces are returned as canonical Predicates whichever carrier the
        verifier runs on, so parity fingerprints compare across
        predicate-index modes and backends.
        """
        carrier = self._carrier
        for nid, node in self.nodes.items():
            if node.is_source_for == ingress:
                pieces = self.state[nid].loc_cib.lookup_with_default(
                    carrier.lift(self.task.packet_space), self._zero_cs
                )
                return [(carrier.lower(piece), cs) for piece, cs in pieces]
        return None
