"""DVM protocol messages (§5).

Distributed Verification Messaging is the vector-protocol-inspired wire
format on-device verifiers use to exchange counting results.  Messages flow
along DPVNet links in the reverse direction (child device → parent device),
so no loop prevention is needed.

The UPDATE message principle (§5.2): the union of withdrawn predicates must
equal the union of the predicates of the incoming counting results.  The
constructor enforces it, turning protocol bugs into immediate failures
instead of silent divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.bdd.predicate import Predicate
from repro.bdd.serialize import serialize_predicate
from repro.core.counting import CountSet
from repro.errors import ProtocolError

__all__ = ["UpdateMessage", "SubscribeMessage", "DvmMessage", "wire_size"]


def _varint_size(value: int) -> int:
    """Bytes of ``value`` as an unsigned LEB128 varint."""
    return 1 if value < 0x80 else (value.bit_length() + 6) // 7


def _blob_size(pred: Predicate) -> int:
    """Bytes of a predicate blob: varint length + BDD stream."""
    n = len(serialize_predicate(pred))
    return n + _varint_size(n)


@dataclass(frozen=True)
class UpdateMessage:
    """Counting-result transfer along one DPVNet link, child to parent.

    Attributes
    ----------
    intended_link:
        ``(parent_node_id, child_node_id)`` — the DPVNet link this result
        propagates (oppositely) along.  The receiving device dispatches on
        it (§8: "an UPDATE message is dispatched based on the intended link
        field").
    withdrawn:
        Union of the predicates whose previous results are obsolete.
    results:
        Disjoint ``(predicate, count set)`` entries; their union must equal
        ``withdrawn``.
    """

    intended_link: Tuple[int, int]
    withdrawn: Predicate
    results: Tuple[Tuple[Predicate, CountSet], ...]

    def __post_init__(self) -> None:
        covered = self.withdrawn.ctx.union(pred for pred, _cs in self.results)
        if covered != self.withdrawn:
            raise ProtocolError(
                "UPDATE principle violated: withdrawn predicates must equal "
                "the union of incoming counting results"
            )

    def wire_size(self) -> int:
        """Exact length of :func:`repro.core.wire.encode_message`'s bytes.

        Computed from the varint lengths and the predicates' stream lengths
        (the codec memoizes those), without encoding the message.  Every
        message is sized at least twice (sender and receiver accounting),
        so the result is memoized — messages are immutable.
        """
        cached = self.__dict__.get("_wire_size")
        if cached is not None:
            return cached
        parent, child = self.intended_link
        results = self.results
        size = (
            1  # message type
            + _varint_size(parent)
            + _varint_size(child)
            + _blob_size(self.withdrawn)
            + _varint_size(len(results))
        )
        for pred, cs in results:
            size += _blob_size(pred) + _varint_size(len(cs))
            for vec in cs:
                size += _varint_size(len(vec))
                for c in vec:  # _varint_size, inlined on the hot loop
                    size += 1 if c < 0x80 else (c.bit_length() + 6) // 7
        self.__dict__["_wire_size"] = size
        return size


@dataclass(frozen=True)
class SubscribeMessage:
    """Packet-transformation subscription (§5.2).

    When a device transforms packets in ``pred_from`` into ``pred_to``
    before forwarding, it subscribes to its downstream neighbor's counting
    results for ``pred_to`` instead of ``pred_from``.
    """

    intended_link: Tuple[int, int]
    pred_from: Predicate
    pred_to: Predicate

    def wire_size(self) -> int:
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            parent, child = self.intended_link
            cached = (
                1  # message type
                + _varint_size(parent)
                + _varint_size(child)
                + _blob_size(self.pred_from)
                + _blob_size(self.pred_to)
            )
            self.__dict__["_wire_size"] = cached
        return cached


DvmMessage = object  # UpdateMessage | SubscribeMessage


def wire_size(message) -> int:
    return message.wire_size()
