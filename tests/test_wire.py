"""DVM byte codec: roundtrips, cross-context decoding, exact message sizes,
error handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import HeaderLayout, PacketSpaceContext
from repro.core.dvm import SubscribeMessage, UpdateMessage
from repro.core.wire import decode_message, encode_message
from repro.errors import SerializationError
from tests.test_predicate_index_parity import (
    fattree_outcome,
    fig2_outcome,
    transform_outcome,
)


class TestUpdateRoundtrip:
    def test_basic(self, ctx):
        a = ctx.ip_prefix("10.0.0.0/24")
        b = ctx.ip_prefix("10.0.1.0/24")
        message = UpdateMessage(
            (7, 13), a | b, ((a, ((1,), (2,))), (b, ((0,),)))
        )
        back = decode_message(ctx, encode_message(message))
        assert isinstance(back, UpdateMessage)
        assert back.intended_link == (7, 13)
        assert back.withdrawn == message.withdrawn
        assert back.results == message.results

    def test_cross_context(self):
        sender = PacketSpaceContext()
        receiver = PacketSpaceContext()
        pred = sender.ip_prefix("172.16.0.0/12")
        message = UpdateMessage((1, 2), pred, ((pred, ((3,),)),))
        back = decode_message(receiver, encode_message(message))
        assert back.results[0][1] == ((3,),)
        assert back.withdrawn.count() == pred.count()

    def test_empty_update(self, ctx):
        message = UpdateMessage((0, 1), ctx.empty, ())
        back = decode_message(ctx, encode_message(message))
        assert back.results == ()
        assert back.withdrawn.is_empty

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255),
                st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=1, max_size=3,
                ),
            ),
            min_size=0, max_size=4, unique_by=lambda item: item[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, entries):
        ctx = PacketSpaceContext(HeaderLayout.dst_only())
        results = []
        withdrawn = ctx.empty
        for octet, vectors in entries:
            pred = ctx.prefix("dst_ip", octet << 24, 8) - withdrawn
            if pred.is_empty:
                continue
            withdrawn = withdrawn | pred
            results.append((pred, tuple(sorted(set(vectors)))))
        message = UpdateMessage((5, 6), withdrawn, tuple(results))
        back = decode_message(ctx, encode_message(message))
        assert back == message


class TestSubscribeRoundtrip:
    def test_basic(self, ctx):
        message = SubscribeMessage(
            (3, 4),
            pred_from=ctx.value("dst_port", 80),
            pred_to=ctx.value("dst_port", 8080),
        )
        back = decode_message(ctx, encode_message(message))
        assert isinstance(back, SubscribeMessage)
        assert back == message


@pytest.fixture
def sized(monkeypatch):
    """Every DVM message the simulator sizes, by identity."""
    seen = {}
    for cls in (UpdateMessage, SubscribeMessage):
        def wire_size(self, _size=cls.wire_size):
            seen[id(self)] = self
            return _size(self)

        monkeypatch.setattr(cls, "wire_size", wire_size)
    return seen


class TestWireSize:
    """``wire_size`` is the exact length of the encoded bytes."""

    @given(
        st.integers(0, 1 << 21),
        st.integers(0, 1 << 21),
        st.lists(
            st.lists(st.integers(0, 1 << 15), min_size=0, max_size=4),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_encoding(self, parent, child, vectors):
        ctx = PacketSpaceContext(HeaderLayout.dst_only())
        pred = ctx.prefix("dst_ip", 10 << 24, 8)
        countset = tuple(sorted({tuple(vec) for vec in vectors}))
        update = UpdateMessage((parent, child), pred, ((pred, countset),))
        assert update.wire_size() == len(encode_message(update))
        subscribe = SubscribeMessage((parent, child), pred, ctx.universe)
        assert subscribe.wire_size() == len(encode_message(subscribe))

    @pytest.mark.parametrize("predicate_index", ["atoms", "bdd"])
    @pytest.mark.parametrize("scenario", ["fig2a", "FT-4"])
    def test_every_burst_message(self, sized, scenario, predicate_index):
        if scenario == "fig2a":
            fig2_outcome(predicate_index)
        else:
            fattree_outcome(predicate_index, "serial")
        assert sized
        for message in sized.values():
            assert message.wire_size() == len(encode_message(message))

    def test_subscribe_of_a_transform(self, sized):
        _checkpoints, subscribes, _gc = transform_outcome("atoms")
        assert subscribes
        kinds = {type(message) for message in sized.values()}
        assert SubscribeMessage in kinds
        for message in sized.values():
            assert message.wire_size() == len(encode_message(message))


class TestErrors:
    def test_empty_bytes(self, ctx):
        with pytest.raises(SerializationError):
            decode_message(ctx, b"")

    def test_unknown_type(self, ctx):
        with pytest.raises(SerializationError):
            decode_message(ctx, b"\x09\x00\x00")

    def test_trailing_garbage(self, ctx):
        message = SubscribeMessage((0, 1), ctx.empty, ctx.empty)
        with pytest.raises(SerializationError):
            decode_message(ctx, encode_message(message) + b"\x00")

    def test_unencodable_object(self):
        with pytest.raises(SerializationError):
            encode_message(object())
