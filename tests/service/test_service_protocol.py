"""The wire protocol round-trips every spec-logic value exactly.

Admission conditions evaluate over the *decoded* values, so a lossy
codec would silently change decisions; these tests pin the codec, the
framing, and the bounds that keep the HTTP sniff unambiguous.
"""

import pytest

from repro.eval import Record
from repro.eval.values import FMap
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_body,
    decode_value,
    encode_value,
    pack_frame,
    unpack_length,
)


# -- tagged value codec -------------------------------------------------------

@pytest.mark.parametrize("value", [None, True, False, 0, -7, 3.5,
                                   "", "abc", "üñí©ödé"])
def test_scalars_pass_through(value):
    encoded = encode_value(value)
    assert encoded == value
    assert decode_value(encoded) == value
    assert type(decode_value(encoded)) is type(value)


@pytest.mark.parametrize("value", [
    Record(contents=frozenset({"a", "b"}), size=2),
    Record(elems=("a", "b", "a")),
    Record(contents=FMap({"k": "v", "j": "w"}), size=2),
    frozenset(),
    frozenset({"x"}),
    (),
    ("solo",),
    # Nesting: a record holding a map of tuples of sets.
    Record(payload=FMap({"row": (frozenset({"a"}), frozenset())}),
           size=1),
])
def test_structured_values_round_trip(value):
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_round_trip_survives_json():
    """The encoded form must survive an actual JSON dump/load — that
    is what rides the wire, not the Python dict."""
    import json
    state = Record(contents=frozenset({"a", "c", "b"}), size=3)
    wired = json.loads(json.dumps(encode_value(state)))
    assert decode_value(wired) == state


def test_frozenset_encoding_is_deterministic():
    """Set elements are ordered on the wire so identical states
    produce identical frames (digest identity depends on it)."""
    a = encode_value(frozenset({"x", "y", "z"}))
    b = encode_value(frozenset({"z", "x", "y"}))
    assert a == b


def test_unencodable_type_is_refused():
    with pytest.raises(ProtocolError):
        encode_value({"a": 1})  # plain dict is not a spec value
    with pytest.raises(ProtocolError):
        encode_value(object())


def test_undecodable_payload_is_refused():
    with pytest.raises(ProtocolError):
        decode_value({"no": "tag"})
    with pytest.raises(ProtocolError):
        decode_value({"#": "bogus", "v": []})
    with pytest.raises(ProtocolError):
        decode_value([1, 2, 3])


# -- framing -----------------------------------------------------------------

def test_frame_round_trip():
    for frame in (protocol.state_frame(0, Record(elems=("a", "b", "c"))),
                  protocol.check_frame(0, 7, "get", (2,)),
                  protocol.record_frame(0, 7, "get", (2,), "c",
                                        shards=())):
        packed = pack_frame(frame)
        length = unpack_length(packed[:4])
        assert length == len(packed) - 4
        assert decode_body(packed[4:]) == frame


def test_only_the_state_frame_carries_a_state():
    """Checks and records name operations; the server keeps the state."""
    state = protocol.state_frame(3, Record(elems=("a",)))
    assert decode_value(state["state"]) == Record(elems=("a",))
    check = protocol.check_frame(3, 1, "add_at", (0, "b"))
    record = protocol.record_frame(3, 1, "add_at", (0, "b"), None)
    assert set(check) == {"t", "d", "txn", "op", "args"}
    assert set(record) == {"t", "d", "txn", "op", "args", "result"}
    assert decode_value(record["args"]) == (0, "b")


def test_truncated_length_prefix_is_refused():
    with pytest.raises(ProtocolError):
        unpack_length(b"\x00\x00")


def test_oversized_length_is_refused():
    import struct
    with pytest.raises(ProtocolError):
        unpack_length(struct.pack(">I", MAX_FRAME + 1))


def test_http_get_can_never_be_a_frame_length():
    """The server sniffs plain HTTP by its first four bytes; b"GET "
    as a big-endian length must always exceed the frame cap."""
    assert int.from_bytes(b"GET ", "big") > MAX_FRAME
    with pytest.raises(ProtocolError):
        unpack_length(b"GET ")


def test_body_must_be_an_object():
    with pytest.raises(ProtocolError):
        decode_body(b"[1,2]")


def test_builders_carry_the_expected_types():
    assert protocol.hello_frame()["v"] == protocol.PROTOCOL_VERSION
    assert protocol.open_frame("HashSet", shards=4)["shards"] == 4
    assert protocol.release_frame(0, 5, "abort")["reason"] == "abort"
    batch = protocol.batch_frame([protocol.ping_frame()])
    assert batch["t"] == "batch" and len(batch["frames"]) == 1
    err = protocol.error_response("nope")
    assert err["ok"] is False and err["error"] == "nope"
