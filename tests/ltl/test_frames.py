"""Tests for the LTL frame format and serialization."""

from dataclasses import dataclass

import pytest

from repro.ltl.frames import (
    LTL_HEADER_BYTES,
    TYPE_DATA,
    LtlFrame,
    make_ack,
    make_data_frame,
    make_nack,
    nack_range,
)


@dataclass
class OpaquePayload:
    """Stand-in for a simulation object riding an LTL frame."""

    kind: str
    values: tuple


class TestDataFrames:
    def test_single_fragment_flags(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"x", 1)
        assert frame.is_first_fragment and frame.is_last_fragment

    def test_middle_fragment_flags(self):
        frame = make_data_frame(1, 5, 2, 1, 3, b"x", 1)
        assert not frame.is_first_fragment
        assert not frame.is_last_fragment

    def test_last_fragment_flag(self):
        frame = make_data_frame(1, 6, 2, 2, 3, b"x", 1)
        assert frame.is_last_fragment and not frame.is_first_fragment

    def test_wire_bytes_includes_header(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"x" * 100, 100)
        assert frame.wire_bytes == LTL_HEADER_BYTES + 100

    def test_payload_bytes_inferred_from_bytes(self):
        frame = LtlFrame(frame_type=TYPE_DATA, connection_id=0,
                         payload=b"abcd")
        assert frame.payload_bytes == 4

    def test_type_predicates(self):
        assert make_data_frame(0, 0, 0, 0, 1, b"", 0).is_data
        assert make_ack(0, 5).is_ack
        assert make_nack(0, (1, 2)).is_nack


class TestHeaderSerialization:
    def test_roundtrip(self):
        frame = make_data_frame(connection_id=77, seq=1234,
                                message_id=42, fragment=1,
                                total_fragments=3, payload=b"zz",
                                payload_bytes=2)
        decoded = LtlFrame.header_from_bytes(frame.header_to_bytes())
        assert decoded.connection_id == 77
        assert decoded.seq == 1234
        assert decoded.message_id == 42
        assert decoded.fragment == 1
        assert decoded.total_fragments == 3
        assert decoded.payload_bytes == 2
        assert decoded.frame_type == TYPE_DATA

    def test_bad_magic_rejected(self):
        raw = bytearray(make_ack(0, 1).header_to_bytes())
        raw[0] ^= 0xFF
        with pytest.raises(ValueError):
            LtlFrame.header_from_bytes(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            LtlFrame.header_from_bytes(b"\x00" * 4)


class TestFullWireSerialization:
    """``to_wire``/``from_wire``: the whole frame as bytes."""

    def test_bytes_payload_roundtrip(self):
        frame = make_data_frame(connection_id=7, seq=99, message_id=3,
                                fragment=2, total_fragments=4,
                                payload=b"hello fpga", payload_bytes=10,
                                deadline_us=12345)
        decoded = LtlFrame.from_wire(frame.to_wire())
        assert decoded.payload == b"hello fpga"
        assert decoded.payload_bytes == 10
        assert decoded.seq == 99
        assert decoded.deadline_us == 12345
        assert decoded.flags == frame.flags
        assert decoded.checksum == frame.checksum
        assert decoded.verify_checksum()

    def test_opaque_payload_roundtrip(self):
        payload = OpaquePayload(kind="dnn-request", values=(1, 2.5, "x"))
        frame = make_data_frame(connection_id=1, seq=0, message_id=0,
                                fragment=0, total_fragments=1,
                                payload=payload, payload_bytes=4096)
        decoded = LtlFrame.from_wire(frame.to_wire())
        assert decoded.payload == payload
        assert decoded.payload is not payload  # crossed the "wire"
        # The simulated size is authoritative, not the pickled length.
        assert decoded.payload_bytes == 4096
        assert decoded.wire_bytes == frame.wire_bytes

    def test_ack_and_nack_roundtrip(self):
        ack = make_ack(5, 321, congestion=True)
        decoded_ack = LtlFrame.from_wire(ack.to_wire())
        assert decoded_ack.is_ack
        assert decoded_ack.ack_seq == 321
        assert decoded_ack.congestion_flag
        nack = make_nack(5, (40, 44))
        decoded_nack = LtlFrame.from_wire(nack.to_wire())
        assert nack_range(decoded_nack) == (40, 44)

    def test_empty_payload_roundtrip(self):
        frame = make_ack(0, 0)
        assert LtlFrame.from_wire(frame.to_wire()).payload == b""

    def test_corrupted_payload_rejected(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"payload", 7)
        raw = bytearray(frame.to_wire())
        raw[-1] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            LtlFrame.from_wire(bytes(raw))

    def test_corrupted_header_rejected(self):
        frame = make_data_frame(1, 9, 0, 0, 1, b"payload", 7)
        raw = bytearray(frame.to_wire())
        raw[8] ^= 0xFF  # inside connection_id
        with pytest.raises(ValueError, match="checksum"):
            LtlFrame.from_wire(bytes(raw))

    def test_truncated_payload_rejected(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"payload", 7)
        with pytest.raises(ValueError, match="truncated"):
            LtlFrame.from_wire(frame.to_wire()[:-3])

    def test_truncated_trailer_rejected(self):
        frame = make_ack(0, 1)
        with pytest.raises(ValueError, match="truncated"):
            LtlFrame.from_wire(frame.to_wire()[:LTL_HEADER_BYTES + 2])

    def test_trace_not_serialized(self):
        frame = make_data_frame(1, 0, 0, 0, 1, b"x", 1)
        frame.trace = object()
        assert LtlFrame.from_wire(frame.to_wire()).trace is None


class TestAckNack:
    def test_ack_carries_cumulative_seq(self):
        ack = make_ack(3, 17)
        assert ack.ack_seq == 17
        assert not ack.congestion_flag

    def test_ack_congestion_flag(self):
        assert make_ack(3, 17, congestion=True).congestion_flag

    def test_nack_range_roundtrip(self):
        nack = make_nack(9, (10, 14))
        assert nack_range(nack) == (10, 14)

    def test_nack_range_requires_nack(self):
        with pytest.raises(ValueError):
            nack_range(make_ack(0, 0))
