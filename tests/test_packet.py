"""Tests for packet and frame definitions."""

import pytest

from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    DEFAULT_HEADER_BYTES,
    PFC_FRAME_BYTES,
    Packet,
    PacketType,
)


class TestPacketSizes:
    def test_data_packet_size_includes_header(self):
        packet = Packet(PacketType.DATA, flow_id=1, src="a", dst="b", payload_bytes=1000)
        assert packet.size_bytes == 1000 + DEFAULT_HEADER_BYTES

    def test_custom_header_size(self):
        packet = Packet(
            PacketType.DATA, flow_id=1, src="a", dst="b", payload_bytes=1000, header_bytes=64
        )
        assert packet.size_bytes == 1064

    def test_ack_is_a_fixed_size_control_frame(self):
        packet = Packet(PacketType.ACK, flow_id=1, src="a", dst="b")
        assert packet.size_bytes == CONTROL_FRAME_BYTES

    def test_nack_and_cnp_are_control_frames(self):
        for ptype in (PacketType.NACK, PacketType.CNP):
            packet = Packet(ptype, flow_id=1, src="a", dst="b", payload_bytes=5000)
            assert packet.size_bytes == CONTROL_FRAME_BYTES

    def test_pfc_frame_size(self):
        packet = Packet(PacketType.PFC_PAUSE, flow_id=-1, src="a", dst="b")
        assert packet.size_bytes == PFC_FRAME_BYTES

    def test_size_bits(self):
        packet = Packet(PacketType.DATA, flow_id=1, src="a", dst="b", payload_bytes=100)
        assert packet.size_bits == packet.size_bytes * 8

    @pytest.mark.parametrize("ptype", list(PacketType))
    def test_sizes_and_pfc_flag_of_every_type(self, ptype):
        # Only a data frame's size depends on payload and header.
        size_bytes, pfc_frame = {
            PacketType.DATA: (1000 + 52, False),
            PacketType.ACK: (CONTROL_FRAME_BYTES, False),
            PacketType.NACK: (CONTROL_FRAME_BYTES, False),
            PacketType.CNP: (CONTROL_FRAME_BYTES, False),
            PacketType.PFC_PAUSE: (PFC_FRAME_BYTES, True),
            PacketType.PFC_RESUME: (PFC_FRAME_BYTES, True),
        }[ptype]
        packet = Packet(ptype, 1, "a", "b", payload_bytes=1000, header_bytes=52)
        assert packet.size_bytes == size_bytes
        assert packet.size_bits == size_bytes * 8
        assert packet.pfc_frame is pfc_frame


class TestPacketConstruction:
    def test_positional_order(self):
        packet = Packet(PacketType.DATA, 7, "a", "b", 3, 900, 60,
                        True, True, 1.5, 4, 5, True, 2.5, True, True)
        assert (packet.ptype, packet.flow_id, packet.src, packet.dst) == (
            PacketType.DATA, 7, "a", "b")
        assert (packet.psn, packet.payload_bytes, packet.header_bytes) == (3, 900, 60)
        assert (packet.last_of_message, packet.retransmitted, packet.sent_time) == (
            True, True, 1.5)
        assert (packet.cumulative_ack, packet.sack_psn, packet.ecn_echo, packet.echo_time) == (
            4, 5, True, 2.5)
        assert (packet.error_nack, packet.ecn) == (True, True)
        assert packet.size_bytes == 960
        with pytest.raises(TypeError):
            Packet(PacketType.DATA, 7, "a", "b", 3, 900, 60,
                   True, True, 1.5, 4, 5, True, 2.5, True, True, 0)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            Packet(PacketType.DATA, 1, "a", "b", ttl=64)

    def test_uids_increase_in_construction_order(self):
        uids = [Packet(ptype, 1, "a", "b").uid for ptype in list(PacketType) * 3]
        assert all(later > earlier for earlier, later in zip(uids, uids[1:]))

    def test_every_default(self):
        packet = Packet(PacketType.ACK, 3, "a", "b")
        assert (packet.psn, packet.payload_bytes, packet.header_bytes) == (
            0, 0, DEFAULT_HEADER_BYTES)
        assert (packet.cumulative_ack, packet.sack_psn, packet.error_nack) == (0, None, False)
        assert (packet.ecn, packet.ecn_echo) == (False, False)
        assert (packet.last_of_message, packet.retransmitted) == (False, False)
        assert (packet.sent_time, packet.echo_time) == (0.0, 0.0)

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Packet(PacketType.DATA, 1, "a", "b").hop_count = 1


class TestPacketClassification:
    def test_is_control(self):
        assert Packet(PacketType.ACK, 1, "a", "b").is_control()
        assert Packet(PacketType.NACK, 1, "a", "b").is_control()
        assert Packet(PacketType.CNP, 1, "a", "b").is_control()
        assert not Packet(PacketType.DATA, 1, "a", "b").is_control()
        assert not Packet(PacketType.PFC_PAUSE, 1, "a", "b").is_control()

    def test_is_pfc(self):
        assert Packet(PacketType.PFC_PAUSE, 1, "a", "b").is_pfc()
        assert Packet(PacketType.PFC_RESUME, 1, "a", "b").is_pfc()
        assert not Packet(PacketType.DATA, 1, "a", "b").is_pfc()

    def test_unique_ids_assigned(self):
        a = Packet(PacketType.DATA, 1, "a", "b")
        b = Packet(PacketType.DATA, 1, "a", "b")
        assert a.uid != b.uid

    def test_default_fields(self):
        packet = Packet(PacketType.DATA, 3, "a", "b", psn=9)
        assert packet.psn == 9
        assert packet.ecn is False
        assert packet.sack_psn is None
        assert packet.retransmitted is False
