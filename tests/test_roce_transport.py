"""Unit tests for RoCE's go-back-N transport, built as a run builds it.

The registered ``roce`` transport pairs IRN's sender, set to go-back-N with
no BDP-FC cap and one fixed timeout, with IRN's receiver set to discard
out-of-order packets.  Every test here takes both ends from that builder.
"""

from repro.congestion.window import AimdParams, AimdWindow
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType

from tests.helpers import FakeHost, ack, drain, make_flow, nack, registered_endpoints


def roce_endpoints(size_bytes=8_000, congestion_control=None, **fields):
    """The registered ``roce`` requester and responder of one flow in a run
    of ``ExperimentConfig(**fields)`` (PFC on unless ``fields`` say not)."""
    sim = Simulator()
    flow = make_flow(size_bytes)
    sender, receiver = registered_endpoints("roce", sim, FakeHost(), flow,
                                            congestion_control, **fields)
    return sim, flow, sender, receiver


def data(flow, psn):
    return Packet(PacketType.DATA, flow.flow_id, flow.src, flow.dst, psn=psn, payload_bytes=1000)


class TestRoceRequester:
    def test_sends_entire_flow_without_windowing(self):
        _, _, sender, _ = roce_endpoints(size_bytes=50_000)
        packets = drain(sender, 0.0)
        assert len(packets) == 50
        assert [p.psn for p in packets] == list(range(50))

    def test_nack_causes_go_back_n(self):
        _, flow, sender, _ = roce_endpoints(size_bytes=10_000)
        drain(sender, 0.0)
        sender.on_control(nack(flow, cumulative=4, sack=None), now=1e-5)
        retransmits = drain(sender, 1e-5)
        assert [p.psn for p in retransmits] == [4, 5, 6, 7, 8, 9]
        assert all(p.retransmitted for p in retransmits)
        assert sender.recovery_episodes == 1

    def test_redundant_retransmissions_counted(self):
        _, flow, sender, _ = roce_endpoints(size_bytes=10_000)
        drain(sender, 0.0)
        sender.on_control(nack(flow, cumulative=0, sack=None), now=1e-5)
        drain(sender, 1e-5)
        # Go-back-N resends all ten packets even if only one was lost.
        assert sender.retransmissions == 10

    def test_ack_advances_and_completes(self):
        _, flow, sender, _ = roce_endpoints(size_bytes=3_000)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 3), now=1e-5)
        assert sender.completed

    def test_ack_does_not_move_backwards(self):
        _, flow, sender, _ = roce_endpoints(size_bytes=5_000)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 4), now=1e-5)
        sender.on_control(ack(flow, 2), now=2e-5)
        assert sender.snd_una == 4

    def test_timeout_rewinds_to_snd_una(self):
        sim, flow, sender, _ = roce_endpoints(size_bytes=5_000, pfc_enabled=False,
                                              rto_high_s=1e-4)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 2), now=1e-6)
        sim.run(until=5e-4)
        assert sender.timeouts_fired >= 1
        nxt = sender.next_packet(sim.now)
        assert nxt.psn == 2

    def test_one_fixed_timeout_without_pfc(self):
        # One packet in flight is IRN's RTO_low case; RoCE keeps RTO_high.
        _, _, sender, _ = roce_endpoints(size_bytes=1_000, pfc_enabled=False,
                                         rto_high_s=1e-4, rto_low_s=2e-5)
        drain(sender, 0.0)
        assert sender.in_flight() == 1
        assert sender._rto_value(0.0) == 1e-4

    def test_timeouts_disabled_for_pfc_baseline(self):
        sim, _, sender, _ = roce_endpoints(size_bytes=5_000)
        drain(sender, 0.0)
        sim.run(until=1.0)
        assert sender.timeouts_fired == 0

    def test_window_limit_honoured_with_congestion_control(self):
        cc = AimdWindow(AimdParams(initial_window=4, slow_start=False))
        _, _, sender, _ = roce_endpoints(size_bytes=20_000, congestion_control=cc)
        packets = drain(sender, 0.0)
        assert len(packets) == 4

    def test_one_window_cut_per_go_back_episode(self):
        # Two NACKs with different cumulative ACKs inside one go-back
        # episode: the window is cut once, as in NewReno.
        cc = AimdWindow(AimdParams(initial_window=8, slow_start=False))
        _, flow, sender, _ = roce_endpoints(size_bytes=10_000, congestion_control=cc,
                                            pfc_enabled=False)
        assert len(drain(sender, 0.0)) == 8
        sender.on_control(nack(flow, cumulative=2, sack=None), now=1e-5)
        sender.on_control(nack(flow, cumulative=4, sack=None), now=2e-5)
        assert cc.loss_events == 1
        assert cc.cwnd > 8 * 0.5
        assert sender.recovery_episodes == 1


class TestRoceResponder:
    """RoCE's responder is the IRN receiver with out-of-order acceptance off."""

    def test_discards_out_of_order_packets(self):
        _, flow, _, receiver = roce_endpoints(size_bytes=5_000)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 2), 1e-6)
        receiver.on_data(data(flow, 3), 2e-6)
        # Only the in-order packet counts as delivered.
        assert receiver.delivered_packets == 1
        assert not receiver.completed

    def test_nack_carries_expected_psn(self):
        _, flow, _, receiver = roce_endpoints(size_bytes=5_000)
        receiver.on_data(data(flow, 0), 0.0)
        responses = receiver.on_data(data(flow, 3), 1e-6)
        assert responses[0].ptype is PacketType.NACK
        assert responses[0].cumulative_ack == 1

    def test_completes_after_in_order_retransmission(self):
        _, flow, _, receiver = roce_endpoints(size_bytes=3_000)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 2), 1e-6)       # discarded
        receiver.on_data(data(flow, 1), 2e-6)
        receiver.on_data(data(flow, 2), 3e-6)       # retransmitted in order
        assert receiver.completed

    def test_acks_suppressed_under_pfc(self):
        _, flow, _, receiver = roce_endpoints(size_bytes=2_000)
        responses = receiver.on_data(data(flow, 0), 0.0)
        assert responses == []
        # Completion is still tracked even without acknowledgements.
        receiver.on_data(data(flow, 1), 1e-6)
        assert receiver.completed
