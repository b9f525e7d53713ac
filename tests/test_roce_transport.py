"""Unit tests for the RoCE go-back-N transport."""

from repro.core.irn import IrnReceiver
from repro.core.roce import RoceConfig, RoceSender
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType

from tests.helpers import FakeHost, ack, drain, make_flow, nack


def make_sender(size_bytes=8_000, sim=None, **config_kwargs):
    sim = sim or Simulator()
    host = FakeHost()
    flow = make_flow(size_bytes)
    config = RoceConfig(mtu_bytes=1000, **config_kwargs)
    return sim, host, flow, RoceSender(sim, host, flow, config)


def data(flow, psn):
    return Packet(PacketType.DATA, flow.flow_id, flow.src, flow.dst, psn=psn, payload_bytes=1000)


class TestRoceSender:
    def test_sends_entire_flow_without_windowing(self):
        _, _, _, sender = make_sender(size_bytes=50_000)
        packets = drain(sender, 0.0)
        assert len(packets) == 50
        assert [p.psn for p in packets] == list(range(50))

    def test_nack_causes_go_back_n(self):
        _, _, flow, sender = make_sender(size_bytes=10_000)
        drain(sender, 0.0)
        sender.on_control(nack(flow, cumulative=4, sack=None), now=1e-5)
        retransmits = drain(sender, 1e-5)
        assert [p.psn for p in retransmits] == [4, 5, 6, 7, 8, 9]
        assert all(p.retransmitted for p in retransmits)
        assert sender.go_back_events == 1

    def test_redundant_retransmissions_counted(self):
        _, _, flow, sender = make_sender(size_bytes=10_000)
        drain(sender, 0.0)
        sender.on_control(nack(flow, cumulative=0, sack=None), now=1e-5)
        drain(sender, 1e-5)
        # Go-back-N resends all ten packets even if only one was lost.
        assert sender.retransmissions == 10

    def test_ack_advances_and_completes(self):
        _, _, flow, sender = make_sender(size_bytes=3_000)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 3), now=1e-5)
        assert sender.completed

    def test_ack_does_not_move_backwards(self):
        _, _, flow, sender = make_sender(size_bytes=5_000)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 4), now=1e-5)
        sender.on_control(ack(flow, 2), now=2e-5)
        assert sender.snd_una == 4

    def test_timeout_rewinds_to_snd_una(self):
        sim, _, flow, sender = make_sender(size_bytes=5_000, rto_s=1e-4)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 2), now=1e-6)
        sim.run(until=5e-4)
        assert sender.timeouts_fired >= 1
        nxt = sender.next_packet(sim.now)
        assert nxt.psn == 2

    def test_timeouts_disabled_for_pfc_baseline(self):
        sim, _, flow, sender = make_sender(size_bytes=5_000, timeouts_enabled=False)
        drain(sender, 0.0)
        sim.run(until=1.0)
        assert sender.timeouts_fired == 0

    def test_window_limit_honoured_with_congestion_control(self):
        from repro.congestion.window import AimdParams, AimdWindow

        sim = Simulator()
        flow = make_flow(20_000)
        cc = AimdWindow(AimdParams(initial_window=4, slow_start=False))
        sender = RoceSender(sim, FakeHost(), flow, RoceConfig(mtu_bytes=1000),
                            congestion_control=cc)
        packets = drain(sender, 0.0)
        assert len(packets) == 4


class TestRoceResponder:
    """RoCE's responder is the IRN receiver with out-of-order acceptance off
    (what the ``roce`` transport builds)."""

    def test_discards_out_of_order_packets(self):
        sim = Simulator()
        flow = make_flow(5_000)
        receiver = IrnReceiver(sim, flow, accept_ooo=False)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 2), 1e-6)
        receiver.on_data(data(flow, 3), 2e-6)
        # Only the in-order packet counts as delivered.
        assert receiver.delivered_packets == 1
        assert not receiver.completed

    def test_nack_carries_expected_psn(self):
        sim = Simulator()
        flow = make_flow(5_000)
        receiver = IrnReceiver(sim, flow, accept_ooo=False)
        receiver.on_data(data(flow, 0), 0.0)
        responses = receiver.on_data(data(flow, 3), 1e-6)
        assert responses[0].ptype is PacketType.NACK
        assert responses[0].cumulative_ack == 1

    def test_completes_after_in_order_retransmission(self):
        sim = Simulator()
        flow = make_flow(3_000)
        receiver = IrnReceiver(sim, flow, accept_ooo=False)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 2), 1e-6)       # discarded
        receiver.on_data(data(flow, 1), 2e-6)
        receiver.on_data(data(flow, 2), 3e-6)       # retransmitted in order
        assert receiver.completed

    def test_acks_suppressed_when_configured(self):
        sim = Simulator()
        flow = make_flow(2_000)
        receiver = IrnReceiver(sim, flow, RoceConfig(mtu_bytes=1000, generate_acks=False),
                               accept_ooo=False)
        responses = receiver.on_data(data(flow, 0), 0.0)
        assert responses == []
        # Completion is still tracked even without acknowledgements.
        receiver.on_data(data(flow, 1), 1e-6)
        assert receiver.completed
