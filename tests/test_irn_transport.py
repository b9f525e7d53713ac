"""Unit tests for IRN's transport logic: SACK recovery, BDP-FC, dual timeouts."""

import pytest

from repro.congestion.dcqcn import Dcqcn
from repro.core.irn import IrnConfig, IrnReceiver, IrnSender, LossRecovery
from repro.core.transport import Flow
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig
from repro.sim.switch import EcnConfig, SwitchConfig
from repro.topology.simple import build_star

from tests.helpers import FakeHost, ack, drain, make_flow, nack, registered_endpoints


def make_sender(size_bytes=10_000, bdp_cap=8, sim=None, **config_kwargs):
    sim = sim or Simulator()
    host = FakeHost()
    flow = make_flow(size_bytes)
    config = IrnConfig(mtu_bytes=1000, bdp_cap_packets=bdp_cap, **config_kwargs)
    sender = IrnSender(sim, host, flow, config)
    return sim, host, flow, sender


def make_receiver(size_bytes=10_000, **config_kwargs):
    sim = Simulator()
    flow = make_flow(size_bytes)
    config = IrnConfig(mtu_bytes=1000, **config_kwargs)
    return sim, flow, IrnReceiver(sim, flow, config)


def data(flow, psn, ecn=False, sent_time=0.0):
    return Packet(PacketType.DATA, flow.flow_id, flow.src, flow.dst, psn=psn,
                  payload_bytes=1000, ecn=ecn, sent_time=sent_time)


class TestBdpFc:
    def test_in_flight_capped_at_bdp(self):
        sim, host, flow, sender = make_sender(size_bytes=20_000, bdp_cap=8)
        packets = drain(sender, now=0.0)
        assert len(packets) == 8
        assert sender.in_flight() == 8
        assert sender.next_packet(0.0) is None

    def test_window_opens_as_acks_arrive(self):
        sim, host, flow, sender = make_sender(size_bytes=20_000, bdp_cap=8)
        drain(sender, now=0.0)
        sender.on_control(ack(flow, 4), now=1e-5)
        more = drain(sender, now=1e-5)
        assert len(more) == 4
        assert sender.in_flight() == 8

    def test_bdp_fc_disabled_allows_full_burst(self):
        sim, host, flow, sender = make_sender(size_bytes=20_000, bdp_cap=8, bdp_fc_enabled=False)
        packets = drain(sender, now=0.0)
        assert len(packets) == 20

    def test_psns_are_sequential(self):
        _, _, _, sender = make_sender(size_bytes=5_000, bdp_cap=10)
        packets = drain(sender, now=0.0)
        assert [p.psn for p in packets] == list(range(5))

    def test_last_packet_flagged(self):
        _, _, _, sender = make_sender(size_bytes=3_000, bdp_cap=10)
        packets = drain(sender, now=0.0)
        assert packets[-1].last_of_message
        assert not packets[0].last_of_message


class TestSackLossRecovery:
    def test_nack_enters_recovery_and_retransmits_cumulative_ack(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)
        # Packet 2 was lost; packet 3 arrived and triggered a NACK.
        sender.on_control(nack(flow, cumulative=2, sack=3), now=1e-5)
        assert sender.in_recovery
        retransmit = sender.next_packet(1e-5)
        assert retransmit.psn == 2
        assert retransmit.retransmitted

    def test_only_packets_below_highest_sack_are_considered_lost(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)  # packets 0..7 in flight
        sender.on_control(nack(flow, cumulative=2, sack=5), now=1e-5)
        # Lost packets: 2, 3, 4 (5 was sacked; 6,7 not beyond a SACK).
        retransmits = drain(sender, now=1e-5)
        assert [p.psn for p in retransmits if p.retransmitted] == [2, 3, 4]

    def test_multiple_sacks_extend_the_lost_set(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=2, sack=4), now=1e-5)
        sender.on_control(nack(flow, cumulative=2, sack=6), now=1.1e-5)
        retransmits = [p.psn for p in drain(sender, 1.2e-5) if p.retransmitted]
        assert retransmits == [2, 3, 5]

    def test_no_duplicate_retransmission_within_recovery(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=2, sack=3), now=1e-5)
        first = drain(sender, now=1e-5)
        again = drain(sender, now=1.1e-5)
        retransmitted_psns = [p.psn for p in first + again if p.retransmitted]
        assert retransmitted_psns.count(2) == 1

    def test_exits_recovery_when_cumulative_ack_passes_recovery_seq(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=2, sack=3), now=1e-5)
        assert sender.in_recovery
        sender.on_control(ack(flow, cumulative=8), now=2e-5)
        assert not sender.in_recovery

    def test_new_packets_resume_after_recovery(self):
        sim, host, flow, sender = make_sender(size_bytes=16_000, bdp_cap=4)
        drain(sender, now=0.0)  # 0..3 in flight
        sender.on_control(nack(flow, cumulative=1, sack=3), now=1e-5)
        packets = drain(sender, now=1e-5)
        # Retransmit 1 and 2, then window allows new packets.
        psns = [p.psn for p in packets]
        assert psns[0] == 1
        assert psns[1] == 2
        assert all(psn >= 4 for psn in psns[2:])

    def test_completion_callback_fires_when_all_acked(self):
        completions = []
        sim = Simulator()
        host = FakeHost()
        flow = make_flow(4_000)
        sender = IrnSender(sim, host, flow, IrnConfig(mtu_bytes=1000, bdp_cap_packets=8),
                           on_complete=lambda f, t: completions.append((f.flow_id, t)))
        drain(sender, 0.0)
        sender.on_control(ack(flow, 4), now=5e-5)
        assert sender.completed
        assert completions == [(1, 5e-5)]

    def test_error_nack_falls_back_to_go_back_n(self):
        sim, host, flow, sender = make_sender(size_bytes=8_000, bdp_cap=16)
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=3, sack=None, error=True), now=1e-5)
        nxt = sender.next_packet(1e-5)
        assert nxt.psn == 3


class TestGoBackNVariant:
    def test_nack_rewinds_to_cumulative_ack(self):
        sim, host, flow, sender = make_sender(
            size_bytes=8_000, bdp_cap=16, loss_recovery=LossRecovery.GO_BACK_N
        )
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=2, sack=None), now=1e-5)
        packets = drain(sender, now=1e-5)
        assert [p.psn for p in packets] == [2, 3, 4, 5, 6, 7]

    def test_go_back_n_resends_everything_after_the_loss(self):
        sim, host, flow, sender = make_sender(
            size_bytes=6_000, bdp_cap=16, loss_recovery=LossRecovery.GO_BACK_N
        )
        initial = drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=0, sack=None), now=1e-5)
        retransmits = drain(sender, now=1e-5)
        assert len(retransmits) == len(initial)
        assert sender.retransmissions == len(initial)


class TestSelectiveNoSackVariant:
    def test_one_retransmission_per_nack(self):
        sim, host, flow, sender = make_sender(
            size_bytes=8_000, bdp_cap=16, loss_recovery=LossRecovery.SELECTIVE_NO_SACK
        )
        drain(sender, now=0.0)
        sender.on_control(nack(flow, cumulative=2, sack=5), now=1e-5)
        retransmits = [p for p in drain(sender, 1e-5) if p.retransmitted]
        assert [p.psn for p in retransmits] == [2]
        # A second loss in the window needs another round trip / NACK.
        sender.on_control(nack(flow, cumulative=3, sack=6), now=2e-5)
        retransmits = [p for p in drain(sender, 2e-5) if p.retransmitted]
        assert [p.psn for p in retransmits] == [3]


class TestTimeouts:
    def test_rto_low_used_when_few_packets_in_flight(self):
        _, _, _, sender = make_sender(size_bytes=2_000, bdp_cap=16,
                                      rto_low_s=1e-4, rto_high_s=1e-3,
                                      rto_low_threshold_packets=3)
        drain(sender, 0.0)
        assert sender.in_flight() == 2
        assert sender._rto_value(0.0) == pytest.approx(1e-4)

    def test_rto_high_used_when_many_packets_in_flight(self):
        _, _, _, sender = make_sender(size_bytes=10_000, bdp_cap=16,
                                      rto_low_s=1e-4, rto_high_s=1e-3,
                                      rto_low_threshold_packets=3)
        drain(sender, 0.0)
        assert sender.in_flight() == 10
        assert sender._rto_value(0.0) == pytest.approx(1e-3)

    def test_timeout_triggers_retransmission_of_cumulative_ack(self):
        sim, host, flow, sender = make_sender(size_bytes=4_000, bdp_cap=16,
                                              rto_low_s=1e-4, rto_high_s=1e-3)
        drain(sender, 0.0)
        sim.run(until=2e-3)
        assert sender.timeouts_fired >= 1
        assert sender.in_recovery
        retransmit = sender.next_packet(sim.now)
        assert retransmit.psn == 0
        assert retransmit.retransmitted

    def test_no_timeout_after_completion(self):
        sim, host, flow, sender = make_sender(size_bytes=2_000, bdp_cap=16)
        drain(sender, 0.0)
        sender.on_control(ack(flow, 2), now=1e-6)
        sim.run(until=1.0)
        assert sender.timeouts_fired == 0

    def test_retransmission_fetch_delay_defers_retransmissions(self):
        sim, host, flow, sender = make_sender(
            size_bytes=8_000, bdp_cap=16, retransmission_fetch_delay_s=2e-6
        )
        drain(sender, 0.0)
        sender.on_control(nack(flow, cumulative=2, sack=3), now=1e-5)
        # Immediately after the NACK the retransmission has not been fetched.
        packet = sender.next_packet(1e-5)
        assert packet is None or not packet.retransmitted
        packet = sender.next_packet(1.3e-5)
        assert packet is not None and packet.psn == 2


class TestIrnReceiver:
    def test_in_order_delivery_produces_cumulative_acks(self):
        sim, flow, receiver = make_receiver(size_bytes=3_000)
        responses = []
        for psn in range(3):
            responses.extend(receiver.on_data(data(flow, psn), now=psn * 1e-6))
        assert all(r.ptype is PacketType.ACK for r in responses)
        assert responses[-1].cumulative_ack == 3
        assert receiver.completed

    def test_out_of_order_arrival_generates_sack_nack(self):
        sim, flow, receiver = make_receiver(size_bytes=5_000)
        receiver.on_data(data(flow, 0), now=0.0)
        responses = receiver.on_data(data(flow, 2), now=1e-6)
        assert len(responses) == 1
        assert responses[0].ptype is PacketType.NACK
        assert responses[0].cumulative_ack == 1
        assert responses[0].sack_psn == 2

    def test_ooo_packets_are_not_discarded(self):
        sim, flow, receiver = make_receiver(size_bytes=5_000)
        for psn in (4, 3, 2, 1, 0):
            receiver.on_data(data(flow, psn), now=psn * 1e-6)
        assert receiver.completed
        assert receiver.expected_psn == 5
        assert receiver.ooo_degree == 0

    def test_duplicates_counted_and_acked(self):
        sim, flow, receiver = make_receiver(size_bytes=3_000)
        receiver.on_data(data(flow, 0), now=0.0)
        responses = receiver.on_data(data(flow, 0), now=1e-6)
        assert receiver.duplicates_received == 1
        assert responses[0].ptype is PacketType.ACK

    def test_completion_requires_all_packets(self):
        done = []
        sim = Simulator()
        flow = make_flow(3_000)
        receiver = IrnReceiver(sim, flow, IrnConfig(mtu_bytes=1000),
                               on_complete=lambda f, t: done.append(t))
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 2), 1e-6)
        assert not done
        receiver.on_data(data(flow, 1), 2e-6)
        assert len(done) == 1
        assert flow.completed

    def test_ecn_echoed_in_acks(self):
        sim, flow, receiver = make_receiver(size_bytes=2_000)
        responses = receiver.on_data(data(flow, 0, ecn=True), now=0.0)
        assert responses[0].ecn_echo

    def test_cnp_generated_for_marked_packets_when_enabled(self):
        sim = Simulator()
        flow = make_flow(5_000)
        receiver = IrnReceiver(sim, flow, IrnConfig(mtu_bytes=1000), cnp_interval_s=50e-6)
        responses = receiver.on_data(data(flow, 0, ecn=True), now=0.0)
        assert any(r.ptype is PacketType.CNP for r in responses)
        # A second marked packet inside the CNP interval does not produce one.
        responses = receiver.on_data(data(flow, 1, ecn=True), now=1e-6)
        assert not any(r.ptype is PacketType.CNP for r in responses)
        # After the interval, CNPs may be generated again.
        responses = receiver.on_data(data(flow, 2, ecn=True), now=60e-6)
        assert any(r.ptype is PacketType.CNP for r in responses)

    def test_gbn_receiver_discards_ooo_and_nacks_once(self):
        sim = Simulator()
        flow = make_flow(5_000)
        receiver = IrnReceiver(sim, flow, IrnConfig(mtu_bytes=1000), accept_ooo=False)
        receiver.on_data(data(flow, 0), now=0.0)
        first = receiver.on_data(data(flow, 2), now=1e-6)
        second = receiver.on_data(data(flow, 3), now=2e-6)
        assert first[0].ptype is PacketType.NACK
        assert second == []          # NACK sent only once per sequence error
        assert receiver.delivered_packets == 1


class TestTimerHandles:
    """A transport's timer handle is ``None`` unless its event is live."""

    def test_handles_are_none_or_live_after_every_event(self):
        # One switch, PFC and ECN on.  h0 sends IRN paced by DCQCN with a
        # coalescing receiver; h1 sends RoCE (no ACKs, no timeouts) into the
        # same downlink, so marks and CNPs cut the IRN rate to the floor and
        # its paced tail meets spurious timeouts.  h2 drops one IRN packet.
        sim = Simulator(seed=1)
        switch_config = SwitchConfig(
            pfc=PfcConfig(enabled=True),
            ecn=EcnConfig(enabled=True, kmin_bytes=3_000, kmax_bytes=12_000),
        )
        network = build_star(sim, 3, bandwidth_bps=10e9, link_delay_s=1e-6,
                             switch_config=switch_config)
        h0, h1, h2 = (network.hosts[f"h{i}"] for i in range(3))

        irn_flow = Flow(1, "h0", "h2", 40_000)
        irn_config = IrnConfig(mtu_bytes=1000, ack_coalesce_n=4, ack_coalesce_s=5e-6)
        irn = IrnSender(sim, h0, irn_flow, irn_config, Dcqcn(10e9))
        irn_rx = IrnReceiver(sim, irn_flow, irn_config, cnp_interval_s=2e-6)
        roce_flow = Flow(2, "h1", "h2", 20_000)
        roce, roce_rx = registered_endpoints("roce", sim, h1, roce_flow)
        h0.register_sender(irn)
        h1.register_sender(roce)
        h2.register_receiver(irn_rx)
        h2.register_receiver(roce_rx)

        downlink = network.link_between("s0", "h2")
        deliver = downlink.arrive
        dropped = []

        def drop_once(packet, link):
            if packet.flow_id == 1 and packet.ptype is PacketType.DATA \
                    and packet.psn == 3 and not dropped:
                dropped.append(packet)
                return
            deliver(packet, link)

        downlink.arrive = drop_once

        seen = {"_rto_event": [], "_pacing_event": [], "_ack_timer": []}
        while sim.pending_events:
            sim.run(max_events=1)
            for endpoint, name in ((irn, "_rto_event"), (irn, "_pacing_event"),
                                   (roce, "_rto_event"), (roce, "_pacing_event"),
                                   (irn_rx, "_ack_timer"), (roce_rx, "_ack_timer")):
                handle = getattr(endpoint, name)
                if handle is not None:
                    assert handle[4] is False, (sim.now, endpoint, name)
                    seen[name].append(handle)

        assert irn.completed and irn_rx.completed and roce_rx.completed
        assert len(dropped) == 1 and irn.timeouts_fired > 0
        assert irn_rx.acks_coalesced > 0 and irn_rx.ack_flush_timeouts > 0
        assert irn_rx.cnps_sent > 0
        # Every kind of handle was cancelled while live at least once: the
        # RTO by a restart or completion, the pacing wake-up by completion,
        # and the coalescing timer by a count flush.
        for name, handles in seen.items():
            assert any(handle[4] for handle in handles), name
