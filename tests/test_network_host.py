"""Tests for the Network container and the Host NIC scheduler."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.packet import Packet, PacketType
from repro.topology.simple import build_star


def data_packet(flow_id, src, dst, psn=0):
    return Packet(PacketType.DATA, flow_id, src, dst, psn=psn, payload_bytes=1000, header_bytes=0)


class ListSender:
    """A minimal SenderQP that transmits a fixed number of packets."""

    def __init__(self, flow_id, src, dst, count):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.count = count
        self.sent = 0
        self.controls = []

    def next_packet(self, now):
        if self.sent >= self.count:
            return None
        packet = data_packet(self.flow_id, self.src, self.dst, self.sent)
        self.sent += 1
        return packet

    def on_control(self, packet, now):
        self.controls.append(packet)


class EchoReceiver:
    """A ReceiverQP that ACKs every packet."""

    def __init__(self, flow_id, src, dst):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.received = []

    def on_data(self, packet, now):
        self.received.append(packet)
        return [Packet(PacketType.ACK, self.flow_id, self.dst, self.src, psn=packet.psn)]


class TestNetworkConstruction:
    def test_duplicate_names_rejected(self):
        network = Network(Simulator())
        network.add_host("a")
        with pytest.raises(ValueError):
            network.add_host("a")
        with pytest.raises(ValueError):
            network.add_switch("a")

    def test_node_lookup(self):
        network = Network(Simulator())
        network.add_host("h")
        network.add_switch("s")
        assert network.node("h") is network.hosts["h"]
        assert network.node("s") is network.switches["s"]
        with pytest.raises(KeyError):
            network.node("missing")

    def test_connect_creates_two_directed_links(self):
        network = Network(Simulator())
        network.add_host("h")
        network.add_switch("s")
        network.connect("h", "s", 10e9, 1e-6)
        assert len(network.links) == 2
        assert network.link_between("h", "s").dst.name == "s"
        assert network.link_between("s", "h").dst.name == "h"

    def test_path_properties(self):
        sim = Simulator()
        network = build_star(sim, 3, bandwidth_bps=10e9, link_delay_s=2e-6)
        hops, bandwidth, delay = network.path_properties("h0", "h1")
        assert hops == 2
        assert bandwidth == 10e9
        assert delay == pytest.approx(4e-6)


class TestHostScheduling:
    def test_end_to_end_transfer_with_acks(self):
        sim = Simulator()
        network = build_star(sim, 2)
        sender = ListSender(1, "h0", "h1", count=5)
        receiver = EchoReceiver(1, "h0", "h1")
        network.hosts["h0"].register_sender(sender)
        network.hosts["h1"].register_receiver(receiver)
        sim.run_until_idle()
        assert len(receiver.received) == 5
        assert len(sender.controls) == 5

    def test_round_robin_between_flows(self):
        sim = Simulator()
        network = build_star(sim, 3)
        host = network.hosts["h0"]
        sender_a = ListSender(1, "h0", "h1", count=10)
        sender_b = ListSender(2, "h0", "h2", count=10)
        host.register_sender(sender_a)
        host.register_sender(sender_b)
        network.hosts["h1"].register_receiver(EchoReceiver(1, "h0", "h1"))
        network.hosts["h2"].register_receiver(EchoReceiver(2, "h0", "h2"))
        # Run only long enough for roughly half the packets to be sent.
        sim.run(until=9e-6)
        # Round-robin keeps the two flows within one departure batch of each
        # other (flow A's registration kick commits a full batch before B
        # registers; after that the pulls alternate A/B).
        from repro.sim.link import DEFAULT_PORT_BATCH

        assert abs(sender_a.sent - sender_b.sent) <= DEFAULT_PORT_BATCH

    def test_control_packets_take_priority(self):
        sim = Simulator()
        network = build_star(sim, 2)
        host = network.hosts["h0"]
        sender = ListSender(1, "h0", "h1", count=3)
        host.uplink_port.max_batch_packets = 1  # one pull per packet
        ack = Packet(PacketType.ACK, 9, "h0", "h1")
        host._control_queue.append(ack)
        host.register_sender(sender)
        # The registration kick must drain the control queue before any data.
        assert host.control_packets_sent == 1
        assert sender.sent == 0
        sim.run_until_idle()
        assert sender.sent == 3

    def test_deregistered_sender_is_skipped(self):
        sim = Simulator()
        network = build_star(sim, 2)
        host = network.hosts["h0"]
        sender = ListSender(1, "h0", "h1", count=100)
        host.register_sender(sender)
        host.deregister_sender(1)
        sim.run_until_idle()
        # At most the departure batch the registration kick already
        # committed to the wire; nothing after the deregistration.
        assert sender.sent <= host.uplink_port.max_batch_packets

    def test_unknown_flow_data_is_ignored(self):
        sim = Simulator()
        network = build_star(sim, 2)
        switch = network.switches["s0"]
        switch.receive(data_packet(77, "h0", "h1"), network.link_between("h0", "s0"))
        sim.run_until_idle()
        assert network.hosts["h1"].data_packets_received == 1

    def test_network_statistics_helpers(self):
        sim = Simulator()
        network = build_star(sim, 2)
        assert network.total_dropped_packets() == 0
        assert network.total_pause_frames() == 0
        assert network.total_forwarded_packets() == 0
