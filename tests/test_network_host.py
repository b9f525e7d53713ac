"""Tests for the Network container and the Host NIC scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.helpers import make_flow, nack
from repro.congestion.base import RateBasedControl
from repro.core.irn import IrnConfig, IrnSender
from repro.core.roce import RoceConfig, RoceSender
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.network import Network
from repro.sim.packet import Packet, PacketType
from repro.topology.simple import build_star


def data_packet(flow_id, src, dst, psn=0):
    return Packet(PacketType.DATA, flow_id, src, dst, psn=psn, payload_bytes=1000, header_bytes=0)


class ListSender:
    """A minimal SenderQP that transmits a fixed number of packets (its
    ``None`` is final, so it never notifies the host)."""

    waits_on_clock = False

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


class TestDuplicateFlowIds:
    def test_second_sender_with_same_flow_id_raises(self):
        host = Host(Simulator(), "h0")
        first = ListSender(1, "h0", "h1", count=3)
        host.register_sender(first)
        with pytest.raises(ValueError, match="flow 1"):
            host.register_sender(ListSender(1, "h0", "h2", count=3))
        assert host.sender(1) is first
        assert host._active_order == [1]

    def test_second_receiver_with_same_flow_id_raises(self):
        host = Host(Simulator(), "h1")
        first = EchoReceiver(1, "h0", "h1")
        host.register_receiver(first)
        with pytest.raises(ValueError, match="flow 1"):
            host.register_receiver(EchoReceiver(1, "h2", "h1"))
        assert host.receiver(1) is first

    def test_flow_id_is_free_again_after_deregistration(self):
        host = Host(Simulator(), "h0")
        host.register_sender(ListSender(1, "h0", "h1", count=3))
        host.deregister_sender(1)
        host.register_sender(ListSender(1, "h0", "h1", count=3))
        assert host.next_packet(None).flow_id == 1


# ---------------------------------------------------------------------------
# The ready bitmask against the scan it replaced.  Each case is the smallest
# slice that decides one side of the skip rule: one host, no uplink, QPs
# polled by hand or by events at chosen times.
# ---------------------------------------------------------------------------


class ScanHost(Host):
    """The oracle: polls every registered QP in order from ``_rr_index``."""

    def next_packet(self, port):
        if self._control_queue:
            self.control_packets_sent += 1
            return self._control_queue.popleft()
        order = self._active_order
        now = self.sim.now
        count = len(order)
        for offset in range(count):
            idx = (self._rr_index + offset) % count
            packet = self._senders[order[idx]].next_packet(now)
            if packet is not None:
                self._rr_index = (idx + 1) % count
                self.data_packets_sent += 1
                return packet
        return None


def _run_slice(host_cls, build):
    """Run ``build(sim, host, poll)`` on a fresh ``host_cls`` and drain the
    simulator; returns every poll's selection (``(time, flow, psn)`` or
    ``None``) and the ``(time, seq)`` of every event run."""
    sim = Simulator()
    trace = sim.enable_trace()
    host = host_cls(sim, "h0")
    selected = []

    def poll():
        packet = host.next_packet(None)
        selected.append(None if packet is None else (sim.now, packet.flow_id, packet.psn))

    build(sim, host, poll)
    sim.run()
    return selected, trace


def _against_oracle(build):
    """The slice's selections on the real host, after checking that they and
    the event trace equal the scan's."""
    selected, trace = _run_slice(Host, build)
    oracle_selected, oracle_trace = _run_slice(ScanHost, build)
    assert selected == oracle_selected
    assert trace == oracle_trace
    return selected


class CountingRoceSender(RoceSender):
    polls = 0

    def next_packet(self, now):
        self.polls += 1
        return super().next_packet(now)


class TestReadyMask:
    def test_exhausted_roce_pfc_sender_is_never_polled_again(self):
        # RoCE with PFC gets no ACKs: once it has sent everything it never
        # completes and never leaves the order, but it is not polled again.
        senders = {}

        def build(sim, host, poll):
            config = RoceConfig(generate_acks=False, timeouts_enabled=False)
            senders[type(host)] = roce = CountingRoceSender(sim, host, make_flow(3_000), config)
            host.register_sender(roce)
            host.register_sender(ListSender(2, "h0", "h2", count=10))
            for _ in range(20):
                poll()

        selected = _against_oracle(build)
        assert selected[:6] == [(0.0, 1, 0), (0.0, 2, 0), (0.0, 1, 1),
                                (0.0, 2, 1), (0.0, 1, 2), (0.0, 2, 2)]
        assert [flow_id for _, flow_id, _ in selected[6:13]] == [2] * 7
        assert selected[13:] == [None] * 7
        # Three sends and the one empty poll that parked it; the scan polls
        # it on each of the 14 pulls after that too.
        assert senders[Host].polls == 4
        assert senders[ScanHost].polls == 17

    def test_paced_qp_polled_at_its_release_is_served(self):
        # The pacing gate depends on the clock: a poll at exactly the
        # release time, before the pacing wake-up fires, must find the QP.
        releases = []

        def build(sim, host, poll):
            config = IrnConfig(timeouts_enabled=False)
            sender = IrnSender(sim, host, make_flow(5_000), config, RateBasedControl(1e9))
            host.register_sender(sender)
            poll()
            release = sender.cc.next_send_time(0.0)
            releases.append(release)
            sim.schedule_at(release, poll)   # ahead of the pacing event
            poll()                           # gated: arms the pacing event
            assert sender._pacing_event is not None and sender.waits_on_clock

        selected = _against_oracle(build)
        assert releases[0] > 0.0
        assert selected == [(0.0, 1, 0), None, (releases[0], 1, 1)]

    def test_irn_recovery_is_served_when_the_fetch_delay_ends(self):
        # In recovery, the PCIe fetch delay holds retransmissions until
        # ``_rtx_not_before``; a poll at that instant, before the sender's
        # own wake-up, must retransmit.
        delay = 2e-6

        def build(sim, host, poll):
            flow = make_flow(3_000)
            config = IrnConfig(timeouts_enabled=False, retransmission_fetch_delay_s=delay)
            sender = IrnSender(sim, host, flow, config)
            host.register_sender(sender)
            for _ in range(4):
                poll()                       # psn 0, 1, 2, then parked
            sim.schedule_at(delay, poll)     # ahead of the fetch wake-up
            host.receive(nack(flow, 0, 2), None)
            poll()                           # held by the fetch delay
            assert sender._rtx_not_before == delay and sender.waits_on_clock

        selected = _against_oracle(build)
        assert selected == [(0.0, 1, 0), (0.0, 1, 1), (0.0, 1, 2), None, None, (delay, 1, 0)]

    @pytest.mark.parametrize(
        "polls, positions",
        [(3, [1]), (3, [3]), (3, [4]), (4, [0]), (4, [1, 1])],
        ids=["below", "at", "above", "below-pointer-at-end", "below-pointer-past-end"],
    )
    def test_deregistration_mid_order(self, polls, positions):
        def build(sim, host, poll):
            for flow_id in range(1, 6):
                count = 1 if flow_id == 2 else 4
                host.register_sender(ListSender(flow_id, "h0", "h1", count))
            for _ in range(polls):
                poll()
            pointer = host._rr_index
            for position in positions:
                host.deregister_sender(host._active_order[position])
            assert host._rr_index == pointer
            for _ in range(20):
                poll()

        selected = _against_oracle(build)
        assert selected[-1] is None

    def test_notify_for_an_unknown_flow_sets_no_bit(self):
        host = Host(Simulator(), "h0")
        host.register_sender(ListSender(1, "h0", "h1", count=1))
        assert host.next_packet(None) is not None
        assert host.next_packet(None) is None
        host.notify_ready(99)
        host.notify_ready()
        assert host._ready_mask == 0


class ScriptedQP:
    """A SenderQP whose packets the test grants; a grant may be held until
    ``ready_at``, and only then does its ``None`` wait on the clock."""

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.credits = 0
        self.ready_at = 0.0
        self.sent = 0
        self.polls = 0
        self.waits_on_clock = False

    def next_packet(self, now):
        self.polls += 1
        self.waits_on_clock = bool(self.credits) and now < self.ready_at
        if not self.credits or self.waits_on_clock:
            return None
        self.credits -= 1
        self.sent += 1
        return data_packet(self.flow_id, "h0", "h1", self.sent - 1)

    def on_control(self, packet, now):
        pass


_OPS = st.one_of(
    st.tuples(st.just("register"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("deregister"), st.integers(0, 63)),
    st.tuples(st.just("grant"), st.integers(0, 63), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("tick")),
)


class TestReadyMaskProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_OPS, max_size=80))
    def test_matches_the_scan(self, ops):
        sides = [(Host(Simulator(), "h0"), {}), (ScanHost(Simulator(), "h0"), {})]
        next_id = 1
        for op in ops:
            selections = []
            for host, qps in sides:
                now = host.sim.now
                if op[0] == "register":
                    qp = qps[next_id] = ScriptedQP(next_id)
                    qp.credits, qp.ready_at = op[1], now + op[2] * 1e-6
                    host.register_sender(qp)
                elif op[0] == "deregister" and qps:
                    flow_id = sorted(qps)[op[1] % len(qps)]
                    host.deregister_sender(flow_id)
                    del qps[flow_id]
                elif op[0] == "grant" and qps:
                    qp = qps[sorted(qps)[op[1] % len(qps)]]
                    qp.credits += op[2]
                    qp.ready_at = now + op[3] * 1e-6
                    host.notify_ready(qp.flow_id)
                elif op[0] == "poll":
                    packet = host.next_packet(None)
                    selections.append(None if packet is None else (packet.flow_id, packet.psn))
                elif op[0] == "tick":
                    host.sim.now += 1e-6
            if op[0] == "register":
                next_id += 1
            (host, qps), (oracle, oracle_qps) = sides
            if selections:
                assert selections[0] == selections[1]
            assert host._rr_index == oracle._rr_index
            assert host._active_order == oracle._active_order
            assert {f: q.sent for f, q in qps.items()} == {f: q.sent for f, q in oracle_qps.items()}
        (host, qps), (oracle, oracle_qps) = sides
        assert sum(q.polls for q in qps.values()) <= sum(q.polls for q in oracle_qps.values())
