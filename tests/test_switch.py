"""Tests for the input-queued switch: forwarding, drops, PFC, ECN."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig
from repro.sim.switch import EcnConfig, Switch, SwitchConfig
from repro.topology.simple import build_star


def make_star(num_hosts=3, pfc_enabled=True, buffer_bytes=10_000, headroom=3_000,
              ecn=None, bandwidth=8e9, delay=1e-6):
    sim = Simulator(seed=1)
    config = SwitchConfig(
        buffer_bytes_per_port=buffer_bytes,
        pfc=PfcConfig(enabled=pfc_enabled, headroom_bytes=headroom),
        ecn=ecn or EcnConfig(enabled=False),
    )
    network = build_star(sim, num_hosts, bandwidth_bps=bandwidth, link_delay_s=delay,
                         switch_config=config)
    return sim, network


def data_packet(flow_id, src, dst, psn=0, payload=1000):
    return Packet(PacketType.DATA, flow_id, src, dst, psn=psn, payload_bytes=payload,
                  header_bytes=0)


class TestForwarding:
    def test_packet_is_forwarded_to_destination_host(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        switch.receive(data_packet(1, "h0", "h1"), in_link)
        sim.run_until_idle()
        assert network.hosts["h1"].data_packets_received == 1
        assert switch.packets_forwarded == 1

    def test_unknown_destination_raises(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        with pytest.raises(KeyError):
            switch.receive(data_packet(1, "h0", "h99"), in_link)

    def test_round_robin_across_input_ports(self):
        sim, network = make_star(num_hosts=4)
        switch = network.switches["s0"]
        # Two senders, one destination: enqueue bursts from both inputs.
        for psn in range(5):
            switch.receive(data_packet(1, "h0", "h3", psn), network.link_between("h0", "s0"))
            switch.receive(data_packet(2, "h1", "h3", psn), network.link_between("h1", "s0"))
        sim.run_until_idle()
        assert network.hosts["h3"].data_packets_received == 10
        assert switch.packets_dropped == 0

    def test_total_queued_bytes_drains_to_zero(self):
        sim, network = make_star()
        switch = network.switches["s0"]
        for psn in range(3):
            switch.receive(data_packet(1, "h0", "h1", psn), network.link_between("h0", "s0"))
        assert switch.total_queued_bytes() >= 0
        sim.run_until_idle()
        assert switch.total_queued_bytes() == 0


class TestDropsWithoutPfc:
    def test_buffer_overflow_drops_packets(self):
        sim, network = make_star(pfc_enabled=False, buffer_bytes=3_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(10):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        assert switch.packets_dropped > 0
        assert switch.bytes_dropped == switch.packets_dropped * 1000
        sim.run_until_idle()
        # The packets that were accepted are all delivered.
        assert network.hosts["h1"].data_packets_received == 10 - switch.packets_dropped

    def test_no_pause_frames_when_pfc_disabled(self):
        sim, network = make_star(pfc_enabled=False, buffer_bytes=3_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(10):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        sim.run_until_idle()
        assert switch.pause_frames_sent == 0


class TestPfcBehaviour:
    def test_pause_frame_sent_when_threshold_crossed(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        assert switch.pause_frames_sent == 1

    def test_resume_frame_sent_after_draining(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        sim.run_until_idle()
        assert switch.resume_frames_sent >= 1

    def test_pause_frame_pauses_upstream_host(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=5_000, headroom=2_000)
        switch = network.switches["s0"]
        host = network.hosts["h0"]
        in_link = network.link_between("h0", "s0")
        for psn in range(4):
            switch.receive(data_packet(1, "h0", "h1", psn), in_link)
        # Deliver the pause frame.
        sim.run(until=3e-6)
        assert host.uplink_port.paused or host.uplink_port.pause_count > 0

    def test_pfc_prevents_drops_under_burst(self):
        sim, network = make_star(pfc_enabled=True, buffer_bytes=6_000, headroom=3_000)
        switch = network.switches["s0"]
        host = network.hosts["h0"]

        class BurstSender:
            flow_id = 1
            waits_on_clock = False

            def __init__(self):
                self.sent = 0

            def next_packet(self, now):
                if self.sent >= 30:
                    return None
                packet = data_packet(1, "h0", "h1", self.sent)
                self.sent += 1
                return packet

            def on_control(self, packet, now):
                pass

        host.register_sender(BurstSender())
        sim.run_until_idle()
        assert switch.packets_dropped == 0
        assert network.hosts["h1"].data_packets_received == 30


class TestEcnMarking:
    def test_step_marking_above_threshold(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=2_000, kmax_bytes=4_000, step_marking=True)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(8)]
        for packet in packets:
            switch.receive(packet, in_link)
        assert any(packet.ecn for packet in packets)
        # The first packets (queue below kmin) must not be marked.
        assert not packets[0].ecn
        assert not packets[1].ecn

    def test_red_marking_is_probabilistic_and_bounded(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=1_000, kmax_bytes=3_000, pmax=1.0)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(10)]
        for packet in packets:
            switch.receive(packet, in_link)
        # Deep in the queue (>= kmax) marking probability reaches 1.
        assert packets[-1].ecn

    def test_control_packets_never_marked(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=0, kmax_bytes=1, pmax=1.0)
        sim, network = make_star(buffer_bytes=50_000, ecn=ecn)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        ack = Packet(PacketType.ACK, 1, "h0", "h1")
        switch.receive(data_packet(1, "h0", "h1", 0), in_link)
        switch.receive(ack, in_link)
        assert not ack.ecn

    def test_no_marking_when_disabled(self):
        sim, network = make_star(buffer_bytes=50_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        packets = [data_packet(1, "h0", "h1", psn) for psn in range(10)]
        for packet in packets:
            switch.receive(packet, in_link)
        assert not any(packet.ecn for packet in packets)
        assert switch.packets_marked == 0


# ----------------------------------------------------------------------
# One-switch slice: "fast path == queued path" is a per-port property, so
# it is proved here on a bare switch (plus whole-run row pins in
# test_fabric_golden.py), against oracles that live only in this file.
# ----------------------------------------------------------------------

class _Endpoint:
    """A neighbour that records every frame it is handed."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, packet, link):
        self.received.append((link.sim.now, packet))


class _RouteToNamedNeighbour:
    per_flow = True

    def next_hop(self, node, packet):
        return packet.dst


class _QueuedPathSwitch(Switch):
    """Oracle: the per-hop path with nothing fused.  Every accepted frame
    is enqueued in its VOQ and the port kicked, so it leaves through
    ``kick`` -> ``start_batch`` -> ``next_packet`` even on an idle port."""

    def receive(self, packet, link):
        if packet.is_pfc():
            self._handle_pfc(packet, link)
            return
        in_port = self.input_ports[link]
        out_port = self._route(packet)
        if in_port.occupancy + packet.size_bytes > in_port.buffer_bytes:
            self.packets_dropped += 1
            self.bytes_dropped += packet.size_bytes
            return
        if self.config.ecn.enabled and packet.ptype is PacketType.DATA:
            self._maybe_mark_ecn(packet, out_port.queued_bytes)
        if out_port.voqs[in_port.index] is None:
            out_port.voqs[in_port.index] = deque()
        out_port.voqs[in_port.index].append(packet)
        out_port.active_mask |= in_port.bit
        out_port.queued_bytes += packet.size_bytes
        in_port.occupancy += packet.size_bytes
        if self.queue_depth_digest is not None:
            self.queue_depth_digest.add(in_port.occupancy)
        if (self.config.pfc.enabled and not in_port.pfc.upstream_paused
                and in_port.occupancy >= in_port.pause_threshold):
            in_port.pfc.mark_paused()
            self.pause_frames_sent += 1
            self._send_pfc(link, PacketType.PFC_PAUSE)
        out_port.kick()


class _ListDigest:
    def __init__(self):
        self.samples = []

    def add(self, value):
        self.samples.append(value)


class _Slice:
    """One switch, ``inputs`` upstream neighbours ``u0..`` (wired both ways,
    so PFC frames have a reverse port) and downstream neighbours ``outputs``.
    Links run at 8 Gbps / 1 us: a 1000 B frame serializes in 1 us."""

    def __init__(self, switch_cls, inputs=2, outputs=("x", "y"), pfc=False,
                 buffer_bytes=100_000, headroom=0, ecn=None):
        self.sim = Simulator(seed=7)
        self.trace = self.sim.enable_trace()
        config = SwitchConfig(
            buffer_bytes_per_port=buffer_bytes,
            pfc=PfcConfig(enabled=pfc, headroom_bytes=headroom),
            ecn=ecn or EcnConfig(enabled=False),
        )
        self.switch = switch_cls(self.sim, "s", config, routing=_RouteToNamedNeighbour())
        self.switch.queue_depth_digest = _ListDigest()
        self.nodes = {}
        self.in_links = []
        for i in range(inputs):
            node = self.nodes[f"u{i}"] = _Endpoint(f"u{i}")
            link = Link(self.sim, node, self.switch, 8e9, 1e-6)
            self.switch.add_input_link(link)
            self.switch.add_output_link(Link(self.sim, self.switch, node, 8e9, 1e-6))
            self.in_links.append(link)
        for name in outputs:
            node = self.nodes[name] = _Endpoint(name)
            self.switch.add_output_link(Link(self.sim, self.switch, node, 8e9, 1e-6))
        self.kicks = {}
        for name in outputs:
            self._count_kicks(name)

    def _count_kicks(self, name):
        port = self.switch.output_ports[name]
        inner = port.kick
        self.kicks[name] = 0

        def kick():
            self.kicks[name] += 1
            inner()

        port.kick = kick

    def port(self, name):
        return self.switch.output_ports[name]

    def in_port(self, index):
        return self.switch.input_ports[self.in_links[index]]

    def arrive(self, when, index, dst, psn, payload=1000, ptype=PacketType.DATA):
        """Schedule a frame's arrival on input ``index`` at time ``when``."""
        packet = Packet(ptype, flow_id=index + 1, src=f"u{index}", dst=dst, psn=psn,
                        payload_bytes=payload, header_bytes=0)
        self.sim.schedule_at(when, self.switch.receive, packet, self.in_links[index])
        return packet

    def snapshot(self):
        """Everything the per-hop path may touch, in comparable form."""
        switch = self.switch
        state = {
            "events": list(self.trace),      # (time, seq) of every event run
            "now": self.sim.now,
            "switch": (switch.packets_forwarded, switch.packets_dropped, switch.bytes_dropped,
                       switch.packets_marked, switch.pause_frames_sent,
                       switch.resume_frames_sent),
            "depth_samples": switch.queue_depth_digest.samples,
            "rng": self.sim.rng.random(),
        }
        for name, port in switch.output_ports.items():
            state[f"port {name}"] = (
                port.rr_pointer, port.active_mask, port.queued_bytes,
                [len(queue or ()) for queue in port.voqs], port.batches_sent, port.free_at,
                port.paused, port._pull_event is None,
            )
        for in_port in switch._in_port_list:
            state[f"input {in_port.index}"] = (
                in_port.occupancy, in_port.pfc.upstream_paused,
                in_port.pfc.pause_frames_sent, in_port.pfc.resume_frames_sent,
            )
        for name, node in self.nodes.items():
            state[f"arrivals {name}"] = [
                (when, packet.ptype, packet.flow_id, packet.psn, packet.sent_time, packet.ecn)
                for when, packet in node.received
            ]
        return state


def _twins(script, **slice_kwargs):
    """Run ``script(slice)`` on the real switch and on the queued-path oracle;
    assert both end in the same state and return the real slice."""
    real, oracle = _Slice(Switch, **slice_kwargs), _Slice(_QueuedPathSwitch, **slice_kwargs)
    for twin in (real, oracle):
        script(twin)
        twin.sim.run_until_idle()
    assert real.snapshot() == oracle.snapshot()
    return real


class TestCutThroughEqualsQueuedPath:
    def test_idle_output_cuts_through(self):
        def script(s):
            s.arrive(0.0, 0, "x", psn=0)
            s.arrive(5e-6, 1, "x", psn=0)

        real = _twins(script)
        assert real.kicks["x"] == 0                      # never queued
        assert real.switch.packets_forwarded == 2
        assert real.port("x").rr_pointer == 2            # input 1 served last
        assert real.port("x").batches_sent == 2
        # Serialization (1 us) + propagation (1 us) after each arrival.
        assert [when for when, _ in real.nodes["x"].received] == pytest.approx([2e-6, 7e-6])
        assert real.sim.events_processed == 4            # 2 arrivals in, 2 out

    def test_busy_wire_queues_behind_the_committed_frame(self):
        def script(s):
            s.arrive(0.0, 0, "x", psn=0)
            s.arrive(0.5e-6, 1, "x", psn=0)   # wire busy until 1 us
            s.arrive(0.6e-6, 0, "x", psn=1)   # wire busy, queue non-empty

        real = _twins(script)
        assert real.kicks["x"] == 2
        assert [p.psn for _, p in real.nodes["x"].received] == [0, 0, 1]

    def test_non_empty_queue_is_not_overtaken(self):
        def script(s):
            s.port("x").max_batch_packets = 1
            s.arrive(0.0, 0, "x", psn=0)      # cuts through, arms the pull for 1 us
            s.arrive(0.0, 0, "x", psn=1)      # wire busy: queued
            # Fires at 1 us *before* the pull (scheduled earlier): the wire
            # is free and the port unpaused, but psn 1 is still queued.
            s.arrive(1e-6, 0, "x", psn=2)

        real = _twins(script)
        assert real.kicks["x"] == 2
        assert [p.psn for _, p in real.nodes["x"].received] == [0, 1, 2]

    def test_paused_port_queues(self):
        def script(s):
            s.port("x").pause()
            s.arrive(0.0, 0, "x", psn=0)
            s.arrive(1e-6, 1, "x", psn=0)

        real = _twins(script)
        assert real.kicks["x"] == 2
        assert real.nodes["x"].received == []
        assert real.port("x").queued_bytes == 2000
        assert real.port("x").active_mask == 0b11
        assert real.switch.packets_forwarded == 0

    def test_batch_limit_of_one_frame_arms_the_wake_up_pull(self):
        def script(s):
            s.port("x").max_batch_packets = 1
            s.arrive(0.0, 0, "x", psn=0)

        real = _twins(script)
        assert real.kicks["x"] == 0
        # Arrival in, wake-up pull at 1 us, arrival out: the pull finds
        # nothing, but it is an event and the row counts events.
        assert real.sim.events_processed == 3

    def test_unlimited_batch_arms_no_wake_up(self):
        def script(s):
            s.arrive(0.0, 0, "x", psn=0)

        real = _twins(script)
        assert real.sim.events_processed == 2

    @pytest.mark.parametrize("max_packets", [1, 4])
    def test_single_frame_exit_under_every_batch_limit(self, max_packets):
        """The cut-through exit against enqueue + ``kick`` for each way a
        one-frame batch can end: on the empty source or on the packet
        limit."""
        def script(s):
            for name in ("x", "y"):
                s.port(name).max_batch_packets = max_packets
            s.arrive(0.0, 0, "x", psn=0, payload=1048)     # idle: exit taken
            s.arrive(0.0, 1, "y", psn=0, payload=400)      # idle: exit taken
            s.arrive(0.2e-6, 1, "x", psn=0)                # wire busy: queued
            s.arrive(0.3e-6, 0, "x", psn=1, payload=400)   # queued behind it
            s.arrive(1.048e-6, 1, "x", psn=1)              # as the wire frees
            s.arrive(10e-6, 0, "x", psn=2)                 # idle again
            s.arrive(11e-6, 1, "x", psn=2, payload=1048)   # at free_at exactly
            s.arrive(11e-6, 0, "y", psn=3, payload=1048)
            s.arrive(20e-6, 1, "y", psn=3, ptype=PacketType.ACK)   # 64 B

        real = _twins(script)
        assert real.switch.packets_forwarded == 9
        assert real.kicks["x"] + real.kicks["y"] < 9     # some frames took the exit
        assert real.port("y").batches_sent == 3 and real.kicks["y"] == 0

    def test_frame_at_the_timestamp_of_a_pending_pull(self):
        def script(s):
            s.port("x").max_batch_packets = 1
            s.arrive(0.0, 0, "x", psn=0)     # arms the pull for 1 us
            s.arrive(1e-6, 0, "x", psn=1)    # scheduled first: fires before it

        real = _twins(script)
        # One wake-up event is shared: the stale pull re-arms itself for
        # 2 us instead of a second one being scheduled beside it.
        assert real.sim.events_processed == 6
        assert [when for when, _ in real.nodes["x"].received] == pytest.approx([2e-6, 3e-6])

    def test_frame_landing_exactly_on_the_pause_threshold_is_queued(self):
        def script(s):
            s.arrive(0.0, 0, "x", psn=0, payload=3000)

        real = _twins(script, pfc=True, buffer_bytes=5000, headroom=2000)
        assert real.kicks["x"] == 1
        assert real.switch.pause_frames_sent == 1        # X-OFF at occupancy == threshold
        assert real.switch.resume_frames_sent == 1       # X-ON when it left
        assert [p.ptype for _, p in real.nodes["u0"].received] == [
            PacketType.PFC_PAUSE, PacketType.PFC_RESUME]

    def test_frame_one_byte_under_the_pause_threshold_cuts_through(self):
        def script(s):
            s.arrive(0.0, 0, "x", psn=0, payload=2999)

        real = _twins(script, pfc=True, buffer_bytes=5000, headroom=2000)
        assert real.kicks["x"] == 0
        assert real.switch.pause_frames_sent == 0
        assert real.nodes["u0"].received == []

    def test_input_with_xoff_outstanding_sends_xon_on_dequeue(self):
        def script(s):
            s.in_port(0).pfc.mark_paused()
            s.arrive(0.0, 0, "x", psn=0)

        real = _twins(script, pfc=True, buffer_bytes=5000, headroom=2000)
        assert real.kicks["x"] == 1
        assert real.switch.resume_frames_sent == 1
        assert not real.in_port(0).pfc.upstream_paused

    def test_xon_waits_until_occupancy_is_below_the_resume_threshold(self):
        def script(s):
            s.port("x").max_batch_packets = 1       # one dequeue per microsecond
            for psn in range(5):                    # psn 0 cuts through, 1..4 queue
                s.arrive(0.0, 0, "x", psn=psn)

        real = _twins(script, pfc=True, buffer_bytes=5000, headroom=2000)
        frames = real.nodes["u0"].received
        assert [p.ptype for _, p in frames] == [PacketType.PFC_PAUSE, PacketType.PFC_RESUME]
        # X-OFF when the third queued frame brings occupancy to 3000; the
        # dequeue at 1 us leaves 3000 (no X-ON), the one at 2 us leaves 2000.
        assert frames[1][0] - frames[0][0] == pytest.approx(2e-6)

    def test_pfc_state_of_another_input_does_not_matter(self):
        def script(s):
            s.in_port(1).pfc.mark_paused()
            s.arrive(0.0, 0, "x", psn=0)

        real = _twins(script, pfc=True, buffer_bytes=5000, headroom=2000)
        assert real.kicks["x"] == 0

    def test_buffer_overrun_drops(self):
        def script(s):
            s.port("y").pause()
            s.arrive(0.0, 0, "y", psn=0, payload=2500)   # held: y is paused
            s.arrive(1e-6, 0, "x", psn=0, payload=600)   # 3100 > 3000: dropped
            s.arrive(2e-6, 0, "x", psn=1, payload=500)   # fits exactly

        real = _twins(script, buffer_bytes=3000)
        assert real.switch.packets_dropped == 1
        assert real.switch.bytes_dropped == 600
        assert [p.psn for _, p in real.nodes["x"].received] == [1]
        assert real.kicks["x"] == 0

    def test_step_marking_at_depth_zero(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=0, kmax_bytes=1, step_marking=True)

        def script(s):
            s.arrive(0.0, 0, "x", psn=0)
            s.arrive(0.0, 0, "x", psn=1, ptype=PacketType.ACK)

        real = _twins(script, ecn=ecn)
        assert real.kicks["x"] == 1                      # only the ACK queued
        assert real.switch.packets_marked == 1
        assert [p.ecn for _, p in real.nodes["x"].received] == [True, False]

    def test_red_marking_draws_in_the_same_order(self):
        ecn = EcnConfig(enabled=True, kmin_bytes=500, kmax_bytes=4000, pmax=0.5)

        def script(s):
            for psn in range(6):                          # a burst: depths 0..5000
                s.arrive(0.0, 0, "x", psn=psn)
            s.arrive(20e-6, 1, "x", psn=0)                # idle again: no draw

        real = _twins(script, ecn=ecn)                    # snapshot compares the RNG
        assert real.switch.packets_marked > 0

    def test_queue_depth_sample_is_the_occupancy_with_the_frame_in(self):
        def script(s):
            s.port("y").pause()
            s.arrive(0.0, 0, "y", psn=0, payload=2000)
            s.arrive(1e-6, 0, "x", psn=0, payload=1000)

        real = _twins(script)
        assert real.kicks["x"] == 0
        assert real.switch.queue_depth_digest.samples == [2000, 3000]
        assert real.in_port(0).occupancy == 2000          # the cut-through frame left


class TestRouteCache:
    class _Fixed:
        def __init__(self, hop, per_flow=True):
            self.hop, self.per_flow, self.asked = hop, per_flow, 0

        def next_hop(self, node, packet):
            self.asked += 1
            return self.hop

    def _send(self, s, count):
        for psn in range(count):
            s.arrive(psn * 5e-6 + s.sim.now, 0, "x", psn=psn)
        s.sim.run_until_idle()

    def test_per_flow_routing_is_asked_once_per_flow(self):
        s = _Slice(Switch)
        s.switch.routing = routing = self._Fixed("x")
        self._send(s, 3)
        assert routing.asked == 1
        assert len(s.nodes["x"].received) == 3

    def test_reassigning_routing_forgets_cached_routes(self):
        s = _Slice(Switch)
        s.switch.routing = self._Fixed("x")
        self._send(s, 2)
        s.switch.routing = self._Fixed("y")
        self._send(s, 2)
        assert (len(s.nodes["x"].received), len(s.nodes["y"].received)) == (2, 2)

    def test_per_packet_routing_is_never_cached(self):
        s = _Slice(Switch)
        s.switch.routing = routing = self._Fixed("x", per_flow=False)
        self._send(s, 3)
        assert routing.asked == 3

    def test_no_routing_configured(self):
        s = _Slice(Switch)
        s.switch.routing = None
        with pytest.raises(RuntimeError, match="no routing configured"):
            s.switch.receive(data_packet(1, "u0", "x"), s.in_links[0])


class TestTapsSeeCutThroughArrivals:
    def test_fault_flap_and_recovery_tracker_installed_after_wiring(self):
        from repro.faults import FaultEngine, FaultPlan, LinkFlap
        from repro.metrics.recovery import RecoveryTracker

        sim, network = make_star(pfc_enabled=False, buffer_bytes=100_000)
        switch = network.switches["s0"]
        in_link = network.link_between("h0", "s0")
        tracker = RecoveryTracker(sim, bin_s=1e-6, stall_threshold_s=1.0)
        tracker.install(network)
        plan = FaultPlan(faults=(LinkFlap("s0", "h1", start_s=2e-6, end_s=5e-6),))
        engine = FaultEngine(sim, network, plan, seed=1)
        engine.install()
        # Both taps sit on the downlink, the fault tap outermost; the host
        # itself is not wrapped.
        downlink = network.link_between("s0", "h1")
        assert downlink.arrive.inner.inner == network.hosts["h1"].receive
        assert "receive" not in vars(network.hosts["h1"])

        # Each frame finds the port idle (cut-through) and lands 2 us later:
        # the first inside the flap window, the second after it.
        sim.schedule_at(0.5e-6, switch.receive, data_packet(1, "h0", "h1", 0), in_link)
        sim.schedule_at(6e-6, switch.receive, data_packet(1, "h0", "h1", 1), in_link)
        sim.run_until_idle()
        assert switch.packets_forwarded == 2
        assert engine.flap_drops == 1
        assert network.hosts["h1"].data_packets_received == 1
        assert tracker._bins == {8: 1000.0}


class TestBitmaskRoundRobin:
    """The mask pick must be the input a scan from the pointer would find."""

    @staticmethod
    def reference_scan(depths, pointer):
        """The scan the bitmask replaced (kept only here, as the oracle)."""
        count = len(depths)
        start = pointer % count
        for offset in range(count):
            idx = (start + offset) % count
            if depths[idx]:
                return idx
        return None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_service_order_matches_reference_scan(self, data):
        inputs = data.draw(st.integers(min_value=1, max_value=64), label="inputs")
        depths = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=inputs, max_size=inputs),
            label="voq depths")
        pointer = data.draw(st.integers(min_value=0, max_value=inputs), label="rr_pointer")

        s = _Slice(Switch, inputs=inputs, outputs=("x",))
        port = s.port("x")
        port.pause()                                      # hold everything in the VOQs
        for index, depth in enumerate(depths):
            for psn in range(depth):
                s.switch.receive(
                    Packet(PacketType.DATA, index, f"u{index}", "x", psn=psn, payload_bytes=100),
                    s.in_links[index])
        assert port.active_mask == sum(1 << i for i, depth in enumerate(depths) if depth)
        port.rr_pointer = pointer

        while True:
            expected = self.reference_scan(depths, port.rr_pointer)
            packet = s.switch.next_packet(port)
            if expected is None:
                assert packet is None and port.active_mask == 0
                break
            assert packet.flow_id == expected
            depths[expected] -= 1
            assert port.rr_pointer == expected + 1
            assert bool(port.active_mask >> expected & 1) == bool(depths[expected])
        assert port.queued_bytes == 0 and s.switch.total_queued_bytes() == 0
