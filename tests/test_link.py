"""Tests for links and output ports."""

import math

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link, OutputPort
from repro.sim.packet import Packet, PacketType


class SinkNode:
    """Records every packet delivered to it."""

    def __init__(self, name):
        self.name = name
        self.received = []
        self.received_times = []

    def receive(self, packet, link):
        self.received.append(packet)
        self.received_times.append(link.sim.now)


class QueueSource:
    """A PacketSource backed by a plain list."""

    def __init__(self):
        self.queue = []

    def next_packet(self, port):
        if self.queue:
            return self.queue.pop(0)
        return None


def make_link(sim, bandwidth=8e9, delay=1e-6):
    src = SinkNode("src")
    dst = SinkNode("dst")
    link = Link(sim, src, dst, bandwidth, delay)
    source = QueueSource()
    port = OutputPort(sim, link, source)
    return link, port, source, dst


def data_packet(payload=1000, header=0):
    return Packet(PacketType.DATA, 1, "src", "dst", payload_bytes=payload, header_bytes=header)


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        link, _, _, _ = make_link(sim, bandwidth=8e9)
        assert link.serialization_delay(data_packet(1000)) == pytest.approx(1e-6)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        a, b = SinkNode("a"), SinkNode("b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 0, 1e-6)
        with pytest.raises(ValueError):
            Link(sim, a, b, 1e9, -1.0)


class TestOutputPort:
    def test_packet_arrives_after_serialization_and_propagation(self):
        sim = Simulator()
        link, port, source, dst = make_link(sim, bandwidth=8e9, delay=2e-6)
        source.queue.append(data_packet(1000))  # 1 us serialization
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 1
        assert sim.now == pytest.approx(3e-6)

    def test_packets_are_serialized_back_to_back(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend([data_packet(1000), data_packet(1000)])
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 2
        assert sim.now == pytest.approx(2e-6)
        assert sum(packet.size_bytes for packet in dst.received) == 2000

    def test_kick_while_busy_does_not_duplicate(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.append(data_packet(1000))
        port.kick()
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 1

    def test_pause_blocks_new_transmissions(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.append(data_packet(1000))
        port.pause()
        port.kick()
        sim.run_until_idle()
        assert dst.received == []

    def test_resume_restarts_transmission(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.append(data_packet(1000))
        port.pause()
        port.kick()
        port.resume()
        sim.run_until_idle()
        assert len(dst.received) == 1
        assert port.pause_count == 1
        assert port.resume_count == 1

    def test_pause_lets_in_flight_packet_finish(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        port.max_batch_packets = 1  # pin the classic one-packet-in-flight model
        source.queue.extend([data_packet(1000), data_packet(1000)])
        port.kick()
        # Pause mid-transmission of the first packet.
        sim.schedule(0.5e-6, port.pause)
        sim.run_until_idle()
        assert len(dst.received) == 1

    def test_pause_lets_committed_batch_finish(self):
        # Departure batching commits up to max_batch_packets to the MAC in
        # one pull; a pause landing mid-batch stops the *next* pull, not the
        # committed frames (the PFC headroom budgets for exactly this).
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(8))
        port.kick()
        sim.schedule(0.5e-6, port.pause)
        sim.run_until_idle()
        assert len(dst.received) == port.max_batch_packets
        assert port.batches_sent == 1

    def test_same_time_kick_and_pull_do_not_double_commit(self):
        # Race regression: a kick event firing at exactly the wire-free time
        # but *before* the port's own wake-up pull (earlier seq) starts a new
        # batch; the stale wake-up must then re-arm, not commit the wire a
        # second time at the same instant (which would interleave two batches
        # and reorder the flow).
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        port.max_batch_packets = 2
        # The external kick is scheduled FIRST so it outranks the follow-up
        # pull the port schedules when its batch limit trips.
        sim.schedule_at(2e-6, port.kick)
        source.queue.extend(data_packet(1000) for _ in range(6))
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 6
        # Strictly serialized: one packet per serialization time, no overlap.
        assert dst.received_times == pytest.approx([i * 1e-6 for i in range(1, 7)])

    def test_batched_packets_are_stamped_at_serialization_start(self):
        # RTT consumers (Timely, iWARP's RTO estimator) read sent_time via
        # the receiver's echo; batch members must carry their wire-start
        # times, not the shared pull timestamp.
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(3))
        port.kick()
        sim.run_until_idle()
        assert [p.sent_time for p in dst.received] == pytest.approx(
            [0.0, 1e-6, 2e-6]
        )

    def test_batch_limit_schedules_follow_up_pull(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(10))
        port.kick()
        sim.run_until_idle()
        # All packets drain without any external kicks, in ceil(10/4) pulls.
        assert len(dst.received) == 10
        assert port.batches_sent == 3
        # Back-to-back serialization: arrivals 1us apart at 8Gbps/1kB.
        assert dst.received_times == pytest.approx([i * 1e-6 for i in range(1, 11)])

    def test_control_direct_bypasses_pause(self):
        sim = Simulator()
        _, port, _, dst = make_link(sim, bandwidth=8e9, delay=1e-6)
        port.pause()
        frame = Packet(PacketType.PFC_PAUSE, -1, "src", "dst")
        port.send_control_direct(frame)
        sim.run_until_idle()
        assert len(dst.received) == 1

    def test_paused_time_accounting(self):
        sim = Simulator()
        _, port, _, _ = make_link(sim)
        port.pause()
        sim.schedule(5e-6, port.resume)
        sim.run_until_idle()
        assert port.paused_time == pytest.approx(5e-6)

    def test_default_batch_is_four_packets(self):
        sim = Simulator()
        link, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(8))
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 8
        assert port.batches_sent == 2  # two DEFAULT_PORT_BATCH pulls

    def test_pause_digest_records_episode_durations(self):
        sim = Simulator()
        link, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)

        class ListDigest:
            def __init__(self):
                self.samples = []

            def add(self, value):
                self.samples.append(value)

        port.pause_digest = ListDigest()
        port.pause()
        # Advance simulated time by scheduling a no-op event.
        sim.schedule(5e-6, lambda: None)
        sim.run_until_idle()
        port.resume()
        assert port.pause_digest.samples == [pytest.approx(5e-6)]
        assert port.paused_time == pytest.approx(5e-6)


class TestDepartureBatchLimit:
    """A pull commits at most ``max_batch_packets`` frames, whatever their size."""

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 8])
    def test_pull_count_follows_the_packet_limit(self, limit):
        # 8 packets drain in ceil(8 / limit) pulls without external kicks;
        # limits 1, 2, 4 and 8 end the last pull exactly on the limit, 3 on
        # the empty source.
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        port.max_batch_packets = limit
        source.queue.extend(data_packet(1000) for _ in range(8))
        port.kick()
        sim.run_until_idle()
        assert port.batches_sent == math.ceil(8 / limit)
        assert dst.received_times == pytest.approx([i * 1e-6 for i in range(1, 9)])

    def test_pull_ended_by_the_limit_arms_one_wake_up(self):
        # Exactly one batch of 4: the limit (not the empty source) ends the
        # pull, so the port arms a wake-up that then finds the source empty.
        # Four deliveries plus that one pull, and nothing left pending.
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(4))
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 4
        assert sim.events_processed == 5
        assert port.batches_sent == 1

    def test_pull_ended_by_the_empty_source_arms_no_wake_up(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(1000) for _ in range(3))
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 3
        assert sim.events_processed == 3

    def test_jumbo_frame_moves(self):
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.append(data_packet(9000))
        port.kick()
        sim.run_until_idle()
        assert len(dst.received) == 1
        assert sim.now == pytest.approx(9e-6)

    def test_jumbo_burst_past_a_pause_is_one_full_batch(self):
        # With jumbo frames the committed batch is still four packets:
        # 36 KB leave after a pause that lands mid-batch, which is the
        # burst the PFC headroom budgets per batch.
        sim = Simulator()
        _, port, source, dst = make_link(sim, bandwidth=8e9, delay=0.0)
        source.queue.extend(data_packet(9000) for _ in range(8))
        port.kick()
        sim.schedule(0.5e-6, port.pause)
        sim.run_until_idle()
        assert len(dst.received) == 4
        assert sum(packet.size_bytes for packet in dst.received) == 4 * 9000

    def test_invalid_limit_rejected(self):
        sim = Simulator()
        src, dst = SinkNode("a"), SinkNode("b")
        link = Link(sim, src, dst, 8e9, 1e-6)
        with pytest.raises(ValueError, match="max_batch_packets"):
            OutputPort(sim, link, QueueSource(), max_batch_packets=0)
