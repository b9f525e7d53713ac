"""Receiver-side ACK coalescing, and per-packet pacing end to end.

Unit tests drive an :class:`IrnReceiver` directly (with a stubbed
``send_control``) to pin the windowing contract: bank up to N in-order
grants, flush on the Nth grant / the flush timer / completion, and never
delay a loss signal.  End-to-end tests run full experiments to pin the
event-count reduction, byte-identity at ``ack_coalesce_n=1``, correctness
under loss, and the engine accounting identity with coalescing timers live.
"""

from repro.core.irn import IrnConfig, IrnReceiver, IrnSender
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType

from tests.helpers import make_flow


def make_receiver(size_bytes=10_000, wire_control=True, **config_kwargs):
    sim = Simulator()
    flow = make_flow(size_bytes)
    config = IrnConfig(mtu_bytes=1000, **config_kwargs)
    receiver = IrnReceiver(sim, flow, config)
    sent = []
    if wire_control:
        receiver.send_control = sent.append
    return sim, flow, receiver, sent


def data(flow, psn, ecn=False, sent_time=0.0, retransmitted=False):
    return Packet(PacketType.DATA, flow.flow_id, flow.src, flow.dst, psn=psn,
                  payload_bytes=1000, ecn=ecn, sent_time=sent_time,
                  retransmitted=retransmitted)


def feed(receiver, flow, psns, start=0.0, gap=1e-7, **kwargs):
    """Deliver ``psns`` back-to-back; returns every response packet."""
    responses = []
    now = start
    for psn in psns:
        responses += receiver.on_data(data(flow, psn, **kwargs), now)
        now += gap
    return responses


class TestWindowing:
    def test_per_packet_acks_at_n_equal_one(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=1)
        responses = feed(receiver, flow, range(4))
        assert [p.ptype for p in responses] == [PacketType.ACK] * 4
        assert [p.cumulative_ack for p in responses] == [1, 2, 3, 4]
        assert receiver.acks_coalesced == 0

    def test_window_of_n_emits_one_cumulative_ack(self):
        # The first packet after idle is ACKed immediately (the adaptive
        # gate sees an infinite arrival gap); the next four fill one window.
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=4)
        responses = feed(receiver, flow, range(5))
        assert [p.ptype for p in responses] == [PacketType.ACK, PacketType.ACK]
        assert [p.cumulative_ack for p in responses] == [1, 5]
        assert receiver.acks_sent == 2
        assert receiver.acks_coalesced == 3

    def test_coalescing_disabled_until_send_control_wired(self):
        # Without an out-of-band emitter the flush timer could never send,
        # so the receiver must stay on the historical per-packet path.
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=4, wire_control=False)
        responses = feed(receiver, flow, range(4))
        assert len(responses) == 4

    def test_partial_window_flushes_on_timer(self):
        sim, flow, receiver, sent = make_receiver(ack_coalesce_n=4, ack_coalesce_s=20e-6)
        responses = feed(receiver, flow, range(3))
        assert len(responses) == 1  # the post-idle immediate ACK only
        sim.run_until_idle()
        assert len(sent) == 1
        assert sent[0].cumulative_ack == 3
        assert receiver.ack_flush_timeouts == 1

    def test_completion_flushes_immediately(self):
        # 3-packet flow with a 4-window: the final grant must not wait for
        # the timer -- the sender needs it to retire the flow.
        sim, flow, receiver, sent = make_receiver(size_bytes=3000, ack_coalesce_n=4)
        responses = feed(receiver, flow, range(3))
        assert receiver.completed
        assert [p.cumulative_ack for p in responses] == [1, 3]
        sim.run_until_idle()
        assert sent == []  # nothing left for the timer

    def test_flush_timer_cancelled_after_count_flush(self):
        sim, flow, receiver, sent = make_receiver(ack_coalesce_n=2)
        feed(receiver, flow, range(3))  # immediate ACK + one full window
        sim.run_until_idle()
        assert sent == []
        assert sim.events_scheduled == sim.events_processed + sim.events_cancelled


class TestLossSignalsFireImmediately:
    def test_ooo_arrival_nacks_and_folds_window(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        banked = feed(receiver, flow, [0, 1])
        assert len(banked) == 1  # post-idle immediate ACK; packet 1 banked
        responses = receiver.on_data(data(flow, 5), 1e-6)
        assert len(responses) == 1
        assert responses[0].ptype is PacketType.NACK
        assert responses[0].cumulative_ack == 2  # carries the banked window
        assert responses[0].sack_psn == 5
        assert receiver.acks_coalesced == 1

    def test_duplicate_arrival_acks_immediately(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        feed(receiver, flow, [0, 1])
        responses = receiver.on_data(data(flow, 0), 1e-6)
        assert len(responses) == 1
        assert responses[0].ptype is PacketType.ACK
        assert responses[0].cumulative_ack == 2

    def test_retransmitted_packet_flushes_through(self):
        # Recovery traffic: the sender is blocked on this cumulative
        # advance, so it must never sit in the window.
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        feed(receiver, flow, [0, 1])
        responses = receiver.on_data(data(flow, 2, retransmitted=True), 1e-6)
        assert len(responses) == 1
        assert responses[0].ptype is PacketType.ACK
        assert responses[0].cumulative_ack == 3

    def test_no_stale_timer_ack_after_absorb(self):
        sim, flow, receiver, sent = make_receiver(ack_coalesce_n=8)
        feed(receiver, flow, [0, 1])
        receiver.on_data(data(flow, 5), 1e-6)  # NACK absorbed the window
        sim.run_until_idle()
        assert sent == []

    def test_absorbing_nack_carries_banked_ecn(self):
        # Packet 1 was ECN-marked and banked; the NACK that supersedes the
        # window must echo that mark or DCTCP/DCQCN would be under-signaled
        # exactly during the loss episode.
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        receiver.on_data(data(flow, 0), 0.0)  # post-idle immediate ACK
        receiver.on_data(data(flow, 1, ecn=True), 1e-7)  # banked, marked
        responses = receiver.on_data(data(flow, 5), 2e-7)  # unmarked OOO
        assert responses[0].ptype is PacketType.NACK
        assert responses[0].ecn_echo is True

    def test_absorbing_duplicate_ack_carries_banked_ecn(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 1, ecn=True), 1e-7)
        responses = receiver.on_data(data(flow, 0), 2e-7)  # unmarked dup
        assert responses[0].ptype is PacketType.ACK
        assert responses[0].ecn_echo is True

    def test_retransmit_flush_through_carries_banked_ecn(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=8)
        receiver.on_data(data(flow, 0), 0.0)
        receiver.on_data(data(flow, 1, ecn=True), 1e-7)
        responses = receiver.on_data(data(flow, 2, retransmitted=True), 2e-7)
        assert responses[0].ptype is PacketType.ACK
        assert responses[0].ecn_echo is True


class TestAdaptiveModeration:
    def test_slow_streams_keep_per_packet_acks(self):
        # Arrivals spaced wider than the flush timeout: banking would only
        # convert each ACK into a timer event plus a late ACK.
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=4, ack_coalesce_s=20e-6)
        responses = feed(receiver, flow, range(4), gap=100e-6)
        assert len(responses) == 4
        assert receiver.ack_flush_timeouts == 0

    def test_back_to_back_stream_banks(self):
        sim, flow, receiver, _ = make_receiver(ack_coalesce_n=4, ack_coalesce_s=20e-6)
        responses = feed(receiver, flow, range(5), gap=1e-6)
        assert len(responses) == 2  # immediate post-idle ACK + one window


def _e2e_config(**overrides):
    base = dict(
        topology="star",
        num_hosts=6,
        link_bandwidth_bps=10e9,
        link_delay_s=2e-6,
        transport="irn",
        pfc_enabled=False,
        workload="heavy_tailed",
        flow_size_scale=0.3,
        num_flows=60,
        target_load=1.0,
        seed=1,
        max_sim_time_s=0.3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _run_counting(config):
    """Run an experiment keeping receiver/engine counters visible."""
    from repro.experiments.runner import _build_network, _FlowLauncher, _generate_flows
    from repro.metrics.collector import MetricsCollector

    sim = Simulator(seed=config.seed)
    network = _build_network(sim, config)
    collector = MetricsCollector(
        network,
        mtu_bytes=config.mtu_bytes,
        header_bytes=config.physics().header_bytes,
    )
    launcher = _FlowLauncher(sim, network, config, collector)
    flows = _generate_flows(config, network)
    for flow in flows:
        sim.schedule_at(flow.start_time, launcher.launch, flow)
    sim.run(until=config.max_sim_time_s, max_events=config.max_events)
    sim.run_until_idle(max_events=config.max_events)
    return sim, launcher, flows


class TestEndToEnd:
    def test_rows_identical_at_n_equal_one(self):
        """Coalescing machinery at n=1 is byte-for-byte the historical path."""
        on = run_experiment(_e2e_config(ack_coalesce_n=1))
        off = run_experiment(_e2e_config(ack_coalesce_n=1))
        assert on.to_row(label="a").to_dict() == off.to_row(label="a").to_dict()

    def test_ack_count_reduction_is_bounded(self):
        _, per_packet, _ = _run_counting(_e2e_config(ack_coalesce_n=1))
        _, coalesced, _ = _run_counting(_e2e_config(ack_coalesce_n=4))
        acks_1 = sum(r.acks_sent for r in per_packet.receivers)
        acks_4 = sum(r.acks_sent for r in coalesced.receivers)
        grants = sum(r.acks_coalesced for r in coalesced.receivers)
        assert acks_4 < acks_1
        # A window of 4 can delete at most 3 of every 4 ACKs.
        assert acks_4 >= acks_1 / 4
        # Every deleted ACK is accounted as an absorbed grant.
        assert grants > 0

    def test_engine_event_reduction_meets_the_budget(self):
        """The PR's acceptance floor: >=30% fewer engine events at defaults."""
        sim_off, _, _ = _run_counting(_e2e_config(ack_coalesce_n=1))
        sim_on, _, _ = _run_counting(_e2e_config())  # default n=4
        reduction = 1.0 - sim_on.events_processed / sim_off.events_processed
        assert reduction >= 0.30

    def test_accounting_identity_with_coalescing_timers(self):
        sim, _, _ = _run_counting(_e2e_config())
        assert (
            sim.events_scheduled
            == sim.events_processed + sim.events_cancelled + sim.pending_events
        )
        assert sim.pending_events == 0

    def test_flows_complete_under_loss_with_coalescing(self):
        # Shallow buffers force drops; coalesced ACK state must survive
        # NACK/SACK recovery without stranding a flow.
        result = run_experiment(
            _e2e_config(buffer_bytes_per_port=6000, max_sim_time_s=2.0)
        )
        assert result.completion_fraction() == 1.0
        assert result.retransmissions > 0

    def test_coalesced_runs_are_deterministic(self):
        a = run_experiment(_e2e_config())
        b = run_experiment(_e2e_config())
        assert a.to_row(label="x").to_dict() == b.to_row(label="x").to_dict()


class TestPerPacketPacing:
    """Rate-based senders pace every packet with their own wake-up."""

    def test_paced_run_completes_and_is_deterministic(self):
        config = _e2e_config(congestion_control="dcqcn", max_sim_time_s=2.0)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.completion_fraction() == 1.0
        assert a.to_row(label="p").to_dict() == b.to_row(label="p").to_dict()

    def test_only_rate_based_senders_schedule_pacing_wake_ups(self, monkeypatch):
        # DCQCN paces once CNPs cut a rate; each wake-up is the sender's own
        # engine event.  Without congestion control nothing is paced.
        fired = []
        original = IrnSender._pacing_fired

        def counting(sender):
            fired.append(sender)
            original(sender)

        monkeypatch.setattr(IrnSender, "_pacing_fired", counting)
        run_experiment(_e2e_config())
        assert fired == []
        run_experiment(_e2e_config(congestion_control="dcqcn"))
        assert len(fired) > 0
