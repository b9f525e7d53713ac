"""IRN's loss recovery, checked on the smallest slice that determines it.

One IRN flow crosses the one-switch star of ``tests/test_switch.py``
(``h0 -> s0 -> h1``), and a test-local hook on the ``s0 -> h1`` link's
``arrive`` drops a scripted set of data frames; another, on the ``s0 -> h0``
link, can hold the returning ACKs.  This is the slicing idea of
Panda et al., "Verifying Isolation Properties in the Presence of Middleboxes"
(PAPERS.md): a property of loss recovery is checked on the smallest
sub-network that decides it, not on a full fabric.

The flow's endpoints come from the registered ``irn`` builder exactly as a
run builds them, so the timers are the derived ones (RTO_low, RTO_high and
N = ``rto_low_threshold_packets``).  Each case asserts what the paper's
rules (§3.1) give:

* a loss followed by later packets is repaired by NACK, within about one
  RTT, and no timer fires;
* a timer fires only when nothing later can trigger a NACK: RTO_low when at
  most N packets are in flight (tail loss), RTO_high otherwise;
* with no loss at all, a timer still fires if the ACKs are held longer than
  the timer -- that timeout, and what it resends, is spurious.

The go-back-N transports -- ``roce`` (PFC off) and the ``irn_go_back_n``
ablation, one sender state machine in two settings -- run the same slice:

* a loss followed by later packets is repaired by NACK within about one
  RTT, no timer fires, and every PSN from the lost one up to the highest
  sent when the NACK arrives is resent, in order;
* a lost last packet waits for the timer: RoCE's one fixed RTO_high, or
  RTO_low / RTO_high by the in-flight rule under ``irn_go_back_n``.

With PFC on, a second flow ``h2 -> h1`` fills the ``s0 -> h1`` port in
front of a victim of N packets: nothing is dropped, and the timeouts either
flow fires are pinned as today's RTO rule gives them, beside a control that
halves RTO_low and does time out.  The fan-in slice fills the port from
every other host (``h2`` and ``h3``) and is pinned the same way.  The
two-hop slice runs on the two-switch line instead, where a pause spreads
back from the congested switch to the host behind the other one; it is
pinned the same way, and also against the eager retransmission timer.

Recovery time is measured per lost packet, from the arrival of its dropped
copy to the arrival of its delivered copy, in units of the slice's base RTT
(one data frame and its ACK, unloaded).
"""

import pytest

from repro.core.registry import TRANSPORTS
from repro.core.transport import Flow
from repro.experiments.config import ExperimentConfig
from repro.sim.engine import Simulator
from repro.sim.link import DEFAULT_PORT_BATCH
from repro.sim.packet import PacketType
from repro.topology.registry import TOPOLOGIES
from repro.topology.simple import build_star

from tests.helpers import eager_rto, recording_timeouts

#: Packets in the flow: several BDP-FC windows (5 packets here).
FLOW_PACKETS = 30
#: A packet well inside the flow (its third window).
MID = 10


def _config(**overrides):
    # Eight hosts size the switch radix (and so RTO_high) like the
    # default star; only h0 -> h1 carries traffic.
    base = dict(topology="star", num_hosts=8, transport="irn", pfc_enabled=False,
                ack_coalesce_n=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class _SliceRun:
    """One ``config.transport`` flow h0 -> h1 with ``drops[psn]`` copies of
    ``psn`` dropped.

    With ``ack_hold_s`` set, every ACK reaching h0 from the first one that
    finds at most N packets in flight on is held that long, in order."""

    def __init__(self, config, drops, ack_hold_s=None):
        sim = self.sim = Simulator(seed=1)
        network = build_star(sim, config.num_hosts, config.link_bandwidth_bps,
                             config.link_delay_s, switch_config=config.switch_config())
        src, dst = network.hosts["h0"], network.hosts["h1"]
        flow = Flow(1, "h0", "h1", FLOW_PACKETS * config.mtu_bytes)
        endpoints = TRANSPORTS.get(config.transport)(config)
        self.sender, self.receiver = endpoints(sim, src, flow, None, None, None, None)
        dst.register_receiver(self.receiver)

        #: psn -> arrival times of its copies at h1, dropped ones included.
        self.arrivals = {}
        #: PSNs of the retransmitted copies reaching h1, in arrival order.
        self.resent = []
        #: The sender's ``highest_sent`` when the first NACK reached h0.
        self.highest_sent_at_nack = None
        #: The receiver's banked ACK grants when each drop happened.
        self.pending_at_drop = []
        self.first_ack_at = None
        #: Arrival time at h0 of the last ACK let through unheld, and of the
        #: first one held.
        self.last_passed_at = self.first_held_at = None
        #: Packets in flight, and ``snd_una``, when the first ACK was held.
        self.in_flight_at_hold = self.snd_una_at_hold = None
        remaining = dict(drops)

        downlink = network.link_between("s0", "h1")
        deliver = downlink.arrive

        def drop_scripted(packet, link):
            if packet.ptype is PacketType.DATA:
                self.arrivals.setdefault(packet.psn, []).append(sim.now)
                if packet.retransmitted:
                    self.resent.append(packet.psn)
                if remaining.get(packet.psn):
                    remaining[packet.psn] -= 1
                    self.pending_at_drop.append(self.receiver._ack_pending)
                    return
            deliver(packet, link)

        downlink.arrive = drop_scripted

        uplink = network.link_between("s0", "h0")
        back = uplink.arrive

        def note_ack(packet, link):
            if self.first_ack_at is None:
                self.first_ack_at = sim.now
            if packet.ptype is PacketType.NACK and self.highest_sent_at_nack is None:
                self.highest_sent_at_nack = self.sender.highest_sent
            if ack_hold_s is not None:
                if (self.first_held_at is None and self.sender.in_flight()
                        <= config.rto_low_threshold_packets):
                    self.first_held_at = sim.now
                    self.in_flight_at_hold = self.sender.in_flight()
                    self.snd_una_at_hold = self.sender.snd_una
                if self.first_held_at is not None:
                    # One delay for every held frame keeps them in order.
                    sim.schedule(ack_hold_s, back, packet, link)
                    return
                self.last_passed_at = sim.now
            back(packet, link)

        uplink.arrive = note_ack

        src.register_sender(self.sender)
        sim.run_until_idle()
        assert self.receiver.completed and self.sender.completed
        self.switch_drops = sum(switch.packets_dropped
                                for switch in network.switches.values())

    def recovery_s(self, psn):
        """From the dropped copy's arrival to the delivered copy's."""
        copies = self.arrivals[psn]
        return copies[-1] - copies[0]


@pytest.fixture(scope="module")
def base_rtt_s():
    """One data frame out and its ACK back, on the idle slice."""
    run = _SliceRun(_config(), {})
    assert run.sender.timeouts_fired == 0 and run.sender.retransmissions == 0
    return run.first_ack_at


def _serialization_s(config):
    return (config.mtu_bytes + config.header_bytes) * 8 / config.link_bandwidth_bps


@pytest.mark.parametrize("burst", [1, 2, 4])
def test_losses_followed_by_data_recover_by_nack_within_one_rtt(burst, base_rtt_s):
    """One mid-flow loss (``burst=1``) or a burst of k consecutive losses,
    fewer than the BDP-FC window, so a later packet still arrives.  Its
    NACK comes back one RTT later and SACK state names every hole: no timer
    fires, and each lost packet is delivered within one RTT plus the
    serialization of the burst and of the frame that triggered the NACK."""
    config = _config()
    assert burst < config.physics().bdp_cap_packets
    run = _SliceRun(config, {MID + i: 1 for i in range(burst)})

    assert run.sender.timeouts_fired == 0
    assert run.sender.retransmissions == burst
    assert run.sender.recovery_episodes == 1
    bound = base_rtt_s + (burst + 1) * _serialization_s(config)
    for psn in range(MID, MID + burst):
        assert run.recovery_s(psn) <= bound, (psn, run.recovery_s(psn) / base_rtt_s)
        assert run.recovery_s(psn) >= base_rtt_s


def test_lost_retransmission_waits_for_rto_high(base_rtt_s):
    """The retransmission of a NACKed packet is lost too.  SACK recovery
    retransmits a packet once per episode, so only the timer repairs it;
    the BDP-FC window keeps more than N packets in flight, so the timer is
    RTO_high, armed at the last cumulative advance before the loss."""
    config = _config()
    run = _SliceRun(config, {MID: 2})

    assert run.sender.timeouts_fired == 1
    assert run.sender.retransmissions == 2
    assert len(run.arrivals[MID]) == 3
    rto_high = config.physics().rto_high_s
    assert rto_high <= run.recovery_s(MID) <= rto_high + base_rtt_s, (
        run.recovery_s(MID) / base_rtt_s)


def test_tail_loss_with_few_in_flight_waits_for_rto_low(base_rtt_s):
    """The flow's last packet is lost: nothing after it can trigger a NACK,
    and at most N packets are in flight when the timer is armed, so exactly
    one RTO_low timeout repairs it -- RTO_low is for tail loss."""
    config = _config()
    last = FLOW_PACKETS - 1
    run = _SliceRun(config, {last: 1})

    assert run.sender.timeouts_fired == 1
    assert run.sender.retransmissions == 1
    rto_low = config.physics().rto_low_s
    assert rto_low < config.physics().rto_high_s
    assert rto_low <= run.recovery_s(last) <= rto_low + base_rtt_s, (
        run.recovery_s(last) / base_rtt_s)


def test_loss_inside_a_partly_filled_coalescing_window(base_rtt_s):
    """With ``ack_coalesce_n=4`` the receiver holds banked ACK grants when
    the loss happens; the out-of-order arrival after it sends a NACK at once
    (absorbing the banked grants), so recovery is the NACK path's: no
    timeout, within about one RTT."""
    config = _config(ack_coalesce_n=4)
    run = _SliceRun(config, {MID: 1})

    (banked,) = run.pending_at_drop
    assert 0 < banked < config.physics().ack_coalesce_n
    assert run.sender.timeouts_fired == 0
    assert run.sender.retransmissions == 1
    assert run.receiver.acks_coalesced > 0
    bound = base_rtt_s + 2 * _serialization_s(config)
    assert base_rtt_s <= run.recovery_s(MID) <= bound, run.recovery_s(MID) / base_rtt_s


def _held_ack_run(hold_rto_lows):
    config = _config()
    return config, _SliceRun(config, {}, ack_hold_s=hold_rto_lows * config.physics().rto_low_s)


@pytest.mark.parametrize("hold_rto_lows, timeouts", [(1.5, 1), (2.5, 2)])
def test_acks_held_past_rto_low_time_out_with_nothing_lost(hold_rto_lows, timeouts,
                                                           base_rtt_s):
    """No frame is lost, but once at most N packets are in flight the ACKs
    are held longer than RTO_low.  The timer armed at the last ACK let
    through is RTO_low, and it is re-armed at RTO_low after each firing
    (the in-flight count does not move), so it fires once per RTO_low that
    passes before the first held ACK lands.  Its first resend is of
    ``snd_una``, a packet the receiver already has: a retransmission
    although nothing was lost."""
    config, run = _held_ack_run(hold_rto_lows)
    rto_low = config.physics().rto_low_s
    assert run.in_flight_at_hold <= config.rto_low_threshold_packets

    assert run.switch_drops == 0
    lands_after = run.first_held_at + hold_rto_lows * rto_low - run.last_passed_at
    assert int(lands_after // rto_low) == timeouts
    assert run.sender.timeouts_fired == timeouts

    first, second = run.arrivals[run.snd_una_at_hold][:2]
    assert first < run.last_passed_at + rto_low <= second <= (
        run.last_passed_at + rto_low + base_rtt_s)
    assert run.sender.retransmissions >= 1
    # Every resend reached a receiver that already had the packet.
    assert run.receiver.duplicates_received == run.sender.retransmissions


def test_acks_held_under_rto_low_cause_no_timeout():
    """The control: the same hold, shorter than RTO_low, lands every held
    ACK before the timer, so nothing fires and nothing is resent."""
    config, run = _held_ack_run(0.5)
    assert run.first_held_at is not None
    assert run.switch_drops == 0
    assert run.sender.timeouts_fired == 0
    assert run.sender.retransmissions == 0
    assert run.receiver.duplicates_received == 0


def test_a_spurious_timeout_resends_only_the_cumulative_ack_packet():
    """§3.1's loss rule: on entering recovery the first packet resent is
    the cumulative-ack one, and a later packet counts as lost only once a
    higher sequence number has been selectively acked.  With nothing lost
    no SACK ever arrives, so one timeout resends one packet."""
    _, run = _held_ack_run(1.5)
    assert run.sender.timeouts_fired == 1
    assert run.sender.retransmissions == 1


@pytest.mark.parametrize("transport", ["roce", "irn_go_back_n"])
def test_go_back_n_repairs_a_mid_flow_loss_by_nack(transport, base_rtt_s):
    """One mid-flow loss under go-back-N.  The next packet's NACK names the
    lost PSN and the sender goes back to it: every PSN from there up to the
    highest it had sent is resent, in order, and no timer fires.  RoCE has
    no window, so when the NACK lands the NIC may still hold a committed
    departure batch; the lost packet is delivered within one RTT plus the
    serialization of that batch and of the frame that triggered the NACK."""
    config = _config(transport=transport)
    run = _SliceRun(config, {MID: 1})

    assert run.sender.timeouts_fired == 0
    assert run.sender.recovery_episodes == 1
    assert run.highest_sent_at_nack > MID + 1
    assert run.resent == list(range(MID, run.highest_sent_at_nack))
    assert run.sender.retransmissions == len(run.resent)
    bound = base_rtt_s + (1 + DEFAULT_PORT_BATCH) * _serialization_s(config)
    assert base_rtt_s <= run.recovery_s(MID) <= bound, run.recovery_s(MID) / base_rtt_s


@pytest.mark.parametrize("transport, timer", [("roce", "rto_high_s"),
                                              ("irn_go_back_n", "rto_low_s")])
def test_go_back_n_tail_loss_waits_for_its_timer(transport, timer, base_rtt_s):
    """The flow's last packet is lost, so only a timeout repairs it.  RoCE
    has one fixed timeout, RTO_high, whatever is in flight; the
    ``irn_go_back_n`` ablation keeps IRN's rule, and one packet in flight
    (at most N) when the timer is armed gives RTO_low."""
    config = _config(transport=transport)
    last = FLOW_PACKETS - 1
    run = _SliceRun(config, {last: 1})

    assert run.sender.timeouts_fired == 1
    assert run.sender.retransmissions == 1
    physics = config.physics()
    assert physics.rto_low_s < physics.rto_high_s
    rto = getattr(physics, timer)
    assert rto <= run.recovery_s(last) <= rto + base_rtt_s, run.recovery_s(last) / base_rtt_s


# ---------------------------------------------------------------------------
# Two flows, PFC on: the zero-drop timeouts of ROADMAP item 1(b)
# ---------------------------------------------------------------------------

#: The victim's packets: N, so every timer it arms is RTO_low.
VICTIM_PACKETS = 3
#: Each competing flow's packets: it keeps the s0 -> h1 port busy for the
#: victim's whole life.
FILLER_PACKETS = 200


class _FilledPortRun:
    """IRN with PFC on the star: the victim flow h0 -> h1 and ``fillers``
    flows h2 -> h1, h3 -> h1, ... that fill the ``s0 -> h1`` port, all built
    by the registered ``irn`` builder from one config, so all run the
    derived timers."""

    def __init__(self, config, fillers=1):
        sim = Simulator(seed=1)
        network = build_star(sim, config.num_hosts, config.link_bandwidth_bps,
                             config.link_delay_s, switch_config=config.switch_config())
        endpoints = TRANSPORTS.get(config.transport)(config)
        flows = [(f"h{2 + index}", FILLER_PACKETS) for index in range(fillers)]
        flows.append(("h0", VICTIM_PACKETS))
        pairs = []
        for flow_id, (src, packets) in enumerate(flows, start=1):
            flow = Flow(flow_id, src, "h1", packets * config.mtu_bytes)
            sender, receiver = endpoints(sim, network.hosts[src], flow, None, None, None, None)
            network.hosts["h1"].register_receiver(receiver)
            pairs.append((sender, receiver))
        for (sender, _), (src, _) in zip(pairs, flows):
            network.hosts[src].register_sender(sender)
        sim.run_until_idle()
        assert all(sender.completed and receiver.completed for sender, receiver in pairs)
        *self.fillers, self.victim = (sender for sender, _ in pairs)
        self.switch_drops = sum(switch.packets_dropped
                                for switch in network.switches.values())

    @property
    def timeouts(self):
        """Timeouts fired per flow: each filler's, then the victim's."""
        return tuple(sender.timeouts_fired for sender in (*self.fillers, self.victim))


def _pfc_config(**overrides):
    # Four hosts give the switch the radix of the k=4 fat-tree, so RTO_low
    # stands to a buffer drain as it does at the scenarios' defaults.
    return ExperimentConfig(topology="star", num_hosts=4, transport="irn",
                            pfc_enabled=True, **overrides)


# The pins below are today's RTO rule, not the paper's.  ``physics()``
# makes RTO_low about 1.1 buffer drains here (8.7 us against 8 us to drain
# one 10 KB port buffer at 10 G), where §4.1's 100 us against 240 KB at 40 G
# is about 2.1.  A change to ``physics()``'s RTO rule must move these pins:
# at half today's RTO_low the same slice already times out with nothing lost.
@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 0)),
    ({"ack_coalesce_n": 1}, (0, 0)),
], ids=["default-coalescing", "per-packet-acks"])
def test_a_filled_port_times_the_victim_out_with_nothing_lost(coalesce, timeouts):
    config = _pfc_config(**coalesce)
    physics = config.physics()
    drain_s = physics.buffer_bytes * 8 / config.link_bandwidth_bps
    assert 1.0 < physics.rto_low_s / drain_s < 1.2
    assert VICTIM_PACKETS <= config.rto_low_threshold_packets

    run = _FilledPortRun(config)
    assert run.switch_drops == 0
    assert run.timeouts == timeouts


@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 1)),
    ({"ack_coalesce_n": 1}, (1, 1)),
], ids=["default-coalescing", "per-packet-acks"])
def test_at_half_the_derived_rto_low_the_slice_times_out(coalesce, timeouts):
    """The control: the slice can see a zero-drop timeout.  The victim's
    round trips behind the filler reach about RTO_low, so halving it makes
    the timer fire with no frame dropped."""
    derived = _pfc_config(**coalesce).physics().rto_low_s
    run = _FilledPortRun(_pfc_config(rto_low_s=derived / 2, **coalesce))
    assert run.switch_drops == 0
    assert run.timeouts == timeouts


# Fan-in: both other hosts fill the victim's port, the most this star can
# send into it at the radix that keeps RTO_low at 1.08 buffer drains (the
# RTOs grow with the radix: on an 8-host star RTO_low is 2.4 drains).
@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 0, 0)),
    ({"ack_coalesce_n": 1}, (0, 0, 0)),
], ids=["default-coalescing", "per-packet-acks"])
def test_a_port_filled_by_fan_in_times_nothing_out_with_nothing_lost(coalesce, timeouts):
    run = _FilledPortRun(_pfc_config(**coalesce), fillers=2)
    assert run.switch_drops == 0
    assert run.timeouts == timeouts


@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 1, 1)),
    ({"ack_coalesce_n": 1}, (1, 1, 1)),
], ids=["default-coalescing", "per-packet-acks"])
def test_at_half_the_derived_rto_low_the_fan_in_slice_times_out(coalesce, timeouts):
    """The fan-in slice's control: at half RTO_low the victim and the
    fillers time out with no frame dropped."""
    derived = _pfc_config(**coalesce).physics().rto_low_s
    run = _FilledPortRun(_pfc_config(rto_low_s=derived / 2, **coalesce), fillers=2)
    assert run.switch_drops == 0
    assert run.timeouts == timeouts


# ---------------------------------------------------------------------------
# Two switches, PFC on: a pause that spreads back over two hops
# ---------------------------------------------------------------------------

#: ``(src, dst, packets)`` on the registered ``dumbbell`` with four hosts
#: (h0, h1 on s0; h2, h3 on s1).  h2 -> h3 fills the s1 -> h3 port, and
#: three flows h0 -> h3 cross s0 -> s1 into it.  They share h0's uplink, so
#: they never load s0 -> s1 past its rate: s0 -> s1 backs up only when s1
#: pauses it, and then s0 pauses h0.  The victim h0 -> h2 (N packets, so
#: every timer it arms is RTO_low) never crosses the congested port; it
#: waits behind the pause two hops back.
LINE_FLOWS = (
    [("h2", "h3", FILLER_PACKETS)] + [("h0", "h3", FILLER_PACKETS)] * 3
    + [("h0", "h2", VICTIM_PACKETS)]
)


class _LineRun:
    """``LINE_FLOWS`` on the two-switch line, every flow built by the
    registered ``irn`` builder from one config."""

    def __init__(self, config):
        sim = Simulator(seed=1)
        network = TOPOLOGIES.get(config.topology)(sim, config, config.switch_config())
        endpoints = TRANSPORTS.get(config.transport)(config)
        self.senders = []
        for flow_id, (src, dst, packets) in enumerate(LINE_FLOWS, start=1):
            flow = Flow(flow_id, src, dst, packets * config.mtu_bytes)
            sender, receiver = endpoints(sim, network.hosts[src], flow, None, None, None, None)
            network.hosts[dst].register_receiver(receiver)
            network.hosts[src].register_sender(sender)
            self.senders.append(sender)
        with recording_timeouts() as handled:
            sim.run_until_idle()
        assert all(sender.completed for sender in self.senders)
        #: ``(flow_id, time)`` of every timeout handled.
        self.handled = handled
        self.switch_drops = sum(switch.packets_dropped
                                for switch in network.switches.values())
        self.pause_frames = {name: switch.pause_frames_sent
                             for name, switch in network.switches.items()}

    @property
    def timeouts(self):
        """Timeouts fired per flow, in ``LINE_FLOWS`` order (victim last)."""
        return tuple(sender.timeouts_fired for sender in self.senders)


def _line_config(**overrides):
    # The dumbbell's switches have radix 4, so RTO_low stands to a buffer
    # drain as on the star slices above.
    return ExperimentConfig(topology="dumbbell", num_hosts=4, transport="irn",
                            pfc_enabled=True, **overrides)


def _line_run(config):
    """The two-hop slice, checked against ``tests.helpers.eager_rto`` (a
    restart cancels and reschedules the event): every timeout is handled by
    the same flow at the same time, and drops and pauses agree."""
    run = _LineRun(config)
    with eager_rto():
        eager = _LineRun(config)
    assert run.handled == eager.handled
    assert (run.timeouts, run.switch_drops, run.pause_frames) == (
        eager.timeouts, eager.switch_drops, eager.pause_frames)
    return run


# Pinned as today's RTO rule gives them, like the star slices.  Unlike
# them, this slice times out at the derived RTO_low with nothing dropped:
# with per-packet ACKs two of h0's fillers do.
@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 0, 0, 0, 0)),
    ({"ack_coalesce_n": 1}, (0, 0, 1, 1, 0)),
], ids=["default-coalescing", "per-packet-acks"])
def test_a_pause_spread_over_two_hops_with_nothing_lost(coalesce, timeouts):
    config = _line_config(**coalesce)
    physics = config.physics()
    drain_s = physics.buffer_bytes * 8 / config.link_bandwidth_bps
    assert 1.0 < physics.rto_low_s / drain_s < 1.2
    assert VICTIM_PACKETS <= config.rto_low_threshold_packets

    run = _line_run(config)
    assert run.switch_drops == 0
    assert run.pause_frames["s1"] > 0 and run.pause_frames["s0"] > 0
    assert run.timeouts == timeouts


@pytest.mark.parametrize("coalesce, timeouts", [
    ({}, (0, 0, 1, 1, 1)),
    ({"ack_coalesce_n": 1}, (0, 2, 3, 2, 2)),
], ids=["default-coalescing", "per-packet-acks"])
def test_at_half_the_derived_rto_low_the_two_hop_slice_times_out(coalesce, timeouts):
    """The two-hop slice's control: at half RTO_low the victim times out
    too, still with no frame dropped."""
    derived = _line_config(**coalesce).physics().rto_low_s
    run = _line_run(_line_config(rto_low_s=derived / 2, **coalesce))
    assert run.switch_drops == 0
    assert run.timeouts == timeouts
