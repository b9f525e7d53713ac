"""IRN's loss recovery, checked on the smallest slice that determines it.

One IRN flow crosses the one-switch star of ``tests/test_switch.py``
(``h0 -> s0 -> h1``), and a test-local hook on the ``s0 -> h1`` link's
``arrive`` drops a scripted set of data frames.  This is the slicing idea of
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
  most N packets are in flight (tail loss), RTO_high otherwise.

Recovery time is measured per lost packet, from the arrival of its dropped
copy to the arrival of its delivered copy, in units of the slice's base RTT
(one data frame and its ACK, unloaded).
"""

import pytest

from repro.core.registry import TRANSPORTS
from repro.core.transport import Flow
from repro.experiments.config import ExperimentConfig
from repro.sim.engine import Simulator
from repro.sim.packet import PacketType
from repro.topology.simple import build_star

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
    """One IRN flow h0 -> h1 with ``drops[psn]`` copies of ``psn`` dropped."""

    def __init__(self, config, drops):
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
        #: The receiver's banked ACK grants when each drop happened.
        self.pending_at_drop = []
        self.first_ack_at = None
        remaining = dict(drops)

        downlink = network.link_between("s0", "h1")
        deliver = downlink.arrive

        def drop_scripted(packet, link):
            if packet.ptype is PacketType.DATA:
                self.arrivals.setdefault(packet.psn, []).append(sim.now)
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
            back(packet, link)

        uplink.arrive = note_ack

        src.register_sender(self.sender)
        sim.run_until_idle()
        assert self.receiver.completed and self.sender.completed

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
    assert burst < config.effective_bdp_cap_packets()
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
    rto_high = config.effective_rto_high_s()
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
    rto_low = config.effective_rto_low_s()
    assert rto_low < config.effective_rto_high_s()
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
    assert 0 < banked < config.effective_ack_coalesce_n()
    assert run.sender.timeouts_fired == 0
    assert run.sender.retransmissions == 1
    assert run.receiver.acks_coalesced > 0
    bound = base_rtt_s + 2 * _serialization_s(config)
    assert base_rtt_s <= run.recovery_s(MID) <= bound, run.recovery_s(MID) / base_rtt_s
