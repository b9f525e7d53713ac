"""Congestion control interface.

Transports call into a :class:`CongestionControl` object at well-defined
points (packet sent, ACK received, CNP received, loss detected, timeout) and
consult it for two things:

* ``next_send_time`` -- rate-based algorithms (DCQCN, Timely) pace packets by
  returning the earliest time the next packet may leave the NIC;
* ``window_limit`` -- window-based algorithms (AIMD, DCTCP) bound the number
  of packets in flight.

An algorithm implements whichever dimension it controls and leaves the other
unconstrained, matching the paper's observation that IRN's changes are
orthogonal to the choice of explicit congestion control.
"""

from __future__ import annotations


class CongestionControl:
    """Base class: unlimited rate and window (i.e. no congestion control)."""

    # --- transmit-side hooks -------------------------------------------------
    def on_packet_sent(self, size_bits: int, now: float) -> None:
        """Called after every data packet is handed to the NIC."""

    def next_send_time(self, now: float) -> float:
        """Earliest time the next packet may be sent (``now`` if unpaced)."""
        return now

    def window_limit(self, base: float) -> float:
        """Maximum packets in flight (``base`` if the algorithm is rate based)."""
        return base

    # --- feedback hooks -------------------------------------------------------
    def on_ack(
        self, rtt: float, now: float, ecn_echo: bool = False, newly_acked: int = 1
    ) -> None:
        """Called for every acknowledgement carrying an RTT sample.

        ``newly_acked`` is how many packets this acknowledgement newly
        covers.  With receiver-side ACK coalescing one cumulative ACK stands
        in for a whole window of per-packet ACKs; window-based schemes credit
        the full count so their growth dynamics do not depend on the
        coalescing degree.  Rate-based schemes (one RTT sample per ACK
        *frame*) may ignore it.
        """

    def on_cnp(self, now: float) -> None:
        """Called when a DCQCN congestion notification packet arrives."""

    def on_loss(self, now: float) -> None:
        """Called when the transport detects a lost packet (NACK/dup-SACK)."""

    def on_timeout(self, now: float) -> None:
        """Called when the transport's retransmission timer fires."""

    # --- introspection ---------------------------------------------------------
    def current_rate_bps(self) -> float:
        """Current sending rate (``inf`` for pure window-based algorithms)."""
        return float("inf")


class NoCongestionControl(CongestionControl):
    """Explicit no-op used when the experiment disables congestion control."""


class RateBasedControl(CongestionControl):
    """Shared pacing machinery for rate-based algorithms.

    Subclasses adjust :attr:`rate_bps`; this class turns the rate into
    inter-packet gaps.  The rate starts at line rate, as the paper starts all
    flows at line rate for fair comparison with PFC-based proposals.
    """

    def __init__(self, line_rate_bps: float, min_rate_bps: float | None = None) -> None:
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        self.line_rate_bps = line_rate_bps
        self.min_rate_bps = min_rate_bps if min_rate_bps is not None else line_rate_bps / 1000.0
        self.rate_bps = line_rate_bps
        self._next_tx_time = 0.0

    def clamp_rate(self) -> None:
        """Keep the rate within [min_rate, line_rate]."""
        self.rate_bps = max(self.min_rate_bps, min(self.line_rate_bps, self.rate_bps))

    def on_packet_sent(self, size_bits: int, now: float) -> None:
        gap = size_bits / self.rate_bps
        self._next_tx_time = max(self._next_tx_time, now) + gap

    def next_send_time(self, now: float) -> float:
        return max(now, self._next_tx_time)

    def current_rate_bps(self) -> float:
        return self.rate_bps
