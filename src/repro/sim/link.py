"""Links and output ports.

A :class:`Link` is a unidirectional channel between two nodes with a fixed
bandwidth and propagation delay.  The sending side of a link is driven by an
:class:`OutputPort`, which serializes packets, honours PFC pause state, and
pulls packets from its owning node (a switch output scheduler or a host NIC)
whenever the wire goes idle.

Departures are *batched*: when the wire is idle and the source has
back-to-back packets ready, the port commits up to
:data:`DEFAULT_PORT_BATCH` of them in one pull, schedules each arrival
directly at its exact serialization-completion-plus-propagation time, and
arranges at most **one** wake-up event per busy period instead of one
schedule->fire->pull chain per packet.  Committed packets model frames
already handed to the MAC FIFO: a PFC pause arriving mid-batch takes effect
at the next pull (the PFC headroom accounts for this burst, see
:func:`repro.sim.pfc.headroom_for_link`).  Arrival times *and* per-packet
send timestamps (``Packet.sent_time`` is re-stamped at each packet's
serialization start, keeping RTT samples exact) are identical to the
unbatched model; only the pull *decision points* are coarser.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, List, Optional, Protocol

from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Maximum packets an :class:`OutputPort` commits to the wire per pull.  The
#: PFC headroom budget (:func:`repro.sim.pfc.headroom_for_link`) absorbs one
#: full batch in flight after a pause frame lands, so these two constants
#: move together.
DEFAULT_PORT_BATCH = 4


class PacketSource(Protocol):
    """Anything an :class:`OutputPort` can pull packets from."""

    def next_packet(self, port: "OutputPort") -> Optional[Packet]:
        """Return the next packet to send on ``port`` or ``None`` if idle."""


class Node(Protocol):
    """Minimal interface all network nodes implement."""

    name: str

    def receive(self, packet: Packet, link: "Link") -> None:
        """Handle a packet arriving over ``link``."""


class Link:
    """A unidirectional link from ``src`` to ``dst``.

    Parameters
    ----------
    bandwidth_bps:
        Link rate in bits per second.
    prop_delay_s:
        One-way propagation delay in seconds.
    """

    def __init__(
        self,
        sim: "Simulator",
        src: Node,
        dst: Node,
        bandwidth_bps: float,
        prop_delay_s: float,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if prop_delay_s < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_s = prop_delay_s
        self.name = name or f"{src.name}->{dst.name}"
        #: What an arrival over this link runs, ``arrive(packet, link)``:
        #: ``dst.receive``, bound once here rather than per frame.  A tap
        #: that intercepts this link's arrivals (fault injection, recovery
        #: tracking) replaces it with a callable that wraps the old value.
        self.arrive = dst.receive
        #: The receiving switch's input port for this link (set by
        #: ``Switch.add_input_link``; ``None`` when ``dst`` is a host).
        self.in_port = None

    def serialization_delay(self, packet: Packet) -> float:
        """Time to clock ``packet`` onto the wire at the link rate."""
        return packet.size_bits / self.bandwidth_bps

    def deliver(self, packet: Packet, extra_delay: float = 0.0) -> None:
        """Schedule arrival of ``packet`` at the far end of the link."""
        self.sim.schedule(self.prop_delay_s + extra_delay, self.arrive, packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.bandwidth_bps/1e9:.0f}Gbps)"


class OutputPort:
    """The transmit side of a link.

    The port pulls packets from its ``source`` whenever the wire is free and
    the port is not paused by PFC.  Serialization is modelled explicitly: a
    packet occupies the wire for ``size_bits / bandwidth`` seconds and then
    propagates for the link delay before arriving at the peer.

    One pull commits up to ``max_batch_packets`` back-to-back packets (the
    departure batch); the port tracks when the wire frees (``free_at``) and
    schedules a wake-up pull only when one is actually needed -- when the
    batch limit cut the pull short, or when a kick arrives while the wire is
    busy.  An idle-source busy period therefore costs zero wake-up events.
    """

    def __init__(
        self,
        sim: "Simulator",
        link: Link,
        source: PacketSource,
        max_batch_packets: int = DEFAULT_PORT_BATCH,
    ) -> None:
        if max_batch_packets < 1:
            raise ValueError("max_batch_packets must be >= 1")
        self.sim = sim
        self.link = link
        self.source = source
        self.max_batch_packets = max_batch_packets
        self.paused = False

        #: When the committed departures finish serializing: the wire is
        #: free from this time on (``busy`` is ``sim.now < free_at``).
        self.free_at = 0.0
        self._pull_event: Optional[list] = None

        # Scheduling state of a *switch* output (unused on a host NIC): the
        # switch keeps it here, on the object it already has in hand on
        # every enqueue and every pull, instead of in dicts keyed by port.
        #: ``voqs[i]``: frames input port ``i`` holds for this output
        #: (``None`` until that input first queues one).
        self.voqs: List[Optional[Deque[Packet]]] = []
        #: Bit ``i`` set <=> ``voqs[i]`` is non-empty.
        self.active_mask = 0
        #: Bytes queued for this output across all inputs (the ECN depth).
        self.queued_bytes = 0
        #: Round-robin pointer: index of the input served last, plus one.
        self.rr_pointer = 0

        # Statistics
        self.pause_count = 0
        self.resume_count = 0
        self.paused_time = 0.0
        self._paused_since: Optional[float] = None
        #: Pulls that committed at least one packet (batches).
        self.batches_sent = 0
        #: Optional observability probe (duck-typed ``.add(duration)``):
        #: when attached (``ExperimentConfig.fabric_digests``), every PFC
        #: pause episode's duration is recorded at resume time.
        self.pause_digest = None
        #: Optional pause-state observer (duck-typed ``.on_pause(port)`` /
        #: ``.on_resume(port)``), called on every False->True / True->False
        #: transition.  Pure observation -- the PFC deadlock detector hangs
        #: its wait-for graph off this hook without adding events.
        self.pause_observer = None

    @property
    def busy(self) -> bool:
        """True while a committed departure batch still occupies the wire."""
        return self.sim.now < self.free_at

    # ------------------------------------------------------------------
    # PFC pause handling
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop pulling new packets (committed packets complete)."""
        if not self.paused:
            self.paused = True
            self.pause_count += 1
            self._paused_since = self.sim.now
            if self.pause_observer is not None:
                self.pause_observer.on_pause(self)

    def resume(self) -> None:
        """Resume transmission and immediately try to send."""
        if self.paused:
            self.paused = False
            self.resume_count += 1
            if self._paused_since is not None:
                duration = self.sim.now - self._paused_since
                self.paused_time += duration
                if self.pause_digest is not None:
                    self.pause_digest.add(duration)
                self._paused_since = None
            if self.pause_observer is not None:
                self.pause_observer.on_resume(self)
            self.kick()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Try to start transmitting; defer to a wake-up if the wire is busy."""
        if self.paused:
            return
        now = self.sim.now
        if now < self.free_at:
            # Wire busy: remember (at most once) to pull when it frees.
            if self._pull_event is None:
                self._pull_event = self.sim.schedule_at(self.free_at, self._pull)
            return
        self.start_batch(now)

    def _pull(self) -> None:
        self._pull_event = None
        if self.paused:
            return
        now = self.sim.now
        if now < self.free_at:
            # A kick at this exact timestamp (but scheduled earlier) already
            # started a new batch before this wake-up fired: the wire is
            # committed again.  Re-arm for the new free time instead of
            # double-committing the wire, which would interleave two batches
            # and reorder the flow.
            self._pull_event = self.sim.schedule_at(self.free_at, self._pull)
            return
        self.start_batch(now)

    def start_batch(self, now: float) -> None:
        """Commit up to ``max_batch_packets`` departures starting at ``now``.

        The caller has checked that the port is not paused and the wire is
        free.
        """
        link = self.link
        sim = self.sim
        next_packet = self.source.next_packet
        arrive = link.arrive
        prop = link.prop_delay_s
        bandwidth = link.bandwidth_bps
        free_at = now
        count = 0
        limit = self.max_batch_packets
        while count < limit:
            packet = next_packet(self)
            if packet is None:
                break
            # Re-stamp the send time at this packet's serialization start:
            # transports build batch members at the pull timestamp, but RTT
            # consumers (Timely, iWARP's adaptive RTO) must see the same
            # wire-start times the unbatched model produced.
            packet.sent_time = free_at
            free_at += packet.size_bits / bandwidth
            # The arrival time is fixed the moment serialization is
            # committed, so schedule it directly -- no per-packet
            # transmit-done event.
            sim.schedule_at(free_at + prop, arrive, packet, link)
            count += 1
        if count:
            self.batches_sent += 1
            self.free_at = free_at
            if count == limit:
                # The batch limit (not an empty source) ended the pull, so
                # nothing will kick us: arrange the next pull ourselves.
                if self._pull_event is None:
                    self._pull_event = sim.schedule_at(free_at, self._pull)

    def cut_through(self, now: float, packet: Packet) -> None:
        """Commit ``packet`` alone, starting at ``now``: a one-frame batch.

        For a source that hands over a frame instead of queueing it (a
        switch whose output has nothing queued): the caller has checked
        that the port is not paused, the wire is free and the source holds
        nothing else for this port.  Wire, counters and events are those of
        :meth:`start_batch` pulling this frame and then finding the source
        empty -- without the loop and without the pull that finds nothing.
        """
        link = self.link
        sim = self.sim
        packet.sent_time = now
        self.free_at = free_at = now + packet.size_bits / link.bandwidth_bps
        sim.schedule_at(free_at + link.prop_delay_s, link.arrive, packet, link)
        self.batches_sent += 1
        if self.max_batch_packets == 1:
            # This frame alone reaches the batch limit, so ``start_batch``
            # would have stopped on the limit, not on the empty source:
            # arrange the next pull as it does.
            if self._pull_event is None:
                self._pull_event = sim.schedule_at(free_at, self._pull)

    def send_control_direct(self, packet: Packet) -> None:
        """Send a control frame bypassing the data queue (used for PFC).

        PFC pause/resume frames are generated by the MAC layer and are not
        subject to the pause state of the data traffic; they are modelled as
        arriving after the propagation delay plus their own serialization
        time, without queueing behind data packets.
        """
        delay = self.link.serialization_delay(packet)
        self.link.deliver(packet, extra_delay=delay)
