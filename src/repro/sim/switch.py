"""Input-queued switches with virtual output queues, PFC and ECN marking.

The paper's simulator models "input-queued switches with virtual output
ports, scheduled using round-robin", with per-input-port buffers whose
occupancy drives PFC pause/resume.  This module reproduces that model:

* every incoming link owns an input port with a fixed buffer,
* each input port keeps one virtual output queue (VOQ) per output port,
* each output port serves its VOQs round-robin across input ports,
* when PFC is enabled an input port that crosses its pause threshold sends an
  X-OFF frame to the upstream node; when it drains it sends X-ON,
* when PFC is disabled packets that do not fit in the buffer are dropped,
* ECN marking (RED-style for DCQCN, step marking for DCTCP) is applied based
  on the per-output queue depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.link import Link, OutputPort
from repro.sim.packet import Packet, PacketType
from repro.sim.pfc import PfcConfig, PfcState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.routing import Routing

_DATA = PacketType.DATA
_INF = float("inf")


@dataclass
class EcnConfig:
    """ECN marking configuration (RED-like, per DCQCN's recommended setup)."""

    enabled: bool = False
    kmin_bytes: int = 20_000
    kmax_bytes: int = 80_000
    pmax: float = 0.2
    #: When True, mark deterministically above ``kmin_bytes`` (DCTCP-style).
    step_marking: bool = False


@dataclass
class SwitchConfig:
    """Per-switch configuration.

    ``buffer_bytes_per_port`` is the per-input-port buffer (the paper sizes it
    at twice the network BDP, 240KB in the default scenario).
    """

    buffer_bytes_per_port: int = 240_000
    pfc: PfcConfig = field(default_factory=PfcConfig)
    ecn: EcnConfig = field(default_factory=EcnConfig)


class _InputPort:
    """Buffer accounting and PFC state for one incoming link.

    The frames themselves sit in the virtual output queues, one per output
    port, which live on the :class:`~repro.sim.link.OutputPort` they feed
    (``out_port.voqs[in_port.index]``).
    """

    __slots__ = ("link", "index", "bit", "buffer_bytes", "occupancy", "pfc",
                 "pause_threshold", "resume_threshold")

    def __init__(self, link: Link, index: int, buffer_bytes: int, pfc_config: PfcConfig) -> None:
        self.link = link
        #: Position in the switch's round-robin order, and its mask bit.
        self.index = index
        self.bit = 1 << index
        self.buffer_bytes = buffer_bytes
        self.occupancy = 0
        #: ``pfc.upstream_paused`` is the one copy of "X-OFF sent, X-ON due".
        self.pfc = PfcState()
        # Thresholds are pure functions of the (fixed) buffer size; computed
        # once here instead of per received packet.
        self.pause_threshold = pfc_config.pause_threshold(buffer_bytes)
        self.resume_threshold = pfc_config.resume_threshold(buffer_bytes)


class Switch:
    """An input-queued switch."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        config: Optional[SwitchConfig] = None,
        routing: Optional["Routing"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or SwitchConfig()
        # Read once: the configuration of a built switch does not change.
        self._pfc_enabled = self.config.pfc.enabled
        #: Output depth from which ECN marking may apply: both RED and step
        #: marking leave a frame alone below ``kmin_bytes`` (and draw no
        #: random number), so shallower queues skip the marking call.
        self._ecn_kmin = self.config.ecn.kmin_bytes if self.config.ecn.enabled else _INF

        self.output_ports: Dict[str, OutputPort] = {}   # neighbor name -> port
        self.input_ports: Dict[Link, _InputPort] = {}   # incoming link -> input port
        self._in_port_list: List[_InputPort] = []       # round-robin order
        self.routing = routing

        # Statistics
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.packets_marked = 0
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        #: Optional observability probe (duck-typed ``.add(bytes)``): when
        #: attached (``ExperimentConfig.fabric_digests``), the enqueueing
        #: input port's buffer occupancy is sampled after every accepted
        #: packet -- the §4.4 congestion-spreading queue-depth distribution.
        self.queue_depth_digest = None

    @property
    def routing(self) -> Optional["Routing"]:
        """The routing strategy; assigning one forgets every cached route."""
        return self._routing

    @routing.setter
    def routing(self, routing: Optional["Routing"]) -> None:
        self._routing = routing
        #: ``dst -> {flow_id: OutputPort}`` for per-flow routing (two plain
        #: lookups, no key tuple built per hop); ``None`` when every packet
        #: must be routed afresh (packet spraying).
        self._route_cache: Optional[Dict[str, Dict[int, OutputPort]]] = (
            {} if routing is not None and routing.per_flow else None
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_output_link(self, link: Link) -> OutputPort:
        """Attach an outgoing link; returns the created output port."""
        port = OutputPort(self.sim, link, source=self)
        port.voqs = [None] * len(self._in_port_list)
        self.output_ports[link.dst.name] = port
        return port

    def add_input_link(self, link: Link) -> None:
        """Register an incoming link (creates its input-port buffer, which
        :meth:`receive` finds on the link itself)."""
        in_port = _InputPort(
            link, len(self._in_port_list), self.config.buffer_bytes_per_port, self.config.pfc
        )
        self.input_ports[link] = in_port
        link.in_port = in_port
        self._in_port_list.append(in_port)
        for port in self.output_ports.values():
            port.voqs.append(None)

    def port_towards(self, neighbor_name: str) -> OutputPort:
        """The output port facing ``neighbor_name``."""
        return self.output_ports[neighbor_name]

    def neighbors(self) -> List[str]:
        """Names of nodes reachable over one of this switch's output links."""
        return list(self.output_ports.keys())

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        """Handle a frame arriving on ``link``.

        The frame is admitted (buffer check, ECN marking) and then either
        *cut through* -- handed to the output port as a one-frame
        departure batch in this same call, when that output has nothing
        queued, is not paused, its wire is free and no PFC edge is involved
        -- or queued in its VOQ for :meth:`next_packet`.  Cut-through skips
        the enqueue and the dequeue, never the wire model: it leaves every
        counter, the round-robin pointer, the RNG and the event stream
        exactly as enqueue + ``kick`` + ``next_packet`` would.
        """
        if packet.pfc_frame:
            self._handle_pfc(packet, link)
            return

        in_port = link.in_port
        if in_port is None:
            raise RuntimeError(f"{self.name}: packet arrived on unregistered link {link.name}")
        routes = self._route_cache
        if routes is None:
            out_port = self._route(packet)
        else:
            try:
                out_port = routes[packet.dst][packet.flow_id]
            except KeyError:
                out_port = routes.setdefault(packet.dst, {})[packet.flow_id] = self._route(packet)

        size = packet.size_bytes
        occupancy = in_port.occupancy + size
        if occupancy > in_port.buffer_bytes:
            # Buffer overrun.  With correctly-configured PFC this should not
            # happen; without PFC this is a normal congestion drop.
            self.packets_dropped += 1
            self.bytes_dropped += size
            return

        depth = out_port.queued_bytes
        if depth >= self._ecn_kmin and packet.ptype is _DATA:
            self._maybe_mark_ecn(packet, depth)

        if self.queue_depth_digest is not None:
            self.queue_depth_digest.add(occupancy)

        pfc = self._pfc_enabled
        now = self.sim.now
        if (
            not out_port.active_mask
            and not out_port.paused
            and now >= out_port.free_at
            and not (pfc and (in_port.pfc.upstream_paused
                              or occupancy >= in_port.pause_threshold))
        ):
            # Cut-through.  The frame would be the only one queued for this
            # output and would leave in this very event, so the buffer
            # occupancy, ``queued_bytes`` and the mask end where they began.
            # With PFC on, an input that has X-OFF outstanding or reaches
            # its threshold with this frame is excluded: its pause / resume
            # frames are sent from the queued path.  The port commits the
            # frame as a one-frame batch (wire, counters, wake-up pull), and
            # its next pull finds the mask empty.
            self.packets_forwarded += 1
            out_port.rr_pointer = in_port.index + 1
            out_port.cut_through(now, packet)
            return

        queue = out_port.voqs[in_port.index]
        if queue is None:  # first frame this input ever queues for this output
            queue = out_port.voqs[in_port.index] = deque()
        queue.append(packet)
        out_port.active_mask |= in_port.bit
        out_port.queued_bytes += size
        in_port.occupancy = occupancy
        if pfc and occupancy >= in_port.pause_threshold and not in_port.pfc.upstream_paused:
            in_port.pfc.mark_paused()
            self.pause_frames_sent += 1
            self._send_pfc(link, PacketType.PFC_PAUSE)
        out_port.kick()

    # ------------------------------------------------------------------
    # Transmit path (PacketSource protocol)
    # ------------------------------------------------------------------
    def next_packet(self, port: OutputPort) -> Optional[Packet]:
        """Round-robin over input ports with traffic queued for ``port``.

        ``port.active_mask`` has bit ``i`` set exactly when input ``i``
        holds a frame for ``port``, so the next input in round-robin order
        is the lowest set bit at or after the pointer, else the lowest set
        bit: the input a scan from the pointer would find, without the scan.
        """
        mask = port.active_mask
        if not mask:
            # Nothing queued for this output anywhere.  Departure batching
            # probes until the source runs dry, so misses are as frequent
            # as batches.
            return None
        pointer = port.rr_pointer  # <= number of inputs, so no wrap needed
        ahead = mask >> pointer
        if ahead:
            idx = pointer + (ahead & -ahead).bit_length() - 1
        else:
            idx = (mask & -mask).bit_length() - 1
        queue = port.voqs[idx]
        packet = queue.popleft()
        in_port = self._in_port_list[idx]
        if not queue:
            port.active_mask = mask ^ in_port.bit
        size = packet.size_bytes
        in_port.occupancy -= size
        port.queued_bytes -= size
        port.rr_pointer = idx + 1
        self.packets_forwarded += 1
        if (
            self._pfc_enabled
            and in_port.pfc.upstream_paused
            and in_port.occupancy < in_port.resume_threshold
        ):
            in_port.pfc.mark_resumed()
            self.resume_frames_sent += 1
            self._send_pfc(in_port.link, PacketType.PFC_RESUME)
        return packet

    def total_queued_bytes(self) -> int:
        """Bytes currently buffered in the switch."""
        return sum(p.occupancy for p in self._in_port_list)

    def total_queued_packets(self) -> int:
        """Packets currently buffered in the switch (all VOQs).

        Used by the verify harness's conservation invariant: at drain,
        injected == delivered + dropped + still-queued, fabric-wide.
        """
        return sum(
            len(queue)
            for port in self.output_ports.values()
            for queue in port.voqs
            if queue
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _route(self, packet: Packet) -> OutputPort:
        """Ask the routing strategy for ``packet``'s output port."""
        if self._routing is None:
            raise RuntimeError(f"{self.name}: no routing configured")
        next_hop = self._routing.next_hop(self, packet)
        out_port = self.output_ports.get(next_hop)
        if out_port is None:
            raise RuntimeError(f"{self.name}: no port towards {next_hop} for {packet}")
        return out_port

    def _maybe_mark_ecn(self, packet: Packet, depth: int) -> None:
        """Mark a data ``packet`` given its output's depth before enqueue.

        :meth:`receive` calls it only from ``depth >= kmin_bytes`` on, the
        depths at which either marking rule can act."""
        ecn = self.config.ecn
        if ecn.step_marking:
            if depth >= ecn.kmin_bytes:
                packet.ecn = True
                self.packets_marked += 1
            return
        if depth <= ecn.kmin_bytes:
            return
        if depth >= ecn.kmax_bytes:
            probability = 1.0
        else:
            span = max(1, ecn.kmax_bytes - ecn.kmin_bytes)
            probability = ecn.pmax * (depth - ecn.kmin_bytes) / span
        if self.sim.rng.random() < probability:
            packet.ecn = True
            self.packets_marked += 1

    def _send_pfc(self, congested_link: Link, ptype: PacketType) -> None:
        """Send a pause/resume frame to the node feeding ``congested_link``."""
        upstream_name = congested_link.src.name
        frame = Packet(ptype, -1, self.name, upstream_name)
        self.output_ports[upstream_name].send_control_direct(frame)

    def _handle_pfc(self, packet: Packet, link: Link) -> None:
        """Pause or resume our output port facing the pause frame's sender."""
        sender = link.src.name
        port = self.output_ports.get(sender)
        if port is None:  # pragma: no cover - defensive
            return
        if packet.ptype is PacketType.PFC_PAUSE:
            port.pause()
        else:
            port.resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name})"
