"""Declarative, deterministic fault injection.

A :class:`FaultPlan` is a JSON-round-trippable description of *what goes
wrong and when* during an experiment: link flaps, seeded per-link packet
corruption, degraded (slow/lossy-adjacent) links, and PFC pause storms.
Plans ride on :class:`~repro.experiments.config.ExperimentConfig` and are
fingerprinted whenever non-empty, so fault-free runs keep hitting warm
sweep caches while any fault-enabled cell gets its own cache identity.

The :class:`FaultEngine` turns a plan into ordinary simulator events — no
side channel, no wall clock — so a fault-enabled run is as deterministic
as any other.  Fault drops are counted in dedicated counters
(``flap_drops`` / ``corruption_drops``), *never* folded into switch buffer
drops: the verifier's packet-conservation invariant holds modulo these
explicit counters, and the losslessness invariant treats an injected drop
on a PFC fabric exactly like a buffer overrun (a violation).

Semantics, per kind:

``link_flap``
    Between ``start_s`` and ``end_s`` the directed link ``src -> dst`` is
    down: the sender-side port is paused (so nothing new is serialized) and
    every non-PFC packet that *arrives* at ``dst`` during the window — i.e.
    anything in flight when the link went down — is dropped and counted in
    ``flap_drops``.  PFC control frames pass through (they never enter the
    commit/deliver packet-conservation ledger).  If PFC had already paused
    the port, the flap does not fight the PFC state machine: it only
    resumes the port at up-time if the flap itself paused it.

``packet_corruption``
    A seeded Bernoulli coin per DATA packet arriving over the link inside
    the window; heads means the frame fails CRC at the receiver and is
    dropped (counted in ``corruption_drops``) — never silently delivered.
    The coin stream is ``random.Random(sha256(seed, src, dst))``, private
    per directed link, so ECN's shared ``sim.rng`` draw sequence is
    untouched and the stream replays identically on every scheduler core.
    ``end_s`` of ``None`` means "until the end of the run" (a marginal
    cable, not a transient).

``degraded_link``
    Over the window the link's bandwidth is multiplied by
    ``bandwidth_factor`` and its propagation delay by ``delay_factor``.
    Output ports re-read link attributes at every serialization batch, so
    the change takes effect at the next batch boundary.  Overlapping
    windows on the same link compose multiplicatively.

``pause_storm``
    The fuzzer's pause fault, promoted: the ``src``-side port towards
    ``dst`` is force-paused over the window regardless of PFC state,
    modeling a misbehaving peer that spams PFC PAUSE frames.

Scheduling: every window boundary is a plain ``sim.schedule_at`` event, so
fault actions interleave with traffic in deterministic ``(time, seq)``
order.  Windows whose start lies past the end of the run simply never
fire; :meth:`FaultEngine.finalize` closes any window still open.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sim.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.link import Link, OutputPort
    from repro.sim.packet import Packet

__all__ = [
    "LinkFlap",
    "PacketCorruption",
    "DegradedLink",
    "PauseStorm",
    "FaultPlan",
    "FaultEngine",
    "fault_from_dict",
    "FAULT_KINDS",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class LinkFlap:
    """Directed link ``src -> dst`` is down over ``[start_s, end_s)``."""

    src: str
    dst: str
    start_s: float
    end_s: float
    kind: str = "link_flap"

    def __post_init__(self) -> None:
        _require(self.start_s >= 0.0, "link_flap start_s must be >= 0")
        _require(self.end_s > self.start_s, "link_flap end_s must be > start_s")


@dataclass(frozen=True)
class PacketCorruption:
    """Seeded Bernoulli CRC corruption of DATA packets on ``src -> dst``."""

    src: str
    dst: str
    probability: float
    start_s: float = 0.0
    end_s: Optional[float] = None
    kind: str = "packet_corruption"

    def __post_init__(self) -> None:
        _require(
            0.0 < self.probability <= 1.0,
            "packet_corruption probability must be in (0, 1]",
        )
        _require(self.start_s >= 0.0, "packet_corruption start_s must be >= 0")
        if self.end_s is not None:
            _require(
                self.end_s > self.start_s,
                "packet_corruption end_s must be > start_s",
            )


@dataclass(frozen=True)
class DegradedLink:
    """Bandwidth/delay multipliers on ``src -> dst`` over a window."""

    src: str
    dst: str
    start_s: float
    end_s: float
    bandwidth_factor: float = 1.0
    delay_factor: float = 1.0
    kind: str = "degraded_link"

    def __post_init__(self) -> None:
        _require(self.start_s >= 0.0, "degraded_link start_s must be >= 0")
        _require(self.end_s > self.start_s, "degraded_link end_s must be > start_s")
        _require(
            0.0 < self.bandwidth_factor <= 1.0,
            "degraded_link bandwidth_factor must be in (0, 1]",
        )
        _require(self.delay_factor >= 1.0, "degraded_link delay_factor must be >= 1")


@dataclass(frozen=True)
class PauseStorm:
    """Force-pause the ``src``-side port towards ``dst`` over a window."""

    src: str
    dst: str
    start_s: float
    end_s: float
    kind: str = "pause_storm"

    def __post_init__(self) -> None:
        _require(self.start_s >= 0.0, "pause_storm start_s must be >= 0")
        _require(self.end_s > self.start_s, "pause_storm end_s must be > start_s")


#: Wire-format ``kind`` tag -> dataclass.  ``kind`` is a real (defaulted)
#: field, not a ClassVar, so ``dataclasses.asdict`` keeps it in the wire
#: payload and :func:`fault_from_dict` can dispatch on it.
FAULT_KINDS: Dict[str, type] = {
    "link_flap": LinkFlap,
    "packet_corruption": PacketCorruption,
    "degraded_link": DegradedLink,
    "pause_storm": PauseStorm,
}


def fault_from_dict(payload: Mapping[str, Any]) -> Any:
    """Rehydrate one fault from its wire dict, dispatching on ``kind``."""
    data = dict(payload)
    kind = data.get("kind")
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault kind: {kind!r}")
    return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults plus recovery-metric knobs.

    ``goodput_bin_s`` sets the bin width of the goodput timeline used for
    ``recovery_time_s`` (default: derived from the topology's base RTT);
    ``stall_threshold_s`` sets the inter-delivery gap beyond which a flow
    counts as stalled (default: the transport's effective low RTO).
    """

    faults: Tuple[Any, ...] = ()
    goodput_bin_s: Optional[float] = None
    stall_threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        coerced = tuple(
            fault_from_dict(entry) if isinstance(entry, Mapping) else entry
            for entry in self.faults
        )
        for entry in coerced:
            if type(entry) not in FAULT_KINDS.values():
                raise ValueError(f"not a fault kind: {entry!r}")
        object.__setattr__(self, "faults", coerced)
        if self.goodput_bin_s is not None:
            _require(self.goodput_bin_s > 0.0, "goodput_bin_s must be > 0")
        if self.stall_threshold_s is not None:
            _require(self.stall_threshold_s > 0.0, "stall_threshold_s must be > 0")

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def first_fault_start_s(self) -> Optional[float]:
        if not self.faults:
            return None
        return min(fault.start_s for fault in self.faults)

    def last_fault_end_s(self) -> Optional[float]:
        """Latest window end, or ``None`` if empty or any window is open-ended."""
        if not self.faults:
            return None
        ends = [fault.end_s for fault in self.faults]
        if any(end is None for end in ends):
            return None
        return max(ends)

    def windows(self) -> List[Tuple[float, Optional[float]]]:
        """Merged ``(start, end)`` fault windows; ``end`` may be ``None``."""
        raw = sorted(
            ((fault.start_s, fault.end_s) for fault in self.faults),
            key=lambda window: window[0],
        )
        merged: List[Tuple[float, Optional[float]]] = []
        for start, end in raw:
            if merged:
                last_start, last_end = merged[-1]
                if last_end is None:
                    continue
                if start <= last_end:
                    if end is None:
                        merged[-1] = (last_start, None)
                    else:
                        merged[-1] = (last_start, max(last_end, end))
                    continue
            merged.append((start, end))
        return merged

    def effective_goodput_bin_s(self, base_rtt_s: float) -> float:
        if self.goodput_bin_s is not None:
            return self.goodput_bin_s
        return max(100e-6, 10.0 * base_rtt_s)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(**dict(payload))


class _LinkState:
    """Per-directed-link fault state consulted by the receive tap."""

    __slots__ = ("down", "corruptions", "rng")

    def __init__(self) -> None:
        self.down = False
        self.corruptions: List[_CorruptionWindow] = []
        self.rng: Optional[Random] = None


class _CorruptionWindow:
    __slots__ = ("probability", "active")

    def __init__(self, probability: float) -> None:
        self.probability = probability
        self.active = False


class _ReceiveTap:
    """Wraps one node's ``receive`` to intercept faulted-link arrivals.

    Installed as the *outermost* wrapper (after any metrics probes), so a
    fault-dropped packet never reaches goodput accounting or the node.
    """

    __slots__ = ("engine", "inner")

    def __init__(self, engine: "FaultEngine", node: Any) -> None:
        self.engine = engine
        self.inner = node.receive
        node.receive = self

    def __call__(self, packet: Packet, link: Link) -> None:
        state = self.engine._link_state.get(id(link))
        if state is not None and self.engine._intercept(state, packet):
            return
        self.inner(packet, link)


class FaultEngine:
    """Schedules a :class:`FaultPlan` onto a built network.

    Usage: construct after the network exists, optionally point
    ``retransmission_probe`` at a cumulative-retransmissions counter, call
    :meth:`install` before the run and :meth:`finalize` after it.
    """

    def __init__(self, sim: Any, network: Any, plan: FaultPlan, seed: int) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self.seed = seed
        self.flap_drops = 0
        self.corruption_drops = 0
        #: Cumulative retransmission counter sampled at fault-window edges;
        #: set by the runner (``None`` disables the observable).
        self.retransmission_probe: Optional[Callable[[], int]] = None
        self.retransmissions_during_fault = 0
        self._link_state: Dict[int, _LinkState] = {}
        self._taps: Dict[str, _ReceiveTap] = {}
        self._window_open_probe: Optional[int] = None

    @property
    def fault_drops(self) -> int:
        """All packets this engine dropped (flap + corruption)."""
        return self.flap_drops + self.corruption_drops

    # -- wiring -----------------------------------------------------------

    def _link(self, src: str, dst: str) -> Link:
        link = self.network.link_between(src, dst)
        if link is None:
            raise ValueError(f"fault targets unknown link {src} -> {dst}")
        return link

    def _state_for(self, link: Link) -> _LinkState:
        state = self._link_state.get(id(link))
        if state is None:
            state = _LinkState()
            self._link_state[id(link)] = state
            dst = link.dst
            if dst.name not in self._taps:
                self._taps[dst.name] = _ReceiveTap(self, dst)
        return state

    def _port_towards(self, src: str, dst: str) -> Optional[OutputPort]:
        node = self.network.node(src)
        port_towards = getattr(node, "port_towards", None)
        if port_towards is not None:
            try:
                return port_towards(dst)
            except KeyError:
                return None
        return getattr(node, "uplink_port", None)

    def install(self) -> None:
        """Wrap receivers and schedule every window boundary."""
        for fault in self.plan.faults:
            if isinstance(fault, LinkFlap):
                self._install_flap(fault)
            elif isinstance(fault, PacketCorruption):
                self._install_corruption(fault)
            elif isinstance(fault, DegradedLink):
                self._install_degraded(fault)
            elif isinstance(fault, PauseStorm):
                self._install_pause_storm(fault)
        if self.retransmission_probe is not None:
            for start, end in self.plan.windows():
                self.sim.schedule_at(start, self._open_retrans_window)
                if end is not None:
                    self.sim.schedule_at(end, self._close_retrans_window)

    def _install_flap(self, fault: LinkFlap) -> None:
        link = self._link(fault.src, fault.dst)
        state = self._state_for(link)
        port = self._port_towards(fault.src, fault.dst)
        holder = {"we_paused": False}

        def down() -> None:
            state.down = True
            if port is not None:
                holder["we_paused"] = not port.paused
                port.pause()

        def up() -> None:
            state.down = False
            if port is not None and holder["we_paused"] and port.paused:
                port.resume()
            holder["we_paused"] = False

        self.sim.schedule_at(fault.start_s, down)
        self.sim.schedule_at(fault.end_s, up)

    def _install_corruption(self, fault: PacketCorruption) -> None:
        link = self._link(fault.src, fault.dst)
        state = self._state_for(link)
        if state.rng is None:
            digest = hashlib.sha256(
                f"{self.seed}:{fault.src}->{fault.dst}".encode()
            ).digest()
            state.rng = Random(int.from_bytes(digest[:8], "big"))
        window = _CorruptionWindow(fault.probability)
        state.corruptions.append(window)

        def start() -> None:
            window.active = True

        def end() -> None:
            window.active = False

        self.sim.schedule_at(fault.start_s, start)
        if fault.end_s is not None:
            self.sim.schedule_at(fault.end_s, end)

    def _install_degraded(self, fault: DegradedLink) -> None:
        link = self._link(fault.src, fault.dst)

        def start() -> None:
            link.bandwidth_bps *= fault.bandwidth_factor
            link.prop_delay_s *= fault.delay_factor

        def end() -> None:
            link.bandwidth_bps /= fault.bandwidth_factor
            link.prop_delay_s /= fault.delay_factor

        self.sim.schedule_at(fault.start_s, start)
        self.sim.schedule_at(fault.end_s, end)

    def _install_pause_storm(self, fault: PauseStorm) -> None:
        port = self._port_towards(fault.src, fault.dst)
        if port is None:
            return
        self.sim.schedule_at(fault.start_s, port.pause)
        self.sim.schedule_at(fault.end_s, port.resume)

    # -- runtime ----------------------------------------------------------

    def _intercept(self, state: _LinkState, packet: Packet) -> bool:
        """True if the packet is consumed (dropped) by a fault."""
        if state.down and not packet.is_pfc():
            self.flap_drops += 1
            return True
        if state.corruptions and packet.ptype is PacketType.DATA:
            rng = state.rng
            for window in state.corruptions:
                if window.active and rng.random() < window.probability:
                    self.corruption_drops += 1
                    return True
        return False

    def _open_retrans_window(self) -> None:
        if self.retransmission_probe is not None:
            self._window_open_probe = self.retransmission_probe()

    def _close_retrans_window(self) -> None:
        if self._window_open_probe is not None and self.retransmission_probe is not None:
            self.retransmissions_during_fault += (
                self.retransmission_probe() - self._window_open_probe
            )
        self._window_open_probe = None

    def finalize(self) -> None:
        """Close any fault window still open when the run ended."""
        self._close_retrans_window()
