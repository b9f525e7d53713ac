"""The discrete-event simulation engine.

:class:`Simulator` keeps every pending event in one binary heap keyed on
``(time, seq)``: time is kept in seconds as a float and events with equal
timestamps fire FIFO by insertion order, so a run is fully deterministic for
a given seed.  Cancelled events stay in the heap as tombstones until they
reach its head, and a compaction pass bounds how many can pile up.
"""

from __future__ import annotations

import heapq
import random
from operator import itemgetter
from typing import Any, Callable, Optional

#: Heaps smaller than this are never compacted -- scanning them costs more
#: than letting the run loop discard the tombstones.
_COMPACT_MIN_SIZE = 2048

_INF = float("inf")


class Event(list):
    """A scheduled callback: the list ``[time, seq, fn, args, cancelled]``.

    Being a ``list``, entries are ordered by the interpreter's native
    element-wise comparison -- ``heapq`` never calls back into Python.
    ``seq`` is unique per simulator, so a comparison is always decided by
    ``time`` or ``seq`` and never reaches ``fn``: callbacks and their
    arguments need not be comparable, and simultaneous events fire in the
    order they were scheduled.  Cancelled events are skipped, without
    running, when the engine reaches them.

    The engine reads entries by unpacking and by index; everyone else uses
    the read-only properties and :meth:`cancel`.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Absolute simulation time the event fires at.")
    seq = property(itemgetter(1), doc="Scheduling order: the tie-break between equal times.")
    fn = property(itemgetter(2), doc="The callback.")
    args = property(itemgetter(3), doc="Positional arguments of the callback.")
    cancelled = property(itemgetter(4), doc="True once :meth:`cancel` was called.")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self[4] else ""
        return f"Event(t={self[0]!r}, seq={self[1]}{state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is reached."""
        self[4] = True


class Simulator:
    """Event loop, simulation clock and random-number source.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Every stochastic
        component (workload generation, ECN marking, ECMP tie-breaks) draws
        from this RNG so a run is reproducible from its seed.

    Pending events live in one binary heap.  Cancelled events are
    *tombstones*: they stay in the heap and are discarded when they reach
    the head.  Because the transports set and almost always cancel one
    retransmission timer per data packet, tombstones can outnumber live
    events; the heap is therefore compacted in place whenever it grows past
    a watermark with a dead majority, and the watermark doubles with the
    survivors, so compaction is amortized O(1) per scheduled event.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[Event] = []
        self._compact_watermark = _COMPACT_MIN_SIZE
        #: Events ever scheduled, which is also the next event's ``seq``.
        self._events_scheduled = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._stopped = False
        #: Execution trace: when a list, every executed event appends
        #: ``(time, seq)``.  Off (None) by default -- the verify harness
        #: enables it to check that the clock never moves backwards.
        self._trace: Optional[list] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(
                f"cannot schedule an event at time={self.now + delay} (delay={delay} < 0)"
            )
        return self.schedule_at(self.now + delay, fn, *args)

    #: The name cancellable timers (RTOs, ACK flushes, pacing wake-ups) were
    #: once set with.  Nothing in ``repro`` calls it; it stays because the
    #: e2e harness's drain drill (``benchmarks/e2e/simwork.py``) does, and
    #: that harness runs unchanged against older checkouts too.
    set_timer = schedule

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``.

        ``time`` must be finite and not before :attr:`now`: a NaN entry
        would break the heap order, since every comparison with it is false.
        """
        if not self.now <= time < _INF:
            raise ValueError(f"cannot schedule an event at time={time} (now={self.now})")
        seq = self._events_scheduled
        self._events_scheduled = seq + 1
        event = Event((time, seq, fn, args, False))
        heap = self._heap
        heapq.heappush(heap, event)
        if len(heap) >= self._compact_watermark:
            self._compact()
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (no-op for ``None``)."""
        if event is not None:
            event[4] = True

    def _compact(self) -> None:
        """Drop cancelled tombstones if they dominate the heap.

        Called whenever the heap grows past a watermark.  The watermark
        doubles with the surviving heap so the O(n) scan is amortized O(1)
        per scheduled event.
        """
        heap = self._heap
        live = [event for event in heap if not event[4]]
        if 2 * len(live) <= len(heap):
            self._events_cancelled += len(heap) - len(live)
            # Replace contents in place: ``run`` holds a reference to the
            # list, so the object identity must be preserved.
            heap[:] = live
            heapq.heapify(heap)
        self._compact_watermark = max(_COMPACT_MIN_SIZE, 2 * len(heap))

    # ------------------------------------------------------------------
    # Counters and tracing
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Number of events ever created via :meth:`schedule` / :meth:`schedule_at`.

        Accounting identity (checked by the verify harness at all times)::

            events_scheduled == events_processed + events_cancelled + pending_events

        Cancelled-but-not-yet-discarded events still count as pending; they
        migrate to :attr:`events_cancelled` when the run loop or a
        compaction discards them.
        """
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events discarded without running: popped off
        the head of the heap by the run loop, or dropped by a compaction."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled ones not yet discarded)."""
        return len(self._heap)

    def enable_trace(self) -> list:
        """Record ``(time, seq)`` for every executed event from now on.

        Returns the (live) trace list; its times must be non-decreasing.
        Tracing is off by default and costs one ``None``-check per event.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    @property
    def trace(self) -> Optional[list]:
        """The execution trace (``None`` unless :meth:`enable_trace` ran)."""
        return self._trace

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next *live* event would be later than this time; the
            head event stays queued, so a later ``run`` call resumes exactly
            where this one stopped.  On return the clock is advanced to
            ``until`` whenever the simulation did not already reach it *and*
            no live event at or before ``until`` remains queued (i.e. the
            queue emptied or only later events remain); :meth:`stop` always
            suppresses the advance, and the ``max_events`` valve does so only
            when it left live events at or before ``until`` unexecuted.
        max_events:
            Safety valve: stop once this many events have been *executed*.
            Cancelled events never run and do not count against the valve;
            they are tallied separately in :attr:`events_cancelled`.
            (Termination is still guaranteed: cancelled events cannot
            schedule new events, so discarding them only shrinks the queue.)
        """
        self._stopped = False
        # Hot path: bind everything the loop touches to locals.  This loop
        # runs hundreds of thousands of times per simulated second, so each
        # avoided attribute/global lookup is measurable.
        heap = self._heap
        heappop = heapq.heappop
        trace = self._trace
        executed = 0
        cancelled = 0
        try:
            while heap and not self._stopped:
                time, seq, fn, args, dead = heap[0]
                if dead:
                    heappop(heap)
                    cancelled += 1
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self.now = time
                if trace is not None:
                    trace.append((time, seq))
                fn(*args)
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._events_processed += executed
            self._events_cancelled += cancelled
        if until is not None and not self._stopped and self.now < until:
            # Discard tombstones so the advance decision sees the live head.
            while heap and heap[0][4]:
                heappop(heap)
                self._events_cancelled += 1
            if not heap or heap[0][0] > until:
                self.now = until

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until no events remain (or ``max_events`` were executed)."""
        self.run(until=None, max_events=max_events)
