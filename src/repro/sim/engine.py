"""The discrete-event simulation engine.

:class:`Simulator` is the one production scheduler: a **hierarchical
calendar queue** keyed on link-delay quanta.  Near-future events append to
fixed-width time buckets (O(1)); each bucket is sorted once when the clock
reaches it.  Above level 0 sit ``NUM_LEVELS - 1`` further bucket arrays with
geometrically wider buckets (each level ``NUM_BUCKETS`` times wider than the
one below), so propagation-scale horizons -- WAN links hundreds to thousands
of serialization quanta long -- are still O(1) appends; a slot *cascades*
down one level when its window approaches.  Only events beyond the top
level's horizon live in a heap-backed *far-future band* and migrate into the
hierarchy as the windows rotate forward.  A dedicated **hashed timer wheel**
stages cancellable timers (:meth:`Simulator.set_timer`): cancellation is an
O(1) mark and cancelled timers are dropped wholesale when their wheel slot
is flushed -- the set-then-cancel retransmission pattern of the transports
never creates tombstones in the sorted structures at all.

:class:`HeapSimulator` is the **reference implementation** the calendar is
tested against: the original ~100-line binary-heap loop.  Nothing in the
product constructs it -- only ``tests/`` and :mod:`repro.verify` do, to
compare ``(time, seq)`` traces and whole ResultRows with the calendar's.

Both execute events in exactly the same order: time is kept in seconds as a
float and event ordering between equal timestamps is FIFO by insertion order
(a single ``(time, seq)`` key shared by regular events and timers), so runs
are fully deterministic for a given seed and **byte-for-byte identical on
either class** -- ``tests/test_engine_determinism.py`` pins this.
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from operator import itemgetter
from typing import Any, Callable, Optional

#: Structures smaller than this are never compacted/swept -- scanning them
#: costs more than letting the drain loops discard the tombstones.
_COMPACT_MIN_SIZE = 2048

#: Default calendar-queue bucket width.  One bucket per link-delay quantum is
#: the sweet spot; the experiment runner passes the departure-batch
#: serialization time explicitly (see ``runner.bucket_width_for``).  It is
#: the engine's only tuning knob, and it only affects speed, never order.
DEFAULT_BUCKET_WIDTH_S = 1e-6

#: Buckets per calendar level (a power of two, so a level index is the
#: level-0 index shifted right).  256 keeps a level-0 window (~0.8 ms at a
#: ~3 us batch quantum) wider than a datacenter RTT while the three bucket
#: arrays stay small enough to sweep.
NUM_BUCKETS = 256

#: Calendar levels.  With 256 buckets and a ~3 us batch quantum, level 0
#: spans ~0.8 ms, level 1 ~0.2 s and level 2 ~54 s -- WAN propagation delays
#: land in level 1 as O(1) appends instead of far-future heap pushes.
#: ``_cascade`` rebases level 0 by hand when it pops a level-2 slot; a
#: fourth level would need the same for level 1.
NUM_LEVELS = 3

#: Timer-wheel slot width.  Retransmission timeouts are 100us-64ms, so a
#: 64us slot keeps the wheel shallow while still batching cancellations.
WHEEL_SLOT_S = 64e-6

_MASK = NUM_BUCKETS - 1
#: Bits between adjacent level indices (the level-``lvl`` index is the
#: level-0 index ``>> (_SHIFT * lvl)``).
_SHIFT = NUM_BUCKETS.bit_length() - 1
_INV_WHEEL = 1.0 / WHEEL_SLOT_S

_INF = float("inf")


class Event(list):
    """A scheduled callback: the list ``[time, seq, fn, args, cancelled]``.

    Being a ``list``, entries are ordered by the interpreter's native
    element-wise comparison -- ``sort``, ``insort`` and ``heapq`` never call
    back into Python.  ``seq`` is unique per simulator, so a comparison is
    always decided by ``time`` or ``seq`` and never reaches ``fn``: callbacks
    and their arguments need not be comparable, and simultaneous events fire
    in the order they were scheduled.  Cancelled events are skipped, without
    running, when the engine reaches them; in the calendar a cancelled
    timer parked on the wheel is dropped in O(1) when its slot flushes.

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


class _SimulatorBase:
    """Clock, random-number source, counters and the scheduling surface
    shared by :class:`Simulator` and its reference :class:`HeapSimulator`."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        #: Events ever scheduled, which is also the next event's ``seq``.
        self._events_scheduled = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._stopped = False
        #: Execution trace: when a list, every executed event appends
        #: ``(time, seq)``.  Off (None) by default -- the verify harness
        #: enables it to check monotone-clock and calendar/heap order identity.
        self._trace: Optional[list] = None

    # ------------------------------------------------------------------
    # Scheduling (shared surface)
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``."""
        raise NotImplementedError

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a *cancellable timer* ``delay`` seconds from now.

        Semantically identical to :meth:`schedule`, but optimized for the
        set-then-cancel pattern (retransmission timeouts): the calendar
        parks timers on a hashed wheel where cancellation is O(1) unlinking
        and a cancelled timer never touches the sorted event structures.
        The reference heap maps this to a plain :meth:`schedule`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule a timer in the past (delay={delay})")
        return self.set_timer_at(self.now + delay, fn, *args)

    def set_timer_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Absolute-time form of :meth:`set_timer`."""
        raise NotImplementedError

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event or timer (no-op for ``None``)."""
        if event is not None:
            event[4] = True

    # ------------------------------------------------------------------
    # Execution (shared surface)
    # ------------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Number of events ever created via ``schedule*``/``set_timer*``.

        Accounting identity (checked by the verify harness at all times)::

            events_scheduled == events_processed + events_cancelled + pending_events

        Cancelled-but-not-yet-discarded events still count as pending; they
        migrate to :attr:`events_cancelled` when a drain loop, compaction,
        sweep or wheel flush discards them.
        """
        return self._events_scheduled

    @property
    def events_processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events discarded without running.

        Counts every discard, whichever structure held the event: heap pops
        and compactions, calendar bucket drains and sweeps, overflow-band
        discards, and timer-wheel slot flushes.
        """
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled ones not yet discarded)."""
        raise NotImplementedError

    def enable_trace(self) -> list:
        """Record ``(time, seq)`` for every executed event from now on.

        Returns the (live) trace list.  The calendar and the reference heap
        fed the same workload must produce byte-identical traces; the times
        must be non-decreasing.
        Tracing is off by default and costs one ``None``-check per event.
        """
        if self._trace is None:
            self._trace = []
        return self._trace

    @property
    def trace(self) -> Optional[list]:
        """The execution trace (``None`` unless :meth:`enable_trace` ran)."""
        return self._trace

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
        raise NotImplementedError

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Run until no events remain (or ``max_events`` were executed)."""
        self.run(until=None, max_events=max_events)


class Simulator(_SimulatorBase):
    """Event loop, simulation clock and random-number source: a hierarchical
    calendar queue with a far-future band and a hashed timer wheel.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Every stochastic
        component (workload generation, ECN marking, ECMP tie-breaks) draws
        from this RNG so a run is reproducible from its seed.
    bucket_width_s:
        Level-0 bucket width in seconds, ideally one link-delay quantum
        (``runner.bucket_width_for`` computes it from the config).  It only
        affects speed, never event order.

    Three bands, by event horizon:

    * **levels** -- ``NUM_LEVELS`` cascading bucket arrays.  Level 0 is the
      classic calendar: fixed-width time buckets covering the rotating
      window ``(win_lo, win_hi)`` of bucket indices.  Each level above it
      uses buckets ``NUM_BUCKETS`` times wider than the level below, so one
      top-level window spans ``NUM_BUCKETS ** NUM_LEVELS`` level-0 quanta.
      Every level index is the level-0 index (``int(time * inv_width)``)
      shifted right by ``_SHIFT * level`` bits -- one shared float
      computation, so cross-level boundaries are exact and
      insertion/cascade routing can never disagree by one ulp.  Insertion
      is an O(1) append at whichever level's window covers the event; a
      bucket is sorted (by the shared ``(time, seq)`` key) only when the
      clock reaches it.  The level-0 bucket currently draining (``_cur``)
      stays sorted, so same-time insertions during callbacks ``insort``
      into it -- as does anything earlier than level 0's floor.  When level
      0 empties, the minimal occupied slot of the lowest non-empty level
      *cascades* down one level (rebasing the windows below onto it),
      repeating until level 0 refills.
    * **far-future band** -- a heap for events beyond the top level's window
      (tens of simulated seconds out).  When every level empties, the
      windows are rebased onto the heap's head and everything inside the new
      top window migrates directly to its final level.
    * **wheel** -- a hashed timer wheel (``dict`` of slot -> list) staging
      :meth:`set_timer` timers.  A slot is flushed into the calendar only
      when execution is about to pass its start time; timers cancelled
      before then -- the overwhelmingly common case for retransmission
      timers -- are dropped during the flush without ever entering the
      sorted bands.

    Window invariant linking the levels: ``win_hi[lvl-1] >= (win_lo[lvl] +
    1) << _SHIFT`` (equality after every cascade/rebase), so any event
    refused by level ``lvl-1``'s window provably lies past level ``lvl``'s
    floor and the insertion loop only has to check upper bounds.  The bands
    are strictly time-ordered -- every level-``lvl`` event precedes every
    level-``lvl+1`` event precedes the far-future heap -- which is what
    makes cascading the minimal slot always the correct progress step.

    Execution order is identical to :class:`HeapSimulator`: every pop yields
    the globally minimal ``(time, seq)``.
    """

    def __init__(
        self, seed: int = 0, *, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S
    ) -> None:
        super().__init__(seed)
        if bucket_width_s <= 0:
            raise ValueError("bucket_width_s must be positive")
        self._inv_width = 1.0 / bucket_width_s
        self.bucket_width_s = bucket_width_s
        self._buckets: list[list[Event]] = [[] for _ in range(NUM_BUCKETS)]
        self._num_bucketed = 0
        #: Min-heap of absolute indices of occupied buckets (pushed on each
        #: empty->non-empty transition; entries gone stale through sweeps are
        #: dropped lazily).  Finding the next non-empty bucket is O(log n)
        #: even when occupancy is sparse -- no linear window scans.
        self._bucket_heads: list[int] = []
        #: Bucket indices are *absolute* (int(time / width)); the window
        #: covers (win_lo, win_hi) and only ever moves forward.
        self._win_lo = -1
        self._win_hi = NUM_BUCKETS - 1
        self._cur: list[Event] = []
        self._cur_idx = 0
        # Hierarchy ----------------------------------------------------
        #: Per upper level (index 0 unused): bucket array, occupied-slot
        #: min-heap, event count, and the (lo, hi)-exclusive window in that
        #: level's index units.  Initial windows mirror level 0's.
        self._hi_buckets: list[list[list[Event]]] = [
            [[] for _ in range(NUM_BUCKETS)] if lvl else []
            for lvl in range(NUM_LEVELS)
        ]
        self._hi_heads: list[list[int]] = [[] for _ in range(NUM_LEVELS)]
        self._hi_counts: list[int] = [0] * NUM_LEVELS
        self._hi_lo: list[int] = [-1] * NUM_LEVELS
        self._hi_hi: list[int] = [NUM_BUCKETS - 1] * NUM_LEVELS
        self._overflow: list[Event] = []
        # Timer wheel --------------------------------------------------
        self._wheel: dict[int, list[Event]] = {}
        self._wheel_heads: list[int] = []   # min-heap of occupied slot indices
        self._wheel_count = 0
        self._wheel_next_due = _INF         # start time of the earliest slot
        self._wheel_flushed_thru = -1       # highest slot index already flushed
        # Tombstone sweeping ------------------------------------------
        #: The ``seq`` whose scheduling triggers the next sweep.
        self._sweep_due = _COMPACT_MIN_SIZE - 1

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        seq = self._events_scheduled
        self._events_scheduled = seq + 1
        event = Event((time, seq, fn, args, False))
        # Inlined _insert: this is the hottest schedule path.
        idx = int(time * self._inv_width)
        if idx > self._win_lo:
            if idx < self._win_hi:
                bucket = self._buckets[idx & _MASK]
                if not bucket:
                    heapq.heappush(self._bucket_heads, idx)
                bucket.append(event)
                self._num_bucketed += 1
            else:
                self._insert_high(event, idx)
        else:
            insort(self._cur, event, self._cur_idx)
        if seq >= self._sweep_due:
            self._sweep()
        return event

    def set_timer_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule a timer in the past (time={time}, now={self.now})"
            )
        seq = self._events_scheduled
        self._events_scheduled = seq + 1
        event = Event((time, seq, fn, args, False))
        slot = int(time * _INV_WHEEL)
        if slot <= self._wheel_flushed_thru:
            # The slot's flush horizon already passed: behave like schedule.
            self._insert(event)
            return event
        bucket = self._wheel.get(slot)
        if bucket is None:
            self._wheel[slot] = [event]
            heapq.heappush(self._wheel_heads, slot)
            self._wheel_next_due = self._wheel_heads[0] / _INV_WHEEL
        else:
            bucket.append(event)
        self._wheel_count += 1
        if seq >= self._sweep_due:
            self._sweep()
        return event

    def _insert(self, event: Event) -> None:
        """Route an event into the band its time falls in (wheel excluded)."""
        idx = int(event[0] * self._inv_width)
        if idx > self._win_lo:
            if idx < self._win_hi:
                bucket = self._buckets[idx & _MASK]
                if not bucket:
                    heapq.heappush(self._bucket_heads, idx)
                bucket.append(event)
                self._num_bucketed += 1
            else:
                self._insert_high(event, idx)
        else:
            insort(self._cur, event, self._cur_idx)

    def _insert_high(self, event: Event, idx: int) -> None:
        """Route an event past the level-0 window into the first upper level
        whose window still covers it, else the far-future heap.

        Only upper bounds are checked: ``idx >= win_hi[lvl-1]`` (the reason
        we are here) already implies ``(idx >> _SHIFT) > win_lo[lvl]`` via the
        window invariant, so a single comparison per level routes exactly.
        """
        hi = self._hi_hi
        for lvl in range(1, NUM_LEVELS):
            hidx = idx >> (_SHIFT * lvl)
            if hidx < hi[lvl]:
                bucket = self._hi_buckets[lvl][hidx & _MASK]
                if not bucket:
                    heapq.heappush(self._hi_heads[lvl], hidx)
                bucket.append(event)
                self._hi_counts[lvl] += 1
                return
        heapq.heappush(self._overflow, event)

    # ------------------------------------------------------------------
    # Wheel flushing and window rotation
    # ------------------------------------------------------------------
    def _flush_wheel(self, time: float) -> None:
        """Move every wheel slot starting at or before ``time`` into the
        calendar (dropping cancelled timers, which is where the O(1)-cancel
        pay-off lands)."""
        heads = self._wheel_heads
        wheel = self._wheel
        heappop = heapq.heappop
        insert = self._insert
        # Due-ness is judged with the exact arithmetic that produced
        # ``_wheel_next_due`` (slot / _INV_WHEEL).  Deriving a slot *limit*
        # via ``int(time * _INV_WHEEL)`` instead can round one slot low when
        # ``time`` equals a slot boundary, leaving the due head unflushed --
        # and the caller spinning, since ``_wheel_next_due`` would be
        # recomputed unchanged.
        while heads and heads[0] / _INV_WHEEL <= time:
            slot = heappop(heads)
            for event in wheel.pop(slot, ()):
                self._wheel_count -= 1
                if event[4]:
                    self._events_cancelled += 1
                else:
                    insert(event)
            if slot > self._wheel_flushed_thru:
                self._wheel_flushed_thru = slot
        self._wheel_next_due = heads[0] / _INV_WHEEL if heads else _INF

    def _load_bucket(self) -> None:
        """Pop the next occupied level-0 bucket into ``_cur`` (the caller
        has checked ``_num_bucketed``)."""
        buckets = self._buckets
        heads = self._bucket_heads
        heappop = heapq.heappop
        while heads:
            i = heappop(heads)
            # Stale-head checks: an index at or below win_lo is from a
            # bucket consumed or swept before a window rebase -- its slot
            # may since have been refilled by an ALIASED in-window index
            # (i' != i, i' & _MASK == i & _MASK), so the emptiness of the
            # slot alone is not proof of liveness.  The aliased index has
            # its own head entry, so dropping the stale one loses nothing.
            if i <= self._win_lo:
                continue
            lst = buckets[i & _MASK]
            if not lst:
                continue  # emptied by a sweep within the current window
            buckets[i & _MASK] = []
            self._num_bucketed -= len(lst)
            if len(lst) > 1:
                lst.sort()
            self._win_lo = i
            self._cur = lst
            self._cur_idx = 0
            return
        raise RuntimeError(
            "calendar-queue invariant violated: bucketed events not found in window"
        )

    def _cascade(self) -> bool:
        """Bring the minimal occupied slot of the lowest non-empty upper
        level down one level -- its window is about to be entered.

        The window of the level below is rebased to exactly cover the popped
        slot (restoring the invariant ``win_hi[lvl-1] == (win_lo[lvl] + 1)
        << _SHIFT``) and the slot's events are redistributed by the same
        ``int(time * inv_width)`` + shift computation insertion used, so
        each lands in the slot insertion would have chosen.  Cancelled
        events are discarded here instead of travelling down.  Returns
        ``False`` when every upper level is empty.
        """
        counts = self._hi_counts
        lvl = 1
        while lvl < NUM_LEVELS and not counts[lvl]:
            lvl += 1
        if lvl == NUM_LEVELS:
            return False
        heads = self._hi_heads[lvl]
        buckets = self._hi_buckets[lvl]
        heappop = heapq.heappop
        lo = self._hi_lo[lvl]
        lst = None
        while heads:
            j = heappop(heads)
            if j <= lo:
                continue  # stale head (see _load_bucket)
            lst = buckets[j & _MASK]
            if lst:
                break
        if not lst:
            raise RuntimeError(
                "calendar-queue invariant violated: leveled events not found in window"
            )
        buckets[j & _MASK] = []
        counts[lvl] -= len(lst)
        self._hi_lo[lvl] = j
        inv_width = self._inv_width
        heappush = heapq.heappush
        cancelled = 0
        added = 0
        if lvl == 1:
            self._win_lo = (j << _SHIFT) - 1
            self._win_hi = (j + 1) << _SHIFT
            below = self._buckets
            below_heads = self._bucket_heads
            for event in lst:
                if event[4]:
                    cancelled += 1
                    continue
                idx = int(event[0] * inv_width)
                bucket = below[idx & _MASK]
                if not bucket:
                    heappush(below_heads, idx)
                bucket.append(event)
                added += 1
            self._num_bucketed += added
        else:
            self._hi_lo[lvl - 1] = (j << _SHIFT) - 1
            self._hi_hi[lvl - 1] = (j + 1) << _SHIFT
            # Level 0 follows, as an empty window ending where the slot
            # starts: a slot of nothing but cancelled events ends the chain
            # here, and a level 0 left behind would hand the next event due
            # before the slot (a flushed timer, say) to ``_insert_high``,
            # which checks upper bounds only and would file it below level
            # 1's new floor.  This way it insorts into ``_cur``.
            self._win_hi = j << (_SHIFT * lvl)
            self._win_lo = self._win_hi - 1
            shift = _SHIFT * (lvl - 1)
            below = self._hi_buckets[lvl - 1]
            below_heads = self._hi_heads[lvl - 1]
            for event in lst:
                if event[4]:
                    cancelled += 1
                    continue
                idx = int(event[0] * inv_width) >> shift
                bucket = below[idx & _MASK]
                if not bucket:
                    heappush(below_heads, idx)
                bucket.append(event)
                added += 1
            counts[lvl - 1] += added
        self._events_cancelled += cancelled
        return True

    def _rebase(self, head_time: float) -> None:
        """Rebase every level's window onto the far-future head and migrate
        the heap's near-horizon events into the hierarchy.

        The migration bound uses the exact insertion computation
        (``int(time * inv_width)`` plus integer shifts) so float rounding
        can never place an event in a slot outside the scanned windows.
        The top window spans ``NUM_BUCKETS ** NUM_LEVELS`` level-0 buckets,
        so almost everything leaves the heap in one pass -- each event
        landing directly at its final level -- and the heap keeps only the
        true far future.
        """
        inv_width = self._inv_width
        idx0 = int(head_time * inv_width)
        top = NUM_LEVELS - 1
        self._win_lo = idx0 - 1
        for lvl in range(1, NUM_LEVELS):
            h = idx0 >> (_SHIFT * lvl)
            self._hi_lo[lvl] = h
            if lvl == 1:
                self._win_hi = (h + 1) << _SHIFT
            else:
                self._hi_hi[lvl - 1] = (h + 1) << _SHIFT
        top_shift = _SHIFT * top
        top_hi = (idx0 >> top_shift) + NUM_BUCKETS - 1
        self._hi_hi[top] = top_hi
        overflow = self._overflow
        buckets = self._buckets
        win_hi = self._win_hi
        heads = self._bucket_heads
        heappop = heapq.heappop
        heappush = heapq.heappush
        insert_high = self._insert_high
        while overflow and (int(overflow[0][0] * inv_width) >> top_shift) < top_hi:
            event = heappop(overflow)
            if event[4]:
                self._events_cancelled += 1
                continue
            idx = int(event[0] * inv_width)
            if idx < win_hi:
                bucket = buckets[idx & _MASK]
                if not bucket:
                    heappush(heads, idx)
                bucket.append(event)
                self._num_bucketed += 1
            else:
                insert_high(event, idx)

    def _step_sources(self) -> bool:
        """Make progress when ``_cur`` is exhausted: load the next non-empty
        level-0 bucket, cascade the lowest occupied upper level down, rebase
        the windows onto the far-future band, or flush the next due wheel
        slot.  Returns ``False`` only when every band is empty."""
        if self._num_bucketed:
            self._load_bucket()
            return True
        while self._cascade():
            # A cascaded slot can be all-cancelled; keep pulling until
            # level 0 has a live load or the upper levels run dry.
            if self._num_bucketed:
                self._load_bucket()
                return True
        overflow = self._overflow
        while overflow and overflow[0][4]:
            heapq.heappop(overflow)
            self._events_cancelled += 1
        if overflow:
            head_time = overflow[0][0]
            if head_time < self._wheel_next_due:
                self._rebase(head_time)
                return True
            self._flush_wheel(self._wheel_next_due)
            return True
        if self._wheel_next_due is not _INF and self._wheel_heads:
            self._flush_wheel(self._wheel_next_due)
            return True
        return False

    def _slow_peek(self) -> Optional[Event]:
        """The next live event (leaving it queued), or ``None`` when empty.

        Normalizes state so ``self._cur[self._cur_idx]`` is that event:
        skips cancelled entries, flushes due wheel slots, loads/rotates
        buckets and migrates the overflow band as needed.
        """
        while True:
            cur = self._cur
            idx = self._cur_idx
            n = len(cur)
            blocked = False
            while idx < n:
                event = cur[idx]
                if event[4]:
                    idx += 1
                    self._events_cancelled += 1
                    continue
                if event[0] >= self._wheel_next_due:
                    # Wheel timers may be due before this event: flush, then
                    # rescan (the flush can insort earlier events into _cur).
                    self._cur_idx = idx
                    self._flush_wheel(event[0])
                    blocked = True
                    break
                self._cur_idx = idx
                return event
            if blocked:
                continue
            self._cur_idx = n
            if not self._step_sources():
                return None

    # ------------------------------------------------------------------
    # Tombstone sweeping (memory bound, heap-compaction analog)
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Drop cancelled entries everywhere if they dominate.

        Triggered every ``watermark`` insertions; the watermark doubles with
        the surviving population so the O(n) walk is amortized O(1) per
        insertion, exactly like :class:`HeapSimulator`'s compaction.
        """
        # Every exit re-arms the trigger ``watermark`` insertions from now.
        rearm = self._events_scheduled - 1
        total = self.pending_events
        if total < _COMPACT_MIN_SIZE:
            self._sweep_due = rearm + _COMPACT_MIN_SIZE
            return
        dead = 0
        dead += sum(1 for e in self._cur[self._cur_idx:] if e[4])
        for lst in self._buckets:
            dead += sum(1 for e in lst if e[4])
        for lvl in range(1, NUM_LEVELS):
            for lst in self._hi_buckets[lvl]:
                dead += sum(1 for e in lst if e[4])
        dead += sum(1 for e in self._overflow if e[4])
        for lst in self._wheel.values():
            dead += sum(1 for e in lst if e[4])
        if 2 * (total - dead) > total:
            self._sweep_due = rearm + max(_COMPACT_MIN_SIZE, 2 * (total - dead))
            return
        # Rebuild every band without its tombstones.
        live_cur = [e for e in self._cur[self._cur_idx:] if not e[4]]
        self._cur = live_cur
        self._cur_idx = 0
        for slot in range(len(self._buckets)):
            lst = self._buckets[slot]
            if lst:
                self._buckets[slot] = [e for e in lst if not e[4]]
        self._num_bucketed = sum(len(lst) for lst in self._buckets)
        for lvl in range(1, NUM_LEVELS):
            blist = self._hi_buckets[lvl]
            for slot in range(len(blist)):
                lst = blist[slot]
                if lst:
                    blist[slot] = [e for e in lst if not e[4]]
            self._hi_counts[lvl] = sum(len(lst) for lst in blist)
        live_overflow = [e for e in self._overflow if not e[4]]
        heapq.heapify(live_overflow)
        self._overflow = live_overflow
        for slot in list(self._wheel):
            lst = [e for e in self._wheel[slot] if not e[4]]
            if lst:
                self._wheel[slot] = lst
            else:
                del self._wheel[slot]
        self._wheel_count = sum(len(lst) for lst in self._wheel.values())
        self._wheel_heads = sorted(self._wheel)
        self._wheel_next_due = (
            self._wheel_heads[0] / _INV_WHEEL if self._wheel_heads else _INF
        )
        self._events_cancelled += dead
        self._sweep_due = rearm + max(_COMPACT_MIN_SIZE, 2 * self.pending_events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return (
            len(self._cur)
            - self._cur_idx
            + self._num_bucketed
            + sum(self._hi_counts)
            + len(self._overflow)
            + self._wheel_count
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self._stopped = False
        limit = _INF if until is None else until
        budget = max_events if max_events is not None else None
        trace = self._trace
        executed = 0
        try:
            while not self._stopped:
                # Fast path: the next entry of the sorted current bucket.
                cur = self._cur
                idx = self._cur_idx
                if idx < len(cur):
                    time, seq, fn, args, cancelled = cur[idx]
                    if not cancelled and time < self._wheel_next_due:
                        if time > limit:
                            break
                        self._cur_idx = idx + 1
                        self.now = time
                        if trace is not None:
                            trace.append((time, seq))
                        fn(*args)
                        executed += 1
                        if budget is not None and executed >= budget:
                            break
                        continue
                    # Tombstone or a due wheel slot at the head.
                    if self._slow_peek() is None:
                        break
                    continue
                if self._num_bucketed:
                    # Medium path, inlined because it runs once per bucket
                    # (= once per event when buckets are sparse): pop the
                    # next occupied bucket off the heads heap.
                    buckets = self._buckets
                    heads = self._bucket_heads
                    win_lo = self._win_lo
                    lst = None
                    while heads:
                        i = heapq.heappop(heads)
                        if i <= win_lo:
                            continue  # stale head (see _load_bucket)
                        lst = buckets[i & _MASK]
                        if lst:
                            break
                    if not lst:
                        raise RuntimeError(
                            "calendar-queue invariant violated: "
                            "bucketed events not found in window"
                        )
                    buckets[i & _MASK] = []
                    self._num_bucketed -= len(lst)
                    if len(lst) > 1:
                        lst.sort()
                    self._win_lo = i
                    self._cur = lst
                    self._cur_idx = 0
                    continue
                # Slow path: rotate the window onto the overflow band or
                # flush the next due wheel slot -- then retry the fast path.
                if self._slow_peek() is None:
                    break
        finally:
            self._events_processed += executed
        if until is not None and not self._stopped and self.now < until:
            head = self._slow_peek()
            if head is None or head[0] > until:
                self.now = until


class HeapSimulator(_SimulatorBase):
    """The reference implementation: a plain binary heap of events.

    Short enough to be checked by reading, it defines the execution order
    :class:`Simulator` must reproduce.  It is constructed only by ``tests/``
    and :mod:`repro.verify`, which compare ``(time, seq)`` traces and whole
    ResultRows between the two classes; no product-side option selects it.
    ``bucket_width_s`` is accepted (and ignored) so the class can stand in
    for :class:`Simulator` at any construction site.

    Cancelled events are *tombstones*: they stay in the heap and are discarded
    when they reach the head.  Because the transports set and almost always
    cancel one retransmission timer per data packet, tombstones can outnumber
    live events; the heap is therefore compacted in place whenever the
    dead fraction grows past one half (amortized O(1) per event).
    """

    def __init__(
        self, seed: int = 0, *, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S
    ) -> None:
        super().__init__(seed)
        self._heap: list[Event] = []
        self._compact_watermark = _COMPACT_MIN_SIZE

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past (time={time}, now={self.now})"
            )
        seq = self._events_scheduled
        self._events_scheduled = seq + 1
        event = Event((time, seq, fn, args, False))
        heap = self._heap
        heapq.heappush(heap, event)
        if len(heap) >= self._compact_watermark:
            self._compact()
        return event

    #: Timers are plain events here (cancel leaves a tombstone).
    set_timer_at = schedule_at

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

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
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
