"""Tests for the discrete-event engine and its reference implementation.

Everything in the shared contract -- ordering, cancellation, ``run``
control, ``until``/``max_events`` semantics, cancellation accounting -- runs
against **both** :class:`Simulator` (the calendar) and :class:`HeapSimulator`
(the reference) via the ``make_sim`` fixture.  Structure tests (calendar
window rotation, cascade, wheel flushing; heap compaction) live in their own
classes, and ``TestCalendarMatchesHeap`` holds the two against each other on
generated plans of boundary-time operations.
"""

import math
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import bucket_width_for
from repro.sim.engine import (
    _COMPACT_MIN_SIZE,
    NUM_BUCKETS,
    NUM_LEVELS,
    WHEEL_SLOT_S,
    HeapSimulator,
    Simulator,
)
from tests.helpers import ENGINES


@pytest.fixture(params=["heap", "calendar"])
def make_sim(request):
    """Factory for a simulator of each class (``make_sim(seed=...)``)."""

    def factory(**kwargs):
        return ENGINES[request.param](**kwargs)

    return factory


class TestScheduling:
    def test_starts_at_time_zero(self, make_sim):
        assert make_sim().now == 0.0

    def test_events_run_in_time_order(self, make_sim):
        sim = make_sim()
        order = []
        sim.schedule(3e-6, order.append, "c")
        sim.schedule(1e-6, order.append, "a")
        sim.schedule(2e-6, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self, make_sim):
        sim = make_sim()
        order = []
        for label in "abcde":
            sim.schedule(1e-6, order.append, label)
        sim.run_until_idle()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, make_sim):
        sim = make_sim()
        sim.schedule(5e-6, lambda: None)
        sim.run_until_idle()
        assert sim.now == pytest.approx(5e-6)

    def test_schedule_at_absolute_time(self, make_sim):
        sim = make_sim()
        times = []
        sim.schedule_at(2e-6, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [pytest.approx(2e-6)]

    def test_negative_delay_rejected(self, make_sim):
        with pytest.raises(ValueError):
            make_sim().schedule(-1e-6, lambda: None)

    def test_scheduling_in_the_past_rejected(self, make_sim):
        sim = make_sim()
        sim.schedule(1e-6, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(0.0, lambda: None)

    def test_events_can_schedule_more_events(self, make_sim):
        sim = make_sim()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                sim.schedule(1e-6, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until_idle()
        assert seen == list(range(6))
        assert sim.now == pytest.approx(5e-6)

    def test_zero_delay_events_run_after_current(self, make_sim):
        sim = make_sim()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "nested")

        sim.schedule(1e-6, first)
        sim.schedule(1e-6, order.append, "second")
        sim.run_until_idle()
        # The nested zero-delay event shares the timestamp but was scheduled
        # last, so FIFO ordering puts it after "second".
        assert order == ["first", "second", "nested"]


#: Payloads no two of which can be ordered: ``<`` between any pair raises
#: ``TypeError``.  An engine whose entry comparison ever got past
#: ``(time, seq)`` would fail on them instead of misordering silently.
UNORDERABLE = (None, {}, {"k": 1}, object(), lambda: None, [1], 1j)


class TestEntryOrdering:
    """Entries are ordered by ``(time, seq)`` alone: never by ``fn`` or
    ``args``, and not by whether they have been cancelled."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=st.lists(
        st.tuples(
            st.sampled_from((1e-6, 2e-6, 3e-6)),         # few times: mostly ties
            st.sampled_from(range(len(UNORDERABLE))),
            st.booleans(),                                # cancelled when issued
            st.none() | st.integers(0, 60),               # op its callback cancels
        ),
        min_size=2, max_size=60,
    ))
    def test_ties_run_in_seq_order_whatever_the_payload(self, make_sim, plan):
        sim = make_sim()
        trace = sim.enable_trace()
        ran = []
        events = []

        def fire(n, payload):
            ran.append(n)
            victim = plan[n][3]
            if victim is not None:
                events[victim % len(plan)].cancel()

        def issue(n):
            time, payload, cancel_now, _ = plan[n]
            # A fresh callable per entry: the ``fn`` slots cannot be ordered either.
            events.append(sim.schedule_at(time, partial(fire, n), UNORDERABLE[payload]))
            if cancel_now:
                events[n].cancel()

        def issue_rest():
            # From inside the first event at 1 us: ties at 1 us land in the
            # bucket being drained, the rest in buckets sorted later.
            for n in range(len(plan) // 2, len(plan)):
                issue(n)

        sim.schedule_at(1e-6, issue_rest)
        for n in range(len(plan) // 2):
            issue(n)
        sim.run_until_idle()

        expected = []
        dead = {n for n, op in enumerate(plan) if op[2]}
        for n in sorted(range(len(plan)), key=lambda n: (plan[n][0], n)):
            if n not in dead:
                expected.append(n)
                if plan[n][3] is not None:
                    dead.add(plan[n][3] % len(plan))
        assert ran == expected
        # seq 0 is ``issue_rest``; op n was the (n + 1)-th event scheduled.
        assert trace == [(1e-6, 0)] + [(plan[n][0], n + 1) for n in expected]
        assert [event.seq for event in events] == list(range(1, len(plan) + 1))

    def test_cancelling_a_sorted_entry_leaves_its_neighbours_in_place(self, make_sim):
        sim = make_sim()
        ran = []
        events = {}

        def fire(label, payload):
            ran.append(label)
            if label == "a":
                events["c"].cancel()

        for label, payload in zip("abcde", UNORDERABLE):
            events[label] = sim.schedule_at(1e-6, partial(fire, label), payload)
        sim.run_until_idle()
        assert ran == ["a", "b", "d", "e"]
        assert events["c"].cancelled and events["c"].time == 1e-6
        assert [events[label].seq for label in "abcde"] == [0, 1, 2, 3, 4]
        assert sim.events_cancelled == 1


class TestTimers:
    """``set_timer`` -- the cancellable-timer API backed by the wheel."""

    def test_timer_fires_at_deadline(self, make_sim):
        sim = make_sim()
        times = []
        sim.set_timer(320e-6, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [pytest.approx(320e-6)]

    def test_cancelled_timer_does_not_fire(self, make_sim):
        sim = make_sim()
        ran = []
        timer = sim.set_timer(320e-6, ran.append, "x")
        sim.cancel(timer)
        sim.schedule(1e-3, ran.append, "end")
        sim.run_until_idle()
        assert ran == ["end"]

    def test_negative_timer_delay_rejected(self, make_sim):
        with pytest.raises(ValueError):
            make_sim().set_timer(-1e-6, lambda: None)

    def test_timer_in_the_past_rejected(self, make_sim):
        sim = make_sim()
        sim.schedule(1e-3, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.set_timer_at(0.5e-3, lambda: None)

    def test_timers_interleave_with_events_in_time_order(self, make_sim):
        sim = make_sim()
        order = []
        sim.schedule(100e-6, order.append, "event-100us")
        sim.set_timer(50e-6, order.append, "timer-50us")
        sim.schedule(10e-6, order.append, "event-10us")
        sim.set_timer(200e-6, order.append, "timer-200us")
        sim.run_until_idle()
        assert order == ["event-10us", "timer-50us", "event-100us", "timer-200us"]

    def test_same_time_timer_and_event_keep_fifo_order(self, make_sim):
        sim = make_sim()
        order = []
        sim.set_timer(70e-6, order.append, "timer-first")
        sim.schedule(70e-6, order.append, "event-second")
        sim.set_timer(70e-6, order.append, "timer-third")
        sim.run_until_idle()
        assert order == ["timer-first", "event-second", "timer-third"]

    def test_rearm_pattern(self, make_sim):
        """The transports' set-cancel-rearm RTO pattern fires only the last."""
        sim = make_sim()
        fired = []
        timer = None

        def rearm(step):
            nonlocal timer
            if timer is not None:
                sim.cancel(timer)
            timer = sim.set_timer(320e-6, fired.append, step)

        for step in range(50):
            sim.schedule(step * 1e-6, rearm, step)
        sim.run_until_idle()
        assert fired == [49]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, make_sim):
        sim = make_sim()
        ran = []
        event = sim.schedule(1e-6, ran.append, "x")
        event.cancel()
        sim.run_until_idle()
        assert ran == []

    def test_cancel_via_simulator_helper(self, make_sim):
        sim = make_sim()
        ran = []
        event = sim.schedule(1e-6, ran.append, "x")
        sim.cancel(event)
        sim.run_until_idle()
        assert ran == []

    def test_cancel_none_is_noop(self, make_sim):
        make_sim().cancel(None)

    def test_other_events_unaffected_by_cancellation(self, make_sim):
        sim = make_sim()
        ran = []
        event = sim.schedule(1e-6, ran.append, "a")
        sim.schedule(2e-6, ran.append, "b")
        event.cancel()
        sim.run_until_idle()
        assert ran == ["b"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1e-6, ran.append, "a")
        sim.schedule(10e-6, ran.append, "b")
        sim.run(until=5e-6)
        assert ran == ["a"]
        assert sim.now == pytest.approx(5e-6)
        sim.run_until_idle()
        assert ran == ["a", "b"]

    def test_run_until_advances_clock_when_queue_is_empty(self, make_sim):
        sim = make_sim()
        sim.run(until=1e-3)
        assert sim.now == pytest.approx(1e-3)

    def test_run_until_stops_before_pending_timer(self, make_sim):
        sim = make_sim()
        ran = []
        sim.set_timer(400e-6, ran.append, "late-timer")
        sim.run(until=100e-6)
        assert ran == []
        assert sim.now == pytest.approx(100e-6)
        sim.run_until_idle()
        assert ran == ["late-timer"]

    def test_run_until_executes_due_timer(self, make_sim):
        sim = make_sim()
        ran = []
        sim.set_timer(50e-6, ran.append, "due")
        sim.run(until=100e-6)
        assert ran == ["due"]
        assert sim.now == pytest.approx(100e-6)

    def test_max_events_limits_execution(self, make_sim):
        sim = make_sim()
        ran = []
        for i in range(10):
            sim.schedule(i * 1e-6, ran.append, i)
        sim.run(max_events=3)
        assert ran == [0, 1, 2]

    def test_stop_terminates_the_loop(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1e-6, ran.append, "a")
        sim.schedule(2e-6, sim.stop)
        sim.schedule(3e-6, ran.append, "b")
        sim.run_until_idle()
        assert ran == ["a"]

    def test_events_processed_counter(self, make_sim):
        sim = make_sim()
        for i in range(4):
            sim.schedule(i * 1e-6, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 4

    def test_rng_is_deterministic_per_seed(self):
        values_a = Simulator(seed=5).rng.random()
        values_b = Simulator(seed=5).rng.random()
        values_c = Simulator(seed=6).rng.random()
        assert values_a == values_b
        assert values_a != values_c


class TestCancelledEventAccounting:
    def test_cancelled_pops_counted_separately(self, make_sim):
        sim = make_sim()
        ran = []
        keep = sim.schedule(1e-6, ran.append, "a")
        for _ in range(5):
            sim.cancel(sim.schedule(2e-6, ran.append, "x"))
        del keep
        sim.run_until_idle()
        assert ran == ["a"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 5

    def test_cancelled_timers_counted_in_events_cancelled(self, make_sim):
        """Wheel cancellations land in the same counter as heap tombstones."""
        sim = make_sim()
        ran = []
        for i in range(20):
            sim.cancel(sim.set_timer(100e-6 + i * 1e-6, ran.append, "dead"))
        sim.set_timer(500e-6, ran.append, "live")
        sim.run_until_idle()
        assert ran == ["live"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 20

    def test_max_events_counts_only_executed_events(self, make_sim):
        sim = make_sim()
        ran = []
        # Interleave tombstones before each live event; max_events must budget
        # the *executed* events, not the discarded tombstones.
        for i in range(6):
            sim.cancel(sim.schedule(i * 1e-6, ran.append, "dead"))
            sim.schedule(i * 1e-6, ran.append, i)
        sim.run(max_events=3)
        assert ran == [0, 1, 2]
        assert sim.events_processed == 3
        assert sim.events_cancelled >= 3

    def test_tombstone_only_queue_drains_without_consuming_the_valve(self, make_sim):
        sim = make_sim()
        for i in range(10_000):
            sim.cancel(sim.schedule(i * 1e-9, lambda: None))
        sim.run(max_events=10)
        # Tombstones never execute: the valve is untouched, the queue drains,
        # and every discard is accounted for.
        assert sim.events_processed == 0
        assert sim.events_cancelled + sim.pending_events == 10_000
        assert sim.pending_events == 0

    def test_clock_advance_sees_through_tombstone_head(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1.0, ran.append, "a")
        sim.cancel(sim.schedule(2.0, ran.append, "dead"))
        sim.schedule(20.0, ran.append, "b")
        # Valve trips with a tombstone at the queue head; no *live* event at
        # or before `until` remains, so the clock must still advance.
        sim.run(until=10.0, max_events=1)
        assert ran == ["a"]
        assert sim.now == pytest.approx(10.0)

    def test_clock_advance_sees_through_cancelled_timer(self, make_sim):
        sim = make_sim()
        ran = []
        sim.schedule(1e-6, ran.append, "a")
        sim.cancel(sim.set_timer(5e-3, ran.append, "dead-timer"))
        sim.run(until=1.0)
        assert ran == ["a"]
        # The only remaining entry is a cancelled timer: advance to `until`.
        assert sim.now == pytest.approx(1.0)

    def test_max_events_not_consumed_by_heavy_tombstone_interleaving(self, make_sim):
        sim = make_sim()
        ran = []
        # 3 tombstones per live event: the valve must still admit exactly
        # max_events *executed* events, not stop early on discards.
        for i in range(8):
            for _ in range(3):
                sim.cancel(sim.schedule(i * 1e-6, ran.append, "dead"))
            sim.schedule(i * 1e-6, ran.append, i)
        sim.run(max_events=6)
        assert ran == [0, 1, 2, 3, 4, 5]
        assert sim.events_processed == 6

    def test_resume_after_max_events_continues_exactly(self, make_sim):
        sim = make_sim()
        ran = []
        for i in range(10):
            sim.schedule(i * 1e-6, ran.append, i)
            sim.cancel(sim.schedule(i * 1e-6 + 1e-9, ran.append, "dead"))
        sim.run(max_events=4)
        assert ran == [0, 1, 2, 3]
        sim.run(max_events=4)
        assert ran == [0, 1, 2, 3, 4, 5, 6, 7]
        sim.run_until_idle()
        assert ran == list(range(10))
        assert sim.events_processed == 10
        assert sim.events_cancelled == 10


class TestMassCancellationMemory:
    """The set-then-cancel churn must not grow memory without bound."""

    def test_mass_cancellation_is_compacted(self, make_sim):
        sim = make_sim()
        total = 4 * _COMPACT_MIN_SIZE
        # Set-then-cancel churn (the transports' RTO pattern): the pending
        # population must stay bounded by the compaction/sweep watermark
        # instead of growing with every tombstone ever scheduled.
        for i in range(total):
            sim.cancel(sim.schedule(1e-3 + i * 1e-9, lambda: None))
        assert sim.pending_events <= _COMPACT_MIN_SIZE
        # Every tombstone is either compacted away (counted) or still queued.
        assert sim.events_cancelled + sim.pending_events == total

    def test_mass_timer_cancellation_is_compacted(self, make_sim):
        sim = make_sim()
        total = 4 * _COMPACT_MIN_SIZE
        for i in range(total):
            sim.cancel(sim.set_timer(10e-3 + i * 1e-9, lambda: None))
        assert sim.pending_events <= _COMPACT_MIN_SIZE
        assert sim.events_cancelled + sim.pending_events == total

    def test_compaction_preserves_order_and_results(self, make_sim):
        sim = make_sim()
        ran = []
        live = []
        for i in range(5000):
            event = sim.schedule(i * 1e-9, ran.append, i)
            if i % 7:
                sim.cancel(event)
            else:
                live.append(i)
        sim.run_until_idle()
        assert ran == live
        assert sim.events_processed == len(live)


#: The structure tests run the production geometry on a 1 us bucket: level
#: 0's window (= one level-1 slot) is ``L0`` wide, level 1's (= one level-2
#: slot) ``L1``, level 2's ``L2``; past ``L2`` lies the far-future heap.
assert NUM_LEVELS == 3
W = 1e-6
L0 = NUM_BUCKETS * W
L1 = NUM_BUCKETS * L0
L2 = NUM_BUCKETS * L1


class TestCalendarStructure:
    """Calendar specifics: band routing, cascade, rebase, aliasing, wheel."""

    def _sim(self):
        return Simulator(bucket_width_s=W)

    def test_insertion_routes_to_the_right_band(self):
        sim = self._sim()
        sim.schedule(2 * W, lambda: None)         # level 0
        sim.schedule(2.5 * L0, lambda: None)      # level 1
        sim.schedule(1.5625 * L1, lambda: None)   # level 2
        sim.schedule(2 * L2, lambda: None)        # beyond level 2: far future
        assert sim._num_bucketed == 1
        assert sim._hi_counts[1] == 1
        assert sim._hi_counts[2] == 1
        assert len(sim._overflow) == 1
        assert sim.pending_events == 4
        sim.run_until_idle()
        assert sim.events_processed == 4
        assert sim.pending_events == 0

    def test_pending_events_spans_all_bands(self):
        sim = self._sim()
        sim.schedule(W, lambda: None)                    # level-0 bucket
        sim.schedule(2 * L0, lambda: None)               # level 1
        sim.schedule(2 * L1, lambda: None)               # level 2
        sim.schedule(2 * L2, lambda: None)               # far-future heap
        sim.set_timer(5 * WHEEL_SLOT_S, lambda: None)    # wheel
        assert sim.pending_events == 5
        sim.run_until_idle()
        assert sim.pending_events == 0
        assert sim.events_processed == 5

    def test_past_window_events_land_in_upper_levels(self):
        # 40 events an eighth of a level-0 window apart, straddling the
        # boundary between level-2 slots 1 and 2: all past level 1's initial
        # window and inside level 2's, so the hierarchy -- not the
        # far-future heap -- absorbs them, and they cascade 2 -> 1 -> 0
        # back down in exact time order.
        sim = self._sim()
        ran = []
        for i in range(40, 0, -1):
            sim.schedule(2 * L1 - 2.5 * L0 + i * L0 / 8, ran.append, i)
        assert sim._hi_counts[2] == 40
        assert not sim._overflow
        sim.run_until_idle()
        assert ran == list(range(1, 41))

    def test_cascade_preserves_order_across_levels(self):
        sim = self._sim()
        ran = []
        # Interleave events whose initial homes span all three levels plus
        # the far-future band; execution must still be globally sorted.
        times = [
            2 * W, 2.5 * L0, 1.5625 * L1, 2 * L2,
            5 * W, 7.5 * L0, 6.25 * L1, 4 * L2,
        ]
        for t in times:
            sim.schedule(t, ran.append, t)
        sim.run_until_idle()
        assert ran == sorted(times)

    def test_cascade_observed_mid_run(self):
        sim = self._sim()
        seen = {}
        # 41 events four level-1 slots apart, all starting in level 2 (28 in
        # its slot 1, 13 in slot 2); by the time the first one executes, the
        # chain level2 -> level1 -> level0 must have partially drained the
        # top while leaving later slots up there.
        for i in range(41):
            sim.schedule(1.5625 * L1 + i * L1 / 64, lambda: None)

        def probe():
            seen["counts"] = (sim._num_bucketed, sim._hi_counts[1], sim._hi_counts[2])

        assert sim._hi_counts[2] == 41
        sim.schedule(1.5625 * L1, probe)
        sim.run_until_idle()
        bucketed, lvl1, lvl2 = seen["counts"]
        assert lvl2 == 13, "level 2 should still hold its far slot"
        assert lvl1 == 27, "level 1 should hold the cascaded middle"
        assert sim.events_processed == 42

    def test_cancellation_discards_at_every_level(self):
        sim = self._sim()
        ran = []
        victims = [
            sim.schedule(2 * W, ran.append, "l0"),                 # level-0 bucket
            sim.schedule(2.5 * L0, ran.append, "l1"),              # level 1
            sim.schedule(1.5625 * L1, ran.append, "l2"),           # level 2
            sim.schedule(2 * L2, ran.append, "far"),               # far-future heap
            sim.set_timer(3 * WHEEL_SLOT_S, ran.append, "wheel"),  # timer wheel
        ]
        for victim in victims:
            sim.cancel(victim)
        sim.schedule(4 * L2, ran.append, "end")
        sim.run_until_idle()
        assert ran == ["end"]
        assert sim.events_cancelled == 5
        assert sim.events_scheduled == (
            sim.events_processed + sim.events_cancelled + sim.pending_events
        )

    def test_far_future_jump_skips_empty_windows(self):
        sim = self._sim()
        ran = []
        sim.schedule(W, ran.append, "near")
        sim.schedule(3 * L2, ran.append, "far")   # ~50M buckets ahead
        assert len(sim._overflow) == 1
        sim.run_until_idle()
        assert ran == ["near", "far"]
        assert sim.now == pytest.approx(3 * L2)

    def test_rebase_places_far_events_directly_at_their_level(self):
        sim = self._sim()
        seen = {}

        def probe():
            seen["state"] = (
                sim._num_bucketed,
                sim._hi_counts[1],
                sim._hi_counts[2],
                len(sim._overflow),
            )

        # All four start in the far-future heap (past level 2's initial
        # horizon).  The rebase onto the head must distribute each directly:
        # head + 5 buckets to level 0, head + L1 past the rebased level-1
        # window into level 2, and 4 * L2 stays in the heap.
        head = 2 * L2 + 100.5 * L0 + 3 * W
        sim.schedule(head, probe)
        sim.schedule(head + 5 * W, lambda: None)
        sim.schedule(head + L1, lambda: None)
        sim.schedule(4 * L2, lambda: None)
        assert len(sim._overflow) == 4
        sim.run_until_idle()
        bucketed, lvl1, lvl2, far = seen["state"]
        assert bucketed == 1      # head + 5 buckets, in its own level-0 bucket
        assert lvl1 == 0
        assert lvl2 == 1          # head + L1 went straight to level 2
        assert far == 1           # 4 * L2 is genuinely far-future
        assert sim.events_processed == 4
        assert sim.now == pytest.approx(4 * L2)

    def test_events_within_current_bucket_insort(self):
        sim = Simulator(bucket_width_s=10e-6)
        order = []

        def first():
            order.append("first")
            # Absolute time 2us: lands in the *currently draining* bucket,
            # before the pre-scheduled 2.5us event.
            sim.schedule(1e-6, order.append, "nested")

        sim.schedule(1e-6, first)
        sim.schedule(2.5e-6, order.append, "second")
        sim.run_until_idle()
        assert order == ["first", "nested", "second"]

    def test_sweep_then_rebase_does_not_resurrect_stale_bucket_heads(self):
        # Regression: a sweep that empties a bucket used to leave its index
        # in the occupied-bucket heads heap; after the window moved on, a
        # later bucket aliasing the same slot (mod NUM_BUCKETS) could then
        # be loaded under the stale (smaller) index, executing far-future
        # events early and driving the clock backwards.
        sim = self._sim()
        # Fill bucket 10 with cancel-churn so the sweep empties it but its
        # head entry (index 10) survives.
        for _ in range(_COMPACT_MIN_SIZE - 1):
            sim.cancel(sim.schedule_at(10.5 * W, lambda: None))
        order = []
        # ``early`` moves the window past the first NUM_BUCKETS buckets;
        # ``late`` lands in bucket 2 * NUM_BUCKETS + 10, which aliases slot 10.
        late = (2 * NUM_BUCKETS + 10.5) * W
        early = (NUM_BUCKETS + 34.5) * W
        sim.schedule_at(late, order.append, "late")
        sim.schedule_at(early, order.append, "early")
        times = []
        sim.schedule_at(late, lambda: times.append(sim.now))
        sim.schedule_at(early, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert order == ["early", "late"]
        assert times == sorted(times)

    def test_wheel_slot_flush_preserves_order(self):
        sim = self._sim()
        order = []
        # Two timers in one wheel slot, scheduled out of time order.
        sim.set_timer(2 * WHEEL_SLOT_S + 2e-6, order.append, "later")
        sim.set_timer(2 * WHEEL_SLOT_S + 1e-6, order.append, "earlier")
        sim.schedule(2 * WHEEL_SLOT_S + 3e-6, order.append, "event")
        sim.run_until_idle()
        assert order == ["earlier", "later", "event"]

    def test_timer_into_flushed_slot_becomes_regular_event(self):
        sim = self._sim()
        order = []

        def late_set():
            # now is half-way through wheel slot 1, which has been flushed; a
            # timer for later in that slot must still fire, as a regular event.
            sim.set_timer(10e-6, order.append, "late-timer")

        sim.schedule(1.5 * WHEEL_SLOT_S, late_set)
        sim.run_until_idle()
        assert order == ["late-timer"]
        assert sim.now == pytest.approx(1.5 * WHEEL_SLOT_S + 10e-6)

    def test_wheel_flush_at_exact_slot_boundary(self):
        # A timer whose due time is exactly a wheel-slot boundary, with
        # every calendar band empty, forces the wheel-only flush branch.
        # Judging due-ness via int(time * inv_wheel) can round one slot
        # low at such boundaries (slot/inv * inv round-trips below slot),
        # leaving the due head unflushed and the engine spinning; the
        # flush must use the same division that computed the deadline.
        sim = Simulator()
        inv = 1.0 / WHEEL_SLOT_S
        slot = next(
            s for s in range(1, 1_000_000) if int((s / inv) * inv) < s
        )
        ran = []
        sim.set_timer_at(slot / inv, ran.append, "boundary")
        sim.run_until_idle()
        assert ran == ["boundary"]
        assert sim.pending_events == 0

    def test_nonpositive_bucket_width_rejected(self):
        with pytest.raises(ValueError):
            Simulator(bucket_width_s=0.0)
        with pytest.raises(ValueError):
            Simulator(bucket_width_s=-1e-6)


class TestCascadeOverCancelledSlot:
    """Regression: a level-2 slot holding only a cancelled event used to end
    the cascade chain with level 1's window moved onto the slot and level
    0's left behind, so the next event due *before* the slot was filed
    below level 1's floor and the calendar raised ``leveled events not
    found in window`` (the reference heap just fires it)."""

    def test_earlier_timer_still_fires(self, make_sim):
        sim = make_sim()
        fired = []
        sim.cancel(sim.schedule(0.1, fired.append, "dead"))
        sim.set_timer(1e-3, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1e-3]
        assert sim.now == 1e-3

    def test_earlier_event_scheduled_after_the_run_returned(self, make_sim):
        sim = make_sim()
        fired = []
        sim.cancel(sim.schedule(0.1, fired.append, "dead"))
        sim.run()
        sim.schedule_at(1e-3, lambda: fired.append(sim.now))
        sim.schedule_at(0.05, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1e-3, 0.05]


# ---------------------------------------------------------------------------
# Differential property: the calendar replays the reference heap exactly
# ---------------------------------------------------------------------------
#: Bucket widths the experiments really use (100, 40 and 20 Gbps links), plus
#: one far below any of them.
WIDTHS = sorted(
    {
        bucket_width_for(ExperimentConfig(link_bandwidth_bps=bps))
        for bps in (100e9, 40e9, 20e9)
    }
    | {1e-9}
)


def _near(base, k, ulps):
    """``k * base``, or its float neighbour ``ulps`` (+-1) steps away."""
    time = k * base
    if ulps:
        time = math.nextafter(time, math.copysign(math.inf, ulps))
    return max(time, 0.0)


def _boundary_times(width):
    """Multiples of every band's unit -- the bucket, the wheel slot, and one
    slot of each upper level up to the far-future horizon -- and the floats
    on either side of each: where a float-to-index conversion can disagree
    with itself by one."""
    units = [width * NUM_BUCKETS**lvl for lvl in range(NUM_LEVELS + 1)]
    return st.builds(
        _near,
        st.sampled_from(units + [WHEEL_SLOT_S]),
        st.sampled_from((0, 1, 2, 3, NUM_BUCKETS - 1, NUM_BUCKETS, NUM_BUCKETS + 1)),
        st.sampled_from((-1, 0, 1)),
    )


@st.composite
def _plans(draw):
    """``(width, ops, until)``.  Each op is ``(method, time, issuer,
    cancel_now, victim, payload)``: it is issued before the first run
    (``"start"``), after ``run(until=...)`` returned (``"resume"``) or from
    inside the callback of an earlier op (an int, taken modulo the op's own
    index); its event is cancelled right away if ``cancel_now``; its
    callback cancels op ``victim``'s event (modulo the plan length) if it
    has one; and it carries ``UNORDERABLE[payload]`` as an argument.  A
    drawn time of ``None`` stands for "the time of the op before" -- equal
    times with payloads that cannot be ordered, so only ``seq`` can break
    the tie."""
    width = draw(st.sampled_from(WIDTHS))
    times = _boundary_times(width)
    op = st.tuples(
        st.sampled_from(("schedule_at", "set_timer_at")),
        st.none() | times,
        st.one_of(st.sampled_from(("start", "resume")), st.integers(0, 30)),
        st.booleans(),
        st.none() | st.integers(0, 30),
        st.sampled_from(range(len(UNORDERABLE))),
    )
    until = draw(times)
    ops = []
    for method, time, *rest in draw(st.lists(op, min_size=1, max_size=12)):
        if time is None:
            time = ops[-1][1] if ops else until
        ops.append((method, time, *rest))
    return width, ops, until


def _drive(engine_cls, width, ops, until):
    """Run a plan on ``engine_cls``; the trace and final counters."""
    sim = engine_cls(bucket_width_s=width)
    trace = sim.enable_trace()
    events = {}
    children = {}
    for n, (_, _, issuer, _, _, _) in enumerate(ops):
        if isinstance(issuer, int):
            issuer = issuer % n if n else "start"
        children.setdefault(issuer, []).append(n)

    def issue(n):
        method, time, _, cancel_now, _, payload = ops[n]
        # A plan time already behind the clock is issued for "now".
        events[n] = getattr(sim, method)(
            max(time, sim.now), partial(fire, n), UNORDERABLE[payload])
        if cancel_now:
            sim.cancel(events[n])

    def fire(n, payload):
        victim = ops[n][4]
        if victim is not None:
            sim.cancel(events.get(victim % len(ops)))
        for child in children.get(n, ()):
            issue(child)

    for n in children.get("start", ()):
        issue(n)
    sim.run(until=until)
    for n in children.get("resume", ()):
        issue(n)
    sim.run_until_idle()
    assert sim.events_scheduled == (
        sim.events_processed + sim.events_cancelled + sim.pending_events
    )
    assert sim.pending_events == 0
    return list(trace), sim.events_processed, sim.now


class TestCalendarMatchesHeap:
    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(plan=_plans())
    def test_boundary_plans_replay_the_reference_exactly(self, plan):
        assert _drive(Simulator, *plan) == _drive(HeapSimulator, *plan)


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = HeapSimulator()
        total = 4 * _COMPACT_MIN_SIZE
        for i in range(total):
            sim.cancel(sim.schedule(1e-3 + i * 1e-9, lambda: None))
        assert sim.pending_events <= _COMPACT_MIN_SIZE
        assert sim.events_cancelled + sim.pending_events == total
