"""Tests for the discrete-event engine: ordering, cancellation, ``run``
control, ``until``/``max_events`` semantics, cancellation accounting and
tombstone compaction."""

import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import _COMPACT_MIN_SIZE, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3e-6, order.append, "c")
        sim.schedule(1e-6, order.append, "a")
        sim.schedule(2e-6, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1e-6, order.append, label)
        sim.run_until_idle()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(5e-6, lambda: None)
        sim.run_until_idle()
        assert sim.now == pytest.approx(5e-6)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(2e-6, lambda: times.append(sim.now))
        sim.run_until_idle()
        assert times == [pytest.approx(2e-6)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1e-6, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1e-6, lambda: None)
        sim.run_until_idle()
        with pytest.raises(ValueError):
            sim.schedule_at(0.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 5:
                sim.schedule(1e-6, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until_idle()
        assert seen == list(range(6))
        assert sim.now == pytest.approx(5e-6)

    def test_zero_delay_events_run_after_current(self):
        sim = Simulator()
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

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("verb", ["schedule", "schedule_at", "set_timer"])
    def test_non_finite_time_rejected(self, verb, time):
        # A NaN entry would silently break the heap order: every comparison
        # with it is false.
        sim = Simulator()
        with pytest.raises(ValueError, match="cannot schedule an event at time="):
            getattr(sim, verb)(time, lambda: None)
        assert sim.pending_events == 0
        assert sim.events_scheduled == 0


#: Payloads no two of which can be ordered: ``<`` between any pair raises
#: ``TypeError``.  An engine whose entry comparison ever got past
#: ``(time, seq)`` would fail on them instead of misordering silently.
UNORDERABLE = (None, {}, {"k": 1}, object(), lambda: None, [1], 1j)


class TestEntryOrdering:
    """Entries are ordered by ``(time, seq)`` alone: never by ``fn`` or
    ``args``, and not by whether they have been cancelled."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(plan=st.lists(
        st.tuples(
            st.sampled_from((1e-6, 2e-6, 3e-6)),         # few times: mostly ties
            st.sampled_from(range(len(UNORDERABLE))),
            st.booleans(),                                # cancelled when issued
            st.none() | st.integers(0, 60),               # op its callback cancels
        ),
        min_size=2, max_size=60,
    ))
    def test_ties_run_in_seq_order_whatever_the_payload(self, plan):
        sim = Simulator()
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
            # From inside the first event at 1 us: ties at 1 us join entries
            # already queued at the clock's own time.
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

    def test_cancelling_a_sorted_entry_leaves_its_neighbours_in_place(self):
        sim = Simulator()
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


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1e-6, ran.append, "x")
        event.cancel()
        sim.run_until_idle()
        assert ran == []

    def test_cancel_via_simulator_helper(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1e-6, ran.append, "x")
        sim.cancel(event)
        sim.run_until_idle()
        assert ran == []

    def test_cancel_none_is_noop(self):
        Simulator().cancel(None)

    def test_other_events_unaffected_by_cancellation(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(1e-6, ran.append, "a")
        sim.schedule(2e-6, ran.append, "b")
        event.cancel()
        sim.run_until_idle()
        assert ran == ["b"]

    def test_set_timer_is_schedule(self):
        # The old timer verb survives only as an alias of ``schedule``.
        assert Simulator.set_timer is Simulator.schedule

    def test_rearm_pattern(self):
        """The transports' set-cancel-rearm RTO pattern fires only the last."""
        sim = Simulator()
        fired = []
        timer = None

        def rearm(step):
            nonlocal timer
            if timer is not None:
                sim.cancel(timer)
            timer = sim.schedule(320e-6, fired.append, step)

        for step in range(50):
            sim.schedule(step * 1e-6, rearm, step)
        sim.run_until_idle()
        assert fired == [49]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        ran = []
        sim.schedule(1e-6, ran.append, "a")
        sim.schedule(10e-6, ran.append, "b")
        sim.run(until=5e-6)
        assert ran == ["a"]
        assert sim.now == pytest.approx(5e-6)
        sim.run_until_idle()
        assert ran == ["a", "b"]

    def test_run_until_advances_clock_when_queue_is_empty(self):
        sim = Simulator()
        sim.run(until=1e-3)
        assert sim.now == pytest.approx(1e-3)

    def test_max_events_limits_execution(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(i * 1e-6, ran.append, i)
        sim.run(max_events=3)
        assert ran == [0, 1, 2]

    def test_stop_terminates_the_loop(self):
        sim = Simulator()
        ran = []
        sim.schedule(1e-6, ran.append, "a")
        sim.schedule(2e-6, sim.stop)
        sim.schedule(3e-6, ran.append, "b")
        sim.run_until_idle()
        assert ran == ["a"]

    def test_events_processed_counter(self):
        sim = Simulator()
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
    def test_cancelled_pops_counted_separately(self):
        sim = Simulator()
        ran = []
        keep = sim.schedule(1e-6, ran.append, "a")
        for _ in range(5):
            sim.cancel(sim.schedule(2e-6, ran.append, "x"))
        del keep
        sim.run_until_idle()
        assert ran == ["a"]
        assert sim.events_processed == 1
        assert sim.events_cancelled == 5

    def test_max_events_counts_only_executed_events(self):
        sim = Simulator()
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

    def test_tombstone_only_queue_drains_without_consuming_the_valve(self):
        sim = Simulator()
        for i in range(10_000):
            sim.cancel(sim.schedule(i * 1e-9, lambda: None))
        sim.run(max_events=10)
        # Tombstones never execute: the valve is untouched, the queue drains,
        # and every discard is accounted for.
        assert sim.events_processed == 0
        assert sim.events_cancelled + sim.pending_events == 10_000
        assert sim.pending_events == 0

    def test_clock_advance_sees_through_tombstone_head(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, "a")
        sim.cancel(sim.schedule(2.0, ran.append, "dead"))
        sim.schedule(20.0, ran.append, "b")
        # Valve trips with a tombstone at the queue head; no *live* event at
        # or before `until` remains, so the clock must still advance.
        sim.run(until=10.0, max_events=1)
        assert ran == ["a"]
        assert sim.now == pytest.approx(10.0)

    def test_max_events_not_consumed_by_heavy_tombstone_interleaving(self):
        sim = Simulator()
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

    def test_resume_after_max_events_continues_exactly(self):
        sim = Simulator()
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

    def test_mass_cancellation_is_compacted(self):
        sim = Simulator()
        total = 4 * _COMPACT_MIN_SIZE
        # Set-then-cancel churn (the transports' RTO pattern): the pending
        # population must stay bounded by the compaction watermark
        # instead of growing with every tombstone ever scheduled.
        for i in range(total):
            sim.cancel(sim.schedule(1e-3 + i * 1e-9, lambda: None))
        assert sim.pending_events <= _COMPACT_MIN_SIZE
        # Every tombstone is either compacted away (counted) or still queued.
        assert sim.events_cancelled + sim.pending_events == total

    def test_compaction_preserves_order_and_results(self):
        sim = Simulator()
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
