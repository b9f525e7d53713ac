"""Invariant predicates over fuzzed-run outcomes.

Each check returns a list of violation strings (empty == invariant holds),
so a single run reports *every* broken property rather than stopping at the
first.  ``check_outcome`` judges one run; ``check_pair`` judges the
calendar-vs-heap pair of runs of the same case.

The invariants (the harness contract documented in
``docs/architecture.md``):

1. **Monotone clock** -- execution-trace times never decrease.
2. **Accounting identity** -- ``events_scheduled == events_processed +
   events_cancelled + pending_events``, at any stopping point.
3. **PFC losslessness** -- a lossless fabric never drops: with
   ``pfc_enabled`` the switch drop counters *and* the fault engine's
   injected-drop counter stay zero (counting injected drops is how the
   known-bad self-test is caught).
4. **Conservation modulo counted fault drops** -- once the fabric is fully
   drained, every packet committed to the wire by a host NIC was delivered
   to a host, dropped by a switch, consumed by an injected fault
   (corruption / link flap, tallied in ``fault_drops``), or is still
   sitting in a switch queue (the queued term covers PFC-deadlocked
   fabrics, which go event-idle with packets wedged).
5. **Per-QP ordering** -- no receiver's in-order delivery frontier
   (``expected_psn``) ever regresses.
6. **Completion sanity** -- completed flows never exceed launched flows,
   and the collector's completion count matches the flow objects.
7. **Event-order identity** -- both cores execute byte-identical
   ``(time, seq)`` traces and agree on every physical counter.  (Cancelled
   vs pending tallies legitimately differ between cores mid-run -- a
   tombstone discarded by one core's compaction may still be queued in the
   other -- so only their *sum* is compared, via invariant 2.)
"""

from __future__ import annotations

from typing import List

from repro.verify.fuzz import CaseOutcome, FuzzCase


def check_outcome(case: FuzzCase, outcome: CaseOutcome) -> List[str]:
    """All single-run invariant violations for ``case`` on one core."""
    violations: List[str] = []
    core = outcome.core

    # 1. Monotone simulator clock.
    trace = outcome.trace
    for i in range(1, len(trace)):
        if trace[i][0] < trace[i - 1][0]:
            violations.append(
                f"[{core}] clock regressed: event #{i} at t={trace[i][0]} "
                f"after t={trace[i - 1][0]}"
            )
            break

    # 2. Engine accounting identity.
    accounted = (
        outcome.events_processed + outcome.events_cancelled + outcome.pending_events
    )
    if outcome.events_scheduled != accounted:
        violations.append(
            f"[{core}] event accounting leak: scheduled={outcome.events_scheduled} "
            f"!= processed={outcome.events_processed} "
            f"+ cancelled={outcome.events_cancelled} "
            f"+ pending={outcome.pending_events} (= {accounted})"
        )

    # 3. PFC losslessness: a lossless fabric never drops, ever -- injected
    # fault drops included.
    if case.pfc_enabled and (outcome.switch_drops + outcome.fault_drops) != 0:
        violations.append(
            f"[{core}] losslessness violated: {outcome.switch_drops} switch "
            f"drop(s) + {outcome.fault_drops} fault drop(s) on a PFC-enabled "
            f"fabric"
        )

    # 4. Conservation of packets, judged only at full drain (an undrained
    # run stopped mid-flight by the event valve cannot balance).
    if outcome.drained:
        balance = (
            outcome.packets_delivered
            + outcome.switch_drops
            + outcome.fault_drops
            + outcome.queued_packets
        )
        if outcome.packets_committed != balance:
            violations.append(
                f"[{core}] conservation violated: committed="
                f"{outcome.packets_committed} != delivered={outcome.packets_delivered}"
                f" + dropped={outcome.switch_drops}"
                f" + fault_dropped={outcome.fault_drops}"
                f" + queued={outcome.queued_packets} (= {balance})"
            )

    # 5. Per-QP delivery ordering.
    for message in outcome.ordering_violations:
        violations.append(f"[{core}] ordering violated: {message}")

    # 6. Completion sanity.
    if outcome.flows_completed > outcome.flows_total:
        violations.append(
            f"[{core}] {outcome.flows_completed} completions out of "
            f"{outcome.flows_total} flows"
        )
    if outcome.completions_recorded != outcome.flows_completed:
        violations.append(
            f"[{core}] collector recorded {outcome.completions_recorded} "
            f"completions but {outcome.flows_completed} flows completed"
        )

    return violations


def check_pair(case: FuzzCase, calendar: CaseOutcome, heap: CaseOutcome) -> List[str]:
    """Cross-core identity violations between the two runs of ``case``."""
    violations: List[str] = []

    if calendar.trace != heap.trace:
        detail = _first_trace_divergence(calendar.trace, heap.trace)
        violations.append(f"[cross] event order diverged: {detail}")

    for field in (
        "events_scheduled",
        "events_processed",
        "packets_committed",
        "packets_delivered",
        "switch_drops",
        "fault_drops",
        "queued_packets",
        "flows_completed",
        "completions_recorded",
        "deadlock_events",
        "time_to_deadlock_s",
        "pause_frames",
    ):
        a = getattr(calendar, field)
        b = getattr(heap, field)
        if a != b:
            violations.append(f"[cross] {field} diverged: calendar={a} heap={b}")

    return violations


def _first_trace_divergence(a: list, b: list) -> str:
    if len(a) != len(b):
        prefix = f"calendar ran {len(a)} events, heap ran {len(b)}"
    else:
        prefix = f"{len(a)} events each"
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return f"{prefix}; first divergence at #{i}: calendar={ea} heap={eb}"
    return f"{prefix}; one trace is a prefix of the other"
