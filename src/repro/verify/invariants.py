"""Invariant predicates over fuzzed-run outcomes.

Each check returns a list of violation strings (empty == invariant holds),
so a single run reports *every* broken property rather than stopping at the
first.  ``check_outcome`` judges one run.

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
"""

from __future__ import annotations

from typing import List

from repro.verify.fuzz import CaseOutcome, FuzzCase


def check_outcome(case: FuzzCase, outcome: CaseOutcome) -> List[str]:
    """All invariant violations of one run of ``case``."""
    violations: List[str] = []

    # 1. Monotone simulator clock.
    trace = outcome.trace
    for i in range(1, len(trace)):
        if trace[i][0] < trace[i - 1][0]:
            violations.append(
                f"clock regressed: event #{i} at t={trace[i][0]} "
                f"after t={trace[i - 1][0]}"
            )
            break

    # 2. Engine accounting identity.
    accounted = (
        outcome.events_processed + outcome.events_cancelled + outcome.pending_events
    )
    if outcome.events_scheduled != accounted:
        violations.append(
            f"event accounting leak: scheduled={outcome.events_scheduled} "
            f"!= processed={outcome.events_processed} "
            f"+ cancelled={outcome.events_cancelled} "
            f"+ pending={outcome.pending_events} (= {accounted})"
        )

    # 3. PFC losslessness: a lossless fabric never drops, ever -- injected
    # fault drops included.
    if case.pfc_enabled and (outcome.switch_drops + outcome.fault_drops) != 0:
        violations.append(
            f"losslessness violated: {outcome.switch_drops} switch "
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
                f"conservation violated: committed="
                f"{outcome.packets_committed} != delivered={outcome.packets_delivered}"
                f" + dropped={outcome.switch_drops}"
                f" + fault_dropped={outcome.fault_drops}"
                f" + queued={outcome.queued_packets} (= {balance})"
            )

    # 5. Per-QP delivery ordering.
    for message in outcome.ordering_violations:
        violations.append(f"ordering violated: {message}")

    # 6. Completion sanity.
    if outcome.flows_completed > outcome.flows_total:
        violations.append(
            f"{outcome.flows_completed} completions out of "
            f"{outcome.flows_total} flows"
        )
    if outcome.completions_recorded != outcome.flows_completed:
        violations.append(
            f"collector recorded {outcome.completions_recorded} "
            f"completions but {outcome.flows_completed} flows completed"
        )

    return violations

