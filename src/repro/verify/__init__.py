"""Adversarial simulation fuzzing and invariant verification.

This package is the simulator's randomized test harness: it generates
arbitrary fabrics (including cyclic ones), workloads and fault schedules
from a single integer seed, runs every case on the calendar *and* on the
reference heap, and
asserts the invariant contract documented in ``docs/architecture.md`` --
conservation of packets, PFC losslessness, per-QP delivery ordering, a
monotone simulator clock, the engine accounting identity, and
calendar-vs-heap event-order identity.

Run it from the command line::

    python -m repro.verify --budget 50          # fuzz 50 seeds
    python -m repro.verify --seed 1234          # reproduce one case
    python -m repro.verify --self-test          # prove the harness catches bugs
"""

from repro.verify.fuzz import (
    CaseOutcome,
    FuzzCase,
    TimerStormFault,
    run_case,
)
from repro.verify.invariants import check_outcome, check_pair
from repro.verify.harness import (
    CaseReport,
    FuzzReport,
    check_case,
    default_budget,
    known_bad_case,
    run_fuzz,
    self_test,
    write_counterexample,
)

__all__ = [
    "CaseOutcome",
    "CaseReport",
    "FuzzCase",
    "FuzzReport",
    "TimerStormFault",
    "check_case",
    "check_outcome",
    "check_pair",
    "default_budget",
    "known_bad_case",
    "run_case",
    "run_fuzz",
    "self_test",
    "write_counterexample",
]
