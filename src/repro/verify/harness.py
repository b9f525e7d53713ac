"""The fuzz harness: run cases, judge, report, reproduce.

``run_fuzz`` is the entry point the CLI (``python -m repro.verify``) and CI
use.  It generates ``budget`` seed-derived cases, runs each once, applies
every invariant from :mod:`repro.verify.invariants`, and writes a JSON
repro file per counterexample (the seed inside it is a complete
reproduction: ``python -m repro.verify --seed N``).

``self_test`` guards the guard: it corrupts packets on a *lossless* case
and fails unless the losslessness invariant catches the resulting fault
drops -- proof the harness can still detect the class of bug it exists for.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.faults import PacketCorruption
from repro.verify.fuzz import FuzzCase, run_case
from repro.verify.invariants import check_outcome

#: Environment knob CI uses to deepen nightly runs without a workflow edit.
BUDGET_ENV_VAR = "REPRO_FUZZ_BUDGET"
DEFAULT_BUDGET = 25


@dataclass
class CaseReport:
    """Verdict for one case."""

    case: FuzzCase
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class FuzzReport:
    """Verdict for a whole fuzz run."""

    budget: int
    start_seed: int
    reports: List[CaseReport] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseReport]:
        return [report for report in self.reports if not report.passed]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_case(case: FuzzCase) -> CaseReport:
    """Run ``case`` and apply every invariant."""
    return CaseReport(case=case, violations=check_outcome(case, run_case(case)))


def default_budget() -> int:
    """CI depth knob: ``REPRO_FUZZ_BUDGET`` env var, else 25 cases."""
    raw = os.environ.get(BUDGET_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_BUDGET


def run_fuzz(
    budget: Optional[int] = None,
    start_seed: int = 0,
    out_dir: Optional[str] = None,
    log=print,
) -> FuzzReport:
    """Fuzz ``budget`` cases; write one repro file per counterexample."""
    if budget is None:
        budget = default_budget()
    report = FuzzReport(budget=budget, start_seed=start_seed)
    for seed in range(start_seed, start_seed + budget):
        case = FuzzCase.generate(seed)
        case_report = check_case(case)
        report.reports.append(case_report)
        if case_report.passed:
            continue
        log(f"FAIL seed={seed}: {len(case_report.violations)} violation(s)")
        for violation in case_report.violations:
            log(f"  {violation}")
        if out_dir:
            path = write_counterexample(case_report, out_dir)
            log(f"  repro written to {path}")
    passed = len(report.reports) - len(report.failures)
    log(f"fuzz: {passed}/{len(report.reports)} cases passed "
        f"(seeds {start_seed}..{start_seed + budget - 1})")
    return report


def write_counterexample(case_report: CaseReport, out_dir: str) -> str:
    """Persist a failing case as a JSON repro file; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    case = case_report.case
    path = os.path.join(out_dir, f"counterexample-seed-{case.seed}.json")
    payload = {
        "reproduce": f"python -m repro.verify --seed {case.seed}",
        "case": case.describe(),
        "violations": case_report.violations,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# Known-bad self-test
# ---------------------------------------------------------------------------
def known_bad_case(seed: int = 0) -> FuzzCase:
    """A deliberately broken case: corruption injected on a *lossless* fabric.

    The fuzzer itself never generates this combination (packet-touching
    faults are restricted to non-lossless cases); constructing it by hand
    checks that the losslessness invariant actually fires when the property
    is broken.
    """
    base = FuzzCase.generate(seed)
    # Force a lossless star so the dropped packet sits on a lossless port.
    lossless = FuzzCase(
        seed=base.seed,
        topology="star",
        transport="roce",
        pfc_enabled=True,
        num_hosts=4,
        ring_switches=base.ring_switches,
        mtu_bytes=1000,
        bandwidth_bps=10e9,
        link_delay_s=1e-6,
        buffer_bytes=20_000,
        flows=(
            (0, "h0", "h1", 8_000, 0.0),
            (1, "h2", "h3", 8_000, 1e-6),
        ),
    )
    return lossless.with_faults(
        PacketCorruption(src="h0", dst="s0", probability=1.0, start_s=0.0, end_s=None)
    )


def self_test(log=print) -> bool:
    """True iff the harness still catches the known-bad seeded case."""
    report = check_case(known_bad_case())
    caught = any("losslessness violated" in v for v in report.violations)
    if caught:
        log("self-test: losslessness invariant caught the injected corruption")
    else:
        log("self-test FAILED: injected lossless corruption went undetected")
        for violation in report.violations:
            log(f"  (saw only) {violation}")
    return caught
