"""CLI for the simulation fuzzer: ``python -m repro.verify``.

Exit status is nonzero when any invariant is violated (or the self-test
fails), so CI can gate on it directly.  The fuzz budget defaults to the
``REPRO_FUZZ_BUDGET`` environment variable (CI's nightly-depth knob), then
to 25 cases.
"""

from __future__ import annotations

import argparse
import sys

from repro.verify.harness import (
    BUDGET_ENV_VAR,
    check_case,
    default_budget,
    run_fuzz,
    self_test,
    write_counterexample,
)
from repro.verify.fuzz import FuzzCase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Randomized invariant fuzzing of the simulator.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"number of fuzz cases (default: ${BUDGET_ENV_VAR} or "
        f"{default_budget()})",
    )
    parser.add_argument(
        "--start-seed",
        type=int,
        default=0,
        help="first seed of the fuzzed range (default: 0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reproduce exactly one case by seed (skips the sweep)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write a JSON repro file per counterexample into DIR",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the harness catches a seeded known-bad case, then exit",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return 0 if self_test() else 1

    if args.seed is not None:
        case = FuzzCase.generate(args.seed)
        print(f"case seed={args.seed}: {case.describe()}")
        report = check_case(case)
        if report.passed:
            print("all invariants hold")
            return 0
        for violation in report.violations:
            print(f"  {violation}")
        if args.out:
            print(f"repro written to {write_counterexample(report, args.out)}")
        return 1

    report = run_fuzz(budget=args.budget, start_seed=args.start_seed, out_dir=args.out)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
