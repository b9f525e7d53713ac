"""The paper's claims, each checked on the run it was measured on.

Every paper preset carries its claims as data
(:class:`repro.experiments.spec.Claim`): a metric, a cell and a cell or a
constant, a relation and a factor, the paper's finding, and the run the
bound was set on (rows, config overrides, seeds).  One test per distinct
claim run sweeps it once inside the ``pytest-benchmark`` timer (one round:
a run takes seconds and is deterministic for its seeds), then

* checks every cell: one replica per seed of the run, and every flow of
  every replica completed;
* prints what ``python -m repro run`` prints, and one line per claim with
  both operands and the bound (``pytest -s`` shows them);
* checks every claim.

``-k fig1`` selects one scenario.  ``REPRO_BENCH_WORKERS=1`` forces the
serial sweep (rows are bit-identical either way).  Nothing is cached, so
the timer measures real runs, unless ``REPRO_BENCH_CACHE=<dir>`` names a
code-aware cache directory.
"""

import os

import pytest

from repro.experiments.results import ResultRow
from repro.experiments.scenarios import scenario
from repro.experiments.spec import SCENARIOS, replica_label
from repro.experiments.sweep import aggregate_rows, run_sweep
from repro.metrics.report import format_run_report
from repro.metrics.stats import mean

ROW_FIELDS = frozenset(ResultRow.__dataclass_fields__)

CLAIM_RUNS = [
    pytest.param(name, run, claims, id=name if index == 0 else f"{name}-{index}")
    for name in SCENARIOS.names()
    for index, (run, claims) in enumerate(scenario(name).claim_runs())
]


def operands(claim, records, rows):
    """``(left, right)`` of ``claim``: aggregate columns by cell label, or a
    row field's mean over the cell's replicas."""

    def value(label):
        if claim.metric not in ROW_FIELDS:
            return records[label][claim.metric]
        values = [getattr(rows[replica_label(label, seed)], claim.metric)
                  for seed in claim.run.seeds]
        assert None not in values, f"{label}: {claim.metric} is missing on a replica"
        return mean(values)

    right = value(claim.right) if isinstance(claim.right, str) else claim.right
    return value(claim.left), right


@pytest.mark.parametrize("name, run, claims", CLAIM_RUNS)
def test_claims(benchmark, name, run, claims):
    spec = scenario(name).for_run(run)
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    sweep = benchmark.pedantic(
        run_sweep,
        args=(spec.replicated(seeds=run.seeds, **run.overrides),),
        kwargs=dict(workers=int(workers) if workers else None,
                    cache=os.environ.get("REPRO_BENCH_CACHE") or None),
        rounds=1, iterations=1,
    )
    by_name = {record["name"]: record for record in aggregate_rows(sweep.rows.values(), by=("name",))}
    records = {label: by_name[config.name]
               for label, config in spec.configs(**run.overrides).items()}
    for label, record in records.items():
        assert record["replicas"] == len(run.seeds), label
        assert record["seeds"] == sorted(run.seeds), label
    for label, row in sweep.rows.items():
        assert row.flows_completed == row.flows_total, f"{label}: a flow did not complete"

    print()
    print(format_run_report(spec, sweep))
    print(f"\n=== {name}: claims ===")
    failed = []
    for claim in claims:
        left, right = operands(claim, records, sweep.rows)
        line = (f"{claim.figure}: {claim.metric} of {claim.left} = {left!r} "
                f"{claim.relation} {claim.factor} x {claim.right} = {right!r} "
                f"(bound {claim.factor * right!r})")
        holds = claim.holds(left, right)
        print(("ok    " if holds else "FAIL  ") + line)
        if not holds:
            failed.append(f"{line} (paper: {claim.paper})")
    assert not failed, "\n".join(failed)
