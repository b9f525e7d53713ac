"""Table 8: sensitivity of IRN to over-estimating RTO_high.

Paper result: increasing RTO_high to 2x and 4x its ideal value changes the
results only marginally -- IRN is not sensitive to the exact timeout value.

Each (row, scheme) cell runs over the spec's three-seed replica axis; the
robustness assertion compares :func:`aggregate_rows` means across rows.
"""

from repro.experiments import ExperimentConfig, scenarios

from benchmarks.conftest import (
    aggregate_by_scheme,
    print_ratio_rows,
    run_scenarios,
)

FLOWS = 90


def test_table8_rto_high_sweep(benchmark):
    table8 = scenarios.scenario("table8")
    # The ideal RTO_high is the one the table's own baseline derives.
    base = ExperimentConfig(**table8.defaults).effective_rto_high_s()
    spec = table8.with_rows(
        {f"{int(value * 1e6)}us": {"rto_high_s": value}
         for value in (base, 2 * base, 4 * base)}
    )
    table = spec.tables(num_flows=FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=FLOWS))

    rows = {
        row: {col: results[f"{row}|{col} [seed={spec.seeds[0]}]"] for col in cols}
        for row, cols in table.items()
    }
    print_ratio_rows("Table 8: RTO_high sweep (seed 1)", rows)

    aggregates = aggregate_by_scheme(spec.configs(num_flows=FLOWS), results)
    irn_fcts = []
    for row in table:
        record = aggregates[f"{row}|IRN"]
        assert record["replicas"] == len(spec.seeds), row
        assert record["num_flows_total"] == FLOWS * len(spec.seeds), row
        irn_fcts.append(record["avg_fct_s_mean"])
    # IRN's seed-averaged FCT varies by well under 2x across a 4x RTO_high
    # range.
    assert max(irn_fcts) <= 2.0 * min(irn_fcts)
