"""Figure 4: IRN vs RoCE when explicit congestion control (Timely/DCQCN) is used.

Paper result: IRN stays 1.5-2.2x better than RoCE across the three metrics
even once Timely or DCQCN is enabled.

Each scheme runs over a three-seed axis; the ordering assertion is on
:func:`aggregate_rows` means rather than a single seed's draw.
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    BENCH_FLOWS,
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig4_irn_vs_roce_with_congestion_control(benchmark):
    spec = scenarios.scenario("fig4")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 4: IRN vs RoCE with Timely / DCQCN, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    for cc in ("timely", "dcqcn"):
        irn = aggregates[f"IRN +{cc}"]
        roce = aggregates[f"RoCE +{cc}"]
        assert irn["replicas"] == len(spec.seeds)
        # IRN (no PFC) remains at least competitive with RoCE (PFC) under CC
        # on seed-averaged slowdown.
        assert irn["avg_slowdown_mean"] <= 1.15 * roce["avg_slowdown_mean"]
