"""Figure 5: enabling PFC with IRN when Timely or DCQCN is used.

Paper result: with explicit congestion control IRN's performance is largely
unaffected by PFC (largest improvement < 1%, largest degradation ~3.4%),
because the congestion control keeps both drop rates and pause counts low.

Each scheme runs over a three-seed axis; the ratio assertion is on
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


def test_fig5_pfc_with_irn_under_congestion_control(benchmark):
    spec = scenarios.scenario("fig5")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 5: IRN +/- PFC with Timely / DCQCN, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    for cc in ("timely", "dcqcn"):
        with_pfc = aggregates[f"IRN with PFC +{cc}"]
        without_pfc = aggregates[f"IRN +{cc}"]
        assert with_pfc["replicas"] == len(spec.seeds)
        # PFC makes little difference to IRN once congestion control is on --
        # on seed-averaged FCT.
        ratio = without_pfc["avg_fct_s_mean"] / with_pfc["avg_fct_s_mean"]
        assert 0.7 <= ratio <= 1.3
