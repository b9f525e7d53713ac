"""Figure 10: Resilient RoCE (RoCE + DCQCN without PFC) vs plain IRN.

Paper result: IRN without any congestion control beats Resilient RoCE because
its loss recovery and BDP-FC handle the drops DCQCN fails to prevent under
dynamic traffic.

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


def test_fig10_resilient_roce_vs_irn(benchmark):
    spec = scenarios.scenario("fig10")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 10: Resilient RoCE vs IRN, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    irn = aggregates["IRN"]
    resilient = aggregates["Resilient RoCE"]
    for record in (irn, resilient):
        assert record["replicas"] == len(spec.seeds)
        assert record["seeds"] == sorted(spec.seeds)
    # IRN (no CC, no PFC) at least matches Resilient RoCE on the
    # seed-averaged metrics.
    assert irn["avg_slowdown_mean"] <= 1.1 * resilient["avg_slowdown_mean"]
    assert irn["avg_fct_s_mean"] <= 1.1 * resilient["avg_fct_s_mean"]
    # Mechanism: when DCQCN fails to avoid drops, go-back-N pays much more.
    assert (
        irn["retransmissions_total"] <= resilient["retransmissions_total"]
        or resilient["packets_dropped_total"] == 0
    )
