"""Figure 12: IRN with worst-case implementation overheads (§6.3).

Paper result: adding 16 bytes of extra headers to every packet and a 2 us
PCIe fetch delay for retransmissions costs IRN only 4-7%, leaving it 35-63%
better than RoCE (with PFC).

Each scheme runs over a three-seed axis; the cost/ordering assertions are on
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


def test_fig12_worst_case_overheads(benchmark):
    spec = scenarios.scenario("fig12")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 12: IRN implementation overheads, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    plain = aggregates["IRN (no overheads)"]
    worst = aggregates["IRN (worst-case overheads)"]
    roce = aggregates["RoCE (with PFC)"]
    assert plain["replicas"] == len(spec.seeds)
    # The modelled overheads cost only a few percent on seed-averaged FCT...
    assert worst["avg_fct_s_mean"] <= 1.15 * plain["avg_fct_s_mean"]
    # ...and IRN stays at least competitive with the RoCE+PFC baseline.
    assert worst["avg_slowdown_mean"] <= 1.1 * roce["avg_slowdown_mean"]
