"""Figure 1: IRN (without PFC) vs RoCE (with PFC), no explicit congestion control.

Paper result: IRN is 2.8-3.7x better across average slowdown, average FCT and
99th-percentile FCT.  At benchmark scale we expect the same ordering (IRN at
least matches RoCE+PFC on every metric and wins on slowdown).

Each scheme runs over a three-seed axis in one sweep; the assertions are on
:func:`aggregate_rows` means with replica counts, paper-style, rather than a
single seed's draw.
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    BENCH_FLOWS,
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig1_irn_vs_roce(benchmark):
    spec = scenarios.scenario("fig1")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 1: IRN (no PFC) vs RoCE (PFC), per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    irn = aggregates["IRN (without PFC)"]
    roce = aggregates["RoCE (with PFC)"]
    for record in (irn, roce):
        assert record["replicas"] == len(spec.seeds)
        assert record["seeds"] == sorted(spec.seeds)
    # The paper's headline claim, on seed-averaged metrics: IRN without PFC
    # outperforms RoCE with PFC.
    assert irn["avg_slowdown_mean"] <= roce["avg_slowdown_mean"]
    # Pooled tail over all replicas' flows (merged digests), same ordering.
    assert irn["fct_p99_s"] <= 1.5 * roce["fct_p99_s"]
    # IRN runs on a lossy fabric (no pauses), RoCE's fabric pauses instead --
    # across every replica.
    assert irn["pause_frames_total"] == 0
    assert roce["packets_dropped_total"] == 0
