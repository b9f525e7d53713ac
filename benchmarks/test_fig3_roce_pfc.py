"""Figure 3: impact of disabling PFC with RoCE.

Paper result: RoCE degrades by 1.5-3x without PFC because go-back-N loss
recovery wastes bandwidth on redundant retransmissions.

Each scheme runs over a three-seed axis in one sweep; the assertions are on
:func:`aggregate_rows` means and summed counters, paper-style, rather than a
single seed's draw.
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig3_disabling_pfc_with_roce(benchmark):
    # Run at 90% load: the cost of go-back-N on a lossy fabric grows with
    # congestion, which is exactly the regime the paper's claim is about.
    spec = scenarios.scenario("fig3")
    base = spec.configs(num_flows=150, target_load=0.9)
    results = run_scenarios(benchmark, spec.replicated(num_flows=150, target_load=0.9))
    print_metric_table("Figure 3: RoCE with vs without PFC, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    with_pfc = aggregates["RoCE (with PFC)"]
    without_pfc = aggregates["RoCE without PFC"]
    for record in (with_pfc, without_pfc):
        assert record["replicas"] == len(spec.seeds)
        assert record["seeds"] == sorted(spec.seeds)
    # RoCE requires PFC: completion times degrade clearly without it -- on
    # seed-averaged metrics.  (The average slowdown, dominated by
    # single-packet RPCs, degrades less at benchmark scale.)
    assert without_pfc["avg_fct_s_mean"] > 1.2 * with_pfc["avg_fct_s_mean"]
    assert without_pfc["tail_fct_s_mean"] > 1.2 * with_pfc["tail_fct_s_mean"]
    assert without_pfc["avg_slowdown_mean"] > with_pfc["avg_slowdown_mean"]
    # The mechanism: redundant go-back-N retransmissions on a lossy fabric,
    # across every replica.
    assert (without_pfc["retransmissions_total"]
            > 10 * max(1, with_pfc["retransmissions_total"]))
