"""Figure 7: factor analysis of IRN's two changes (plus the no-SACK ablation).

Paper result: replacing SACK recovery with go-back-N hurts more than removing
BDP-FC; both variants are worse than full IRN.  §4.3(2) additionally shows
selective retransmission without SACK state degrades by up to 75% when there
are multiple losses in a window.

Each variant runs over a three-seed axis; the mechanism assertions compare
:func:`aggregate_rows` means and counters summed over every replica (loss
counts at benchmark scale are small enough that a single seed's draw can
invert them).
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    BENCH_FLOWS,
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig7_factor_analysis(benchmark):
    fig7, no_sack = scenarios.scenario("fig7"), scenarios.scenario("no_sack")
    # The plain-IRN config appears in both sets; the dict merges keep one copy.
    base = {**fig7.configs(num_flows=BENCH_FLOWS), **no_sack.configs(num_flows=BENCH_FLOWS)}
    replicas = {
        **fig7.replicated(num_flows=BENCH_FLOWS),
        **no_sack.replicated(num_flows=BENCH_FLOWS),
    }
    results = run_scenarios(benchmark, replicas)
    print_metric_table("Figure 7: IRN factor analysis, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    irn = aggregates["IRN"]
    gbn = aggregates["IRN with Go-Back-N"]
    no_bdpfc = aggregates["IRN without BDP-FC"]
    no_sack = aggregates["IRN without SACK"]
    assert irn["replicas"] == len(fig7.seeds)

    # Both ablations hurt relative to full IRN (allowing a little noise) on
    # seed-averaged FCT.
    assert gbn["avg_fct_s_mean"] >= 0.95 * irn["avg_fct_s_mean"]
    assert no_bdpfc["avg_fct_s_mean"] >= 0.95 * irn["avg_fct_s_mean"]
    # The mechanisms behind the gaps, summed over every replica:
    assert gbn["retransmissions_total"] > irn["retransmissions_total"]
    assert no_bdpfc["packets_dropped_total"] >= irn["packets_dropped_total"]
    assert no_sack["retransmissions_total"] >= irn["retransmissions_total"]
