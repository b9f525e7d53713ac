"""Figure 11: iWARP's full TCP stack vs IRN.

Paper result: IRN's absence of slow start (BDP-FC instead) gives 21% smaller
average slowdown with comparable FCTs; adding TCP's AIMD to IRN improves it
further (44% smaller slowdown, 11% smaller FCT than iWARP).

Each scheme runs over a three-seed axis; the ordering assertions are on
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


def test_fig11_iwarp_vs_irn(benchmark):
    spec = scenarios.scenario("fig11")
    base = spec.configs(num_flows=BENCH_FLOWS)
    results = run_scenarios(benchmark, spec.replicated(num_flows=BENCH_FLOWS))
    print_metric_table("Figure 11: iWARP (TCP stack) vs IRN, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    iwarp = aggregates["iWARP"]
    irn = aggregates["IRN"]
    irn_aimd = aggregates["IRN + AIMD"]
    assert iwarp["replicas"] == len(spec.seeds)
    # IRN (no slow start) has lower seed-averaged slowdown than the TCP stack.
    assert irn["avg_slowdown_mean"] <= iwarp["avg_slowdown_mean"]
    # Adding AIMD on top of IRN does not make it worse than iWARP either.
    assert irn_aimd["avg_slowdown_mean"] <= 1.1 * iwarp["avg_slowdown_mean"]
