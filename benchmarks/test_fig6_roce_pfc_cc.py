"""Figure 6: disabling PFC with RoCE when Timely or DCQCN is used.

Paper result: unlike IRN, RoCE still needs PFC even with congestion control --
enabling PFC improves RoCE by 1.35-3.5x.  (RoCE + DCQCN without PFC is
Resilient RoCE, compared directly against IRN in Figure 10.)

Each scheme runs over a three-seed axis; the fabric-counter assertions use
:func:`aggregate_rows` totals over every replica.
"""

from repro.experiments import scenarios

from benchmarks.conftest import (
    aggregate_by_scheme,
    assert_all_completed,
    print_metric_table,
    run_scenarios,
)


def test_fig6_pfc_with_roce_under_congestion_control(benchmark):
    spec = scenarios.scenario("fig6")
    base = spec.configs(num_flows=100, target_load=0.9)
    results = run_scenarios(benchmark, spec.replicated(num_flows=100, target_load=0.9))
    print_metric_table("Figure 6: RoCE +/- PFC with Timely / DCQCN, per replica", results)
    assert_all_completed(results)

    aggregates = aggregate_by_scheme(base, results)
    for cc in ("timely", "dcqcn"):
        with_pfc = aggregates[f"RoCE with PFC +{cc}"]
        without_pfc = aggregates[f"RoCE without PFC +{cc}"]
        assert with_pfc["replicas"] == len(spec.seeds)
        # The mechanism behind the paper's claim that RoCE still needs PFC:
        # the lossless fabric absorbs congestion with pauses (never drops),
        # while the lossy fabric exposes go-back-N to drops and redundant
        # retransmissions whenever congestion control fails to prevent them.
        # (At benchmark scale Timely/DCQCN often avoid drops entirely, which
        # attenuates the FCT gap -- see EXPERIMENTS.md.)  Asserted across
        # every replica via summed counters.
        assert with_pfc["packets_dropped_total"] == 0
        assert without_pfc["pause_frames_total"] == 0
        assert (without_pfc["packets_dropped_total"]
                >= with_pfc["packets_dropped_total"])
        assert (without_pfc["retransmissions_total"]
                >= with_pfc["retransmissions_total"])
