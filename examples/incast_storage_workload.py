#!/usr/bin/env python3
"""Incast with background storage traffic (§4.4.3 of the paper).

A distributed storage read stripes a response across many servers that all
answer the same client at once -- the canonical best case for PFC, since only
the genuinely congestion-causing flows get paused.  This example runs the
incast with and without cross traffic and reports the request completion time
(RCT) and the impact on the background workload.

All scenarios (two fan-ins x two transports, plus the cross-traffic pair)
are independent, so they execute as one parallel sweep.

Run with::

    python examples/incast_storage_workload.py
"""

from repro.experiments import scenarios
from repro.experiments.sweep import run_sweep
from repro.metrics.report import format_incast_table


def main() -> None:
    # Pure incast: vary the fan-in (Figure 9's x axis).  Cross-traffic
    # scenarios ride along in the same sweep under a label prefix.
    fan_ins = (5, 10)
    configs = scenarios.scenario("fig9").with_rows(
        scenarios.incast_rows(fan_ins, total_bytes=2_000_000)
    ).configs()
    cross_incast = {
        "total_bytes": 1_500_000, "fan_in": 8, "destination": "h0", "start_time": 1e-4,
    }
    configs.update({
        "cross-traffic " + label: config
        for label, config in scenarios.scenario("incast_cross_traffic").configs(
            num_flows=80, incast=cross_incast
        ).items()
    })
    sweep = run_sweep(configs)

    print("Pure incast (no cross traffic): RCT of the striped request")
    print(f"{'scheme':<14} {'RCT (ms)':>10}")
    for fan_in in fan_ins:
        for transport in ("RoCE", "IRN"):
            label = f"{transport} M={fan_in}"
            print(f"{label:<14} {sweep[label].incast_rct_s * 1e3:>10.3f}")
    for fan_in in fan_ins:
        ratio = sweep[f"IRN M={fan_in}"].incast_rct_s / sweep[f"RoCE M={fan_in}"].incast_rct_s
        print(f"  fan-in {fan_in}: IRN/RoCE RCT ratio = {ratio:.3f} "
              f"(paper: within a few percent of 1.0)")

    print()
    print(format_incast_table(
        "Incast with cross traffic (50% background load)",
        {label: row for label, row in sweep.rows.items() if label.startswith("cross-traffic")},
    ))


if __name__ == "__main__":
    main()
