"""Time is a unit: scaling every rate by F and every time by 1/F scales every
time in a row by 1/F and leaves every count unchanged, exactly.

Multiplying ``link_bandwidth_bps`` by F and dividing ``link_delay_s``,
``ack_coalesce_us`` and ``max_sim_time_s`` by F keeps byte sizes, so every
serialization time, propagation delay, derived timer (RTOs, DCQCN and Timely
periods, the ACK flush) and event time divides by F.  For F a power of two
that division is exact in binary floating point, so the event order, every
RNG draw and every count are those of the unscaled run, and the row's times
times F are the unscaled times bit for bit: the asserts are ``==``, not
toleranced.  A constant in seconds where a ratio was meant breaks them.

F = 4 is left out on purpose: it takes the DCQCN cells' base RTT under the
absolute floors in ``repro.congestion.factory`` (5 us and 15 us), which do
not scale.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import SCALED_DEFAULTS

SCHEMES = {
    "IRN": dict(transport="irn"),
    "RoCE+PFC": dict(transport="roce", pfc_enabled=True),
    "IRN+DCQCN": dict(transport="irn", congestion_control="dcqcn"),
    "RoCE+DCQCN+PFC": dict(transport="roce", congestion_control="dcqcn", pfc_enabled=True),
    "IRN+Timely": dict(transport="irn", congestion_control="timely"),
    "iWARP": dict(transport="iwarp"),
}

#: Digests of times (scale by 1/F) and of dimensionless values (unchanged).
TIME_DIGESTS = ("fct_digest", "single_packet_digest", "pfc_pause_digest")
UNIT_FREE_DIGESTS = ("queue_depth_digest",)
#: Row fields that name the run rather than measure it.
IDENTITY = ("label", "name", "fingerprint")


def _row(scheme, factor):
    config = ExperimentConfig(
        name=scheme,
        **{**SCALED_DEFAULTS, **SCHEMES[scheme], "num_flows": 40, "seed": 1,
           "fabric_digests": True},
    )
    if factor != 1:
        config = config.with_overrides(
            link_bandwidth_bps=config.link_bandwidth_bps * factor,
            link_delay_s=config.link_delay_s / factor,
            ack_coalesce_us=config.ack_coalesce_us / factor,
            max_sim_time_s=config.max_sim_time_s / factor,
        )
    return run_experiment(config).to_row().to_dict()


@pytest.mark.parametrize("factor", [2, 0.5])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_row_scales_exactly_with_the_time_unit(scheme, factor):
    base, scaled = _row(scheme, 1), _row(scheme, factor)
    assert base["flows_completed"] == base["flows_total"] == 40
    checked = set(IDENTITY)
    for key in TIME_DIGESTS:
        digest, scaled_digest = base[key], scaled[key]
        assert digest["count"] == scaled_digest["count"], key
        for part in ("sum", "min", "max"):
            if digest[part] is None:
                assert scaled_digest[part] is None, (key, part)
            else:
                assert scaled_digest[part] * factor == digest[part], (key, part)
        checked.add(key)
    for key in UNIT_FREE_DIGESTS:
        assert scaled[key] == base[key], key
        checked.add(key)
    for key, value in base.items():
        if key in checked:
            continue
        if key.endswith("_s") and value is not None:
            assert scaled[key] * factor == value, key
        else:
            # Counts, avg_slowdown, flags and fields that stayed None.
            assert scaled[key] == value, key
