"""``fabric_digests`` must be pure observation: byte-neutral results.

Turning the §4.4 fabric probes on changes *what the row carries* (the two
digest payloads, and therefore the fingerprint) but must never perturb the
physics: every other :class:`ResultRow` field -- FCTs, drops, pauses,
deadlocks, event counts -- has to come out byte-identical.  Checked across
25 fuzzed configs spanning every registered topology, both transports and
both PFC settings.
"""

import random

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

#: Fields legitimately affected by the knob: the digests it collects, and
#: the fingerprint (``fabric_digests`` joins it once enabled so a
#: digest-collecting sweep is never served digest-less cached rows).
DIGEST_ONLY_FIELDS = ("queue_depth_digest", "pfc_pause_digest", "fingerprint")


def _fuzzed_config(seed: int) -> ExperimentConfig:
    rng = random.Random(seed)
    topology = rng.choice(("star", "dumbbell", "parking_lot", "ring"))
    transport = rng.choice(("irn", "roce"))
    return ExperimentConfig(
        name=f"digest-fuzz-{seed}",
        topology=topology,
        ring_switches=3,
        num_hosts=rng.choice((4, 6, 8)),
        transport=transport,
        pfc_enabled=rng.random() < 0.5,
        workload=rng.choice(("fixed", "uniform")),
        fixed_size_bytes=rng.randrange(2_000, 20_000, 1000),
        uniform_low_bytes=2_000,
        uniform_high_bytes=20_000,
        num_flows=rng.randint(4, 10),
        target_load=rng.choice((0.3, 0.5, 0.7)),
        seed=seed,
        max_sim_time_s=0.004,
    )


@pytest.mark.parametrize("seed", range(25))
def test_fabric_digests_are_byte_neutral(seed):
    config = _fuzzed_config(seed)
    row_off = run_experiment(config)
    row_on = run_experiment(config.with_overrides(fabric_digests=True))

    assert row_off.queue_depth_digest is None
    assert row_on.queue_depth_digest is not None

    payload_off = row_off.to_dict()
    payload_on = row_on.to_dict()
    for field in DIGEST_ONLY_FIELDS:
        payload_off.pop(field, None)
        payload_on.pop(field, None)
    assert payload_off == payload_on


def test_optional_taps_are_absent_when_switched_off():
    """No fault plan, no recovery tracking, ``fabric_digests`` off: nothing
    wraps any link's ``arrive`` or any node's ``receive`` and no probe is
    attached, so the per-hop path pays one ``is not None`` test per probe
    and nothing else."""
    config = _fuzzed_config(3)
    assert config.fault_plan is None and not config.fabric_digests
    network = run_experiment(config).collector.network

    assert network.links
    for link in network.links:
        assert link.arrive == link.dst.receive, f"{link.name}: arrive is wrapped"
        assert link.arrive.__self__ is link.dst
    for node in list(network.hosts.values()) + list(network.switches.values()):
        assert "receive" not in vars(node), f"{node.name}: receive is wrapped"
    for switch in network.switches.values():
        assert switch.queue_depth_digest is None
    ports = list(network.output_ports())
    assert ports
    for port in ports:
        assert port.pause_digest is None
