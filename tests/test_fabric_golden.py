"""Golden ResultRow pins for the fabric per-hop path.

Recorded at commit d61a419 (the parent of the per-hop fast-path rewrite),
*before* ``repro.sim`` was touched: sha256 over the whole serialized
:class:`ResultRow` -- headline metrics, fabric counters, digest payloads and
``events_processed``, floats kept to 12 significant digits -- for a small
matrix that puts a cell on each side of every condition the switch fast path
tests:

* ``fig1`` both cells (PFC thresholds on / drops on, idle and busy ports mixed),
* ``fig9`` ``M=15`` both cells (queues that never idle: almost no cut-through),
* one DCQCN cell (RED marking: RNG draw order) and one Timely cell,
* a packet-spray fabric (uncached routing, installed by *reassigning*
  ``switch.routing`` after the build),
* a fabric with ``max_batch_packets = 1`` (the ``batch1-*`` cells, which are
  what covers the armed wake-up pull: every committed packet hits the batch
  limit, so the pull must be armed),
* ``availability_flap`` (fault and recovery taps wrapping ``receive``),
* one ``fabric_digests=True`` cell (the queue-depth sample values).

Nine more cells were added later, recorded at commit 8f225a5 (the parent of
the single-scheduler change) so they also prove that change moved nothing:

* ``wan_incast``, all four cells at seed 1 (long-haul delays 100x and 1000x
  the intra-DC hop, c-latency digests),
* the ``cross_dc`` "IRN ... 1000x" cell (two fat trees bridged by long-haul
  links, 60 flows, seed 2),
* the ``fig1`` IRN cell at ``ack_coalesce_n`` 1 and 4 (per-packet ACKs and
  the coalesced default, 40 flows, seed 1),
* ``availability_flap`` IRN and RoCE cells carrying one window of each of
  the four fault kinds (``FAULT_PLAN``: flap, corruption, degraded link,
  pause storm; 40 flows, seed 1).

The two ``jumbo-*`` cells (``fig1`` at a 9000 B MTU, 60 flows, seed 1: the
jumbo-MTU PFC headroom derivation) were recorded at commit ab3df27, the
parent of the removal of the byte-capped departure batch and the pacing
quantum, so they also prove that removal moved nothing.

Seven cells, one per transport variant or transport setting the cells
above leave out, were recorded at commit 122207c, the parent of the
one-builder-per-run transport wiring, so they also prove that change moved
nothing.  Each drops or retransmits, so its variant-specific path runs:

* ``fig7`` "IRN with Go-Back-N" (80 flows, seed 2) and "IRN without
  BDP-FC" (40 flows, seed 1),
* ``no_sack`` "IRN without SACK" (80 flows, seed 2),
* ``fig11`` "iWARP" (80 flows, seed 2),
* ``fig12`` "IRN (worst-case overheads)" (80 flows, seed 2: retransmissions
  that pay the PCIe fetch delay),
* ``fig3`` "RoCE without PFC" and ``fig10`` "Resilient RoCE" (40 flows,
  seed 1: RoCE's go-back-N with ACKs and a fixed timeout).

A pin that moves means an event, an RNG draw or a ``(time, seq)`` ordering
moved.  ``python -m tests.test_fabric_golden`` prints the table again.

Why 12 digits: the simulation itself is bit-identical on CPython 3.10 to
3.13.  ``avg_fct_s`` and ``avg_slowdown`` used to be ``sum(...) / n``, and
3.12 made ``sum()`` of floats compensated, which moved their last digit.
They are now left-to-right running sums over the collector's stream, and by
hand the unrounded digests of all 35 cells match on CPython 3.10.13, 3.11.7,
3.12.1 and 3.13.0; until CI's 3.12 leg confirms it, the rounding stays.  The
pins hold on every interpreter CI runs.
"""

import contextlib
import hashlib
import itertools
import json
from unittest import mock

import pytest

from repro.experiments import runner
from repro.experiments.spec import scenario
from repro.sim import packet as packet_module


def _spray(network):
    network.build_routing(packet_spray=True)


def _batch_of_one(network):
    for port in network.output_ports():
        port.max_batch_packets = 1


#: One window of every fault kind, aimed at the dumbbell bottleneck.
FAULT_PLAN = {
    "faults": [
        dict(kind="link_flap", src="s0", dst="s1", start_s=100e-6, end_s=200e-6),
        dict(kind="packet_corruption", src="s1", dst="s0",
             probability=0.05, start_s=50e-6, end_s=400e-6),
        dict(kind="degraded_link", src="s0", dst="s1", start_s=250e-6, end_s=450e-6,
             bandwidth_factor=0.5, delay_factor=2.0),
        dict(kind="pause_storm", src="h0", dst="s0", start_s=120e-6, end_s=180e-6),
    ]
}

#: name -> (scenario, cell label, config overrides, fabric tweak or None)
CELLS = {
    "fig1-roce-s1": ("fig1", "RoCE (with PFC)", dict(num_flows=30, seed=1), None),
    "fig1-irn-s1": ("fig1", "IRN (without PFC)", dict(num_flows=30, seed=1), None),
    "fig1-roce-s2": ("fig1", "RoCE (with PFC)", dict(num_flows=30, seed=2), None),
    "fig1-irn-s2": ("fig1", "IRN (without PFC)", dict(num_flows=30, seed=2), None),
    "fig9-roce-m15": ("fig9", "RoCE M=15", dict(seed=1), None),
    "fig9-irn-m15": ("fig9", "IRN M=15", dict(seed=1), None),
    "fig4-roce-dcqcn": ("fig4", "RoCE +dcqcn", dict(num_flows=40, seed=1), None),
    "fig4-irn-dcqcn": ("fig4", "IRN +dcqcn", dict(num_flows=40, seed=1), None),
    "fig4-irn-timely": ("fig4", "IRN +timely", dict(num_flows=20, seed=1), None),
    "spray-irn": ("fig1", "IRN (without PFC)", dict(num_flows=20, seed=3), _spray),
    "spray-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=20, seed=3), _spray),
    "jumbo-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=60, seed=1, mtu_bytes=9000), None),
    "jumbo-irn": ("fig1", "IRN (without PFC)", dict(num_flows=60, seed=1, mtu_bytes=9000), None),
    "batch1-roce": ("fig1", "RoCE (with PFC)", dict(num_flows=20, seed=4), _batch_of_one),
    "batch1-irn": ("fig1", "IRN (without PFC)", dict(num_flows=20, seed=4), _batch_of_one),
    "flap-roce": ("availability_flap", "4 flaps|RoCE (with PFC)",
                  dict(num_flows=120, seed=1), None),
    "flap-irn": ("availability_flap", "4 flaps|IRN (without PFC)",
                 dict(num_flows=120, seed=1), None),
    "digests-roce": ("fig1", "RoCE (with PFC)",
                     dict(num_flows=30, seed=5, fabric_digests=True), None),
    "digests-irn": ("fig1", "IRN (without PFC)",
                    dict(num_flows=30, seed=5, fabric_digests=True), None),
    "wan-incast-roce-100x": ("wan_incast", "RoCE (with PFC) 100x", dict(seed=1), None),
    "wan-incast-irn-100x": ("wan_incast", "IRN (without PFC) 100x", dict(seed=1), None),
    "wan-incast-roce-1000x": ("wan_incast", "RoCE (with PFC) 1000x", dict(seed=1), None),
    "wan-incast-irn-1000x": ("wan_incast", "IRN (without PFC) 1000x", dict(seed=1), None),
    "cross-dc-irn-1000x": ("cross_dc", "IRN (without PFC) 1000x",
                           dict(num_flows=60, seed=2), None),
    "fig1-irn-ack1": ("fig1", "IRN (without PFC)",
                      dict(num_flows=40, seed=1, ack_coalesce_n=1), None),
    "fig1-irn-ack4": ("fig1", "IRN (without PFC)",
                      dict(num_flows=40, seed=1, ack_coalesce_n=4), None),
    "faults-roce": ("availability_flap", "1 flap|RoCE (with PFC)",
                    dict(num_flows=40, seed=1, fault_plan=FAULT_PLAN), None),
    "faults-irn": ("availability_flap", "1 flap|IRN (without PFC)",
                   dict(num_flows=40, seed=1, fault_plan=FAULT_PLAN), None),
    "fig7-irn-go-back-n": ("fig7", "IRN with Go-Back-N", dict(num_flows=80, seed=2), None),
    "fig7-irn-no-bdpfc": ("fig7", "IRN without BDP-FC", dict(num_flows=40, seed=1), None),
    "no-sack-irn": ("no_sack", "IRN without SACK", dict(num_flows=80, seed=2), None),
    "fig11-iwarp": ("fig11", "iWARP", dict(num_flows=80, seed=2), None),
    "fig12-irn-worst-case": ("fig12", "IRN (worst-case overheads)",
                             dict(num_flows=80, seed=2), None),
    "fig3-roce-no-pfc": ("fig3", "RoCE without PFC", dict(num_flows=40, seed=1), None),
    "fig10-resilient-roce": ("fig10", "Resilient RoCE", dict(num_flows=40, seed=1), None),
}

PINS = {
    "fig1-roce-s1": "50b8e55b5da7f95dfd7aae5557d3fa7b97b833f8a6db0d899437368c5ae266a3",
    "fig1-irn-s1": "0eb56609dc13543e0e34f5ad97ac9dc27dff448fdb9ff4f413e357824278c34a",
    "fig1-roce-s2": "5c7fb16581cd6bcbb5bbb319650f00b54207aa12db57506aeea17c24625fc24a",
    "fig1-irn-s2": "cbe638df6e76f675a4797e0301426fb239af7c5eebdf843131729615cc085acd",
    "fig9-roce-m15": "ee4db7d4c64e43418a37c88a21703b1fcca4a05202cddd828a67c84138979e13",
    "fig9-irn-m15": "b5800cc86072d9c58f075a1a6347ac1ffd63475d1527886caa67c271968d84dd",
    "fig4-roce-dcqcn": "7a166a8c2b00e38fb3a071da5071b8f834449e90343eb9a47001cddc9b585d09",
    "fig4-irn-dcqcn": "de07abe8b02ff16819c5e5929643a87ea1a9468035fda79eaae8e4164b8b80cf",
    "fig4-irn-timely": "045d5d5bfaa52d9c12b99eed34eccc4a5f2bc0f2b11a869f49b356fd8437a86b",
    "spray-irn": "e9572bfa763a2a356f2415a77d9000a8158f9396cbc71ffb9bd419aeed5bf7bc",
    "spray-roce": "d8d1ce10696a0f1a8b58b9fbd027fb290064f7d19f70f6060bedd5238dfa3828",
    "jumbo-roce": "954675d633550e417c8f37f907f6d60310be97516a750e3050f44af82c83fdd6",
    "jumbo-irn": "0d4cf5e1d57fb8b58daacd6abf1230f5f9d3976fa7597598aaf8829fc290a4c0",
    "batch1-roce": "f02f145b6d5343c607308ab4fe3f8e0f99bdcada29739df4aefde48cb05bef95",
    "batch1-irn": "774bd491dda584a808e8eb89ac7fe6ea07103cb4c0627e97f38f4a4a82b6d295",
    "flap-roce": "6c9908eebcada24e80e39f7bc41159ac8a7f06b4b7cb8bf130c94f64bc79e5b9",
    "flap-irn": "a7af1a1ceb22b695106ad5cae013aab4b86db3333bd81d5171653239487dd0f4",
    "digests-roce": "756cf5ad3979184d5db65261113396dca8015e2ed8628a888377797f246a0776",
    "digests-irn": "4f5095a642d8e2274c09aadef19c0eb90d67a30925ce805488928ef0ef1fd4db",
    "wan-incast-roce-100x": "4e29b4fcd83f730199fc63ee5fe1896b7605c83f40165565cbeae7f20102985f",
    "wan-incast-irn-100x": "c73da1581e717c1eaa483fe71e8b043d7c40b9ade23332fe4362df76c11cf471",
    "wan-incast-roce-1000x": "675b4fee21a90ef67db8b7c7057ccdc1083fdc5d75f119997b1601c9441a4b71",
    "wan-incast-irn-1000x": "27af787b70c141e652d214c244cb983ec1f4ab3df791d3448e162e09122d8627",
    "cross-dc-irn-1000x": "3c2a7ad1992046a02e1a96107facc4c854a7501bede49822755845b05495b460",
    "fig1-irn-ack1": "4fd4c5c96b44b9221a7a9b7095a1754bd039aace97b0864923e2e3a933954099",
    "fig1-irn-ack4": "b2dec669b5e29cc90ac99817a7ba63fd8edb6f2977279f4fdedb586bae695672",
    "faults-roce": "b4c1d48ca2aa889448f2870dbc0bda003deaea35bd1cc660c112fb6bafd45226",
    "faults-irn": "2646b3131db94873a508b1b757f295a86e1f39c3e96f3eec472f5f074f684dd8",
    "fig7-irn-go-back-n": "23451c7b9ea26d893e4333e7217a5da576297baf3925d947d94aa2f03a6aad90",
    "fig7-irn-no-bdpfc": "6b93e325f6f7ec9a3ccc3e76577429562fc71e816789168870e7902e089624c3",
    "no-sack-irn": "f1ad6fa8c091e8fb932b338f69b3bb6bc7687b8a4b02625f27e08863dfea285e",
    "fig11-iwarp": "c2c8c42ebc8faadcd282cb13c99d7da651cf757bf9f6f45b7d0abcb7c9873df4",
    "fig12-irn-worst-case": "ea99a14806c494765a4f1c00bdd6660c02ecd17119ea143e364c10c5b3117378",
    "fig3-roce-no-pfc": "bc0b4f7485ef49750555ed22b8771afdddc5866d0742762c8df75792db47c492",
    "fig10-resilient-roce": "8ca0498a45b3b172689df9b3a473c59dc593c01f36cafa8d3555add2b65b7ea2",
}


def _canonical(value):
    """``value`` with every float rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _digest(name):
    scenario_name, label, overrides, tweak = CELLS[name]
    config = scenario(scenario_name).configs(**overrides)[label]
    patch = contextlib.nullcontext()
    if tweak is not None:
        build = runner._build_network

        def build_and_tweak(sim, cfg):
            network = build(sim, cfg)
            tweak(network)
            return network

        patch = mock.patch.object(runner, "_build_network", build_and_tweak)
    # Packet spraying hashes ``Packet.uid``, a process-wide counter: start it
    # from zero so the row does not depend on which tests ran before.
    with patch, mock.patch.object(packet_module, "_packet_ids", itertools.count()):
        row = runner.run_experiment(config).to_row(label=label)
    payload = json.dumps(_canonical(row.to_dict()), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_row_digest_is_pinned(name):
    assert _digest(name) == PINS[name], f"{name}: the ResultRow moved"


if __name__ == "__main__":
    for cell in CELLS:
        print(f'    "{cell}": "{_digest(cell)}",')
