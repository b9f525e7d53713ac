"""Property-based tests: data-structure invariants and the fuzz harness.

Two layers:

* **Unit-level properties** (hypothesis over the data structures): bitmaps,
  receivers, RDMA placement, statistics, workload distributions.
* **Whole-simulation invariants** (hypothesis over fuzz seeds): every
  generated case -- arbitrary topology, workload and fault schedule from
  :mod:`repro.verify` -- must satisfy the invariant contract on *both*
  engine cores (see ``docs/architecture.md``).  Each invariant gets its own
  test so a violation names the property, not just the seed.

The fuzz layer keeps ``max_examples`` small: this is tier-1's fast smoke
slice.  CI's dedicated fuzz job (``python -m repro.verify``) runs the same
harness at 50+ cases per PR and deeper nightly via ``REPRO_FUZZ_BUDGET``.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.irn import IrnConfig, IrnReceiver
from repro.core.transport import Flow
from repro.hw.bitmap import RingBitmap, TwoBitmap
from repro.metrics.stats import percentile
from repro.rdma import (
    MemoryRegion,
    OpType,
    Requester,
    RequesterConfig,
    RequestWqe,
    Responder,
    ResponderConfig,
)
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType
from repro.verify import FuzzCase, check_case, known_bad_case, run_case
from repro.workload.distributions import HeavyTailedSizes, UniformSizes
from tests.helpers import ENGINES

ENGINE_CORES = tuple(ENGINES)


# ---------------------------------------------------------------------------
# Bitmap invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=127), max_size=60))
def test_ring_bitmap_occupancy_matches_distinct_sets(seqs):
    bitmap = RingBitmap(128)
    for seq in seqs:
        bitmap.set(seq)
    assert bitmap.occupancy() == len(set(seqs))
    assert bitmap.set_bits() == sorted(set(seqs))


@given(st.lists(st.integers(min_value=0, max_value=127), max_size=60))
def test_ring_bitmap_find_first_zero_is_first_gap(seqs):
    bitmap = RingBitmap(128)
    present = set(seqs)
    for seq in seqs:
        bitmap.set(seq)
    expected = 0
    while expected in present:
        expected += 1
    assert bitmap.find_first_zero() == min(expected, 128)


@given(
    st.lists(st.integers(min_value=0, max_value=127), max_size=60),
    st.integers(min_value=0, max_value=128),
)
def test_ring_bitmap_shift_conserves_bits(seqs, shift_by):
    bitmap = RingBitmap(128)
    for seq in seqs:
        bitmap.set(seq)
    before = bitmap.occupancy()
    shifted_out = bitmap.shift(shift_by)
    assert shifted_out + bitmap.occupancy() == before
    assert bitmap.head_seq == shift_by


@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=40))
def test_two_bitmap_advance_never_exceeds_recorded(entries):
    bitmap = TwoBitmap(64)
    recorded = {}
    for seq, last in entries:
        if seq not in recorded:
            bitmap.record(seq, last)
            recorded[seq] = last
    passed, messages = bitmap.advance()
    assert messages <= passed
    assert passed <= len(recorded)


# ---------------------------------------------------------------------------
# Receiver invariants: any arrival order delivers the flow exactly once
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=40)
@given(st.permutations(list(range(12))), st.booleans())
def test_irn_receiver_completes_under_any_arrival_order(order, duplicate_some):
    sim = Simulator()
    flow = Flow(flow_id=1, src="h0", dst="h1", size_bytes=12_000)
    receiver = IrnReceiver(sim, flow, IrnConfig(mtu_bytes=1000))
    completions = []
    receiver.on_complete = lambda f, t: completions.append(t)
    for index, psn in enumerate(order):
        packet = Packet(PacketType.DATA, 1, "h0", "h1", psn=psn, payload_bytes=1000)
        receiver.on_data(packet, now=index * 1e-6)
        if duplicate_some and psn % 3 == 0:
            receiver.on_data(packet, now=index * 1e-6 + 1e-9)
    assert receiver.completed
    assert receiver.expected_psn == 12
    assert receiver.delivered_packets == 12
    assert len(completions) == 1


@settings(deadline=None, max_examples=40)
@given(st.permutations(list(range(10))))
def test_irn_receiver_cumulative_ack_is_monotone(order):
    sim = Simulator()
    flow = Flow(flow_id=1, src="h0", dst="h1", size_bytes=10_000)
    receiver = IrnReceiver(sim, flow, IrnConfig(mtu_bytes=1000))
    last_cum = 0
    for index, psn in enumerate(order):
        packet = Packet(PacketType.DATA, 1, "h0", "h1", psn=psn, payload_bytes=1000)
        for response in receiver.on_data(packet, now=index * 1e-6):
            assert response.cumulative_ack >= last_cum
            last_cum = max(last_cum, response.cumulative_ack)
    assert receiver.expected_psn == 10


# ---------------------------------------------------------------------------
# RDMA responder placement invariant: payload bytes always land at the right
# address, no matter how the packets are ordered.
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=0, max_value=200),
    st.randoms(use_true_random=False),
)
def test_rdma_write_placement_is_order_independent(length, addr, rng):
    requester = Requester(RequesterConfig(mtu_bytes=64))
    responder = Responder(ResponderConfig(mtu_bytes=64))
    region = MemoryRegion(1024, rkey=1)
    responder.register_memory(region)
    payload = bytes((i * 7 + 3) % 256 for i in range(length))
    packets = requester.post(
        RequestWqe(op=OpType.WRITE, local_data=payload, remote_addr=addr, rkey=1)
    )
    rng.shuffle(packets)
    for packet in packets:
        responder.on_request(packet)
    assert region.read(addr, length) == payload
    assert responder.expected_psn == len(packets)


# ---------------------------------------------------------------------------
# Statistics and workload invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
       st.floats(min_value=0, max_value=1))
def test_percentile_bounded_by_min_and_max(values, fraction):
    result = percentile(values, fraction)
    assert min(values) <= result <= max(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_percentile_is_monotone_in_fraction(values):
    assert percentile(values, 0.2) <= percentile(values, 0.8)


@given(st.integers(min_value=0, max_value=2 ** 32), st.floats(min_value=0.05, max_value=1.0))
def test_heavy_tailed_samples_stay_in_band_ranges(seed, scale):
    dist = HeavyTailedSizes(scale=scale)
    rng = random.Random(seed)
    lows = min(band[1] for band in dist.bands)
    highs = max(band[2] for band in dist.bands)
    for _ in range(20):
        sample = dist.sample(rng)
        assert 1 <= sample <= highs + 1
        assert sample >= min(1, lows)


@given(st.integers(min_value=0, max_value=2 ** 32))
def test_uniform_samples_within_bounds(seed):
    dist = UniformSizes(1_000, 9_000)
    rng = random.Random(seed)
    for _ in range(20):
        assert 1_000 <= dist.sample(rng) <= 9_000


# ===========================================================================
# Whole-simulation invariants over fuzzed cases (repro.verify)
# ===========================================================================
#: Small seed band so the cached outcomes below are shared across the
#: per-invariant tests; derandomize keeps tier-1 byte-stable run to run.
fuzz_seeds = st.integers(min_value=0, max_value=31)
FUZZ_SETTINGS = dict(deadline=None, max_examples=8, derandomize=True)


@lru_cache(maxsize=256)
def _fuzz_outcome(seed, queue):
    """One execution per (seed, core), shared by every invariant test."""
    return FuzzCase.generate(seed), run_case(FuzzCase.generate(seed), ENGINES[queue])


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_clock_is_monotone(queue, seed):
    _, outcome = _fuzz_outcome(seed, queue)
    times = [time for time, _ in outcome.trace]
    assert times == sorted(times)


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_event_accounting_identity(queue, seed):
    _, outcome = _fuzz_outcome(seed, queue)
    assert outcome.events_scheduled == (
        outcome.events_processed + outcome.events_cancelled + outcome.pending_events
    )


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_lossless_ports_never_drop(queue, seed):
    case, outcome = _fuzz_outcome(seed, queue)
    if case.pfc_enabled:
        # Fault drops count: the fuzzer never aims packet-touching faults
        # at a lossless fabric, so both counters must stay zero.
        assert outcome.switch_drops + outcome.fault_drops == 0
    else:
        assert outcome.fault_drops >= 0


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_packet_conservation_at_drain(queue, seed):
    _, outcome = _fuzz_outcome(seed, queue)
    if not outcome.drained:
        pytest.skip("run hit the event valve; conservation needs full drain")
    assert outcome.packets_committed == (
        outcome.packets_delivered
        + outcome.switch_drops
        + outcome.fault_drops
        + outcome.queued_packets
    )


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_per_qp_delivery_order_preserved(queue, seed):
    _, outcome = _fuzz_outcome(seed, queue)
    assert outcome.ordering_violations == []


@pytest.mark.parametrize("queue", ENGINE_CORES)
@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_completions_are_sane(queue, seed):
    _, outcome = _fuzz_outcome(seed, queue)
    assert outcome.flows_completed <= outcome.flows_total
    assert outcome.completions_recorded == outcome.flows_completed


@settings(**FUZZ_SETTINGS)
@given(seed=fuzz_seeds)
def test_fuzz_calendar_and_heap_execute_identical_orders(seed):
    _, calendar = _fuzz_outcome(seed, "calendar")
    _, heap = _fuzz_outcome(seed, "heap")
    assert calendar.trace == heap.trace
    assert calendar.events_scheduled == heap.events_scheduled
    assert calendar.events_processed == heap.events_processed
    assert calendar.packets_delivered == heap.packets_delivered
    assert calendar.switch_drops == heap.switch_drops
    assert calendar.fault_drops == heap.fault_drops
    assert calendar.deadlock_events == heap.deadlock_events
    assert calendar.time_to_deadlock_s == heap.time_to_deadlock_s


def test_known_bad_case_is_caught_by_losslessness_invariant():
    """The seeded known-bad config (corruption injected on a lossless link)
    must trip the losslessness invariant -- the harness's proof it can still
    detect the bug class it exists for."""
    report = check_case(known_bad_case())
    assert not report.passed
    assert any("losslessness violated" in v for v in report.violations)
