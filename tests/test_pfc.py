"""Tests for PFC primitives and switch-level pause behaviour."""

import pytest

from repro.sim.pfc import PfcConfig, PfcState, headroom_for_link


class TestPfcConfig:
    def test_pause_threshold_is_buffer_minus_headroom(self):
        config = PfcConfig(enabled=True, headroom_bytes=20_000)
        assert config.pause_threshold(240_000) == 220_000

    def test_threshold_never_negative(self):
        config = PfcConfig(headroom_bytes=50_000)
        assert config.pause_threshold(10_000) == 0

    def test_resume_threshold_matches_pause_threshold(self):
        config = PfcConfig(headroom_bytes=10_000)
        assert config.resume_threshold(100_000) == config.pause_threshold(100_000)

    def test_headroom_covers_in_flight_bytes(self):
        # 40 Gbps, 2 us propagation: 2 * 40e9 * 2e-6 / 8 = 20 KB of in-flight
        # data plus slack for packets in serialization.
        headroom = headroom_for_link(40e9, 2e-6, mtu_bytes=1000)
        assert headroom >= 20_000
        assert headroom <= 30_000

    def test_headroom_scales_with_bandwidth(self):
        assert headroom_for_link(100e9, 2e-6) > headroom_for_link(10e9, 2e-6)


class TestPfcState:
    def test_frame_counters(self):
        state = PfcState()
        state.mark_paused()
        state.mark_resumed()
        state.mark_paused()
        assert state.pause_frames_sent == 2
        assert state.resume_frames_sent == 1


class TestHeadroomWithByteCap:
    def test_unset_cap_is_byte_identical_to_historical_budget(self):
        from repro.sim.link import DEFAULT_PORT_BATCH

        for bandwidth, delay, mtu in ((40e9, 2e-6, 1000), (10e9, 1e-6, 9000)):
            in_flight = 2.0 * bandwidth * delay / 8.0
            expected = int(in_flight + (2 * DEFAULT_PORT_BATCH + 1) * mtu + 64)
            assert headroom_for_link(bandwidth, delay, mtu) == expected
            assert headroom_for_link(bandwidth, delay, mtu, port_batch_bytes=None) == expected

    def test_byte_cap_shrinks_the_batch_budget(self):
        # Jumbo MTU: the 4-packet batch budget is 36 KB of burst; a 9 KB
        # byte cap bounds one batch at cap + one straddling MTU instead.
        uncapped = headroom_for_link(40e9, 2e-6, mtu_bytes=9000)
        capped = headroom_for_link(40e9, 2e-6, mtu_bytes=9000, port_batch_bytes=9000)
        assert capped < uncapped
        assert uncapped - capped == 2 * (4 * 9000 - (9000 + 9000))

    def test_loose_cap_changes_nothing(self):
        # A cap wider than the packet-count batch cannot grow the budget.
        assert headroom_for_link(40e9, 2e-6, 1000, port_batch_bytes=1_000_000) == \
            headroom_for_link(40e9, 2e-6, 1000)
