"""Tests for PFC primitives and switch-level pause behaviour."""

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


class TestHeadroomForLink:
    def test_budget_is_the_historical_formula(self):
        from repro.sim.link import DEFAULT_PORT_BATCH

        for bandwidth, delay, mtu in ((40e9, 2e-6, 1000), (10e9, 1e-6, 9000)):
            in_flight = 2.0 * bandwidth * delay / 8.0
            expected = int(in_flight + (2 * DEFAULT_PORT_BATCH + 1) * mtu + 64)
            assert headroom_for_link(bandwidth, delay, mtu) == expected

    def test_jumbo_mtu_budgets_full_packet_batches(self):
        # Each MTU byte is budgeted nine times: two committed batches of
        # DEFAULT_PORT_BATCH (4) packets plus one packet in serialization.
        standard = headroom_for_link(40e9, 2e-6, mtu_bytes=1000)
        jumbo = headroom_for_link(40e9, 2e-6, mtu_bytes=9000)
        assert jumbo - standard == 9 * (9000 - 1000)

    def test_headroom_scales_with_delay(self):
        # Each extra microsecond of one-way delay adds a round trip's worth
        # of line-rate bytes: 2 * 40e9 * 1e-6 / 8 = 10 KB.
        assert headroom_for_link(40e9, 3e-6) - headroom_for_link(40e9, 2e-6) == 10_000
