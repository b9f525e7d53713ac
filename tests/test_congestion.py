"""Unit tests for the congestion-control algorithms."""

import pytest

from repro.congestion.base import NoCongestionControl, RateBasedControl
from repro.congestion.dcqcn import Dcqcn, DcqcnParams
from repro.congestion.factory import make_congestion_control
from repro.congestion.timely import Timely, TimelyParams
from repro.congestion.window import AimdParams, AimdWindow, DctcpParams, DctcpWindow


class TestRateBasedPacing:
    def test_no_cc_is_unconstrained(self):
        cc = NoCongestionControl()
        assert cc.next_send_time(5.0) == 5.0
        assert cc.window_limit(42.0) == 42.0
        assert cc.current_rate_bps() == float("inf")

    def test_pacing_gap_matches_rate(self):
        cc = RateBasedControl(line_rate_bps=8e9)
        cc.on_packet_sent(8_000, now=0.0)   # 1 us at 8 Gbps
        assert cc.next_send_time(0.0) == pytest.approx(1e-6)

    def test_gap_halves_rate_doubles(self):
        cc = RateBasedControl(line_rate_bps=8e9)
        cc.rate_bps = 4e9
        cc.on_packet_sent(8_000, now=0.0)
        assert cc.next_send_time(0.0) == pytest.approx(2e-6)

    def test_back_to_back_sends_queue_their_gaps(self):
        cc = RateBasedControl(line_rate_bps=8e9)
        cc.on_packet_sent(8_000, now=0.0)
        cc.on_packet_sent(8_000, now=0.0)
        assert cc.next_send_time(0.0) == pytest.approx(2e-6)

    def test_idle_gap_earns_no_send_credit(self):
        # Strict per-packet pacing: a sender that was idle past its release
        # time paces its next packet from now, not from the missed slot.
        cc = RateBasedControl(line_rate_bps=8e9)
        cc.on_packet_sent(8_000, now=0.0)
        cc.on_packet_sent(8_000, now=10e-6)
        assert cc.next_send_time(10e-6) == pytest.approx(11e-6)

    def test_clamp_rate(self):
        cc = RateBasedControl(line_rate_bps=1e9, min_rate_bps=1e6)
        cc.rate_bps = 1e12
        cc.clamp_rate()
        assert cc.rate_bps == 1e9
        cc.rate_bps = 0.0
        cc.clamp_rate()
        assert cc.rate_bps == 1e6

    def test_invalid_line_rate_rejected(self):
        with pytest.raises(ValueError):
            RateBasedControl(0.0)


class TestDcqcn:
    def test_cnp_cuts_rate(self):
        cc = Dcqcn(10e9)
        cc.on_cnp(now=1e-3)
        assert cc.rate_bps < 10e9
        assert cc.rate_cuts == 1

    def test_repeated_cnps_cut_harder(self):
        cc = Dcqcn(10e9)
        cc.on_cnp(now=1e-3)
        rate_after_one = cc.rate_bps
        cc.on_cnp(now=1.1e-3)
        assert cc.rate_bps < rate_after_one

    def test_rate_recovers_toward_target_after_quiet_period(self):
        params = DcqcnParams(rate_increase_timer_s=10e-6, alpha_timer_s=10e-6)
        cc = Dcqcn(10e9, params)
        cc.on_cnp(now=0.0)
        dropped = cc.rate_bps
        cc.on_ack(rtt=1e-5, now=500e-6)
        assert cc.rate_bps > dropped

    def test_rate_never_exceeds_line_rate(self):
        params = DcqcnParams(rate_increase_timer_s=1e-6)
        cc = Dcqcn(10e9, params)
        cc.on_cnp(now=0.0)
        cc.on_ack(rtt=1e-5, now=1.0)
        assert cc.rate_bps <= 10e9

    def test_alpha_decays_without_cnps(self):
        cc = Dcqcn(10e9)
        cc.on_cnp(now=0.0)
        alpha_after_cnp = cc.alpha
        cc.on_ack(rtt=1e-5, now=10e-3)
        assert cc.alpha < alpha_after_cnp

    def test_rate_floor(self):
        cc = Dcqcn(10e9)
        for i in range(200):
            cc.on_cnp(now=i * 1e-6)
        assert cc.rate_bps >= cc.min_rate_bps


class TestTimely:
    def params(self):
        return TimelyParams(t_low_s=50e-6, t_high_s=500e-6, min_rtt_s=20e-6,
                            additive_increase_fraction=0.01)

    def test_low_rtt_increases_rate(self):
        cc = Timely(10e9, self.params())
        cc.rate_bps = 5e9
        cc.on_ack(rtt=30e-6, now=0.0)
        cc.on_ack(rtt=30e-6, now=1e-5)
        assert cc.rate_bps > 5e9

    def test_high_rtt_decreases_rate(self):
        cc = Timely(10e9, self.params())
        cc.on_ack(rtt=100e-6, now=0.0)
        cc.on_ack(rtt=900e-6, now=1e-5)
        assert cc.rate_bps < 10e9
        assert cc.decreases >= 1

    def test_rising_gradient_in_band_decreases_rate(self):
        cc = Timely(10e9, self.params())
        for i, rtt in enumerate((100e-6, 150e-6, 220e-6, 300e-6)):
            cc.on_ack(rtt=rtt, now=i * 1e-5)
        assert cc.rate_bps < 10e9

    def test_falling_gradient_in_band_increases_rate(self):
        cc = Timely(10e9, self.params())
        cc.rate_bps = 1e9
        for i, rtt in enumerate((300e-6, 250e-6, 200e-6, 150e-6)):
            cc.on_ack(rtt=rtt, now=i * 1e-5)
        assert cc.rate_bps > 1e9

    def test_ignores_nonpositive_rtt(self):
        cc = Timely(10e9, self.params())
        cc.on_ack(rtt=0.0, now=0.0)
        assert cc.rtt_samples == 0


class TestWindowBased:
    def test_aimd_slow_start_growth(self):
        cc = AimdWindow(AimdParams(initial_window=1, slow_start=True))
        for _ in range(4):
            cc.on_ack(rtt=1e-5, now=0.0)
        assert cc.cwnd == pytest.approx(5.0)

    def test_aimd_halves_on_loss(self):
        cc = AimdWindow(AimdParams(initial_window=16, slow_start=False))
        cc.on_loss(now=0.0)
        assert cc.cwnd == pytest.approx(8.0)

    def test_aimd_timeout_collapses_to_min(self):
        cc = AimdWindow(AimdParams(initial_window=16))
        cc.on_timeout(now=0.0)
        assert cc.cwnd == 1.0

    def test_aimd_window_limit(self):
        cc = AimdWindow(AimdParams(initial_window=4))
        assert cc.window_limit(100.0) == 4.0
        assert cc.window_limit(2.0) == 2.0

    def test_dctcp_cut_scales_with_marking_fraction(self):
        heavy = DctcpWindow(DctcpParams(initial_window=10))
        light = DctcpWindow(DctcpParams(initial_window=10))
        for i in range(10):
            heavy.on_ack(rtt=1e-5, now=0.0, ecn_echo=True)
            light.on_ack(rtt=1e-5, now=0.0, ecn_echo=(i == 0))
        assert heavy.cwnd < light.cwnd

    def test_dctcp_no_marks_no_cut(self):
        cc = DctcpWindow(DctcpParams(initial_window=10))
        for _ in range(10):
            cc.on_ack(rtt=1e-5, now=0.0, ecn_echo=False)
        assert cc.cwnd > 10.0
        assert cc.window_cuts == 0

    def test_dctcp_loss_halves_window(self):
        cc = DctcpWindow(DctcpParams(initial_window=10))
        cc.on_loss(now=0.0)
        assert cc.cwnd == pytest.approx(5.0)


class TestFactory:
    def test_known_kinds(self):
        for kind, expected in (
            ("none", NoCongestionControl),
            ("dcqcn", Dcqcn),
            ("timely", Timely),
            ("aimd", AimdWindow),
            ("dctcp", DctcpWindow),
        ):
            cc = make_congestion_control(kind, line_rate_bps=10e9, base_rtt_s=10e-6)
            assert isinstance(cc, expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_congestion_control("bbr", 10e9, 10e-6)

    def test_timely_thresholds_scale_with_base_rtt(self):
        cc = make_congestion_control("timely", 10e9, base_rtt_s=100e-6)
        assert cc.params.t_low_s == pytest.approx(150e-6)
        assert cc.params.t_high_s == pytest.approx(600e-6)
