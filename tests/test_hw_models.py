"""Tests for the NIC hardware models: bitmaps, packet modules, state, FPGA."""

import pytest

from repro.hw.bitmap import RingBitmap, TwoBitmap
from repro.hw.fpga_model import FpgaSynthesisModel
from repro.hw.nic_model import NicKind, NicPipelineModel, raw_performance_table
from repro.hw.nic_state import NicStateParams, compute_state_overhead
from repro.hw.packet_modules import (
    QpContext,
    ReceiveAckModule,
    ReceiveDataModule,
    TimeoutModule,
    TxFreeModule,
)


class TestRingBitmap:
    def test_set_test_clear(self):
        bitmap = RingBitmap(64)
        bitmap.set(5)
        assert bitmap.test(5)
        bitmap.clear(5)
        assert not bitmap.test(5)

    def test_out_of_window_rejected(self):
        bitmap = RingBitmap(8, head_seq=100)
        with pytest.raises(IndexError):
            bitmap.set(99)
        with pytest.raises(IndexError):
            bitmap.set(108)
        assert bitmap.in_window(100) and not bitmap.in_window(108)

    def test_find_first_zero(self):
        bitmap = RingBitmap(64)
        assert bitmap.find_first_zero() == 0
        for seq in range(5):
            bitmap.set(seq)
        assert bitmap.find_first_zero() == 5
        bitmap.set(6)
        assert bitmap.find_first_zero() == 5

    def test_find_first_zero_spans_chunks(self):
        bitmap = RingBitmap(96)
        for seq in range(40):
            bitmap.set(seq)
        assert bitmap.find_first_zero() == 40

    def test_full_bitmap_returns_capacity(self):
        bitmap = RingBitmap(32)
        for seq in range(32):
            bitmap.set(seq)
        assert bitmap.find_first_zero() == 32

    def test_popcount_prefix(self):
        bitmap = RingBitmap(64)
        for seq in (0, 2, 4, 10):
            bitmap.set(seq)
        assert bitmap.popcount_prefix(5) == 3
        assert bitmap.popcount_prefix() == 4

    def test_shift_returns_bits_shifted_out(self):
        bitmap = RingBitmap(64)
        for seq in (0, 1, 5):
            bitmap.set(seq)
        out = bitmap.shift(4)
        assert out == 2
        assert bitmap.head_seq == 4
        assert bitmap.test(5)

    def test_advance_head_to(self):
        bitmap = RingBitmap(64)
        bitmap.set(3)
        bitmap.advance_head_to(10)
        assert bitmap.head_seq == 10
        assert bitmap.occupancy() == 0
        with pytest.raises(ValueError):
            bitmap.advance_head_to(5)

    def test_storage_is_chunk_aligned(self):
        assert RingBitmap(100).storage_bits() == 128
        assert RingBitmap(128).storage_bits() == 128

    def test_set_bits_listing(self):
        bitmap = RingBitmap(16, head_seq=50)
        bitmap.set(51)
        bitmap.set(60)
        assert bitmap.set_bits() == [51, 60]


class TestTwoBitmap:
    def test_advance_counts_messages(self):
        bitmap = TwoBitmap(64)
        bitmap.record(0, last_of_message=False)
        bitmap.record(1, last_of_message=True)
        bitmap.record(2, last_of_message=True)
        passed, messages = bitmap.advance()
        assert passed == 3
        assert messages == 2
        assert bitmap.head_seq == 3

    def test_advance_stops_at_gap(self):
        bitmap = TwoBitmap(64)
        bitmap.record(0, last_of_message=True)
        bitmap.record(2, last_of_message=True)
        passed, messages = bitmap.advance()
        assert passed == 1
        assert messages == 1

    def test_storage(self):
        assert TwoBitmap(128).storage_bits() == 256


class TestPacketModules:
    def test_receive_data_in_order(self):
        ctx = QpContext(bdp_cap=32)
        module = ReceiveDataModule()
        out = module.process(ctx, psn=0, last_of_message=True)
        assert out.send_ack and not out.send_nack
        assert out.msn_increment == 1
        assert ctx.expected_psn == 1
        assert ctx.msn == 1

    def test_receive_data_out_of_order(self):
        ctx = QpContext(bdp_cap=32)
        module = ReceiveDataModule()
        out = module.process(ctx, psn=3, last_of_message=False)
        assert out.send_nack and not out.send_ack
        assert out.sack_psn == 3
        assert ctx.expected_psn == 0

    def test_receive_data_fills_gap_and_fires_all_completions(self):
        ctx = QpContext(bdp_cap=32)
        module = ReceiveDataModule()
        module.process(ctx, psn=1, last_of_message=True)
        module.process(ctx, psn=2, last_of_message=True)
        out = module.process(ctx, psn=0, last_of_message=True)
        assert out.msn_increment == 3
        assert ctx.expected_psn == 3

    def test_receive_data_duplicate(self):
        ctx = QpContext(bdp_cap=32)
        module = ReceiveDataModule()
        module.process(ctx, psn=0, last_of_message=False)
        out = module.process(ctx, psn=0, last_of_message=False)
        assert out.duplicate

    def test_tx_free_sends_new_packets_up_to_bdp(self):
        ctx = QpContext(bdp_cap=4)
        module = TxFreeModule()
        sent = [module.process(ctx, new_packets_available=True).psn_to_send for _ in range(6)]
        assert sent[:4] == [0, 1, 2, 3]
        assert sent[4:] == [None, None]

    def test_tx_free_look_ahead_during_recovery(self):
        ctx = QpContext(bdp_cap=16)
        tx = TxFreeModule()
        for _ in range(8):
            tx.process(ctx, new_packets_available=True)
        # NACK: cumulative 2, SACK 5 -> lost packets 2,3,4.
        ack_module = ReceiveAckModule()
        ack_module.process(ctx, cumulative_ack=2, sack_psn=5, is_nack=True)
        retransmits = []
        for _ in range(3):
            out = tx.process(ctx, new_packets_available=False)
            if out.psn_to_send is not None and out.is_retransmission:
                retransmits.append(out.psn_to_send)
        assert retransmits == [2, 3, 4]

    def test_receive_ack_advances_and_enters_recovery(self):
        ctx = QpContext(bdp_cap=16)
        tx = TxFreeModule()
        for _ in range(6):
            tx.process(ctx, new_packets_available=True)
        module = ReceiveAckModule()
        out = module.process(ctx, cumulative_ack=3, sack_psn=4, is_nack=True)
        assert ctx.snd_una == 3
        assert out.entered_recovery
        out = module.process(ctx, cumulative_ack=6, sack_psn=None, is_nack=False)
        assert out.exited_recovery
        assert not ctx.in_recovery

    def test_timeout_extends_when_condition_fails(self):
        ctx = QpContext(bdp_cap=16, rto_low_threshold=3)
        tx = TxFreeModule()
        for _ in range(8):
            tx.process(ctx, new_packets_available=True)
        out = TimeoutModule().process(ctx, fired_with_rto_low=True)
        assert out.extend_to_rto_high and not out.acted

    def test_timeout_acts_when_few_packets_in_flight(self):
        ctx = QpContext(bdp_cap=16, rto_low_threshold=3)
        TxFreeModule().process(ctx, new_packets_available=True)
        out = TimeoutModule().process(ctx, fired_with_rto_low=True)
        assert out.acted and not out.extend_to_rto_high
        assert ctx.in_recovery

    def test_timeout_noop_when_nothing_in_flight(self):
        ctx = QpContext(bdp_cap=16)
        out = TimeoutModule().process(ctx, fired_with_rto_low=False)
        assert not out.acted

    def test_a_lossy_trace_exercises_the_bitmap_datapath(self):
        # Table 2's modules on a synthetic requester/responder trace in which
        # every 7th packet arrives out of order: the bitmap operations run.
        ctx = QpContext(bdp_cap=128)
        receive_data, tx_free, receive_ack = ReceiveDataModule(), TxFreeModule(), ReceiveAckModule()
        for i in range(2000):
            tx_free.process(ctx, new_packets_available=True)
            last = i % 3 == 0
            if i % 7 == 6:
                receive_data.process(ctx, psn=ctx.expected_psn + 1, last_of_message=last)
                receive_ack.process(ctx, cumulative_ack=ctx.snd_una, sack_psn=ctx.snd_una + 1,
                                    is_nack=True)
            else:
                receive_data.process(ctx, psn=ctx.expected_psn, last_of_message=last)
                receive_ack.process(ctx, cumulative_ack=min(ctx.snd_nxt, ctx.snd_una + 1),
                                    sack_psn=None, is_nack=False)
        assert ctx.find_first_zero_ops > 0 and ctx.shift_ops > 0


class TestNicStateOverhead:
    def test_paper_default_is_within_claimed_range(self):
        overhead = compute_state_overhead(NicStateParams())
        assert 0.03 <= overhead.fraction_of_cache <= 0.10

    def test_per_qp_state_matches_paper_breakdown(self):
        overhead = compute_state_overhead(NicStateParams())
        assert overhead.per_qp_state_bits == 160
        assert overhead.per_wqe_bytes == 3
        assert overhead.shared_bytes == 10

    def test_bitmaps_dominate_per_qp_overhead(self):
        overhead = compute_state_overhead(NicStateParams(link_bandwidth_bps=40e9))
        # §6.1: five BDP-sized bitmaps of 128 bits each at 40 Gbps.
        assert overhead.bitmap_bits_each == 128
        assert overhead.per_qp_bitmap_bits == 640
        assert overhead.per_qp_bitmap_bits == 5 * overhead.bitmap_bits_each
        assert overhead.per_qp_bitmap_bits > overhead.per_qp_state_bits

    def test_overhead_grows_with_bandwidth_but_stays_modest(self):
        overhead_40g = compute_state_overhead(NicStateParams(link_bandwidth_bps=40e9))
        overhead_100g = compute_state_overhead(NicStateParams(link_bandwidth_bps=100e9))
        assert overhead_100g.total_bytes > overhead_40g.total_bytes
        assert overhead_100g.fraction_of_cache <= 0.15

    def test_rows_rendering(self):
        rows = compute_state_overhead().as_rows()
        assert any("Fraction of NIC cache" in label for label, _ in rows)


class TestFpgaModel:
    def test_reproduces_table2_anchors_at_128_bits(self):
        model = FpgaSynthesisModel(128)
        receive_data = model.estimate("receiveData")
        assert receive_data.flip_flop_fraction == pytest.approx(0.0062, rel=0.01)
        assert receive_data.lut_fraction == pytest.approx(0.0193, rel=0.01)
        assert receive_data.latency_ns == pytest.approx(16.5)
        assert receive_data.throughput_mpps == pytest.approx(45.45)
        # Every module: < 1 % of the flip-flops, < 2 % of the LUTs, <= 16.5 ns.
        for row in model.table():
            assert row.flip_flop_fraction < 0.01, row.name
            assert row.lut_fraction < 0.02, row.name
            assert row.latency_ns <= 16.5 + 1e-9, row.name

    def test_totals_match_paper_summary(self):
        totals = FpgaSynthesisModel(128).totals()
        assert totals.flip_flop_fraction == pytest.approx(0.0135, abs=0.002)
        assert totals.lut_fraction == pytest.approx(0.0401, abs=0.005)
        assert totals.throughput_mpps == pytest.approx(45.45, rel=0.01)

    def test_100g_bitmaps_roughly_double_resources(self):
        small = FpgaSynthesisModel(128).totals()
        large = FpgaSynthesisModel(320).totals()
        assert 1.5 <= large.lut_fraction / small.lut_fraction <= 3.0

    def test_bottleneck_sustains_line_rate(self):
        totals = FpgaSynthesisModel(128).totals()
        # 45 Mpps of MTU-sized packets is 360+ Gbps, far above 40 Gbps.
        assert totals.sustains_line_rate(40e9)
        assert totals.sustains_line_rate(100e9)

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            FpgaSynthesisModel(128).estimate("nonexistent")

    def test_invalid_bitmap_size_rejected(self):
        with pytest.raises(ValueError):
            FpgaSynthesisModel(0)


class TestNicPipelineModel:
    def test_iwarp_has_higher_latency_and_lower_rate_than_roce(self):
        table = raw_performance_table()
        iwarp = table["Chelsio T-580-CR (iWARP)"]
        roce = table["Mellanox MCX416A-BCAT (RoCE)"]
        assert iwarp.latency_us > 2.5 * roce.latency_us
        assert roce.message_rate_mpps > 3.5 * iwarp.message_rate_mpps
        # Table 1's shape: ~3x the latency, ~4.5x lower message rate.
        assert iwarp.latency_us / roce.latency_us == pytest.approx(3.0, rel=0.35)
        assert roce.message_rate_mpps / iwarp.message_rate_mpps == pytest.approx(4.5, rel=0.35)

    def test_absolute_numbers_near_table1(self):
        table = raw_performance_table()
        iwarp = table["Chelsio T-580-CR (iWARP)"]
        roce = table["Mellanox MCX416A-BCAT (RoCE)"]
        assert roce.latency_us == pytest.approx(0.94, rel=0.25)
        assert roce.message_rate_mpps == pytest.approx(14.7, rel=0.25)
        assert iwarp.latency_us == pytest.approx(2.89, rel=0.25)
        assert iwarp.message_rate_mpps == pytest.approx(3.24, rel=0.25)

    def test_irn_keeps_roce_message_rate(self):
        table = raw_performance_table()
        irn = table["IRN (RoCE + bitmap logic)"]
        roce = table["Mellanox MCX416A-BCAT (RoCE)"]
        assert irn.message_rate_mpps == pytest.approx(roce.message_rate_mpps, rel=0.05)
        assert irn.latency_us <= roce.latency_us * 1.1

    def test_unbatched_rate_is_lower(self):
        model = NicPipelineModel(NicKind.ROCE)
        assert model.message_rate_mpps(batched=False) < model.message_rate_mpps(batched=True)
