"""§6.1: additional NIC state introduced by IRN.

Paper result: 160 bits of per-QP state plus five BDP-sized bitmaps (640 bits
at 40 Gbps), 3 bytes per WQE and 10 shared bytes -- a total of 3-10% of the
NIC metadata cache for a couple thousand QPs and tens of thousands of WQEs,
even at 100 Gbps.
"""

from repro.hw.nic_state import NicStateParams, compute_state_overhead


def test_nic_state_overhead_accounting(benchmark):
    def compute_both():
        return {
            "40 Gbps": compute_state_overhead(NicStateParams(link_bandwidth_bps=40e9)),
            "100 Gbps": compute_state_overhead(NicStateParams(link_bandwidth_bps=100e9)),
        }

    overheads = benchmark.pedantic(compute_both, rounds=1, iterations=1)

    print("\n=== §6.1: IRN's additional NIC state ===")
    for label, overhead in overheads.items():
        print(f"\n{label}:")
        for name, value in overhead.as_rows():
            print(f"  {name:<34} {value}")

    overhead_40g = overheads["40 Gbps"]
    assert overhead_40g.per_qp_state_bits == 160
    assert overhead_40g.bitmap_bits_each == 128
    assert overhead_40g.per_qp_bitmap_bits == 640
    assert overhead_40g.per_wqe_bytes == 3
    assert overhead_40g.shared_bytes == 10
    # The paper's claim: 3-10% of NIC cache, still modest at 100 Gbps.
    assert 0.03 <= overhead_40g.fraction_of_cache <= 0.10
    assert overheads["100 Gbps"].fraction_of_cache <= 0.15
