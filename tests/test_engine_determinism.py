"""Determinism against the reference: the calendar must replay the heap exactly.

The calendar reorders nothing: every pop yields the globally minimal
``(time, seq)``, so a full experiment must produce byte-for-byte identical
results on :class:`Simulator` and on the reference :class:`HeapSimulator`
(swapped in through ``tests.helpers.use_engine``).  These tests pin that
contract on real figure cells (fig1's two schemes and a fig8 transport
cell), comparing the *entire* serialized :class:`ResultRow` -- headline
metrics, fabric counters and the quantile-digest payloads -- per seed.
"""

import pytest

from repro.experiments import runner
from repro.experiments.runner import run_experiment
from repro.experiments.spec import scenario
from repro.sim.engine import NUM_BUCKETS, HeapSimulator, Simulator
from tests.helpers import ENGINES, use_engine


def _row_for(config, queue, monkeypatch):
    use_engine(monkeypatch, queue)
    return run_experiment(config).to_row(label=config.name).to_dict()


def _scaled_cells(name, **overrides):
    spec = scenario(name)
    return spec.configs(**overrides)


class TestEngineSubstitution:
    """The helper every whole-experiment comparison below relies on."""

    def test_experiments_run_on_the_calendar(self):
        config = next(iter(_scaled_cells("fig1", num_flows=4).values()))
        assert type(runner._make_simulator(config)) is Simulator

    def test_use_engine_swaps_in_the_reference(self, monkeypatch):
        config = next(iter(_scaled_cells("fig1", num_flows=4).values()))
        use_engine(monkeypatch, "heap")
        assert type(runner._make_simulator(config)) is HeapSimulator


class TestUnitEventOrderIdentity:
    """Both classes must execute one synthetic stream in the same order."""

    def _drive(self, queue):
        width = 0.7e-6
        sim = ENGINES[queue](seed=3, bucket_width_s=width)
        order = []

        def emit(tag):
            order.append((round(sim.now * 1e9), tag))

        def burst(base, tag):
            # Same-time FIFO ties, cross-bucket spreads, times past the
            # level-0 and level-1 windows, and timers that interleave with
            # regular events.
            for k in range(4):
                sim.schedule(base + k * 0.3e-6, emit, f"{tag}-s{k}")
            sim.set_timer(base + 0.45e-6, emit, f"{tag}-t")
            dead = sim.set_timer(base + 200e-6, emit, f"{tag}-dead")
            sim.schedule(base + 1.2 * NUM_BUCKETS * width, emit, f"{tag}-far")
            sim.schedule(base + 1.2 * NUM_BUCKETS**2 * width, emit, f"{tag}-vfar")
            sim.cancel(dead)

        for i in range(40):
            sim.schedule(i * 1.1e-6, burst, i * 0.05e-6, f"b{i}")
        sim.run_until_idle()
        return order, sim.events_processed, sim.events_cancelled

    def test_heap_and_calendar_agree(self):
        heap_order, heap_n, heap_c = self._drive("heap")
        order, n, c = self._drive("calendar")
        assert order == heap_order, "the calendar reordered the stream"
        assert n == heap_n
        # Both eventually discard every cancelled timer.
        assert c == heap_c


class TestExperimentIdentity:
    """Per-seed ResultRow metrics are identical across scheduler cores."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fig1_cells_identical_across_cores(self, monkeypatch, seed):
        for label, config in _scaled_cells("fig1", num_flows=40, seed=seed).items():
            heap_row = _row_for(config, "heap", monkeypatch)
            calendar_row = _row_for(config, "calendar", monkeypatch)
            assert heap_row == calendar_row, f"{label} diverged between cores"

    def test_fig8_cell_identical_across_cores(self, monkeypatch):
        label, config = next(iter(_scaled_cells("fig8", num_flows=40).items()))
        heap_row = _row_for(config, "heap", monkeypatch)
        calendar_row = _row_for(config, "calendar", monkeypatch)
        assert heap_row == calendar_row, f"{label} diverged between cores"


class TestCoalescingMatrix:
    """ResultRows pin across every core x ACK-coalescing setting.

    Coalescing changes the simulated event stream (that is its purpose), so
    rows are pinned per setting: for each ``ack_coalesce_n`` every core must
    produce the identical row.  This is the acceptance matrix for the
    transport-batching work -- a cached row stays valid no matter which core
    computed it, with coalescing on or off.
    """

    @pytest.mark.parametrize("ack_n", [1, 4])
    def test_fig1_irn_cell_identical_across_cores(self, monkeypatch, ack_n):
        config = _scaled_cells("fig1", num_flows=40, seed=1)[
            "IRN (without PFC)"
        ].with_overrides(ack_coalesce_n=ack_n)
        rows = {queue: _row_for(config, queue, monkeypatch) for queue in ENGINES}
        reference = rows.pop("heap")
        for queue, row in rows.items():
            assert row == reference, f"{queue} diverged at ack_coalesce_n={ack_n}"


class TestWanMatrix:
    """WAN-scenario ResultRows pin byte-identical across every core.

    Propagation-dominated fabrics are what the hierarchical calendar was
    built for: with 100-1000x delay heterogeneity most packet arrivals
    land beyond the level-0 window, so these cells exercise the upper
    calendar levels, cascade/rebase and the wheel-boundary flush on every
    core -- none of which the homogeneous figure cells reach.  Both
    presets collect c-latency ratios, so the new conditional digest
    payload is pinned across cores too.
    """

    def test_wan_incast_cells_identical_across_cores(self, monkeypatch):
        for label, config in _scaled_cells("wan_incast", seed=1).items():
            rows = {
                queue: _row_for(config, queue, monkeypatch) for queue in ENGINES
            }
            reference = rows.pop("heap")
            assert reference["c_latency_digest"] is not None
            for queue, row in rows.items():
                assert row == reference, f"{label} diverged on {queue}"

    def test_cross_dc_cell_identical_across_cores(self, monkeypatch):
        """The inter-DC fat-tree at 1000x heterogeneity -- the cell that
        drains every calendar band and leaves only wheel timers pending,
        the regime the slot-boundary flush fix exists for."""
        cells = _scaled_cells("cross_dc", num_flows=60, seed=2)
        label = next(
            name for name in cells if "IRN" in name and "1000x" in name
        )
        config = cells[label]
        rows = {
            queue: _row_for(config, queue, monkeypatch)
            for queue in ENGINES
        }
        reference = rows.pop("heap")
        for queue, row in rows.items():
            assert row == reference, f"{label} diverged on {queue}"


class TestFaultMatrix:
    """Fault-enabled ResultRows pin byte-identical across every core.

    Fault injection adds its own event sources (flap windows, per-link
    corruption RNG draws, degraded-link boundary events, pause storms) and
    its own observables (fault counters, goodput/stall digests,
    ``recovery_time_s``).  All of them must replay exactly on every core --
    otherwise a fault-enabled cached row would depend on which engine
    computed it.
    """

    #: One window of every fault kind, aimed at the dumbbell bottleneck.
    PLAN = {
        "faults": [
            dict(kind="link_flap", src="s0", dst="s1",
                 start_s=100e-6, end_s=200e-6),
            dict(kind="packet_corruption", src="s1", dst="s0",
                 probability=0.05, start_s=50e-6, end_s=400e-6),
            dict(kind="degraded_link", src="s0", dst="s1",
                 start_s=250e-6, end_s=450e-6,
                 bandwidth_factor=0.5, delay_factor=2.0),
            dict(kind="pause_storm", src="h0", dst="s0",
                 start_s=120e-6, end_s=180e-6),
        ]
    }

    def _variant_cells(self):
        """One IRN and one RoCE cell from the availability family."""
        picked = {}
        for label, config in _scaled_cells(
            "availability_flap", num_flows=40, seed=1
        ).items():
            key = "irn" if "IRN" in label else "roce"
            picked.setdefault(key, (label, config))
        return picked.values()

    def test_availability_cells_identical_across_cores(self, monkeypatch):
        for label, config in self._variant_cells():
            config = config.with_overrides(fault_plan=self.PLAN)
            rows = {
                queue: _row_for(config, queue, monkeypatch) for queue in ENGINES
            }
            reference = rows.pop("heap")
            assert reference["faults_enabled"] is True
            for queue, row in rows.items():
                assert row == reference, f"{label} diverged on {queue}"
