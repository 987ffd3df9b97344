"""Tests for the NPU device execution engine."""

import pytest

from repro.npu import FrequencyTimeline
from repro.npu.device import IDLE_INDEX
from repro.npu.setfreq import AnchoredFrequencyPlan, AnchoredSwitch, FrequencySwitch
from repro.workloads import build_trace
from repro.workloads.operator import OperatorKind, make_fixed_operator
from repro.workloads.trace import TraceEntry
from tests.conftest import make_compute_op


def simple_trace(n_ops=4, name="t"):
    ops = [make_compute_op(name=f"{name}.op{i}") for i in range(n_ops)]
    return build_trace(name, ops)


class TestBasicExecution:
    def test_duration_is_sum_of_op_durations(self, ideal_device):
        trace = simple_trace(3)
        result = ideal_device.run(trace)
        expected = sum(
            ideal_device.evaluator.duration_us(e.spec, 1800.0)
            for e in trace.entries
        )
        assert result.duration_us == pytest.approx(expected)

    def test_records_cover_all_ops(self, ideal_device):
        trace = simple_trace(5)
        result = ideal_device.run(trace)
        assert len(result.records) == 5
        assert [r.index for r in result.records] == list(range(5))

    def test_records_are_contiguous(self, ideal_device):
        result = ideal_device.run(simple_trace(4))
        for prev, nxt in zip(result.records, result.records[1:]):
            assert nxt.start_us == pytest.approx(prev.end_us)

    def test_lower_frequency_is_slower_and_cheaper(self, ideal_device):
        trace = simple_trace(3)
        fast = ideal_device.run(trace, FrequencyTimeline.constant(1800.0))
        slow = ideal_device.run(trace, FrequencyTimeline.constant(1000.0))
        assert slow.duration_us > fast.duration_us
        assert slow.aicore_avg_watts < fast.aicore_avg_watts

    def test_energy_equals_power_times_time(self, ideal_device):
        result = ideal_device.run(simple_trace(3))
        recomputed = sum(
            c.aicore_watts * c.duration_us / 1e6 for c in result.chunks
        )
        assert result.aicore_energy_j == pytest.approx(recomputed)

    def test_gap_produces_idle_chunk(self, ideal_device):
        op = make_compute_op(name="g.op")
        trace = build_trace(
            "g", [TraceEntry(op), TraceEntry(op, gap_before_us=500.0)]
        )
        result = ideal_device.run(trace)
        idle_chunks = [c for c in result.chunks if c.op_index == IDLE_INDEX]
        assert sum(c.duration_us for c in idle_chunks) == pytest.approx(500.0)

    def test_host_interval_paces_dispatch(self, ideal_device):
        op = make_fixed_operator("a", OperatorKind.AICPU, 10.0)
        entries = [
            TraceEntry(op),
            TraceEntry(op, host_interval_us=100.0),
            TraceEntry(op, host_interval_us=100.0),
        ]
        trace = build_trace("host", entries)
        result = ideal_device.run(trace)
        # Each op takes 10us but starts are spaced 100us apart.
        assert result.duration_us == pytest.approx(210.0)

    def test_host_interval_no_wait_when_slower(self, ideal_device):
        op = make_fixed_operator("a", OperatorKind.AICPU, 200.0)
        entries = [TraceEntry(op), TraceEntry(op, host_interval_us=100.0)]
        trace = build_trace("host2", entries)
        result = ideal_device.run(trace)
        assert result.duration_us == pytest.approx(400.0)

    def test_temperature_rises_under_load(self, ideal_device):
        trace = simple_trace(8)
        result = ideal_device.run(trace)
        assert result.end_celsius > result.start_celsius


class TestFrequencySwitching:
    def test_mid_op_switch_splits_execution(self, ideal_device):
        op = make_compute_op(name="m.op", core_cycles=500_000.0,
                             ld_bytes=1000.0, st_bytes=1000.0)
        trace = build_trace("m", [op])
        d1800 = ideal_device.evaluator.duration_us(op, 1800.0)
        switch_at = d1800 / 2
        timeline = FrequencyTimeline(
            1800.0, (FrequencySwitch(switch_at, 1000.0),)
        )
        result = ideal_device.run(trace, timeline)
        # First half at 1800 (progress 0.5), remainder at 1000.
        d1000 = ideal_device.evaluator.duration_us(op, 1000.0)
        expected = switch_at + 0.5 * d1000
        assert result.duration_us == pytest.approx(expected, rel=1e-6)
        assert result.records[0].straddled_switch

    def test_anchored_plan_switches_at_op_start(self, ideal_device):
        trace = simple_trace(4, name="anch")
        plan = AnchoredFrequencyPlan(
            1800.0, [AnchoredSwitch(op_index=2, freq_mhz=1000.0)]
        )
        result = ideal_device.run(trace, plan)
        assert result.records[1].start_freq_mhz == 1800.0
        assert result.records[2].start_freq_mhz == 1000.0
        assert not result.records[2].straddled_switch

    def test_anchored_plan_reusable_across_runs(self, ideal_device):
        trace = simple_trace(3, name="reuse")
        plan = AnchoredFrequencyPlan(
            1800.0, [AnchoredSwitch(op_index=1, freq_mhz=1200.0)]
        )
        first = ideal_device.run(trace, plan)
        second = ideal_device.run(trace, plan)
        assert first.duration_us == pytest.approx(second.duration_us)

    def test_extra_delay_erodes_energy_savings(self, ideal_device):
        """With a V100-like delay, down-switches land late, so operators
        meant to run at low frequency burn high-frequency power — the
        energy saving shrinks (Fig. 18's mechanism)."""
        ops = [
            make_compute_op(name=f"d.op{i}", core_cycles=300_000.0)
            for i in range(4)
        ]
        trace = build_trace("d", ops)
        anchors = [AnchoredSwitch(1, 1000.0), AnchoredSwitch(3, 1800.0)]
        exact = ideal_device.run(
            trace, AnchoredFrequencyPlan(1800.0, anchors)
        )
        late = ideal_device.run(
            trace,
            AnchoredFrequencyPlan(1800.0, anchors, extra_delay_us=14_000.0),
        )
        assert late.aicore_energy_j > exact.aicore_energy_j


class TestRunStable:
    def test_stable_run_starts_near_equilibrium(self, ideal_device):
        trace = simple_trace(10, name="st")
        result = ideal_device.run_stable(trace)
        equilibrium = ideal_device.npu.thermal.equilibrium_celsius(
            result.soc_avg_watts
        )
        assert result.start_celsius == pytest.approx(equilibrium, abs=1.0)

    def test_stable_power_exceeds_cold_power(self, ideal_device):
        trace = simple_trace(10, name="st2")
        cold = ideal_device.run(trace)
        stable = ideal_device.run_stable(trace)
        assert stable.aicore_avg_watts > cold.aicore_avg_watts


class TestRunIdle:
    def test_cooldown_decays_toward_idle_equilibrium(self, ideal_device):
        chunks = ideal_device.run_idle(
            60_000_000.0, 1000.0, initial_celsius=80.0, steps=50
        )
        assert chunks[0].celsius == pytest.approx(80.0)
        assert chunks[-1].celsius < chunks[0].celsius
        # Power decays along with temperature.
        assert chunks[-1].soc_watts < chunks[0].soc_watts

    def test_idle_chunks_are_contiguous(self, ideal_device):
        chunks = ideal_device.run_idle(1000.0, 1800.0, steps=4)
        for prev, nxt in zip(chunks, chunks[1:]):
            assert nxt.start_us == pytest.approx(prev.end_us)

    def test_rejects_bad_arguments(self, ideal_device):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ideal_device.run_idle(0.0, 1800.0)
        with pytest.raises(ConfigurationError):
            ideal_device.run_idle(100.0, 1800.0, steps=0)

    @pytest.mark.parametrize(
        "duration_us, freq_mhz, initial_celsius, steps",
        [
            (60_000_000.0, 1000.0, 91.3, 600),
            (2_000_000.0, 1800.0, None, 20),
            (1234.5, 1400.0, 25.0, 7),
            (3_000_000.0, 1300.0, 140.0, 1),
        ],
    )
    def test_matches_stepwise_oracle_bitwise(
        self, device, duration_us, freq_mhz, initial_celsius, steps
    ):
        from tests.oracles import stepwise_run_idle

        args = (duration_us, freq_mhz, initial_celsius, steps)
        assert device.run_idle(*args) == stepwise_run_idle(device, *args)

    def test_varied_die_matches_stepwise_oracle_bitwise(self, npu_spec):
        """A cluster die: board ambient on the device, power from the
        nominal evaluator behind the duration-scaling wrapper."""
        from dataclasses import replace

        from tests.reference.device import VariedEvaluator
        from repro.npu import NpuDevice
        from repro.npu.execution import GroundTruthEvaluator
        from tests.oracles import stepwise_run_idle

        warm_board = replace(
            npu_spec, thermal=replace(npu_spec.thermal, ambient_celsius=31.0)
        )
        device = NpuDevice(
            warm_board,
            evaluator=VariedEvaluator(GroundTruthEvaluator(npu_spec), 1.07),
        )
        args = (5_000_000.0, 1500.0, 70.0, 50)
        assert device.run_idle(*args) == stepwise_run_idle(device, *args)


class TestExecutionResult:
    def test_average_power_definition(self, ideal_device):
        result = ideal_device.run(simple_trace(3, name="avg"))
        assert result.aicore_avg_watts == pytest.approx(
            result.aicore_energy_j / (result.duration_us / 1e6)
        )

    def test_performance_is_inverse_duration(self, ideal_device):
        result = ideal_device.run(simple_trace(2, name="perf"))
        assert result.performance == pytest.approx(1e6 / result.duration_us)

    def test_record_for(self, ideal_device):
        result = ideal_device.run(simple_trace(3, name="rec"))
        assert result.record_for(1).index == 1
