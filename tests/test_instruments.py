"""Tests for the profiler and telemetry instruments."""

from dataclasses import replace

import pytest

from repro.errors import ProfilingError
from repro.npu import (
    CannStyleProfiler,
    FrequencyTimeline,
    NpuDevice,
    PowerTelemetry,
    merge_reports,
)
from repro.npu.device import IDLE_INDEX, PowerChunk
from repro.workloads import build_trace
from repro.workloads.operator import OperatorKind, make_fixed_operator
from tests.conftest import make_compute_op


@pytest.fixture()
def profiler(npu_spec, rng_factory):
    return CannStyleProfiler(npu_spec, rng_factory.generator("prof"))


@pytest.fixture()
def ideal_profiler(ideal_spec, rng_factory):
    return CannStyleProfiler(ideal_spec, rng_factory.generator("prof"))


@pytest.fixture()
def telemetry(npu_spec, rng_factory):
    return PowerTelemetry(npu_spec, rng_factory.generator("telem"))


@pytest.fixture()
def ideal_telemetry(ideal_spec, rng_factory):
    return PowerTelemetry(ideal_spec, rng_factory.generator("telem"))


def zero_span_chunk():
    return PowerChunk(
        start_us=5.0,
        end_us=5.0,
        freq_mhz=1800.0,
        aicore_watts=10.0,
        soc_watts=150.0,
        celsius=40.0,
        op_index=IDLE_INDEX,
    )


def run_simple(device, n=4, freq=1800.0):
    ops = [make_compute_op(name=f"p.op{i}") for i in range(n)]
    trace = build_trace("p", ops)
    return device.run(trace, FrequencyTimeline.constant(freq))


class TestProfiler:
    def test_report_covers_all_ops(self, device, profiler):
        report = profiler.profile(run_simple(device, n=5))
        assert len(report) == 5

    def test_noise_free_durations_exact(self, ideal_device, ideal_profiler):
        result = run_simple(ideal_device, n=3)
        report = ideal_profiler.profile(result)
        for record, op in zip(result.records, report.operators):
            assert op.duration_us == pytest.approx(record.duration_us)

    def test_noisy_durations_near_truth(self, device, profiler):
        result = run_simple(device, n=30)
        report = profiler.profile(result)
        for record, op in zip(result.records, report.operators):
            assert abs(op.duration_us / record.duration_us - 1.0) < 0.1

    def test_ratios_clipped_to_unit(self, device, profiler):
        report = profiler.profile(run_simple(device, n=10))
        for op in report.operators:
            for ratio in op.ratios.values():
                assert 0.0 <= ratio <= 1.0

    def test_freq_label(self, device, profiler):
        report = profiler.profile(run_simple(device, freq=1300.0))
        assert report.freq_label_mhz == 1300.0

    def test_significant_filter(self, ideal_device, ideal_profiler):
        big = make_compute_op(name="big", core_cycles=200_000.0)
        tiny = make_fixed_operator("tiny", OperatorKind.AICPU, 3.0)
        trace = build_trace("mix", [big, tiny])
        report = ideal_profiler.profile(ideal_device.run(trace))
        names = [op.name for op in report.significant_operators()]
        assert names == ["big"]

    def test_compute_operator_filter(self, ideal_device, ideal_profiler):
        big = make_compute_op(name="big2")
        comm = make_fixed_operator("comm", OperatorKind.COMMUNICATION, 100.0)
        trace = build_trace("mix2", [big, comm])
        report = ideal_profiler.profile(ideal_device.run(trace))
        assert [op.name for op in report.compute_operators()] == ["big2"]

    def test_durations_by_name_averages_instances(
        self, ideal_device, ideal_profiler
    ):
        op = make_compute_op(name="rep")
        trace = build_trace("rep", [op, op, op])
        report = ideal_profiler.profile(ideal_device.run(trace))
        durations = report.durations_by_name()
        assert len(durations) == 1
        assert durations["rep"] > 0

    def test_gap_reported(self, ideal_device, ideal_profiler):
        from repro.workloads.trace import TraceEntry

        op = make_compute_op(name="g")
        trace = build_trace(
            "g", [TraceEntry(op), TraceEntry(op, gap_before_us=250.0)]
        )
        report = ideal_profiler.profile(ideal_device.run(trace))
        assert report.operators[1].gap_before_us == pytest.approx(250.0)

    def test_merge_reports_sorts_and_validates(self, device, profiler):
        r1 = profiler.profile(run_simple(device, freq=1800.0))
        r2 = profiler.profile(run_simple(device, freq=1000.0))
        merged = merge_reports([r1, r2])
        assert [r.freq_label_mhz for r in merged] == [1000.0, 1800.0]

    def test_merge_rejects_duplicates(self, device, profiler):
        r1 = profiler.profile(run_simple(device))
        with pytest.raises(ProfilingError):
            merge_reports([r1, r1])

    def test_merge_rejects_mixed_traces(self, ideal_device, ideal_profiler):
        a = ideal_profiler.profile(
            ideal_device.run(build_trace("a", [make_compute_op(name="x")]))
        )
        b = ideal_profiler.profile(
            ideal_device.run(build_trace("b", [make_compute_op(name="y")]))
        )
        with pytest.raises(ProfilingError):
            merge_reports([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ProfilingError):
            merge_reports([])


class TestTelemetry:
    def test_measure_noise_free_exact(self, ideal_device, ideal_telemetry):
        result = run_simple(ideal_device)
        measurement = ideal_telemetry.measure(result)
        assert measurement.soc_avg_watts == pytest.approx(result.soc_avg_watts)
        assert measurement.aicore_avg_watts == pytest.approx(
            result.aicore_avg_watts
        )

    def test_measure_noisy_near_truth(self, device, telemetry):
        result = run_simple(device, n=10)
        measurement = telemetry.measure(result)
        assert abs(measurement.soc_avg_watts / result.soc_avg_watts - 1) < 0.2

    def test_sample_chunks_interval(self, ideal_device, ideal_telemetry):
        chunks = ideal_device.run_idle(10_000.0, 1800.0, steps=10)
        samples = ideal_telemetry.sample_chunks(chunks, interval_us=1000.0)
        assert len(samples) == 10
        assert samples[1].time_us - samples[0].time_us == pytest.approx(1000.0)

    def test_sample_chunks_rejects_empty(self, ideal_telemetry):
        with pytest.raises(ProfilingError):
            ideal_telemetry.sample_chunks([], interval_us=10.0)

    def test_sample_chunks_rejects_zero_span(self, ideal_telemetry):
        # Used to return [], which extract_gamma then failed on max([]).
        with pytest.raises(ProfilingError, match="span no time"):
            ideal_telemetry.sample_chunks([zero_span_chunk()], 10.0)

    def test_sample_chunks_rejects_interval_below_clock_resolution(
        self, ideal_telemetry
    ):
        # The sample clock would never advance.
        late = replace(zero_span_chunk(), start_us=1e20, end_us=2e20)
        with pytest.raises(ProfilingError, match="clock resolution"):
            ideal_telemetry.sample_chunks([late], 1.0)

    def test_measure_chunks_rejects_zero_span(self, ideal_telemetry):
        # Used to raise ZeroDivisionError from np.average's weights.
        with pytest.raises(ProfilingError, match="span no time"):
            ideal_telemetry.measure_chunks([zero_span_chunk()] * 2)

    def test_true_average_power_rejects_zero_span(self):
        # Used to raise ZeroDivisionError.
        with pytest.raises(ProfilingError, match="span no time"):
            PowerTelemetry.true_average_power([zero_span_chunk()])

    def test_per_operator_power_attribution(self, ideal_device, ideal_telemetry):
        hot = make_compute_op(name="hot", core_cycles=200_000.0)
        cold = make_fixed_operator("cold", OperatorKind.IDLE, 200.0)
        trace = build_trace("attr", [hot, cold])
        result = ideal_device.run(trace)
        readings = ideal_telemetry.measure_operator_power(result)
        assert set(readings) == {"hot", "cold"}
        assert readings["hot"][0] > readings["cold"][0]

    def test_true_average_power(self, ideal_device, ideal_telemetry):
        result = run_simple(ideal_device)
        aicore, soc = PowerTelemetry.true_average_power(result.chunks)
        assert aicore == pytest.approx(result.aicore_avg_watts)
        assert soc == pytest.approx(result.soc_avg_watts)

    def test_energy_reading(self, ideal_device, ideal_telemetry):
        result = run_simple(ideal_device)
        aicore_j, soc_j = ideal_telemetry.energy_joules(result)
        assert aicore_j == pytest.approx(result.aicore_energy_j)
        assert soc_j == pytest.approx(result.soc_energy_j)

    def test_measure_chunks_aggregate(self, ideal_device, ideal_telemetry):
        chunks = ideal_device.run_idle(5000.0, 1000.0, steps=5)
        measurement = ideal_telemetry.measure_chunks(chunks)
        assert measurement.duration_us == pytest.approx(5000.0)
        assert measurement.soc_avg_watts > 0


class TestSampleChunksOracle:
    """The array ``sample_chunks`` against the scalar walk, bit for bit."""

    NOISE = {
        "default": {},
        "zero": dict(power_sigma=0.0, temperature_sigma_celsius=0.0),
        "power-only": dict(temperature_sigma_celsius=0.0),
        "temperature-only": dict(power_sigma=0.0),
    }

    @staticmethod
    def _pair(spec, seed):
        from repro.analysis.rng import RngFactory

        return (
            PowerTelemetry(spec, RngFactory(seed).generator("t")),
            PowerTelemetry(spec, RngFactory(seed).generator("t")),
        )

    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize(
        "interval_us", [100_000.0, 1000.0, 333.3, 7_777.7, 5e6]
    )
    def test_idle_cooldown(self, npu_spec, device, noise, interval_us):
        from tests.oracles import scalar_sample_chunks

        spec = replace(
            npu_spec, noise=replace(npu_spec.noise, **self.NOISE[noise])
        )
        chunks = device.run_idle(
            2_000_000.0, 1000.0, initial_celsius=80.0, steps=37
        )
        for seed in range(5):
            fast, scalar = self._pair(spec, seed)
            fast.rng.random(seed)  # an arbitrary stream position
            scalar.rng.random(seed)
            assert fast.sample_chunks(chunks, interval_us) == (
                scalar_sample_chunks(scalar, chunks, interval_us)
            )
            assert (
                fast.rng.bit_generator.state == scalar.rng.bit_generator.state
            )

    def test_execution_chunks_with_offset_start(self, npu_spec, device):
        """Uneven operator chunks, sampled from a window that starts late."""
        from tests.oracles import scalar_sample_chunks

        result = run_simple(device, n=12, freq=1500.0)
        chunks = list(result.chunks)[3:]
        for interval_us in (1.0, 37.5, chunks[0].duration_us):
            fast, scalar = self._pair(npu_spec, 11)
            assert fast.sample_chunks(chunks, interval_us) == (
                scalar_sample_chunks(scalar, chunks, interval_us)
            )
            assert (
                fast.rng.bit_generator.state == scalar.rng.bit_generator.state
            )
