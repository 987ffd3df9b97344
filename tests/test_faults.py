"""Tests for the fault-injection layer (`repro.npu.faults`)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.rng import RngFactory
from repro.errors import FaultInjectionError, ProfilingError, TelemetryError
from repro.npu import (
    CannStyleProfiler,
    FaultConfig,
    FaultInjector,
    FaultyCannStyleProfiler,
    FaultyFrequencyPlan,
    FaultyPowerTelemetry,
    FrequencyTimeline,
    PowerTelemetry,
)
from repro.npu.setfreq import AnchoredSwitch
from repro.perf import build_performance_model, patch_missing_operators
from repro.workloads import build_trace
from tests.conftest import make_compute_op


def injector_for(config: FaultConfig, seed: int = 7) -> FaultInjector:
    return FaultInjector.from_seed(config, seed)


class TestFaultConfig:
    def test_default_is_healthy(self):
        config = FaultConfig.none()
        assert not config.any_active
        assert not config.setfreq_active
        assert not config.telemetry_active
        assert not config.profiler_active
        assert not config.environment_active

    def test_uniform_enables_everything(self):
        config = FaultConfig.uniform(0.2)
        assert config.setfreq_drop_rate == 0.2
        assert config.telemetry_spike_rate == 0.2
        assert config.profiler_truncate_rate == 0.2
        assert config.ambient_step_celsius == 40.0
        assert config.any_active

    def test_uniform_zero_is_healthy(self):
        config = FaultConfig.uniform(0.0)
        assert not config.any_active
        assert config.ambient_step_celsius == 0.0

    def test_uniform_overrides(self):
        config = FaultConfig.uniform(0.1, setfreq_drop_rate=0.9)
        assert config.setfreq_drop_rate == 0.9
        assert config.setfreq_duplicate_rate == 0.1

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(FaultInjectionError):
            FaultConfig(setfreq_drop_rate=rate)
        with pytest.raises(FaultInjectionError):
            FaultConfig.uniform(rate)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(setfreq_delay_max_us=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultConfig(ambient_step_celsius=-5.0)

    def test_bad_keep_fraction_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(profiler_truncate_keep_fraction=0.0)
        with pytest.raises(FaultInjectionError):
            FaultConfig(profiler_truncate_keep_fraction=1.5)

    def test_ambient_needs_both_rate_and_magnitude(self):
        assert not FaultConfig(ambient_step_rate=1.0).environment_active
        assert not FaultConfig(ambient_step_celsius=40.0).environment_active
        assert FaultConfig(
            ambient_step_rate=1.0, ambient_step_celsius=40.0
        ).environment_active


class TestFaultInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        config = FaultConfig.uniform(0.3)
        a = injector_for(config)
        b = injector_for(config)
        for injector in (a, b):
            for t in range(20):
                injector.setfreq_fault(float(t))
                injector.telemetry_fault(float(t))
                injector.read_frequency(1500.0, float(t))
                injector.profiler_drop()
                injector.profiler_truncation(10)
                injector.ambient_offset_celsius()
        assert a.events == b.events
        assert len(a.events) > 0

    def test_streams_are_independent(self):
        config = FaultConfig.uniform(0.5)
        a = FaultInjector.from_seed(config, 7, stream="faults-trial0")
        b = FaultInjector.from_seed(config, 7, stream="faults-trial1")
        for injector in (a, b):
            for t in range(20):
                injector.setfreq_fault(float(t))
        assert a.events != b.events

    def test_fixed_draw_count_regardless_of_outcome(self):
        # A decision must consume the same number of draws whether or
        # not it triggers, so downstream decisions stay aligned across
        # fault rates (the common-random-numbers property the
        # ext_fault_tolerance sweep relies on).
        rng_zero = np.random.default_rng(42)
        rng_one = np.random.default_rng(42)
        quiet = FaultInjector(FaultConfig.none(), rng_zero)
        noisy = FaultInjector(FaultConfig.uniform(1.0), rng_one)
        for injector in (quiet, noisy):
            injector.setfreq_fault(0.0)
            injector.telemetry_fault(0.0)
            injector.profiler_drop()
            injector.profiler_truncation(10)
            injector.ambient_offset_celsius()
        assert rng_zero.random() == rng_one.random()

    def test_clear_events_keeps_stream(self):
        injector = injector_for(FaultConfig.uniform(1.0))
        injector.setfreq_fault(0.0)
        assert injector.events
        injector.clear_events()
        assert injector.events == ()


class TestFaultyFrequencyPlan:
    def _plan(self, config, anchors=None, extra_delay_us=0.0, seed=7):
        if anchors is None:
            anchors = [AnchoredSwitch(0, 1000.0)]
        injector = injector_for(config, seed)
        return FaultyFrequencyPlan(
            1800.0, anchors, injector, extra_delay_us=extra_delay_us
        )

    def test_requires_injector(self):
        with pytest.raises(FaultInjectionError):
            FaultyFrequencyPlan(1800.0, [], None)

    def test_bad_duplicate_gap_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultyFrequencyPlan(
                1800.0, [], injector_for(FaultConfig.none()),
                duplicate_gap_us=0.0,
            )

    def test_healthy_config_behaves_like_plain_plan(self):
        plan = self._plan(FaultConfig.none())
        plan.on_op_start(0, 0.0)
        assert plan.frequency_at(0.0) == 1000.0
        assert plan.applied_switch_count == 1

    def test_dropped_dispatch_never_applies(self):
        plan = self._plan(FaultConfig(setfreq_drop_rate=1.0))
        plan.on_op_start(0, 0.0)
        assert plan.frequency_at(1e9) == 1800.0
        assert plan.applied_switch_count == 0
        assert plan.injector.events[0].kind == "dropped"

    def test_duplicated_dispatch_applies_twice(self):
        plan = self._plan(FaultConfig(setfreq_duplicate_rate=1.0))
        plan.on_op_start(0, 0.0)
        assert plan.frequency_at(0.0) == 1000.0
        redelivery = plan.next_switch_after(0.0)
        assert redelivery is not None
        assert redelivery.time_us == pytest.approx(500.0)
        assert plan.frequency_at(500.0) == 1000.0
        assert plan.applied_switch_count == 2

    def test_delayed_dispatch_lands_late(self):
        plan = self._plan(
            FaultConfig(setfreq_delay_rate=1.0, setfreq_delay_max_us=10_000.0)
        )
        plan.on_op_start(0, 0.0)
        assert plan.frequency_at(0.0) == 1800.0
        switch = plan.next_switch_after(0.0)
        assert switch is not None
        assert 0.0 < switch.time_us <= 10_000.0
        assert plan.frequency_at(10_000.0) == 1000.0

    def test_stuck_controller_holds_and_queues(self):
        plan = self._plan(
            FaultConfig(setfreq_stuck_rate=1.0, setfreq_stuck_hold_us=30_000.0),
            anchors=[
                AnchoredSwitch(0, 1000.0),
                AnchoredSwitch(1, 1200.0),
                AnchoredSwitch(2, 1500.0),
            ],
            extra_delay_us=1000.0,
        )
        plan.on_op_start(0, 0.0)  # held 30 ms; lands at 31 000
        plan.on_op_start(1, 5_000.0)  # controller busy -> queued
        plan.on_op_start(2, 10_000.0)  # supersedes the held 1200 MHz
        assert plan.dropped_switch_count == 1
        assert plan.frequency_at(30_999.0) == 1800.0
        assert plan.frequency_at(31_000.0) == 1000.0
        # The queued 1500 MHz re-issues after completion and lands one
        # controller latency later.
        assert plan.frequency_at(32_000.0) == 1500.0
        assert plan.applied_switch_count == 2

    def test_reset_clears_busy_window(self):
        plan = self._plan(
            FaultConfig(setfreq_stuck_rate=1.0, setfreq_stuck_hold_us=30_000.0)
        )
        plan.on_op_start(0, 0.0)
        plan.reset()
        assert plan.frequency_at(0.0) == 1800.0
        assert plan.applied_switch_count == 0

    def test_runs_under_device(self, device):
        # A moderately hostile plan must still drive a full execution
        # (no infinite chunk-splitting, no stuck clock).
        ops = [make_compute_op(name=f"f.op{i}") for i in range(8)]
        trace = build_trace("faulty", ops)
        plan = self._plan(
            FaultConfig.uniform(0.3),
            anchors=[
                AnchoredSwitch(1, 1000.0),
                AnchoredSwitch(3, 1500.0),
                AnchoredSwitch(5, 1200.0),
            ],
            extra_delay_us=1000.0,
        )
        result = device.run(trace, plan)
        assert result.duration_us > 0
        assert len(result.records) == 8


class TestFaultyPowerTelemetry:
    def _telemetry(self, npu_spec, config, seed=5):
        return FaultyPowerTelemetry(
            npu_spec,
            RngFactory(seed).generator("telem"),
            injector_for(config),
        )

    def _healthy(self, npu_spec, seed=5):
        return PowerTelemetry(npu_spec, RngFactory(seed).generator("telem"))

    def _chunks(self, device):
        ops = [make_compute_op(name=f"t.op{i}") for i in range(6)]
        trace = build_trace("telem", ops)
        return device.run(trace, FrequencyTimeline.constant(1800.0)).chunks

    def test_requires_injector(self, npu_spec):
        with pytest.raises(FaultInjectionError):
            FaultyPowerTelemetry(
                npu_spec, RngFactory(5).generator("telem"), None
            )

    def test_all_dropped_raises(self, npu_spec, device):
        telemetry = self._telemetry(
            npu_spec, FaultConfig(telemetry_dropout_rate=1.0)
        )
        with pytest.raises(TelemetryError):
            telemetry.sample_chunks(self._chunks(device), interval_us=50.0)

    def test_partial_dropout_thins_samples(self, npu_spec, device):
        chunks = self._chunks(device)
        healthy = self._healthy(npu_spec).sample_chunks(
            chunks, interval_us=50.0
        )
        faulty = self._telemetry(
            npu_spec, FaultConfig(telemetry_dropout_rate=0.5)
        ).sample_chunks(chunks, interval_us=50.0)
        assert 1 <= len(faulty) < len(healthy)

    def test_stuck_sensor_repeats_last_value(self, npu_spec, device):
        samples = self._telemetry(
            npu_spec, FaultConfig(telemetry_stuck_rate=1.0)
        ).sample_chunks(self._chunks(device), interval_us=50.0)
        assert len(samples) > 1
        assert len({s.soc_watts for s in samples}) == 1
        # Timestamps still advance even though the reading is frozen.
        assert samples[0].time_us < samples[-1].time_us

    def test_spike_scales_samples(self, npu_spec, device):
        chunks = self._chunks(device)
        healthy = self._healthy(npu_spec).sample_chunks(
            chunks, interval_us=50.0
        )
        spiked = self._telemetry(
            npu_spec,
            FaultConfig(
                telemetry_spike_rate=1.0, telemetry_spike_magnitude=0.5
            ),
        ).sample_chunks(chunks, interval_us=50.0)
        assert len(spiked) == len(healthy)
        for clean, spike in zip(healthy, spiked):
            assert spike.soc_watts == pytest.approx(clean.soc_watts * 1.5)

    def test_measure_spike_biases_aggregate(self, npu_spec, device):
        chunks = self._chunks(device)
        healthy = self._healthy(npu_spec).measure_chunks(chunks)
        spiked = self._telemetry(
            npu_spec,
            FaultConfig(
                telemetry_spike_rate=1.0, telemetry_spike_magnitude=0.5
            ),
        ).measure_chunks(chunks)
        assert spiked.soc_avg_watts == pytest.approx(
            healthy.soc_avg_watts * 1.5
        )

    @pytest.mark.parametrize(
        "rates",
        [
            dict(telemetry_dropout_rate=0.5),
            dict(telemetry_stuck_rate=0.5),
            dict(telemetry_spike_rate=0.5),
            dict(
                telemetry_dropout_rate=0.2,
                telemetry_stuck_rate=0.3,
                telemetry_spike_rate=0.3,
            ),
            dict(telemetry_stuck_rate=1.0, telemetry_spike_rate=1.0),
        ],
    )
    def test_reads_match_the_object_walk(self, npu_spec, device, rates):
        """Samples, measurements, both streams and the fault log equal
        the per-object fault loop's, bit for bit."""
        from tests.oracles import (
            object_measure,
            object_measure_chunks,
            object_sample_chunks,
        )

        config = FaultConfig(**rates)
        ops = [make_compute_op(name=f"t.op{i}") for i in range(6)]
        result = device.run(
            build_trace("telem", ops), FrequencyTimeline.constant(1800.0)
        )
        chunks = result.chunks
        for seed in range(10):
            arrays = FaultyPowerTelemetry(
                npu_spec,
                RngFactory(seed).generator("telem"),
                injector_for(config, seed),
            )
            objects = FaultyPowerTelemetry(
                npu_spec,
                RngFactory(seed).generator("telem"),
                injector_for(config, seed),
            )
            assert arrays.measure_chunks(chunks) == object_measure_chunks(
                objects, chunks
            )
            assert arrays.sample_chunks(chunks, 50.0) == object_sample_chunks(
                objects, chunks, 50.0
            )
            assert arrays.measure(result) == object_measure(objects, result)
            assert arrays.injector.events == objects.injector.events
            for a, b in ((arrays, objects), (arrays.injector, objects.injector)):
                assert a._rng.bit_generator.state == b._rng.bit_generator.state

    def test_operator_power_keeps_all_names(self, npu_spec, device):
        ops = [make_compute_op(name=f"t.op{i}") for i in range(6)]
        trace = build_trace("telem", ops)
        result = device.run(trace, FrequencyTimeline.constant(1800.0))
        readings = self._telemetry(
            npu_spec, FaultConfig(telemetry_spike_rate=1.0)
        ).measure_operator_power(result)
        assert set(readings) == {op.name for op in ops}


class TestFaultyProfiler:
    def _profiler(self, npu_spec, config, seed=5):
        return FaultyCannStyleProfiler(
            npu_spec,
            RngFactory(seed).generator("prof"),
            injector_for(config),
        )

    def _result(self, device, n=10):
        ops = [make_compute_op(name=f"p.op{i}") for i in range(n)]
        trace = build_trace("prof", ops)
        return device.run(trace, FrequencyTimeline.constant(1800.0))

    def test_requires_injector(self, npu_spec):
        with pytest.raises(FaultInjectionError):
            FaultyCannStyleProfiler(
                npu_spec, RngFactory(5).generator("prof"), None
            )

    def test_healthy_config_matches_plain_profiler(self, npu_spec, device):
        result = self._result(device)
        plain = CannStyleProfiler(
            npu_spec, RngFactory(5).generator("prof")
        ).profile(result)
        faulty = self._profiler(npu_spec, FaultConfig.none()).profile(result)
        assert faulty == plain

    def test_record_loss(self, npu_spec, device):
        profiler = self._profiler(
            npu_spec, FaultConfig(profiler_drop_rate=0.5)
        )
        report = profiler.profile(self._result(device))
        assert 1 <= len(report) < 10
        kinds = {event.kind for event in profiler.injector.events}
        assert "records_dropped" in kinds

    def test_never_returns_empty_report(self, npu_spec, device):
        profiler = self._profiler(
            npu_spec, FaultConfig(profiler_drop_rate=1.0)
        )
        report = profiler.profile(self._result(device))
        assert len(report) == 1
        kinds = {event.kind for event in profiler.injector.events}
        assert "all_records_lost" in kinds

    def test_truncation_keeps_fraction(self, npu_spec, device):
        profiler = self._profiler(
            npu_spec,
            FaultConfig(
                profiler_truncate_rate=1.0,
                profiler_truncate_keep_fraction=0.6,
            ),
        )
        report = profiler.profile(self._result(device, n=10))
        assert len(report) == 6


class TestModelFaultTolerance:
    def test_missing_from_some_reports_rejected_by_default(
        self, bert_profile_reports
    ):
        victim = bert_profile_reports[0].operators[0].name
        damaged = list(bert_profile_reports)
        # 1800 MHz is an extreme, so it is always among the fit points
        # (dropping from the first report would drop the reference name).
        damaged[-1] = replace(
            damaged[-1],
            operators=tuple(
                op for op in damaged[-1].operators if op.name != victim
            ),
        )
        with pytest.raises(ProfilingError):
            build_performance_model(damaged)

    def test_allow_missing_degrades_instead(self, bert_profile_reports):
        victim = bert_profile_reports[0].operators[0].name
        damaged = list(bert_profile_reports)
        damaged[-1] = replace(
            damaged[-1],
            operators=tuple(
                op for op in damaged[-1].operators if op.name != victim
            ),
        )
        model = build_performance_model(damaged, allow_missing=True)
        assert model.predict_time_us(victim, 1400.0) > 0

    def test_allow_missing_unchanged_on_healthy_reports(
        self, bert_profile_reports
    ):
        strict = build_performance_model(bert_profile_reports)
        tolerant = build_performance_model(
            bert_profile_reports, allow_missing=True
        )
        name = next(iter(strict.operators))
        assert tolerant.predict_time_us(name, 1300.0) == pytest.approx(
            strict.predict_time_us(name, 1300.0)
        )
        assert set(tolerant.operators) == set(strict.operators)

    def test_patch_missing_operators(self, bert_profile_reports):
        victim = bert_profile_reports[0].operators[0].name
        damaged = [
            replace(
                report,
                operators=tuple(
                    op for op in report.operators if op.name != victim
                ),
            )
            for report in bert_profile_reports
        ]
        model = build_performance_model(damaged, allow_missing=True)
        assert victim not in model.operators
        patched = patch_missing_operators(model, bert_profile_reports[0])
        assert victim in patched.operators
        # The patched predictor is frequency-insensitive (constant).
        assert patched.predict_time_us(victim, 1000.0) == pytest.approx(
            patched.predict_time_us(victim, 1800.0)
        )

    def test_patch_noop_when_nothing_missing(self, bert_profile_reports):
        model = build_performance_model(bert_profile_reports)
        assert patch_missing_operators(model, bert_profile_reports[0]) is model
