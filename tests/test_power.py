"""Tests for power calibration, models, and validation (paper Sect. 5, 7.3)."""

import pytest

from repro.analysis.rng import RngFactory
from repro.errors import CalibrationError
from repro.npu import NpuDevice, PowerTelemetry, noise_free_spec
from repro.power import (
    CalibrationConstants,
    IdlePowerFit,
    PowerObservation,
    build_operator_power_table,
    calibrate_idle_power,
    extract_gamma,
    extract_temperature_slope,
    fit_load_power_model,
    solve_alpha,
    validate_power_model,
)
from repro.workloads import generate
from repro.workloads.generators import micro


@pytest.fixture(scope="module")
def ideal_instruments():
    spec = noise_free_spec()
    device = NpuDevice(spec)
    telemetry = PowerTelemetry(spec, RngFactory(5).generator("t"))
    return spec, device, telemetry


@pytest.fixture(scope="module")
def ideal_calibration(ideal_instruments):
    from repro.power import run_offline_calibration

    _, device, telemetry = ideal_instruments
    return run_offline_calibration(
        device,
        telemetry,
        micro.mixed_calibration_load(repeats=10),
        k_loads=[micro.matmul_loop(repeats=20), micro.gelu_loop(repeats=20)],
    )


class TestIdleCalibration:
    def test_recovers_ground_truth_exactly_without_noise(
        self, ideal_instruments
    ):
        spec, device, telemetry = ideal_instruments
        aicore_fit, soc_fit = calibrate_idle_power(device, telemetry)
        assert aicore_fit.beta_w_per_ghz_v2 == pytest.approx(
            spec.power.beta_w_per_ghz_v2, rel=0.15
        )
        assert aicore_fit.theta_w_per_v == pytest.approx(
            spec.power.theta_w_per_v, rel=0.15
        )
        # SoC idle dominated by the uncore floor.
        assert soc_fit.predict(1000.0, 0.78) > 100.0

    def test_idle_fit_predict_matches_device(self, ideal_instruments):
        spec, device, telemetry = ideal_instruments
        aicore_fit, _ = calibrate_idle_power(device, telemetry)
        # The fit interpolates its own two calibration points exactly; at a
        # mid frequency the small thermal drift keeps it close.
        truth = device.evaluator.idle_aicore_power(1400.0, 0.0)
        assert aicore_fit.predict(1400.0, spec.volts_at(1400.0)) == (
            pytest.approx(truth, rel=0.1)
        )

    def test_rejects_equal_frequencies(self, ideal_instruments):
        _, device, telemetry = ideal_instruments
        with pytest.raises(CalibrationError):
            calibrate_idle_power(device, telemetry, freqs_mhz=(1000.0, 1000.0))


class TestGammaExtraction:
    def test_recovers_gamma_aicore(self, ideal_instruments):
        spec, device, telemetry = ideal_instruments
        observation = extract_gamma(
            device, telemetry, micro.matmul_loop(repeats=20)
        )
        assert observation.gamma_aicore_w_per_c_v == pytest.approx(
            spec.power.gamma_aicore_w_per_c_v, rel=0.05
        )

    def test_soc_slope_includes_uncore_leakage(self, ideal_instruments):
        spec, device, telemetry = ideal_instruments
        observation = extract_gamma(
            device, telemetry, micro.matmul_loop(repeats=20)
        )
        expected_slope = (
            spec.power.gamma_aicore_w_per_c_v * 0.78
            + spec.power.gamma_uncore_w_per_c_v * spec.power.uncore_volts
        )
        assert observation.soc_fit.slope == pytest.approx(
            expected_slope, rel=0.05
        )

    def test_cold_load_rejected(self, ideal_instruments):
        _, device, telemetry = ideal_instruments
        tiny = micro.operator_loop(
            micro.oplib.aicpu("cool", 10.0), repeats=1, name="cool_loop"
        )
        with pytest.raises(CalibrationError):
            extract_gamma(device, telemetry, tiny)


class TestTemperatureSlope:
    def test_recovers_k(self, ideal_instruments):
        spec, device, telemetry = ideal_instruments
        fit = extract_temperature_slope(
            device,
            telemetry,
            [micro.matmul_loop(repeats=20), micro.gelu_loop(repeats=20)],
        )
        assert fit.slope == pytest.approx(
            spec.thermal.celsius_per_watt, rel=0.1
        )
        assert fit.r_squared > 0.98


class TestAlphaSolving:
    def test_alpha_roundtrip(self, ideal_calibration):
        """solve_alpha inverts the model's own prediction."""
        from repro.power import LoadPowerModel

        model = LoadPowerModel(
            name="x",
            alpha_aicore=12.0,
            alpha_soc=20.0,
            constants=ideal_calibration,
        )
        prediction = model.predict(1400.0)
        observation = PowerObservation(
            freq_mhz=1400.0,
            aicore_watts=prediction.aicore_watts,
            soc_watts=prediction.soc_watts,
        )
        alpha_aicore, alpha_soc = solve_alpha(observation, ideal_calibration)
        assert alpha_aicore == pytest.approx(12.0, rel=1e-3)
        assert alpha_soc == pytest.approx(20.0, rel=1e-3)

    def test_fit_requires_observations(self, ideal_calibration):
        with pytest.raises(CalibrationError):
            fit_load_power_model("x", [], ideal_calibration)

    def test_prediction_monotone_in_frequency(self, ideal_calibration):
        model = fit_load_power_model(
            "x",
            [PowerObservation(1000.0, 30.0, 230.0),
             PowerObservation(1800.0, 46.0, 255.0)],
            ideal_calibration,
        )
        powers = [model.predict(f).aicore_watts for f in (1000, 1400, 1800)]
        assert powers[0] < powers[1] < powers[2]

    def test_thermal_iterations_within_paper_bound(self, ideal_calibration):
        """Sect. 5.4.2: the AT iteration converges in no more than 4 steps
        at the paper's tolerance scale."""
        model = fit_load_power_model(
            "x",
            [PowerObservation(1800.0, 46.0, 250.0)],
            ideal_calibration,
        )
        prediction = model.predict(1400.0, tol=0.05)
        assert prediction.thermal_iterations <= 4
        assert prediction.delta_celsius > 0

    def test_gamma_zero_ablation_changes_prediction(self, ideal_calibration):
        observation = PowerObservation(1800.0, 46.0, 250.0)
        with_thermal = fit_load_power_model(
            "x", [observation], ideal_calibration
        )
        without = fit_load_power_model(
            "x", [observation], ideal_calibration.without_thermal_term()
        )
        assert without.constants.gamma_soc_w_per_c_v == 0.0
        assert with_thermal.predict(1200.0).aicore_watts != pytest.approx(
            without.predict(1200.0).aicore_watts
        )


class TestOperatorPowerTable:
    def test_build_from_readings(self, ideal_calibration):
        readings = {
            1000.0: {"a": (30.0, 230.0), "b": (20.0, 210.0)},
            1800.0: {"a": (46.0, 255.0), "b": (30.0, 235.0)},
        }
        table = build_operator_power_table(readings, ideal_calibration)
        assert len(table) == 2
        assert table.entry("a").alpha_aicore > table.entry("b").alpha_aicore

    def test_alpha_clamped_nonnegative(self, ideal_calibration):
        readings = {1800.0: {"cold": (1.0, 180.0)}}
        table = build_operator_power_table(readings, ideal_calibration)
        assert table.entry("cold").alpha_aicore == 0.0

    def test_unknown_operator_rejected(self, ideal_calibration):
        table = build_operator_power_table(
            {1800.0: {"a": (40.0, 250.0)}}, ideal_calibration
        )
        with pytest.raises(CalibrationError):
            table.entry("missing")

    def test_power_matrix_shapes_and_monotonicity(self, ideal_calibration):
        readings = {
            1000.0: {"a": (30.0, 230.0)},
            1800.0: {"a": (46.0, 255.0)},
        }
        table = build_operator_power_table(readings, ideal_calibration)
        freqs = [1000.0, 1400.0, 1800.0]
        matrix = table.aicore_power_matrix(["a"], freqs)
        assert matrix.shape == (1, 3)
        assert matrix[0, 0] < matrix[0, 1] < matrix[0, 2]
        soc = table.soc_power_matrix(["a"], freqs)
        assert (soc > matrix).all()

    def test_empty_readings_rejected(self, ideal_calibration):
        with pytest.raises(CalibrationError):
            build_operator_power_table({}, ideal_calibration)


class TestPowerValidation:
    def test_table2_shape(self, ideal_instruments, ideal_calibration):
        """Sect. 7.3 protocol on noise-free instruments: models fit at the
        extremes predict mid frequencies within a few percent."""
        _, device, telemetry = ideal_instruments
        loads = [
            generate("bert", scale=0.1),
            micro.softmax_loop(repeats=30),
        ]
        validation = validate_power_model(
            loads,
            device,
            telemetry,
            ideal_calibration,
            validation_freqs_mhz=[1200.0, 1400.0, 1600.0],
        )
        assert validation.mean_error < 0.06
        buckets = validation.bucket_table()
        assert sum(buckets.values()) == pytest.approx(1.0)

    def test_gamma_ablation_is_worse_or_equal(
        self, ideal_instruments, ideal_calibration
    ):
        """Table 2 vs the gamma = 0 ablation (4.62% vs 4.97% in the paper):
        dropping the thermal term must not improve accuracy."""
        _, device, telemetry = ideal_instruments
        loads = [micro.softmax_loop(repeats=30), micro.matmul_loop(repeats=10)]
        kwargs = dict(validation_freqs_mhz=[1200.0, 1500.0, 1700.0])
        with_thermal = validate_power_model(
            loads, device, telemetry, ideal_calibration, **kwargs
        )
        without = validate_power_model(
            loads, device, telemetry,
            ideal_calibration.without_thermal_term(), **kwargs
        )
        assert without.mean_error >= with_thermal.mean_error * 0.9

    def test_validation_requires_frequencies(
        self, ideal_instruments, ideal_calibration
    ):
        _, device, telemetry = ideal_instruments
        with pytest.raises(CalibrationError):
            validate_power_model(
                [micro.matmul_loop(repeats=5)],
                device,
                telemetry,
                ideal_calibration,
                validation_freqs_mhz=[],
            )

    def test_errors_for_load(self, ideal_instruments, ideal_calibration):
        _, device, telemetry = ideal_instruments
        validation = validate_power_model(
            [micro.tanh_loop(repeats=20)],
            device,
            telemetry,
            ideal_calibration,
            validation_freqs_mhz=[1400.0],
        )
        records = validation.errors_for("tanh_loop")
        assert len(records) == 2  # aicore + soc rails
        assert {r.rail for r in records} == {"aicore", "soc"}


class TestConstants:
    def test_idle_fit_predict(self):
        fit = IdlePowerFit(beta_w_per_ghz_v2=2.0, theta_w_per_v=5.0)
        assert fit.predict(1000.0, 0.8) == pytest.approx(
            2.0 * 1.0 * 0.64 + 5.0 * 0.8
        )

    def test_without_thermal_term(self, ideal_calibration):
        ablated = ideal_calibration.without_thermal_term()
        assert ablated.gamma_aicore_w_per_c_v == 0.0
        assert ablated.gamma_soc_w_per_c_v == 0.0
        assert isinstance(ablated, CalibrationConstants)
        # Other constants unchanged.
        assert ablated.k_celsius_per_watt == (
            ideal_calibration.k_celsius_per_watt
        )


def _uncached_calibration(config, draws):
    """The uncached reference: a fresh device, the standard calibration
    loads, and ``run_offline_calibration`` end to end."""
    from repro.core import EnergyOptimizer
    from repro.npu import NpuDevice
    from repro.power import run_offline_calibration

    optimizer = EnergyOptimizer(config)
    optimizer.telemetry.rng.random(draws)
    constants = run_offline_calibration(
        NpuDevice(config.npu),
        optimizer.telemetry,
        micro.mixed_calibration_load(repeats=20),
        [micro.matmul_loop(repeats=40), micro.gelu_loop(repeats=40)],
    )
    return _calibration_outcome(optimizer, constants)


def _calibration_outcome(optimizer, constants):
    """Constants, the telemetry's stream position, and any injected faults."""
    injector = optimizer.injector
    return (
        constants,
        optimizer.telemetry.rng.bit_generator.state,
        injector.events if injector is not None else None,
    )


def _cached_calibration(config, draws):
    from repro.core import EnergyOptimizer

    optimizer = EnergyOptimizer(config)
    optimizer.telemetry.rng.random(draws)
    return _calibration_outcome(optimizer, optimizer.calibrate())


@pytest.fixture()
def cold_calibration_cache(monkeypatch):
    """An empty process-wide calibration-runs cache for one test."""
    from repro.core import optimizer as optimizer_module

    cache: dict = {}
    monkeypatch.setattr(optimizer_module, "_CALIBRATION_RUNS", cache)
    return cache


class TestCalibrationRunsCache:
    """``calibrate()`` over cached runs equals an uncached calibration."""

    SEEDS = range(50)

    @staticmethod
    def _config(setting, seed):
        from repro.core import OptimizerConfig
        from repro.npu import noise_free_spec
        from repro.npu.faults import FaultConfig

        if setting == "zero-noise":
            return OptimizerConfig(seed=seed, npu=noise_free_spec())
        if setting == "telemetry-faults":
            return OptimizerConfig(
                seed=seed,
                fault=FaultConfig(
                    telemetry_dropout_rate=0.05,
                    telemetry_stuck_rate=0.05,
                    telemetry_spike_rate=0.05,
                ),
            )
        return OptimizerConfig(seed=seed)

    @pytest.mark.parametrize(
        "setting", ["default", "zero-noise", "telemetry-faults"]
    )
    def test_matches_uncached_calibration(
        self, cold_calibration_cache, setting
    ):
        for seed in self.SEEDS:
            config = self._config(setting, seed)
            for draws in (0, 1 + seed % 7):
                assert _cached_calibration(config, draws) == (
                    _uncached_calibration(config, draws)
                ), (seed, draws)
        assert len(cold_calibration_cache) == 1

    @pytest.mark.parametrize(
        "setting",
        ["default", "zero-noise", "reference-only", "telemetry-faults"],
    )
    def test_array_replay_matches_the_object_walk(
        self, cold_calibration_cache, setting
    ):
        """``calibrate()`` over the cached arrays equals the walk over
        ``PowerSample`` objects and chunk-level measurements, bit for bit:
        constants, both noise streams and the fault log."""
        import contextlib

        from repro.core import EnergyOptimizer
        from repro.npu import NpuDevice
        from repro.npu.engine import reference_only
        from tests.oracles import (
            collect_object_calibration_runs,
            object_fit_calibration,
        )

        def outcome(optimizer, constants):
            injector = optimizer.injector
            return _calibration_outcome(optimizer, constants) + (
                None if injector is None else injector._rng.bit_generator.state,
            )

        noise = "default" if setting == "reference-only" else setting
        engine = (
            reference_only() if setting == "reference-only"
            else contextlib.nullcontext()
        )
        with engine:
            runs = collect_object_calibration_runs(
                NpuDevice(self._config(noise, 0).npu),
                micro.mixed_calibration_load(repeats=20),
                [micro.matmul_loop(repeats=40), micro.gelu_loop(repeats=40)],
            )
            for seed in self.SEEDS:
                config = self._config(noise, seed)
                for draws in (0, 1 + seed % 7):
                    cached = EnergyOptimizer(config)
                    cached.telemetry.rng.random(draws)
                    walked = EnergyOptimizer(config)
                    walked.telemetry.rng.random(draws)
                    assert outcome(cached, cached.calibrate()) == outcome(
                        walked, object_fit_calibration(runs, walked.telemetry)
                    ), (seed, draws)
        assert len(cold_calibration_cache) == 1

    def test_calibrate_raises_when_every_cooldown_sample_drops(self):
        from repro.core import EnergyOptimizer, OptimizerConfig
        from repro.errors import TelemetryError
        from repro.npu.faults import FaultConfig

        optimizer = EnergyOptimizer(
            OptimizerConfig(
                seed=0, fault=FaultConfig(telemetry_dropout_rate=1.0)
            )
        )
        with pytest.raises(TelemetryError):
            optimizer.calibrate()

    def test_runs_hold_no_chunks_or_results(self, cold_calibration_cache):
        import dataclasses

        import numpy as np

        from repro.core import EnergyOptimizer
        from repro.npu.device import ExecutionResult, PowerChunk

        EnergyOptimizer(self._config("default", 0)).calibrate()
        (runs,) = cold_calibration_cache.values()

        def walk(value):
            assert not isinstance(value, (PowerChunk, ExecutionResult))
            if isinstance(value, np.ndarray):
                assert value.dtype == np.float64
                assert not value.flags.writeable
            elif isinstance(value, (tuple, list)):
                for item in value:
                    walk(item)
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    walk(getattr(value, field.name))

        walk(runs)
        assert runs.cooldown.times_us.size == 600
        assert runs.load_points.soc_avg_watts.size == 6

    def test_faulty_telemetry_runs_through_the_cache(self):
        from repro.core import EnergyOptimizer
        from repro.npu.faults import FaultyPowerTelemetry

        optimizer = EnergyOptimizer(self._config("telemetry-faults", 0))
        assert type(optimizer.telemetry) is FaultyPowerTelemetry
        optimizer.calibrate()
        events = optimizer.injector.events
        assert {event.kind for event in events} == {"dropout", "stuck", "spike"}
        assert {event.site for event in events} == {"telemetry"}
        # Cooldown samples log their sample time; aggregates log none.
        assert any(event.time_us is not None for event in events)

    def test_reference_only_keys_its_own_runs(self, cold_calibration_cache):
        """Under ``reference_only()`` the cache serves the reference-loop
        runs, which differ from the fast path's at rounding level."""
        from repro.npu.engine import reference_only

        fast = _cached_calibration(self._config("default", 3), 0)
        with reference_only():
            for seed in self.SEEDS:
                config = self._config("default", seed)
                for draws in (0, 1 + seed % 7):
                    assert _cached_calibration(config, draws) == (
                        _uncached_calibration(config, draws)
                    ), (seed, draws)
            reference = _cached_calibration(self._config("default", 3), 0)
        assert len(cold_calibration_cache) == 2
        assert fast[0] != reference[0]
        assert fast[0] == _uncached_calibration(self._config("default", 3), 0)[0]

    def test_threads_on_a_cold_cache_match_serial(
        self, cold_calibration_cache
    ):
        import threading

        seeds = (0, 7, 19, 42)
        serial = [
            _uncached_calibration(self._config("default", s), 0) for s in seeds
        ]
        assert not cold_calibration_cache
        start = threading.Barrier(len(seeds))
        results: dict[int, tuple] = {}

        def calibrate(index: int, seed: int) -> None:
            start.wait()
            results[index] = _cached_calibration(
                self._config("default", seed), 0
            )

        threads = [
            threading.Thread(target=calibrate, args=(i, s))
            for i, s in enumerate(seeds)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [results[i] for i in range(len(seeds))] == serial
        assert len(cold_calibration_cache) == 1
