"""Offline power-model calibration (paper Sect. 5.3-5.5, Fig. 11).

The offline phase extracts hardware-level constants once per accelerator
model, using only the instruments a real deployment has (idle measurements,
a test load, and the post-load cooldown):

* **Idle power** at two frequencies solves the load-independent model
  ``P_idle(f) = beta * f * V^2 + theta * V`` exactly (Sect. 5.3) — for the
  AICore rail and for the whole SoC.
* **Gamma** (the leakage-temperature slope): after a test load completes,
  power and temperature decay gradually; the slope ``dP/dAT = gamma * V``
  of the cooldown trace gives gamma (Sect. 5.4.2).
* **k** (the temperature-power slope of Eq. 15): running several loads and
  line-fitting chip temperature against SoC power (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.analysis.linear import LineFit, fit_line, solve_two_basis
from repro.errors import CalibrationError
from repro.npu.device import NpuDevice
from repro.npu.setfreq import FrequencyTimeline
from repro.npu.telemetry import (
    PowerTelemetry,
    chunk_averages,
    execution_celsius,
    sample_points,
)
from repro.npu.voltage import VoltageCurve
from repro.workloads.trace import Trace


#: Idle settle time before each idle-power reading.
_SETTLE_US = 2_000_000.0
#: Cooldown length after the test load, and its telemetry sample count.
_COOLDOWN_US = 60_000_000.0
_COOLDOWN_STEPS = 600


@dataclass(frozen=True)
class IdlePowerFit:
    """Fitted load-independent power ``P_idle(f) = beta f V^2 + theta V``."""

    beta_w_per_ghz_v2: float
    theta_w_per_v: float

    def predict(self, freq_mhz: float, volts: float) -> float:
        """Idle power at a frequency/voltage point."""
        f_ghz = freq_mhz / 1000.0
        return self.beta_w_per_ghz_v2 * f_ghz * volts * volts + (
            self.theta_w_per_v * volts
        )


@dataclass(frozen=True)
class CalibrationConstants:
    """Everything the offline phase extracts for one accelerator model."""

    voltage: VoltageCurve
    aicore_idle: IdlePowerFit
    soc_idle: IdlePowerFit
    #: Leakage-temperature coefficients, in W per (degree * volt).
    gamma_aicore_w_per_c_v: float
    gamma_soc_w_per_c_v: float
    #: Equilibrium temperature slope of Eq. (15), degrees per SoC watt.
    k_celsius_per_watt: float
    ambient_celsius: float

    def volts(self, freq_mhz: float) -> float:
        """Supply voltage at ``freq_mhz`` per the measured V-f curve."""
        return float(self.voltage.volts(freq_mhz))

    def without_thermal_term(self) -> "CalibrationConstants":
        """The gamma = 0 ablation of Sect. 7.3 (no temperature modelling)."""
        return replace(
            self, gamma_aicore_w_per_c_v=0.0, gamma_soc_w_per_c_v=0.0
        )


@dataclass(frozen=True)
class IdleRun:
    """One idle pass of the idle-power calibration, as its meter sees it.

    The averages are duration-weighted over the pass's power chunks
    (:func:`repro.npu.telemetry.chunk_averages`).
    """

    freq_mhz: float
    soc_avg_watts: float
    aicore_avg_watts: float


@dataclass(frozen=True, eq=False)
class CooldownRun:
    """The post-load cooldown of the gamma extraction.

    Holds the true readings at the telemetry's sample times
    (:func:`repro.npu.telemetry.sample_points`), one read-only array
    entry per sample.
    """

    freq_mhz: float
    times_us: np.ndarray
    soc_watts: np.ndarray
    aicore_watts: np.ndarray
    celsius: np.ndarray


@dataclass(frozen=True, eq=False)
class LoadPoints:
    """The k-load equilibrium runs, one entry per (load, frequency) pair.

    Load-major; true average powers and the duration-weighted chip
    temperature of each run, as read-only arrays.
    """

    soc_avg_watts: np.ndarray
    aicore_avg_watts: np.ndarray
    avg_celsius: np.ndarray


@dataclass(frozen=True, eq=False)
class CalibrationRuns:
    """The device runs of the offline phase, reduced to what the meters read.

    The device draws no noise, so these are a function of the hardware
    (and of the fast-path switch, which moves results at rounding level)
    alone, and one value can serve every calibration of that hardware:
    :func:`fit_calibration` replays only the telemetry over them.  Only
    the true values the telemetry reads are kept (no power chunks or
    execution results), so a replay is a few array reads and fits.
    """

    voltage: VoltageCurve
    ambient_celsius: float
    idle: tuple[IdleRun, IdleRun]
    cooldown: CooldownRun
    load_points: LoadPoints


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


def _idle_run(device: NpuDevice, freq_mhz: float, settle_us: float) -> IdleRun:
    _, soc, aicore, _ = chunk_averages(
        device.run_idle(settle_us, freq_mhz, steps=20)
    )
    return IdleRun(freq_mhz, soc, aicore)


def _run_idle_passes(
    device: NpuDevice,
    freqs_mhz: tuple[float, float] | None,
    settle_us: float,
) -> tuple[IdleRun, IdleRun]:
    if freqs_mhz is None:
        grid = device.npu.frequencies
        freqs_mhz = (grid.min_mhz, grid.max_mhz)
    f1, f2 = freqs_mhz
    if f1 == f2:
        raise CalibrationError("idle calibration needs two distinct frequencies")
    # Idle near ambient: let the chip sit briefly, then read the meters.
    return _idle_run(device, f1, settle_us), _idle_run(device, f2, settle_us)


def _fit_idle_power(
    runs: tuple[IdleRun, IdleRun],
    telemetry: PowerTelemetry,
    voltage: VoltageCurve,
) -> tuple[IdlePowerFit, IdlePowerFit]:
    soc, aicore = telemetry.read_averages(
        np.array([run.soc_avg_watts for run in runs]),
        np.array([run.aicore_avg_watts for run in runs]),
    )
    fa, fb = (run.freq_mhz for run in runs)
    fits = []
    for wa, wb in (aicore.tolist(), soc.tolist()):
        beta, theta = solve_two_basis(
            fa,
            wa,
            fb,
            wb,
            lambda f: (f / 1000.0) * float(voltage.volts(f)) ** 2,
            lambda f: float(voltage.volts(f)),
        )
        fits.append(IdlePowerFit(beta_w_per_ghz_v2=beta, theta_w_per_v=theta))
    return fits[0], fits[1]


def calibrate_idle_power(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    freqs_mhz: tuple[float, float] | None = None,
    settle_us: float = _SETTLE_US,
) -> tuple[IdlePowerFit, IdlePowerFit]:
    """Measure idle power at two frequencies and solve (beta, theta).

    The default measurement points are the device grid's extremes (the
    paper uses 1000 and 1800 MHz on the Ascend NPU).

    Returns:
        ``(aicore_fit, soc_fit)``.

    Raises:
        CalibrationError: if the two frequencies coincide.
    """
    runs = _run_idle_passes(device, freqs_mhz, settle_us)
    return _fit_idle_power(runs, telemetry, device.npu.voltage)


@dataclass(frozen=True)
class CooldownObservation:
    """The gamma-extraction result from one post-load cooldown."""

    gamma_aicore_w_per_c_v: float
    gamma_soc_w_per_c_v: float
    aicore_fit: LineFit
    soc_fit: LineFit


def _run_cooldown(
    device: NpuDevice,
    test_load: Trace,
    cooldown_us: float,
    cooldown_freq_mhz: float | None,
    steps: int,
) -> CooldownRun:
    if cooldown_freq_mhz is None:
        cooldown_freq_mhz = device.npu.frequencies.min_mhz
    loaded = device.run_stable(test_load)
    chunks = device.run_idle(
        cooldown_us,
        cooldown_freq_mhz,
        initial_celsius=loaded.end_celsius,
        steps=steps,
    )
    times, soc, aicore, celsius = sample_points(chunks, cooldown_us / steps)
    return CooldownRun(
        freq_mhz=cooldown_freq_mhz,
        times_us=_read_only(times),
        soc_watts=_read_only(soc),
        aicore_watts=_read_only(aicore),
        celsius=_read_only(celsius),
    )


def _fit_gamma(
    run: CooldownRun,
    telemetry: PowerTelemetry,
    voltage: VoltageCurve,
    ambient_celsius: float,
) -> CooldownObservation:
    _, soc, aicore, celsius = telemetry.read_samples(
        run.times_us, run.soc_watts, run.aicore_watts, run.celsius
    )
    deltas = celsius - ambient_celsius
    span = float(deltas.max() - deltas.min())
    if span < 2.0:
        raise CalibrationError(
            "test load did not heat the chip enough for gamma extraction "
            f"(AT span {span:.2f} C)"
        )
    volts = float(voltage.volts(run.freq_mhz))
    aicore_fit = fit_line(deltas, aicore)
    soc_fit = fit_line(deltas, soc)
    return CooldownObservation(
        gamma_aicore_w_per_c_v=aicore_fit.slope / volts,
        gamma_soc_w_per_c_v=soc_fit.slope / volts,
        aicore_fit=aicore_fit,
        soc_fit=soc_fit,
    )


def extract_gamma(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    test_load: Trace,
    cooldown_us: float = _COOLDOWN_US,
    cooldown_freq_mhz: float | None = None,
    steps: int = _COOLDOWN_STEPS,
) -> CooldownObservation:
    """Run a test load, then fit power-vs-AT slopes during the cooldown.

    The chip heats under the load; after it completes, power decays with
    temperature.  The decay slope ``dP/dAT`` equals ``gamma * V`` at the
    cooldown operating point (Sect. 5.4.2).  The chip never cools all the
    way to ambient (idle power keeps it tens of degrees up), so the usable
    AT span is small and many samples are needed to beat sensor noise —
    hence the dense default sampling (one reading per 100 ms).

    Raises:
        CalibrationError: if the load barely heats the chip (degenerate fit).
    """
    run = _run_cooldown(
        device, test_load, cooldown_us, cooldown_freq_mhz, steps
    )
    npu = device.npu
    return _fit_gamma(
        run, telemetry, npu.voltage, npu.thermal.ambient_celsius
    )


def _run_load_points(
    device: NpuDevice,
    loads: Sequence[Trace],
    freqs_mhz: Sequence[float] | None,
) -> LoadPoints:
    if freqs_mhz is None:
        grid = device.npu.frequencies
        mid = grid.nearest((grid.min_mhz + grid.max_mhz) / 2.0)
        freqs_mhz = (grid.min_mhz, mid, grid.max_mhz)
    soc, aicore, celsius = [], [], []
    for load in loads:
        for freq in freqs_mhz:
            result = device.run_stable(load, FrequencyTimeline.constant(freq))
            soc.append(result.soc_avg_watts)
            aicore.append(result.aicore_avg_watts)
            celsius.append(execution_celsius(result))
    return LoadPoints(
        soc_avg_watts=_read_only(soc),
        aicore_avg_watts=_read_only(aicore),
        avg_celsius=_read_only(celsius),
    )


def _fit_temperature_slope(
    points: LoadPoints, telemetry: PowerTelemetry
) -> LineFit:
    soc, _ = telemetry.read_averages(
        points.soc_avg_watts, points.aicore_avg_watts
    )
    if soc.size < 2:
        raise CalibrationError("need at least two load points to fit k")
    return fit_line(soc, points.avg_celsius)


def extract_temperature_slope(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    loads: Sequence[Trace],
    freqs_mhz: Sequence[float] | None = None,
) -> LineFit:
    """Fit Eq. (15)'s ``T = T0 + k * P_soc`` across loads (Fig. 10 data).

    Each (load, frequency) pair contributes one equilibrium point of SoC
    power and chip temperature.

    Raises:
        CalibrationError: with fewer than two loads/frequency combinations.
    """
    results = _run_load_points(device, loads, freqs_mhz)
    return _fit_temperature_slope(results, telemetry)


def collect_calibration_runs(
    device: NpuDevice,
    test_load: Trace,
    k_loads: Sequence[Trace] | None = None,
) -> CalibrationRuns:
    """Run the device through the offline phase of Fig. 11.

    Args:
        device: the accelerator being characterised.
        test_load: a load that heats the chip for gamma extraction.
        k_loads: loads for the temperature-slope fit; defaults to the test
            load alone (several frequencies still give several points).
    """
    npu = device.npu
    return CalibrationRuns(
        voltage=npu.voltage,
        ambient_celsius=npu.thermal.ambient_celsius,
        idle=_run_idle_passes(device, None, _SETTLE_US),
        cooldown=_run_cooldown(
            device, test_load, _COOLDOWN_US, None, _COOLDOWN_STEPS
        ),
        load_points=_run_load_points(
            device, list(k_loads) if k_loads else [test_load], None
        ),
    )


def fit_calibration(
    runs: CalibrationRuns, telemetry: PowerTelemetry
) -> CalibrationConstants:
    """Read the instruments over ``runs`` and fit the offline constants.

    The telemetry reads (the two idle averages, the cooldown samples,
    the load-point averages) come in a fixed order and draw per stream
    what one measurement per idle pass, ``sample_chunks`` over the
    cooldown and one measurement per load point draw, so a telemetry's
    noise stream (and a fault injector's) ends in the same state
    whichever device produced ``runs``.
    """
    aicore_idle, soc_idle = _fit_idle_power(runs.idle, telemetry, runs.voltage)
    cooldown = _fit_gamma(
        runs.cooldown, telemetry, runs.voltage, runs.ambient_celsius
    )
    k_fit = _fit_temperature_slope(runs.load_points, telemetry)
    return CalibrationConstants(
        voltage=runs.voltage,
        aicore_idle=aicore_idle,
        soc_idle=soc_idle,
        gamma_aicore_w_per_c_v=cooldown.gamma_aicore_w_per_c_v,
        gamma_soc_w_per_c_v=cooldown.gamma_soc_w_per_c_v,
        k_celsius_per_watt=k_fit.slope,
        ambient_celsius=runs.ambient_celsius,
    )


def run_offline_calibration(
    device: NpuDevice,
    telemetry: PowerTelemetry,
    test_load: Trace,
    k_loads: Sequence[Trace] | None = None,
) -> CalibrationConstants:
    """The complete offline phase of Fig. 11: device runs, then fits.

    Args:
        device: the accelerator being characterised.
        telemetry: the power-measurement instrument.
        test_load: a load that heats the chip for gamma extraction.
        k_loads: loads for the temperature-slope fit; defaults to the test
            load alone (several frequencies still give several points).
    """
    return fit_calibration(
        collect_calibration_runs(device, test_load, k_loads), telemetry
    )
