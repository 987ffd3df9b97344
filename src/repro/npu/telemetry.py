"""Software substitute for Ascend's ``lpmi_tool`` power telemetry.

The paper samples SoC/AICore power and chip temperature during runs and
cooldowns.  :class:`PowerTelemetry` resamples the device's piecewise-
constant power chunks at a fixed interval, adding sensor noise, and offers
the aggregate measurements the calibration flow needs (average power over a
run, cooldown decay traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ProfilingError
from repro.npu.device import ExecutionResult, PowerChunk
from repro.npu.spec import NpuSpec
from repro.units import US_PER_S


@dataclass(frozen=True)
class PowerSample:
    """One telemetry reading."""

    time_us: float
    soc_watts: float
    aicore_watts: float
    celsius: float


@dataclass(frozen=True)
class PowerMeasurement:
    """Aggregate power measurement over a run (what Table 3 reports)."""

    duration_us: float
    soc_avg_watts: float
    aicore_avg_watts: float
    avg_celsius: float


class PowerTelemetry:
    """Samples and aggregates power data with sensor noise."""

    def __init__(self, npu: NpuSpec, rng: np.random.Generator) -> None:
        self._npu = npu
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The instrument's noise stream (shared with grid profiling)."""
        return self._rng

    def sample_chunks(
        self, chunks: Sequence[PowerChunk], interval_us: float = 1000.0
    ) -> list[PowerSample]:
        """Read sensors every ``interval_us`` across a chunk sequence.

        ``chunks`` must be in time order, as a device emits them.  Sample
        ``i`` is taken at the ``i``-th running sum of ``interval_us`` from
        the first chunk's start (added one step at a time) and reads the
        first chunk still running then.  The sensor noise of all samples
        is drawn in one call, in per-sample (SoC, AICore, temperature)
        order; a zero sigma draws nothing for its channel.

        Raises:
            ProfilingError: on no chunks, a non-positive interval, or a
                window that spans no time.
        """
        if not chunks:
            raise ProfilingError("no power chunks to sample")
        if interval_us <= 0:
            raise ProfilingError(f"interval must be positive: {interval_us}")
        times = _sample_times(chunks[0].start_us, chunks[-1].end_us, interval_us)
        ends = np.fromiter((c.end_us for c in chunks), float, len(chunks))
        which = np.searchsorted(ends, times, side="right")
        soc = np.fromiter((c.soc_watts for c in chunks), float, len(chunks))
        aicore = np.fromiter(
            (c.aicore_watts for c in chunks), float, len(chunks)
        )
        celsius = np.fromiter((c.celsius for c in chunks), float, len(chunks))
        soc, aicore, celsius = soc[which], aicore[which], celsius[which]
        noise = self._npu.noise
        power_sigma = noise.power_sigma
        temp_sigma = noise.temperature_sigma_celsius
        channels = 2 * (power_sigma > 0) + (temp_sigma > 0)
        if channels:
            draws = self._rng.standard_normal(times.size * channels)
            draws = draws.reshape(times.size, channels)
            if power_sigma > 0:
                # ``_noisy`` on every sample: value * max(0.5, 1 + N(0, s)).
                soc = soc * np.maximum(0.5, 1.0 + power_sigma * draws[:, 0])
                aicore = aicore * np.maximum(
                    0.5, 1.0 + power_sigma * draws[:, 1]
                )
            if temp_sigma > 0:
                celsius = celsius + temp_sigma * draws[:, -1]
        return [
            PowerSample(t, s, a, c)
            for t, s, a, c in zip(
                times.tolist(), soc.tolist(), aicore.tolist(), celsius.tolist()
            )
        ]

    def measure(self, result: ExecutionResult) -> PowerMeasurement:
        """Noisy aggregate measurement of a full execution.

        Averages are energy-weighted (true averages) with one multiplicative
        sensor error applied, matching how a power meter integrates.
        """
        noise = self._npu.noise
        weights = np.array([c.duration_us for c in result.chunks])
        temps = np.array([c.celsius for c in result.chunks])
        avg_celsius = float(np.average(temps, weights=weights))
        return PowerMeasurement(
            duration_us=result.duration_us,
            soc_avg_watts=self._noisy(result.soc_avg_watts, noise.power_sigma),
            aicore_avg_watts=self._noisy(
                result.aicore_avg_watts, noise.power_sigma
            ),
            avg_celsius=avg_celsius,
        )

    def measure_chunks(self, chunks: Sequence[PowerChunk]) -> PowerMeasurement:
        """Noisy aggregate measurement over an arbitrary chunk sequence."""
        if not chunks:
            raise ProfilingError("no power chunks to measure")
        noise = self._npu.noise
        duration = chunks[-1].end_us - chunks[0].start_us
        weights = np.array([c.duration_us for c in chunks])
        if not weights.sum() > 0:
            raise ProfilingError("power chunks span no time")
        soc = float(np.average([c.soc_watts for c in chunks], weights=weights))
        aicore = float(
            np.average([c.aicore_watts for c in chunks], weights=weights)
        )
        celsius = float(np.average([c.celsius for c in chunks], weights=weights))
        return PowerMeasurement(
            duration_us=duration,
            soc_avg_watts=self._noisy(soc, noise.power_sigma),
            aicore_avg_watts=self._noisy(aicore, noise.power_sigma),
            avg_celsius=celsius,
        )

    def energy_joules(self, result: ExecutionResult) -> tuple[float, float]:
        """Noisy ``(aicore, soc)`` energy readings for a run."""
        noise = self._npu.noise
        return (
            self._noisy(result.aicore_energy_j, noise.power_sigma),
            self._noisy(result.soc_energy_j, noise.power_sigma),
        )

    def measure_operator_power(
        self, result: ExecutionResult
    ) -> dict[str, tuple[float, float]]:
        """Per-operator-name ``(aicore, soc)`` average power readings.

        Attribution works like high-rate sampling synchronised with the
        profiler timeline: each operator's chunks are energy-averaged, then
        one multiplicative sensor error is applied per operator name.
        """
        noise = self._npu.noise
        energy_a: dict[str, float] = {}
        energy_s: dict[str, float] = {}
        time_us: dict[str, float] = {}
        names = {r.index: r.evaluation.spec.name for r in result.records}
        for chunk in result.chunks:
            name = names.get(chunk.op_index)
            if name is None:
                continue
            energy_a[name] = energy_a.get(name, 0.0) + (
                chunk.aicore_watts * chunk.duration_us
            )
            energy_s[name] = energy_s.get(name, 0.0) + (
                chunk.soc_watts * chunk.duration_us
            )
            time_us[name] = time_us.get(name, 0.0) + chunk.duration_us
        readings: dict[str, tuple[float, float]] = {}
        for name, total_us in time_us.items():
            readings[name] = (
                self._noisy(energy_a[name] / total_us, noise.power_sigma),
                self._noisy(energy_s[name] / total_us, noise.power_sigma),
            )
        return readings

    @staticmethod
    def true_average_power(chunks: Sequence[PowerChunk]) -> tuple[float, float]:
        """Noise-free ``(aicore, soc)`` average power over chunks."""
        if not chunks:
            raise ProfilingError("no power chunks given")
        total_us = sum(c.duration_us for c in chunks)
        if not total_us > 0:
            raise ProfilingError("power chunks span no time")
        aicore_j = sum(c.aicore_watts * c.duration_us / US_PER_S for c in chunks)
        soc_j = sum(c.soc_watts * c.duration_us / US_PER_S for c in chunks)
        seconds = total_us / US_PER_S
        return aicore_j / seconds, soc_j / seconds

    def _noisy(self, value: float, sigma: float) -> float:
        if sigma <= 0:
            return value
        return float(value * max(0.5, 1.0 + self._rng.normal(0.0, sigma)))


def _sample_times(start_us: float, end_us: float, interval_us: float) -> np.ndarray:
    """``start, start + i, (start + i) + i, ...`` while below ``end_us``.

    ``np.add.accumulate`` adds one element at a time, so each time is the
    same float a ``t += interval_us`` loop reaches.

    Raises:
        ProfilingError: if the window spans no time, or the interval is
            below the clock's float resolution at ``start_us``.
    """
    if not end_us > start_us:
        raise ProfilingError(
            f"power chunks span no time: window [{start_us}, {end_us}] us"
        )
    if start_us + interval_us == start_us:
        raise ProfilingError(
            f"interval {interval_us} us is below the clock resolution"
        )
    # One spare step absorbs the running sum's rounding, which stays far
    # below one interval for any window of fewer than ~1e8 samples.
    count = math.ceil((end_us - start_us) / interval_us) + 2
    steps = np.full(count, interval_us)
    steps[0] = start_us
    times = np.add.accumulate(steps)
    return times[: int(np.searchsorted(times, end_us, side="left"))]
