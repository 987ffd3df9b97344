"""Software substitute for Ascend's ``lpmi_tool`` power telemetry.

The paper samples SoC/AICore power and chip temperature during runs and
cooldowns.  :class:`PowerTelemetry` resamples the device's piecewise-
constant power chunks at a fixed interval, adding sensor noise, and offers
the aggregate measurements the calibration flow needs (average power over a
run, cooldown decay traces).

Sensor noise is applied by two array-level reads, :meth:`PowerTelemetry.
read_samples` and :meth:`PowerTelemetry.read_averages`, over true values
the caller has already reduced from the chunks (:func:`sample_points`,
:func:`chunk_averages`, :func:`execution_celsius`).  The object-level
methods gather those arrays and call the reads, so an instrument that
overrides the reads (the fault-injecting one) corrupts both paths, and
a calibration can keep only the reduced true values and replay the
instrument over them.
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

    def read_samples(
        self,
        times_us: np.ndarray,
        soc_watts: np.ndarray,
        aicore_watts: np.ndarray,
        celsius: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sensor readings of true per-sample values, as arrays.

        Returns ``(times_us, soc, aicore, celsius)``.  The noise of all
        samples is drawn in one call, in per-sample (SoC, AICore,
        temperature) order; a zero sigma draws nothing for its channel.
        The inputs are never written to (a channel without noise may be
        returned as the input array itself).
        """
        noise = self._npu.noise
        power_sigma = noise.power_sigma
        temp_sigma = noise.temperature_sigma_celsius
        channels = 2 * (power_sigma > 0) + (temp_sigma > 0)
        if channels:
            draws = self._rng.standard_normal(times_us.size * channels)
            draws = draws.reshape(times_us.size, channels)
            if power_sigma > 0:
                # ``_noisy`` on every sample: value * max(0.5, 1 + N(0, s)).
                soc_watts = soc_watts * np.maximum(
                    0.5, 1.0 + power_sigma * draws[:, 0]
                )
                aicore_watts = aicore_watts * np.maximum(
                    0.5, 1.0 + power_sigma * draws[:, 1]
                )
            if temp_sigma > 0:
                celsius = celsius + temp_sigma * draws[:, -1]
        return times_us, soc_watts, aicore_watts, celsius

    def read_averages(
        self, soc_watts: np.ndarray, aicore_watts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Meter readings of ``n`` true ``(soc, aicore)`` average powers.

        Each reading takes one multiplicative sensor error per rail,
        ``max(0.5, 1 + N(0, sigma))``, drawn in one call in per-reading
        (SoC, AICore) order: the same stream as ``2n`` scalar
        ``_noisy`` draws.  A zero sigma draws nothing.
        """
        sigma = self._npu.noise.power_sigma
        if sigma <= 0:
            return soc_watts, aicore_watts
        draws = self._rng.standard_normal(2 * soc_watts.size).reshape(-1, 2)
        return (
            soc_watts * np.maximum(0.5, 1.0 + sigma * draws[:, 0]),
            aicore_watts * np.maximum(0.5, 1.0 + sigma * draws[:, 1]),
        )

    def sample_chunks(
        self, chunks: Sequence[PowerChunk], interval_us: float = 1000.0
    ) -> list[PowerSample]:
        """Read sensors every ``interval_us`` across a chunk sequence.

        The true values come from :func:`sample_points` and the readings
        from :meth:`read_samples`.

        Raises:
            ProfilingError: on no chunks, a non-positive interval, or a
                window that spans no time.
        """
        times, soc, aicore, celsius = self.read_samples(
            *sample_points(chunks, interval_us)
        )
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
        return self._measurement(
            result.duration_us,
            result.soc_avg_watts,
            result.aicore_avg_watts,
            execution_celsius(result),
        )

    def measure_chunks(self, chunks: Sequence[PowerChunk]) -> PowerMeasurement:
        """Noisy aggregate measurement over an arbitrary chunk sequence."""
        return self._measurement(*chunk_averages(chunks))

    def _measurement(
        self, duration_us: float, soc: float, aicore: float, celsius: float
    ) -> PowerMeasurement:
        socs, aicores = self.read_averages(np.array([soc]), np.array([aicore]))
        return PowerMeasurement(
            duration_us=duration_us,
            soc_avg_watts=float(socs[0]),
            aicore_avg_watts=float(aicores[0]),
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


def sample_points(
    chunks: Sequence[PowerChunk], interval_us: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """True ``(times_us, soc, aicore, celsius)`` at a window's sample times.

    ``chunks`` must be in time order, as a device emits them.  Sample
    ``i`` is taken at the ``i``-th running sum of ``interval_us`` from
    the first chunk's start (added one step at a time) and reads the
    first chunk still running then, found with one ``searchsorted``.

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
    aicore = np.fromiter((c.aicore_watts for c in chunks), float, len(chunks))
    celsius = np.fromiter((c.celsius for c in chunks), float, len(chunks))
    return times, soc[which], aicore[which], celsius[which]


def chunk_averages(
    chunks: Sequence[PowerChunk],
) -> tuple[float, float, float, float]:
    """True ``(duration_us, soc, aicore, celsius)`` averages over chunks.

    Each average is weighted by chunk duration.

    Raises:
        ProfilingError: on no chunks, or chunks that span no time.
    """
    if not chunks:
        raise ProfilingError("no power chunks to measure")
    duration = chunks[-1].end_us - chunks[0].start_us
    weights = np.array([c.duration_us for c in chunks])
    if not weights.sum() > 0:
        raise ProfilingError("power chunks span no time")
    soc = float(np.average([c.soc_watts for c in chunks], weights=weights))
    aicore = float(np.average([c.aicore_watts for c in chunks], weights=weights))
    celsius = float(np.average([c.celsius for c in chunks], weights=weights))
    return duration, soc, aicore, celsius


def execution_celsius(result: ExecutionResult) -> float:
    """Duration-weighted average chip temperature of an execution."""
    weights = np.array([c.duration_us for c in result.chunks])
    temps = np.array([c.celsius for c in result.chunks])
    return float(np.average(temps, weights=weights))


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
