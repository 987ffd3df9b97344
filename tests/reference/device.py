"""One member of the looped reference cluster: a varied NPU and its executor.

Per-device variation enters the simulation at exactly two points:

* **Timing** — :class:`VariedEvaluator` wraps the shared ground-truth
  evaluator and scales every operator's duration by the device's speed
  bin.  Power is untouched: a slow die at a given frequency and
  utilisation draws the same power, it just holds it longer — which is
  how binning costs energy.
* **Thermals** — the device's :class:`~repro.npu.spec.NpuSpec` carries
  the board's ambient offset, so its leakage and equilibrium temperature
  shift with its position in the rack.

Everything else is the single-device stack unchanged: the same
:class:`~repro.npu.device.NpuDevice` and the same
:class:`~repro.dvfs.executor.DvfsExecutor`.  Operator timing is
temperature-independent in this simulator, so all devices share one
memoised evaluator regardless of their ambient.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dvfs.executor import DvfsExecutor
from repro.dvfs.strategy import DvfsStrategy
from repro.fleet.spec import DeviceProfile
from repro.npu.device import ExecutionResult, NpuDevice
from repro.npu.execution import (
    GroundTruthEvaluator,
    IdlePoint,
    OperatorEvaluation,
)
from repro.npu.spec import NpuSpec
from repro.npu.thermal import ThermalState
from repro.npu.vectoreval import UniqueSpecGrid
from repro.units import US_PER_S
from repro.workloads.trace import Trace

class VariedEvaluator:
    """Duration-scaling wrapper over a shared ground-truth evaluator.

    Implements the evaluator protocol :class:`~repro.npu.device.NpuDevice`
    and :class:`~repro.npu.engine.CompiledTrace` consume (``evaluate``,
    ``unique_grid`` plus the four power methods).  Only
    ``duration_us`` is scaled — utilisation, alpha and therefore power
    stay those of the nominal die.
    """

    def __init__(
        self, inner: GroundTruthEvaluator, duration_scale: float
    ) -> None:
        self._inner = inner
        self._scale = float(duration_scale)

    @property
    def inner(self) -> GroundTruthEvaluator:
        """The wrapped nominal-die evaluator."""
        return self._inner

    @property
    def duration_scale(self) -> float:
        """The operator-duration multiplier applied by this wrapper."""
        return self._scale

    def evaluate(self, spec, freq_mhz: float) -> OperatorEvaluation:
        evaluation = self._inner.evaluate(spec, freq_mhz)
        if self._scale == 1.0:
            return evaluation
        return replace(
            evaluation, duration_us=evaluation.duration_us * self._scale
        )

    def unique_grid(self, specs, freqs_mhz) -> UniqueSpecGrid:
        """The inner grid with every duration scaled."""
        grid = self._inner.unique_grid(specs, freqs_mhz)
        return replace(grid, dur=grid.dur * self._scale)

    def aicore_power(self, evaluation, delta_celsius: float) -> float:
        return self._inner.aicore_power(evaluation, delta_celsius)

    def soc_power(self, evaluation, delta_celsius: float) -> float:
        return self._inner.soc_power(evaluation, delta_celsius)

    def idle_point(self, freq_mhz: float) -> IdlePoint:
        return self._inner.idle_point(freq_mhz)

    def idle_aicore_power(self, freq_mhz: float, delta_celsius: float) -> float:
        return self._inner.idle_aicore_power(freq_mhz, delta_celsius)

    def idle_soc_power(self, freq_mhz: float, delta_celsius: float) -> float:
        return self._inner.idle_soc_power(freq_mhz, delta_celsius)


def npu_for(profile: DeviceProfile, base: NpuSpec) -> NpuSpec:
    """The per-device hardware spec: base with the board's ambient."""
    if profile.ambient_offset_celsius == 0.0:
        return base
    return replace(
        base,
        thermal=replace(
            base.thermal,
            ambient_celsius=base.thermal.ambient_celsius
            + profile.ambient_offset_celsius,
        ),
    )


class ClusterDevice:
    """One ring member: profile + NPU + DVFS executor."""

    def __init__(
        self,
        profile: DeviceProfile,
        base_npu: NpuSpec,
        base_evaluator: GroundTruthEvaluator | None = None,
    ) -> None:
        self._profile = profile
        npu = npu_for(profile, base_npu)
        inner = base_evaluator or GroundTruthEvaluator(base_npu)
        scale = profile.total_duration_scale
        evaluator = VariedEvaluator(inner, scale) if scale != 1.0 else inner
        self._device = NpuDevice(npu, evaluator=evaluator)
        self._executor = DvfsExecutor(self._device)

    @property
    def profile(self) -> DeviceProfile:
        """The device's realised variation."""
        return self._profile

    @property
    def device_id(self) -> int:
        """Position in the ring."""
        return self._profile.device_id

    @property
    def npu(self) -> NpuSpec:
        """The per-device hardware description (ambient applied)."""
        return self._device.npu

    @property
    def device(self) -> NpuDevice:
        """The underlying executable device."""
        return self._device

    def run(
        self,
        trace: Trace,
        strategy: DvfsStrategy | None = None,
        initial_celsius: float | None = None,
    ) -> tuple[ExecutionResult, float]:
        """Replay one iteration; returns the result and the final frequency.

        Without a strategy the device runs the uniform maximum-frequency
        baseline.  With one, the strategy is validated and compiled
        through the executor, exactly as on a single device.  The final
        frequency is what the device idles at while waiting at the
        barrier.
        """
        if strategy is None:
            result = self._device.run(trace, initial_celsius=initial_celsius)
            return result, self._device.npu.max_frequency_mhz
        self._executor.validate(trace, strategy)
        plan = self._executor.compile(strategy)
        result = self._device.run(trace, plan, initial_celsius=initial_celsius)
        # The frequency the device parked at (last simulated chunk) is
        # what it idles at while waiting for the barrier.
        final = (
            result.chunks[-1].freq_mhz
            if result.chunks
            else self._device.npu.max_frequency_mhz
        )
        return result, float(final)

    def idle(
        self,
        duration_us: float,
        freq_mhz: float,
        start_celsius: float,
        steps: int = 8,
    ) -> tuple[float, float, float]:
        """Integrate idle energy over a barrier wait.

        Returns ``(aicore_energy_j, soc_energy_j, end_celsius)``.  The
        wait is split into ``steps`` constant-power sub-intervals, each
        using the temperature at its start and then advancing the exact
        RC solution — the same discretisation the device itself uses for
        host gaps.
        """
        if duration_us <= 0:
            return 0.0, 0.0, start_celsius
        evaluator = self._device.evaluator
        thermal = ThermalState(self._device.npu.thermal, start_celsius)
        step_us = duration_us / steps
        aicore_energy = 0.0
        soc_energy = 0.0
        for _ in range(steps):
            delta = thermal.delta_celsius
            aicore_w = evaluator.idle_aicore_power(freq_mhz, delta)
            soc_w = evaluator.idle_soc_power(freq_mhz, delta)
            aicore_energy += aicore_w * step_us / US_PER_S
            soc_energy += soc_w * step_us / US_PER_S
            thermal.advance(soc_w, step_us)
        return aicore_energy, soc_energy, thermal.celsius
