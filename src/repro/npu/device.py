"""The simulated NPU device: trace execution with energy integration.

:class:`NpuDevice` plays one workload iteration (a :class:`Trace`) under a
:class:`FrequencyTimeline`, producing per-operator records, a piecewise-
constant power trace (chunks), total energy, and the thermal trajectory.

Execution semantics:

* Operators run back-to-back, separated by their host-side gaps; during a
  gap the AICore idles at the current frequency.
* A frequency switch taking effect mid-operator splits the operator: the
  fraction of work completed so far carries over, and the remainder runs at
  the new frequency (progress-proportional, the standard rate-based model).
* Power within each constant-frequency chunk uses the chip temperature at
  the chunk start; the thermal state then advances with the exact RC
  solution over the chunk.  Chunks are short relative to the thermal time
  constant, so this splitting error is negligible.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.npu.execution import GroundTruthEvaluator, OperatorEvaluation
from repro.npu.setfreq import AnchoredFrequencyPlan, FrequencyTimeline
from repro.npu.spec import NpuSpec
from repro.npu.thermal import ThermalState
from repro.units import US_PER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.trace import Trace

#: Chunk op_index used for host-gap (idle) intervals.
IDLE_INDEX = -1


@dataclass(frozen=True)
class PowerChunk:
    """A constant-frequency, constant-operator interval of the execution."""

    start_us: float
    end_us: float
    freq_mhz: float
    aicore_watts: float
    soc_watts: float
    celsius: float
    #: Index into the trace entries, or :data:`IDLE_INDEX` for a host gap.
    op_index: int

    @property
    def duration_us(self) -> float:
        """Chunk length in microseconds."""
        return self.end_us - self.start_us


@dataclass(frozen=True)
class OperatorRecord:
    """Per-operator outcome of one execution."""

    index: int
    evaluation: OperatorEvaluation
    start_us: float
    end_us: float
    start_freq_mhz: float
    end_freq_mhz: float
    aicore_energy_j: float
    soc_energy_j: float

    @property
    def duration_us(self) -> float:
        """Measured wall time of the operator instance."""
        return self.end_us - self.start_us

    @property
    def straddled_switch(self) -> bool:
        """Whether a frequency change took effect mid-operator."""
        return self.start_freq_mhz != self.end_freq_mhz


@dataclass(frozen=True)
class ExecutionResult:
    """Complete outcome of playing one trace on the device."""

    trace_name: str
    duration_us: float
    aicore_energy_j: float
    soc_energy_j: float
    #: Tuple on the reference path; a lazily materialising sequence (same
    #: indexing/iteration/equality semantics) on the compiled fast path.
    records: Sequence[OperatorRecord]
    chunks: Sequence[PowerChunk]
    start_celsius: float
    end_celsius: float
    #: Hottest chunk temperature (``start_celsius`` for a run without
    #: chunks), taken by each producer from its own chunk storage.
    peak_celsius: float = field(compare=False)
    #: Each operator's start frequency, in trace order: the
    #: ``start_freq_mhz`` column of :attr:`records`, without building
    #: the records.
    op_start_freq_mhz: np.ndarray = field(compare=False, repr=False)

    @property
    def aicore_avg_watts(self) -> float:
        """Average AICore power over the iteration."""
        return self.aicore_energy_j / (self.duration_us / US_PER_S)

    @property
    def soc_avg_watts(self) -> float:
        """Average SoC power over the iteration."""
        return self.soc_energy_j / (self.duration_us / US_PER_S)

    @property
    def performance(self) -> float:
        """Throughput metric: iterations per second."""
        return US_PER_S / self.duration_us

    def record_for(self, index: int) -> OperatorRecord:
        """The record of the ``index``-th trace entry."""
        return self.records[index]


class NpuDevice:
    """Executable model of one NPU, wrapping a ground-truth evaluator.

    Plain frequency plans (a wall-clock :class:`FrequencyTimeline`, or an
    :class:`AnchoredFrequencyPlan` with zero extra delay) execute on the
    compiled-trace fast path of :mod:`repro.npu.engine`, which is
    numerically equivalent to the reference loop below; stateful plans
    (fault-injecting, guarded, busy-controller) keep the reference loop.
    :func:`repro.npu.engine.reference_only` forces the reference loop
    everywhere.
    """

    def __init__(
        self,
        npu: NpuSpec,
        evaluator: GroundTruthEvaluator | None = None,
    ) -> None:
        # Imported here: repro.npu.engine imports this module's
        # result/record/chunk types at import time.
        from repro.npu.engine import TraceEngine

        self._npu = npu
        self._evaluator = evaluator or GroundTruthEvaluator(npu)
        self._engine = TraceEngine(npu, self._evaluator)
        self._fast_path_runs = 0
        self._reference_runs = 0

    @property
    def npu(self) -> NpuSpec:
        """The hardware description."""
        return self._npu

    @property
    def evaluator(self) -> GroundTruthEvaluator:
        """The shared (memoised) ground-truth evaluator."""
        return self._evaluator

    @property
    def engine(self):
        """The compiled-trace engine."""
        return self._engine

    @property
    def fast_path_runs(self) -> int:
        """Iterations this device executed on the compiled fast path."""
        return self._fast_path_runs

    @property
    def reference_runs(self) -> int:
        """Iterations this device executed on the reference loop."""
        return self._reference_runs

    def run(
        self,
        trace: "Trace",
        timeline: FrequencyTimeline | AnchoredFrequencyPlan | None = None,
        initial_celsius: float | None = None,
    ) -> ExecutionResult:
        """Execute one iteration of ``trace`` under a frequency schedule.

        Args:
            trace: the operator sequence to play.
            timeline: a wall-clock :class:`FrequencyTimeline`, an
                operator-anchored :class:`AnchoredFrequencyPlan`, or any
                object with the same ``on_op_start`` / ``frequency_at`` /
                ``next_switch_after`` protocol (the fault-injecting and
                guarded plans of :mod:`repro.npu.faults` and
                :mod:`repro.dvfs.guard`); defaults to constant maximum
                frequency (the performance baseline).
            initial_celsius: starting chip temperature; defaults to ambient.
        """
        if timeline is None:
            timeline = FrequencyTimeline.constant(self._npu.max_frequency_mhz)
        if self._engine.active_for(timeline):
            self._fast_path_runs += 1
            return self._engine.execute(trace, timeline, initial_celsius)
        self._reference_runs += 1
        # Stateful plans expose reset(); wall-clock timelines do not.
        reset = getattr(timeline, "reset", None)
        if callable(reset):
            reset()
        thermal = ThermalState(self._npu.thermal, initial_celsius)
        start_celsius = thermal.celsius
        clock_us = 0.0
        records: list[OperatorRecord] = []
        chunks: list[PowerChunk] = []
        aicore_energy = 0.0
        soc_energy = 0.0

        previous_start_us = 0.0
        for index, entry in enumerate(trace.entries):
            idle_until = clock_us + entry.gap_before_us
            if entry.host_interval_us > 0:
                idle_until = max(
                    idle_until, previous_start_us + entry.host_interval_us
                )
            if idle_until > clock_us:
                gap_a, gap_s, clock_us = self._run_idle_span(
                    clock_us, idle_until - clock_us, timeline, thermal, chunks
                )
                aicore_energy += gap_a
                soc_energy += gap_s
            previous_start_us = clock_us
            timeline.on_op_start(index, clock_us)
            op_a, op_s, record, clock_us = self._run_operator(
                index, entry.spec, clock_us, timeline, thermal, chunks
            )
            aicore_energy += op_a
            soc_energy += op_s
            records.append(record)

        return ExecutionResult(
            trace_name=trace.name,
            duration_us=clock_us,
            aicore_energy_j=aicore_energy,
            soc_energy_j=soc_energy,
            records=tuple(records),
            chunks=tuple(chunks),
            start_celsius=start_celsius,
            end_celsius=thermal.celsius,
            peak_celsius=max(
                (chunk.celsius for chunk in chunks), default=start_celsius
            ),
            op_start_freq_mhz=np.array(
                [record.start_freq_mhz for record in records], dtype=float
            ),
        )

    def run_stable(
        self,
        trace: "Trace",
        timeline: FrequencyTimeline | AnchoredFrequencyPlan | None = None,
        max_rounds: int = 6,
        tol_celsius: float = 0.3,
    ) -> ExecutionResult:
        """Execute ``trace`` at thermal equilibrium (the paper's
        'once stable training is achieved' measurement condition).

        Repeatedly runs the iteration, each time starting from the
        equilibrium temperature implied by the previous run's average SoC
        power, until the starting temperature stabilises.
        """
        initial = self._npu.thermal.ambient_celsius
        result = self.run(trace, timeline, initial_celsius=initial)
        for _ in range(max_rounds):
            equilibrium = self._npu.thermal.equilibrium_celsius(
                result.soc_avg_watts
            )
            if abs(equilibrium - result.start_celsius) <= tol_celsius:
                return result
            result = self.run(trace, timeline, initial_celsius=equilibrium)
        return result

    def run_iterations(
        self,
        trace: "Trace",
        timeline: FrequencyTimeline | AnchoredFrequencyPlan | None = None,
        iterations: int = 3,
        initial_celsius: float | None = None,
    ) -> list[ExecutionResult]:
        """Execute several consecutive iterations of the same trace.

        Long-lived AI workloads repeat the same iteration (paper Sect. 6),
        so one generated policy applies to every subsequent iteration: an
        operator-anchored plan resets at each iteration boundary, exactly
        as the DVFS Executor re-dispatches SetFreq per iteration.  The
        thermal state carries across iterations.

        Returns:
            One :class:`ExecutionResult` per iteration, in order.
        """
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1: {iterations}")
        results: list[ExecutionResult] = []
        celsius = initial_celsius
        for _ in range(iterations):
            result = self.run(trace, timeline, initial_celsius=celsius)
            results.append(result)
            celsius = result.end_celsius
        return results

    def run_idle(
        self,
        duration_us: float,
        freq_mhz: float,
        initial_celsius: float | None = None,
        steps: int = 60,
    ) -> list[PowerChunk]:
        """Idle the device (e.g. a cooldown after a test load).

        Returns per-step power chunks; used by telemetry to observe the
        gradual post-load power/temperature decay of Sect. 5.4.2.
        """
        if duration_us <= 0:
            raise ConfigurationError(f"duration must be positive: {duration_us}")
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1: {steps}")
        self._npu.frequencies.validate(freq_mhz)
        # Everything but the temperature is fixed for the whole pass, so
        # the idle-power terms and the RC decay of one step are computed
        # once; each step is then ``ThermalState.advance`` spelled out.
        point = self._evaluator.idle_point(freq_mhz)
        thermal = self._npu.thermal
        ambient = thermal.ambient_celsius
        celsius = ambient if initial_celsius is None else float(initial_celsius)
        step_us = duration_us / steps
        decay = float(np.exp(-step_us / thermal.time_constant_us))
        chunks: list[PowerChunk] = []
        clock = 0.0
        for _ in range(steps):
            aicore_w, soc_w = point.powers(celsius - ambient)
            chunks.append(
                PowerChunk(clock, clock + step_us, freq_mhz, aicore_w, soc_w,
                           celsius, IDLE_INDEX)
            )
            target = thermal.equilibrium_celsius(soc_w)
            celsius = target + (celsius - target) * decay
            clock += step_us
        return chunks

    def _run_idle_span(
        self,
        start_us: float,
        duration_us: float,
        timeline: FrequencyTimeline,
        thermal: ThermalState,
        chunks: list[PowerChunk],
    ) -> tuple[float, float, float]:
        """Idle from ``start_us`` for ``duration_us``, splitting on switches."""
        clock = start_us
        end = start_us + duration_us
        aicore_energy = 0.0
        soc_energy = 0.0
        while clock < end:
            freq = timeline.frequency_at(clock)
            nxt = timeline.next_switch_after(clock)
            chunk_end = min(end, nxt.time_us) if nxt is not None else end
            dt = chunk_end - clock
            aicore_w, soc_w = self._evaluator.idle_point(freq).powers(
                thermal.delta_celsius
            )
            chunks.append(
                PowerChunk(clock, chunk_end, freq, aicore_w, soc_w,
                           thermal.celsius, IDLE_INDEX)
            )
            aicore_energy += aicore_w * dt / US_PER_S
            soc_energy += soc_w * dt / US_PER_S
            thermal.advance(soc_w, dt)
            clock = chunk_end
        return aicore_energy, soc_energy, end

    def _run_operator(
        self,
        index: int,
        spec,
        start_us: float,
        timeline: FrequencyTimeline,
        thermal: ThermalState,
        chunks: list[PowerChunk],
    ) -> tuple[float, float, OperatorRecord, float]:
        """Execute one operator, splitting across frequency switches."""
        clock = start_us
        progress = 0.0  # fraction of the operator's work completed
        aicore_energy = 0.0
        soc_energy = 0.0
        start_freq = timeline.frequency_at(clock)
        start_eval = self._evaluator.evaluate(spec, start_freq)
        freq = start_freq
        evaluation = start_eval
        while progress < 1.0:
            freq = timeline.frequency_at(clock)
            evaluation = self._evaluator.evaluate(spec, freq)
            remaining_us = (1.0 - progress) * evaluation.duration_us
            nxt = timeline.next_switch_after(clock)
            if nxt is not None and nxt.time_us < clock + remaining_us:
                chunk_end = nxt.time_us
                progress += (chunk_end - clock) / evaluation.duration_us
            else:
                chunk_end = clock + remaining_us
                progress = 1.0
            dt = chunk_end - clock
            delta = thermal.delta_celsius
            aicore_w = self._evaluator.aicore_power(evaluation, delta)
            soc_w = self._evaluator.soc_power(evaluation, delta)
            chunks.append(
                PowerChunk(clock, chunk_end, freq, aicore_w, soc_w,
                           thermal.celsius, index)
            )
            aicore_energy += aicore_w * dt / US_PER_S
            soc_energy += soc_w * dt / US_PER_S
            thermal.advance(soc_w, dt)
            clock = chunk_end
        record = OperatorRecord(
            index=index,
            evaluation=start_eval,
            start_us=start_us,
            end_us=clock,
            start_freq_mhz=start_freq,
            end_freq_mhz=freq,
            aicore_energy_j=aicore_energy,
            soc_energy_j=soc_energy,
        )
        return aicore_energy, soc_energy, record, clock
