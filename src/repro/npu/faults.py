"""Deterministic, seedable fault injection for the NPU substrate.

The paper's runtime (Sect. 7.1) assumes a perfect control plane: every
``SetFreq`` lands within its documented latency, telemetry is always
fresh, and profiling traces are complete.  Production hardware violates
all three — slow or busy frequency controllers (Fig. 18's V100 case is
the benign version), sensor dropouts, truncated profiler traces, and
ambient-temperature excursions are routine.  This module injects those
adverse conditions into the simulated substrate so the guarded runtime
(:mod:`repro.dvfs.guard`) can be validated against an explicit fault
model, the approach assertion-based DVS verification takes on network
processors.

Everything is deterministic: a :class:`FaultInjector` draws from one
``numpy`` generator (usually ``RngFactory(seed).generator("faults")``),
each decision consumes a fixed number of draws regardless of outcome,
and every triggered fault is recorded in the injector's event log — the
same seed always yields the same fault schedule and the same log.

Fault models:

* **SetFreq command faults** (:class:`FaultyFrequencyPlan`) — dropped
  dispatches, duplicated effects, stochastic extra latency beyond
  ``SetFreqSpec.extra_delay_us``, and a stuck-busy controller whose hold
  window exceeds the depth-one request queue.
* **Telemetry faults** (:class:`FaultyPowerTelemetry`) — sample
  dropouts, stuck-at-last-value sensors, and transient spikes; the same
  fault classes corrupt the guard's frequency readbacks.
* **Profiler faults** (:class:`FaultyCannStyleProfiler`) — missing
  per-operator records and truncated traces.
* **Environment faults** — ambient-temperature steps that push the RC
  thermal model toward the throttle region (applied by the guarded
  executor via :meth:`FaultInjector.ambient_offset_celsius`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.errors import FaultInjectionError, TelemetryError
from repro.npu.device import ExecutionResult
from repro.npu.profiler import CannStyleProfiler, ProfileReport
from repro.npu.setfreq import (
    AnchoredFrequencyPlan,
    AnchoredSwitch,
    FrequencySwitch,
)
from repro.npu.spec import NpuSpec
from repro.npu.telemetry import PowerTelemetry

#: Telemetry fault codes of :meth:`FaultInjector.telemetry_faults`, and
#: the kind each code stands for (``None``: a healthy reading).
DROPOUT, STUCK, SPIKE = 1, 2, 3
TELEMETRY_FAULT_KINDS = (None, "dropout", "stuck", "spike")

_RATE_FIELDS = (
    "setfreq_drop_rate",
    "setfreq_duplicate_rate",
    "setfreq_delay_rate",
    "setfreq_stuck_rate",
    "telemetry_dropout_rate",
    "telemetry_stuck_rate",
    "telemetry_spike_rate",
    "profiler_drop_rate",
    "profiler_truncate_rate",
    "ambient_step_rate",
)


@dataclass(frozen=True)
class FaultConfig:
    """Per-fault-class rates and magnitudes.  All-zero means healthy.

    Rates are per-decision probabilities in [0, 1]: per SetFreq dispatch,
    per telemetry sample/readback, per profiled operator record, per
    profiling pass (truncation), and per execution (ambient step).
    """

    # SetFreq command faults (per dispatch).
    setfreq_drop_rate: float = 0.0
    setfreq_duplicate_rate: float = 0.0
    setfreq_delay_rate: float = 0.0
    setfreq_delay_max_us: float = 10_000.0
    setfreq_stuck_rate: float = 0.0
    setfreq_stuck_hold_us: float = 30_000.0
    # Telemetry faults (per sample / per readback).
    telemetry_dropout_rate: float = 0.0
    telemetry_stuck_rate: float = 0.0
    telemetry_spike_rate: float = 0.0
    telemetry_spike_magnitude: float = 0.5
    # Profiler faults (per record / per report).
    profiler_drop_rate: float = 0.0
    profiler_truncate_rate: float = 0.0
    profiler_truncate_keep_fraction: float = 0.6
    # Environment faults (per execution).
    ambient_step_rate: float = 0.0
    ambient_step_celsius: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be in [0, 1]: {rate}"
                )
        for name in (
            "setfreq_delay_max_us",
            "setfreq_stuck_hold_us",
            "telemetry_spike_magnitude",
            "ambient_step_celsius",
        ):
            if getattr(self, name) < 0:
                raise FaultInjectionError(
                    f"{name} must be non-negative: {getattr(self, name)}"
                )
        if not 0.0 < self.profiler_truncate_keep_fraction <= 1.0:
            raise FaultInjectionError(
                f"profiler_truncate_keep_fraction must be in (0, 1]: "
                f"{self.profiler_truncate_keep_fraction}"
            )

    @classmethod
    def none(cls) -> "FaultConfig":
        """The healthy configuration (no faults)."""
        return cls()

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultConfig":
        """Every fault class at the same ``rate`` (the benchmark sweep).

        Magnitudes keep their defaults; the ambient step is enabled at
        40 °C whenever ``rate`` is non-zero.  Keyword overrides replace
        individual fields.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultInjectionError(f"rate must be in [0, 1]: {rate}")
        settings: dict = {name: rate for name in _RATE_FIELDS}
        settings["ambient_step_celsius"] = 40.0 if rate > 0 else 0.0
        settings.update(overrides)
        return cls(**settings)

    @property
    def setfreq_active(self) -> bool:
        """Whether any SetFreq command fault can trigger."""
        return (
            self.setfreq_drop_rate > 0
            or self.setfreq_duplicate_rate > 0
            or self.setfreq_delay_rate > 0
            or self.setfreq_stuck_rate > 0
        )

    @property
    def telemetry_active(self) -> bool:
        """Whether any telemetry fault can trigger."""
        return (
            self.telemetry_dropout_rate > 0
            or self.telemetry_stuck_rate > 0
            or self.telemetry_spike_rate > 0
        )

    @property
    def profiler_active(self) -> bool:
        """Whether any profiler fault can trigger."""
        return self.profiler_drop_rate > 0 or self.profiler_truncate_rate > 0

    @property
    def environment_active(self) -> bool:
        """Whether an ambient-temperature step can trigger."""
        return self.ambient_step_rate > 0 and self.ambient_step_celsius > 0

    @property
    def any_active(self) -> bool:
        """Whether this configuration injects anything at all."""
        return (
            self.setfreq_active
            or self.telemetry_active
            or self.profiler_active
            or self.environment_active
        )


@dataclass(frozen=True)
class SetFreqFault:
    """The injected outcome of one SetFreq dispatch."""

    dropped: bool = False
    duplicated: bool = False
    extra_latency_us: float = 0.0
    busy_hold_us: float = 0.0

    @property
    def is_fault(self) -> bool:
        """Whether anything at all was injected."""
        return (
            self.dropped
            or self.duplicated
            or self.extra_latency_us > 0
            or self.busy_hold_us > 0
        )


@dataclass(frozen=True)
class InjectedFault:
    """One entry of the injection event log."""

    site: str
    kind: str
    time_us: float | None = None
    detail: str = ""

    def to_row(self) -> dict:
        """Table row for reports."""
        return {
            "site": self.site,
            "kind": self.kind,
            "time_us": "" if self.time_us is None else round(self.time_us, 1),
            "detail": self.detail,
        }


class FaultInjector:
    """Draws fault decisions from one seeded generator and logs them.

    Each decision method consumes a *fixed* number of random draws
    regardless of its outcome, so the stream every later decision sees
    depends only on the call sequence — replaying the same workload with
    the same seed reproduces the identical fault schedule and event log.
    """

    def __init__(self, config: FaultConfig, rng: np.random.Generator) -> None:
        self._config = config
        self._rng = rng
        self._events: list[InjectedFault] = []
        self._last_readback: float | None = None

    @classmethod
    def from_seed(
        cls, config: FaultConfig, seed: int, stream: str = "faults"
    ) -> "FaultInjector":
        """An injector on the standard ``repro.analysis.rng`` plumbing."""
        from repro.analysis.rng import RngFactory

        return cls(config, RngFactory(seed).generator(stream))

    @property
    def config(self) -> FaultConfig:
        """The fault rates and magnitudes in force."""
        return self._config

    @property
    def events(self) -> tuple[InjectedFault, ...]:
        """Every fault injected so far, in order."""
        return tuple(self._events)

    def record(
        self,
        site: str,
        kind: str,
        time_us: float | None = None,
        detail: str = "",
    ) -> None:
        """Append one entry to the injection log."""
        self._events.append(
            InjectedFault(site=site, kind=kind, time_us=time_us, detail=detail)
        )

    def clear_events(self) -> None:
        """Drop the accumulated injection log (the stream continues)."""
        self._events = []

    # -- SetFreq command faults ------------------------------------------

    def setfreq_fault(self, time_us: float) -> SetFreqFault:
        """Decide the fate of one SetFreq dispatch (5 draws, always)."""
        cfg = self._config
        draws = self._rng.random(4)
        delay_draw = float(self._rng.random())
        dropped = bool(draws[0] < cfg.setfreq_drop_rate)
        duplicated = bool(draws[1] < cfg.setfreq_duplicate_rate)
        extra = (
            cfg.setfreq_delay_max_us * delay_draw
            if draws[2] < cfg.setfreq_delay_rate
            else 0.0
        )
        hold = (
            cfg.setfreq_stuck_hold_us
            if draws[3] < cfg.setfreq_stuck_rate
            else 0.0
        )
        if dropped:
            self.record("setfreq", "dropped", time_us)
        if duplicated:
            self.record("setfreq", "duplicated", time_us)
        if extra > 0:
            self.record(
                "setfreq", "delayed", time_us, f"extra {extra:.0f} us"
            )
        if hold > 0:
            self.record(
                "setfreq", "stuck_busy", time_us, f"hold {hold:.0f} us"
            )
        return SetFreqFault(
            dropped=dropped,
            duplicated=duplicated,
            extra_latency_us=extra,
            busy_hold_us=hold,
        )

    # -- Telemetry faults -------------------------------------------------

    def telemetry_fault(self, time_us: float | None = None) -> str | None:
        """Decide one sensor reading's fate (3 draws, always).

        Returns ``"dropout"``, ``"stuck"``, ``"spike"`` or None.
        """
        return TELEMETRY_FAULT_KINDS[self.telemetry_faults((time_us,))[0]]

    def telemetry_faults(
        self, times_us: Sequence[float | None]
    ) -> np.ndarray:
        """Decide the fates of ``len(times_us)`` readings in one draw.

        Each reading takes 3 draws, in reading order, so the stream and
        the event log are those of one :meth:`telemetry_fault` call per
        reading.  Returns one code per reading, an index into
        :data:`TELEMETRY_FAULT_KINDS` (0 = healthy).
        """
        cfg = self._config
        draws = self._rng.random(3 * len(times_us)).reshape(-1, 3)
        codes = np.zeros(len(times_us), dtype=np.int8)
        # Later writes win: a dropout pre-empts a stuck sensor, which
        # pre-empts a spike, as in an if-chain over the three draws.
        codes[draws[:, 2] < cfg.telemetry_spike_rate] = SPIKE
        codes[draws[:, 1] < cfg.telemetry_stuck_rate] = STUCK
        codes[draws[:, 0] < cfg.telemetry_dropout_rate] = DROPOUT
        for i in np.flatnonzero(codes).tolist():
            self.record(
                "telemetry", TELEMETRY_FAULT_KINDS[codes[i]], times_us[i]
            )
        return codes

    def spike_factor(self) -> float:
        """Multiplicative factor of a transient telemetry spike."""
        return 1.0 + self._config.telemetry_spike_magnitude

    def read_frequency(
        self, true_mhz: float, time_us: float | None = None
    ) -> float | None:
        """A possibly-corrupted frequency readback for the guard.

        Dropouts return None, a stuck sensor repeats the last reported
        value, and a spike scales the reading.
        """
        fault = self.telemetry_fault(time_us)
        if fault == "dropout":
            return None
        if fault == "stuck" and self._last_readback is not None:
            return self._last_readback
        value = true_mhz * self.spike_factor() if fault == "spike" else true_mhz
        self._last_readback = value
        return value

    # -- Profiler faults ---------------------------------------------------

    def profiler_drop(self) -> bool:
        """Whether one per-operator record goes missing (1 draw)."""
        return bool(self._rng.random() < self._config.profiler_drop_rate)

    def profiler_truncation(self, record_count: int) -> int | None:
        """How many records a truncated report keeps, or None (1 draw)."""
        cfg = self._config
        triggered = self._rng.random() < cfg.profiler_truncate_rate
        if not triggered or record_count <= 1:
            return None
        keep = max(1, int(record_count * cfg.profiler_truncate_keep_fraction))
        if keep >= record_count:
            return None
        self.record(
            "profiler",
            "truncated",
            detail=f"kept {keep} of {record_count} records",
        )
        return keep

    # -- Environment faults -------------------------------------------------

    def ambient_offset_celsius(self) -> float:
        """Ambient-temperature step for one execution (1 draw)."""
        cfg = self._config
        triggered = self._rng.random() < cfg.ambient_step_rate
        if not triggered or cfg.ambient_step_celsius <= 0:
            return 0.0
        self.record(
            "environment",
            "ambient_step",
            detail=f"+{cfg.ambient_step_celsius:.0f} C",
        )
        return cfg.ambient_step_celsius


class FaultyFrequencyPlan(AnchoredFrequencyPlan):
    """An anchored plan whose SetFreq controller misbehaves.

    Extends the depth-one-queue controller model of
    :class:`AnchoredFrequencyPlan` with injected command failures:

    * a **dropped** dispatch never reaches the controller;
    * a **duplicated** dispatch applies its effect twice (the second
      lands one redelivery gap later, occupying the controller);
    * a **delayed** dispatch takes stochastic extra latency beyond
      ``SetFreqSpec.extra_delay_us``;
    * a **stuck-busy** controller holds the dispatch for a window during
      which later requests pile into (and supersede each other in) the
      depth-one queue.
    """

    def __init__(
        self,
        initial_mhz: float,
        anchors: tuple[AnchoredSwitch, ...] | list[AnchoredSwitch],
        injector: FaultInjector,
        extra_delay_us: float = 0.0,
        duplicate_gap_us: float = 500.0,
    ) -> None:
        if injector is None:
            raise FaultInjectionError(
                "FaultyFrequencyPlan needs a FaultInjector"
            )
        if duplicate_gap_us <= 0:
            raise FaultInjectionError(
                f"duplicate_gap_us must be positive: {duplicate_gap_us}"
            )
        super().__init__(initial_mhz, anchors, extra_delay_us)
        self._injector = injector
        self._duplicate_gap = float(duplicate_gap_us)
        self._busy_until = 0.0

    @property
    def injector(self) -> FaultInjector:
        """The fault source this plan draws from."""
        return self._injector

    def reset(self) -> None:
        """Prepare the plan for a fresh execution."""
        super().reset()
        self._busy_until = 0.0

    def request(self, freq_mhz: float, time_us: float) -> None:
        """Dispatch one request through the faulty controller."""
        fault = self._injector.setfreq_fault(time_us)
        if fault.dropped:
            return
        if self._controller_busy(time_us):
            self._enqueue(freq_mhz)
            return
        effect = time_us + self._extra_delay + fault.extra_latency_us
        if fault.busy_hold_us > 0:
            self._busy_until = time_us + fault.busy_hold_us
            effect += fault.busy_hold_us
        self._schedule(freq_mhz, effect)
        if fault.duplicated:
            self._schedule(freq_mhz, effect + self._duplicate_gap)

    def _controller_busy(self, time_us: float) -> bool:
        return super()._controller_busy(time_us) or time_us < self._busy_until

    def _release_queued(self, completed_us: float) -> None:
        # A stuck controller keeps the held request waiting until the
        # hold window closes, even if an earlier switch completed.
        super()._release_queued(max(completed_us, self._busy_until))

    def frequency_at(self, time_us: float) -> float:
        freq = super().frequency_at(time_us)
        if (
            self._queued is not None
            and not self._pending
            and time_us >= self._busy_until
        ):
            # The stuck window closed with nothing in flight: issue the
            # held request (it completes one controller latency later).
            self._release_queued(self._busy_until)
            return super().frequency_at(time_us)
        return freq

    def next_switch_after(self, time_us: float) -> FrequencySwitch | None:
        nxt = super().next_switch_after(time_us)
        if self._queued is not None and not self._pending:
            release = self._busy_until + self._extra_delay
            if release > time_us and (nxt is None or release < nxt.time_us):
                return FrequencySwitch(time_us=release, freq_mhz=self._queued)
        return nxt


class FaultyPowerTelemetry(PowerTelemetry):
    """Power telemetry with injected sensor faults.

    Per-sample faults (dropout, stuck-at-last-value, spike) corrupt
    :meth:`read_samples`; aggregate readings (:meth:`read_averages`) and
    per-operator power readings suffer transient spikes (a meter
    integrating over a window averages dropouts away, but a spike biases
    the whole window).  The object-level methods and the calibration's
    array replay both go through these reads.
    """

    def __init__(
        self,
        npu: NpuSpec,
        rng: np.random.Generator,
        injector: FaultInjector,
    ) -> None:
        if injector is None:
            raise FaultInjectionError(
                "FaultyPowerTelemetry needs a FaultInjector"
            )
        super().__init__(npu, rng)
        self._injector = injector

    @property
    def injector(self) -> FaultInjector:
        """The fault source this instrument draws from."""
        return self._injector

    def read_samples(
        self,
        times_us: np.ndarray,
        soc_watts: np.ndarray,
        aicore_watts: np.ndarray,
        celsius: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sample with injected dropouts, stuck sensors, and spikes.

        A dropped sample is removed, a spike scales a sample's power
        readings, and a stuck sensor repeats the last kept sample's
        readings (time still advances; the first kept sample has nothing
        to repeat and reads normally).

        Raises:
            TelemetryError: if every sample of the window was dropped.
        """
        times_us, soc_watts, aicore_watts, celsius = super().read_samples(
            times_us, soc_watts, aicore_watts, celsius
        )
        codes = self._injector.telemetry_faults(times_us.tolist())
        kept = np.flatnonzero(codes != DROPOUT)
        if not kept.size:
            raise TelemetryError(
                "every telemetry sample of the window was dropped"
            )
        spiked = codes == SPIKE
        if spiked.any():
            factor = self._injector.spike_factor()
            soc_watts = np.where(spiked, soc_watts * factor, soc_watts)
            aicore_watts = np.where(spiked, aicore_watts * factor, aicore_watts)
        # Each kept sample reads from the latest kept sample that is not
        # stuck (the first kept sample always reads from itself).
        source = np.where(codes[kept] == STUCK, 0, np.arange(kept.size))
        np.maximum.accumulate(source, out=source)
        rows = kept[source]
        return times_us[kept], soc_watts[rows], aicore_watts[rows], celsius[rows]

    def read_averages(
        self, soc_watts: np.ndarray, aicore_watts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate readings, each possibly hit by a transient spike."""
        soc_watts, aicore_watts = super().read_averages(soc_watts, aicore_watts)
        codes = self._injector.telemetry_faults((None,) * soc_watts.size)
        spiked = codes == SPIKE
        if not spiked.any():
            return soc_watts, aicore_watts
        factor = self._injector.spike_factor()
        return (
            np.where(spiked, soc_watts * factor, soc_watts),
            np.where(spiked, aicore_watts * factor, aicore_watts),
        )

    def measure_operator_power(
        self, result: ExecutionResult
    ) -> dict[str, tuple[float, float]]:
        """Per-operator readings; individual names may be spiked."""
        readings = super().measure_operator_power(result)
        corrupted: dict[str, tuple[float, float]] = {}
        for name, (aicore, soc) in readings.items():
            if self._injector.telemetry_fault() == "spike":
                factor = self._injector.spike_factor()
                aicore, soc = aicore * factor, soc * factor
            corrupted[name] = (aicore, soc)
        return corrupted


class FaultyCannStyleProfiler(CannStyleProfiler):
    """A profiler that loses per-operator records and truncates traces."""

    def __init__(
        self,
        npu: NpuSpec,
        rng: np.random.Generator,
        injector: FaultInjector,
    ) -> None:
        if injector is None:
            raise FaultInjectionError(
                "FaultyCannStyleProfiler needs a FaultInjector"
            )
        super().__init__(npu, rng)
        self._injector = injector

    @property
    def injector(self) -> FaultInjector:
        """The fault source this instrument draws from."""
        return self._injector

    def profile(self, result: ExecutionResult) -> ProfileReport:
        """Profile with injected record loss and trace truncation."""
        report = super().profile(result)
        operators = list(report.operators)
        kept = [op for op in operators if not self._injector.profiler_drop()]
        lost = len(operators) - len(kept)
        if lost:
            self._injector.record(
                "profiler",
                "records_dropped",
                detail=f"lost {lost} of {len(operators)} records",
            )
        keep_count = self._injector.profiler_truncation(len(kept))
        if keep_count is not None:
            kept = kept[:keep_count]
        if not kept:
            # A real profiler never hands back a fully empty trace for a
            # run that executed; keep the first record as the survivor.
            kept = operators[:1]
            self._injector.record("profiler", "all_records_lost")
        return replace(report, operators=tuple(kept))
