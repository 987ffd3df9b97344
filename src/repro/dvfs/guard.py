"""A guarded, self-healing DVFS runtime (safety envelope under faults).

The plain :class:`~repro.dvfs.executor.DvfsExecutor` assumes a perfect
control plane.  :class:`GuardedDvfsExecutor` wraps it with the defences a
production runtime needs when the substrate misbehaves (see
:mod:`repro.npu.faults` for the fault model):

* every anchored frequency change is **verified** via a telemetry
  readback one controller latency (plus a grace period) after dispatch;
* an unverified change is **retried** with capped exponential backoff,
  up to ``GuardConfig.max_retries`` attempts;
* on retry exhaustion or detected thermal throttling the runtime
  **degrades gracefully**: the remainder of the trace reverts to the
  baseline frequency, so the measured performance loss can never exceed
  the strategy's target (running at baseline is loss zero by
  definition);
* every intervention lands in a structured :class:`IncidentLog` that
  :mod:`repro.core.report` can render, and that replays deterministically
  from the fault seed.

The guard is **zero-overhead when healthy**: with no injected SetFreq
faults it executes the exact plan the plain executor compiles (adding no
chunk boundaries, so results are byte-identical) and only performs
read-only post-hoc checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.dvfs.executor import DvfsExecutor, ExecutionOutcome
from repro.dvfs.strategy import DvfsStrategy
from repro.errors import ConfigurationError, SetFreqTimeoutError
from repro.npu.device import ExecutionResult, NpuDevice
from repro.npu.faults import FaultConfig, FaultInjector, FaultyFrequencyPlan
from repro.npu.setfreq import (
    AnchoredFrequencyPlan,
    AnchoredSwitch,
    FrequencySwitch,
    FrequencyTimeline,
)
from repro.workloads.trace import Trace

#: Frequencies are grid points; readbacks equal to the target within this
#: tolerance count as verified.
_FREQ_MATCH_TOLERANCE_MHZ = 1e-6


@dataclass(frozen=True)
class GuardConfig:
    """Tuning knobs of the guarded runtime.

    Attributes:
        max_retries: re-dispatch attempts per unverified change before the
            guard gives up on the strategy.
        backoff_base_us: delay before the first retry; attempt ``n`` waits
            ``min(backoff_cap_us, backoff_base_us * 2**n)``.
        backoff_cap_us: upper bound of the exponential backoff.
        readback_grace_us: extra settle time after the controller latency
            before the readback is trusted.
        loss_margin: slack over the strategy's performance-loss target the
            post-hoc check tolerates before reverting to baseline.
        throttle_celsius: chip temperature at which the guard treats the
            run as thermally throttled and abandons DVFS.
        revert_on_failure: revert to baseline on retry exhaustion (the
            graceful default); when False the guard raises
            :class:`~repro.errors.SetFreqTimeoutError` instead.
    """

    max_retries: int = 3
    backoff_base_us: float = 500.0
    backoff_cap_us: float = 8_000.0
    readback_grace_us: float = 200.0
    loss_margin: float = 0.005
    throttle_celsius: float = 90.0
    revert_on_failure: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        if self.backoff_base_us <= 0:
            raise ConfigurationError(
                f"backoff_base_us must be positive: {self.backoff_base_us}"
            )
        if self.backoff_cap_us < self.backoff_base_us:
            raise ConfigurationError(
                "backoff_cap_us must be >= backoff_base_us: "
                f"{self.backoff_cap_us} < {self.backoff_base_us}"
            )
        if self.readback_grace_us < 0:
            raise ConfigurationError(
                f"readback_grace_us must be >= 0: {self.readback_grace_us}"
            )
        if self.loss_margin < 0:
            raise ConfigurationError(
                f"loss_margin must be >= 0: {self.loss_margin}"
            )
        if self.throttle_celsius <= 0:
            raise ConfigurationError(
                f"throttle_celsius must be positive: {self.throttle_celsius}"
            )

    def backoff_us(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (0-based)."""
        return min(self.backoff_cap_us, self.backoff_base_us * 2.0**attempt)


@dataclass(frozen=True)
class Incident:
    """One guard intervention or detection."""

    kind: str
    time_us: float | None = None
    op_index: int | None = None
    attempt: int = 0
    detail: str = ""

    def to_row(self) -> dict:
        """Table row for reports."""
        return {
            "kind": self.kind,
            "time_us": "" if self.time_us is None else round(self.time_us, 1),
            "op_index": "" if self.op_index is None else self.op_index,
            "attempt": self.attempt,
            "detail": self.detail,
        }


class IncidentLog:
    """Ordered record of everything the guard noticed and did."""

    def __init__(self) -> None:
        self._incidents: list[Incident] = []

    def record(
        self,
        kind: str,
        time_us: float | None = None,
        op_index: int | None = None,
        attempt: int = 0,
        detail: str = "",
    ) -> Incident:
        """Append one incident and return it."""
        incident = Incident(
            kind=kind,
            time_us=time_us,
            op_index=op_index,
            attempt=attempt,
            detail=detail,
        )
        self._incidents.append(incident)
        return incident

    @property
    def incidents(self) -> tuple[Incident, ...]:
        """All incidents, in order."""
        return tuple(self._incidents)

    def __len__(self) -> int:
        return len(self._incidents)

    def counts_by_kind(self) -> dict[str, int]:
        """How many incidents of each kind occurred."""
        counts: dict[str, int] = {}
        for incident in self._incidents:
            counts[incident.kind] = counts.get(incident.kind, 0) + 1
        return counts

    def to_rows(self) -> list[dict]:
        """Table rows for reports."""
        return [incident.to_row() for incident in self._incidents]

    def clear(self) -> None:
        """Drop all recorded incidents."""
        self._incidents = []


@dataclass
class _Watch:
    """An outstanding frequency-change verification."""

    deadline_us: float
    freq_mhz: float
    op_index: int | None
    attempt: int


@dataclass
class _Retry:
    """A re-dispatch waiting for its backoff to elapse."""

    due_us: float
    freq_mhz: float
    op_index: int | None
    attempt: int


class GuardedFrequencyPlan:
    """Online guard around a (possibly faulty) anchored frequency plan.

    Implements the device timeline protocol (``on_op_start`` /
    ``frequency_at`` / ``next_switch_after`` / ``reset``).  For each
    anchored change it arms a *watch*: one controller latency plus a grace
    period after dispatch, the guard reads the frequency back (through the
    injector's possibly-faulty telemetry) and compares it to the target.
    Unverified changes are re-dispatched with capped exponential backoff;
    a newer anchored change supersedes all outstanding watches and
    retries.  When the retry budget is exhausted the plan reverts the
    remainder of the execution to the baseline frequency (or raises
    :class:`~repro.errors.SetFreqTimeoutError` when configured to).
    """

    def __init__(
        self,
        inner: AnchoredFrequencyPlan,
        anchors: dict[int, float],
        baseline_mhz: float,
        extra_delay_us: float,
        revert_latency_us: float,
        config: GuardConfig,
        log: IncidentLog,
        injector: FaultInjector | None = None,
    ) -> None:
        self._inner = inner
        self._anchors = dict(anchors)
        self._baseline = float(baseline_mhz)
        self._verify_after = extra_delay_us + config.readback_grace_us
        self._revert_latency = float(revert_latency_us)
        self._config = config
        self._log = log
        self._injector = injector
        self._watches: list[_Watch] = []
        self._retries: list[_Retry] = []
        self._fallback_from: float | None = None

    @property
    def initial_mhz(self) -> float:
        """Frequency in effect at time zero."""
        return self._inner.initial_mhz

    @property
    def switch_count(self) -> int:
        """Number of anchored switches in the plan."""
        return self._inner.switch_count

    @property
    def applied_switch_count(self) -> int:
        """Switches that have taken effect so far in this execution."""
        return self._inner.applied_switch_count

    @property
    def dropped_switch_count(self) -> int:
        """Requests superseded while waiting for a busy controller."""
        return self._inner.dropped_switch_count

    @property
    def fallback_engaged(self) -> bool:
        """Whether this execution reverted to the baseline frequency."""
        return self._fallback_from is not None

    def reset(self) -> None:
        """Prepare the plan for a fresh execution (the log persists)."""
        self._inner.reset()
        self._watches = []
        self._retries = []
        self._fallback_from = None

    def on_op_start(self, op_index: int, time_us: float) -> None:
        """Dispatch the anchored change (if any) and arm its watch."""
        if self._fallback_from is not None:
            return
        expected = self._anchors.get(op_index)
        if expected is not None:
            # A newer anchored change supersedes any outstanding
            # verification: retrying a stale target would fight it.
            self._watches = []
            self._retries = []
        self._inner.on_op_start(op_index, time_us)
        if expected is not None:
            self._watches.append(
                _Watch(
                    deadline_us=time_us + self._verify_after,
                    freq_mhz=expected,
                    op_index=op_index,
                    attempt=0,
                )
            )

    def frequency_at(self, time_us: float) -> float:
        """Frequency in effect now; issues due retries and verifications."""
        if self._fallback_from is not None:
            if time_us >= self._fallback_from:
                return self._baseline
            return self._inner.frequency_at(time_us)
        self._issue_due_retries(time_us)
        freq = self._inner.frequency_at(time_us)
        self._verify_due(freq, time_us)
        if self._fallback_from is not None and time_us >= self._fallback_from:
            return self._baseline
        return freq

    def next_switch_after(self, time_us: float) -> FrequencySwitch | None:
        """Next point the device must re-consult the plan at."""
        if self._fallback_from is not None:
            if time_us >= self._fallback_from:
                return None
            nxt = self._inner.next_switch_after(time_us)
            if nxt is not None and nxt.time_us < self._fallback_from:
                return nxt
            return FrequencySwitch(
                time_us=self._fallback_from, freq_mhz=self._baseline
            )
        boundaries: list[tuple[float, float]] = []
        nxt = self._inner.next_switch_after(time_us)
        if nxt is not None:
            boundaries.append((nxt.time_us, nxt.freq_mhz))
        for watch in self._watches:
            if watch.deadline_us > time_us:
                boundaries.append((watch.deadline_us, watch.freq_mhz))
        for retry in self._retries:
            if retry.due_us > time_us:
                boundaries.append((retry.due_us, retry.freq_mhz))
        if not boundaries:
            return None
        when, freq = min(boundaries, key=lambda b: b[0])
        return FrequencySwitch(time_us=when, freq_mhz=freq)

    def _issue_due_retries(self, time_us: float) -> None:
        due = [r for r in self._retries if r.due_us <= time_us]
        if not due:
            return
        self._retries = [r for r in self._retries if r.due_us > time_us]
        for retry in due:
            self._inner.request(retry.freq_mhz, time_us)
            self._watches.append(
                _Watch(
                    deadline_us=time_us + self._verify_after,
                    freq_mhz=retry.freq_mhz,
                    op_index=retry.op_index,
                    attempt=retry.attempt,
                )
            )

    def _verify_due(self, true_mhz: float, time_us: float) -> None:
        remaining: list[_Watch] = []
        for watch in self._watches:
            if watch.deadline_us > time_us:
                remaining.append(watch)
                continue
            reading = (
                self._injector.read_frequency(true_mhz, time_us)
                if self._injector is not None
                else true_mhz
            )
            if (
                reading is not None
                and abs(reading - watch.freq_mhz) <= _FREQ_MATCH_TOLERANCE_MHZ
            ):
                continue  # verified
            self._log.record(
                "readback_dropout" if reading is None else "setfreq_unverified",
                time_us=time_us,
                op_index=watch.op_index,
                attempt=watch.attempt,
                detail=(
                    f"expected {watch.freq_mhz:.0f} MHz, "
                    + ("no reading" if reading is None else f"read {reading:.0f}")
                ),
            )
            if watch.attempt < self._config.max_retries:
                backoff = self._config.backoff_us(watch.attempt)
                self._retries.append(
                    _Retry(
                        due_us=time_us + backoff,
                        freq_mhz=watch.freq_mhz,
                        op_index=watch.op_index,
                        attempt=watch.attempt + 1,
                    )
                )
                self._log.record(
                    "setfreq_retry",
                    time_us=time_us,
                    op_index=watch.op_index,
                    attempt=watch.attempt + 1,
                    detail=f"backoff {backoff:.0f} us",
                )
            else:
                self._engage_fallback(time_us, watch)
                return
        self._watches = remaining

    def _engage_fallback(self, time_us: float, watch: _Watch) -> None:
        if not self._config.revert_on_failure:
            raise SetFreqTimeoutError(
                f"frequency change to {watch.freq_mhz:.0f} MHz at operator "
                f"{watch.op_index} unverified after "
                f"{self._config.max_retries} retries"
            )
        self._watches = []
        self._retries = []
        self._fallback_from = time_us + self._revert_latency
        self._log.record(
            "baseline_revert",
            time_us=time_us,
            op_index=watch.op_index,
            attempt=watch.attempt,
            detail=(
                f"retry budget exhausted; baseline "
                f"{self._baseline:.0f} MHz from t={self._fallback_from:.0f} us"
            ),
        )


@dataclass(frozen=True)
class GuardedOutcome(ExecutionOutcome):
    """An :class:`ExecutionOutcome` plus the guard's intervention record."""

    incidents: tuple[Incident, ...] = ()
    fell_back: bool = False

    @property
    def intervention_count(self) -> int:
        """How many incidents the guard recorded during the run."""
        return len(self.incidents)


class GuardedDvfsExecutor:
    """A :class:`DvfsExecutor` wrapper that survives control-plane faults.

    With no fault injector (or an all-zero fault config) this is a
    transparent wrapper: it compiles and runs the exact plan the wrapped
    executor would, then performs read-only post-hoc checks — results are
    byte-identical to the plain executor's.  With faults active it swaps
    in the faulty plan, guards it online, and enforces the safety
    envelope: the measured performance loss never exceeds the strategy's
    target plus ``GuardConfig.loss_margin``, because any violating (or
    throttling) run is replaced by the baseline for the remaining
    iterations.
    """

    def __init__(
        self,
        executor: DvfsExecutor,
        config: GuardConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self._executor = executor
        self._config = config or GuardConfig()
        self._injector = injector
        self._log = IncidentLog()

    @property
    def executor(self) -> DvfsExecutor:
        """The wrapped plain executor."""
        return self._executor

    @property
    def device(self) -> NpuDevice:
        """The device strategies execute on."""
        return self._executor.device

    @property
    def config(self) -> GuardConfig:
        """The guard's tuning knobs."""
        return self._config

    @property
    def injector(self) -> FaultInjector | None:
        """The fault source, when running under injection."""
        return self._injector

    @property
    def incidents(self) -> tuple[Incident, ...]:
        """Incidents recorded by the most recent execution."""
        return self._log.incidents

    def validate(self, trace: Trace, strategy: DvfsStrategy) -> None:
        """Check that a strategy is executable against a trace."""
        self._executor.validate(trace, strategy)

    def compile(
        self, strategy: DvfsStrategy
    ) -> AnchoredFrequencyPlan | GuardedFrequencyPlan:
        """Build the execution plan, guarded only when faults are active."""
        fault = self._fault_config()
        if fault is None or not fault.setfreq_active:
            # Healthy control plane: the plain plan, byte-identical
            # execution, post-hoc verification only.
            return self._executor.compile(strategy)
        npu = self.device.npu
        grid = npu.frequencies
        anchors: dict[int, float] = {}
        for op_index, freq in strategy.anchored_switches():
            grid.validate(freq)
            anchors[op_index] = freq
        grid.validate(strategy.initial_freq_mhz)
        inner = FaultyFrequencyPlan(
            initial_mhz=strategy.initial_freq_mhz,
            anchors=tuple(
                AnchoredSwitch(op_index=i, freq_mhz=f)
                for i, f in anchors.items()
            ),
            injector=self._injector,
            extra_delay_us=npu.setfreq.extra_delay_us,
        )
        return GuardedFrequencyPlan(
            inner=inner,
            anchors=anchors,
            baseline_mhz=npu.max_frequency_mhz,
            extra_delay_us=npu.setfreq.extra_delay_us,
            revert_latency_us=npu.setfreq.total_latency_us,
            config=self._config,
            log=self._log,
            injector=self._injector,
        )

    def execute(
        self, trace: Trace, strategy: DvfsStrategy, stable: bool = True
    ) -> ExecutionResult:
        """Run one iteration under the (guarded) compiled strategy."""
        self._executor.validate(trace, strategy)
        plan = self.compile(strategy)
        device = self._attempt_device()
        if stable:
            return device.run_stable(trace, plan)
        return device.run(trace, plan)

    def execute_with_baseline(
        self, trace: Trace, strategy: DvfsStrategy, stable: bool = True
    ) -> GuardedOutcome:
        """Run strategy and baseline, enforce the envelope, and compare.

        The post-hoc checks run on every execution (healthy included):
        anchored frequencies are verified against the recorded operator
        start frequencies, the thermal trajectory is checked against the
        throttle threshold, and the measured loss is checked against the
        target plus margin.  Any violation reverts the remainder of the
        workload to the baseline — which is exactly what the returned
        outcome then measures (loss and savings both zero).
        """
        self._log.clear()
        self._executor.validate(trace, strategy)
        device = self.device
        baseline_timeline = FrequencyTimeline.constant(
            device.npu.max_frequency_mhz
        )
        if stable:
            baseline = device.run_stable(trace, baseline_timeline)
        else:
            baseline = device.run(trace, baseline_timeline)

        attempt_device = self._attempt_device()
        plan = self.compile(strategy)
        if stable:
            result = attempt_device.run_stable(trace, plan)
        else:
            result = attempt_device.run(trace, plan)

        self._verify_anchors(result, strategy)
        revert = False
        if self._throttled(attempt_device, result):
            revert = True
        loss = (
            result.duration_us - baseline.duration_us
        ) / baseline.duration_us
        limit = strategy.performance_loss_target + self._config.loss_margin
        if loss > limit:
            self._log.record(
                "loss_violation",
                detail=f"measured loss {loss:.4f} exceeds limit {limit:.4f}",
            )
            revert = True
        fell_back = isinstance(plan, GuardedFrequencyPlan) and (
            plan.fallback_engaged
        )
        if revert:
            self._log.record(
                "baseline_revert",
                detail="remaining iterations revert to baseline frequency",
            )
            # Reverting means the workload keeps running at the baseline
            # frequency from here on; the baseline run *is* that outcome.
            result = baseline
            fell_back = True
        return GuardedOutcome(
            strategy=strategy,
            result=result,
            baseline=baseline,
            incidents=self._log.incidents,
            fell_back=fell_back,
        )

    def _fault_config(self) -> FaultConfig | None:
        if self._injector is None:
            return None
        return self._injector.config

    def _attempt_device(self) -> NpuDevice:
        """The device the strategy attempt runs on (ambient faults apply)."""
        fault = self._fault_config()
        if fault is None or not fault.environment_active:
            return self.device
        offset = self._injector.ambient_offset_celsius()
        if offset == 0.0:
            return self.device
        self._log.record(
            "ambient_step",
            detail=f"ambient +{offset:.0f} C for this execution",
        )
        npu = self.device.npu
        hotter = replace(
            npu,
            thermal=replace(
                npu.thermal,
                ambient_celsius=npu.thermal.ambient_celsius + offset,
            ),
        )
        # Operator timing is temperature-independent, so the memoised
        # evaluator can be shared with the nominal device.
        return NpuDevice(hotter, evaluator=self.device.evaluator)

    def _verify_anchors(
        self, result: ExecutionResult, strategy: DvfsStrategy
    ) -> None:
        """Post-hoc check: each anchor started at its planned frequency."""
        extra = self.device.npu.setfreq.extra_delay_us
        if extra > 0:
            # Changes legitimately land late on slow controllers; anchor
            # starts are not expected to match (Fig. 18 semantics).
            return
        started = result.op_start_freq_mhz
        for op_index, freq in strategy.anchored_switches():
            ran = float(started[op_index])
            if abs(ran - freq) > _FREQ_MATCH_TOLERANCE_MHZ:
                self._log.record(
                    "anchor_mismatch",
                    time_us=result.records[op_index].start_us,
                    op_index=op_index,
                    detail=f"planned {freq:.0f} MHz, ran at {ran:.0f} MHz",
                )

    def _throttled(
        self, device: NpuDevice, result: ExecutionResult
    ) -> bool:
        """Post-hoc check: did the run reach the throttle region?

        Considers both the hottest chunk actually simulated and the
        equilibrium temperature the run's average power implies — a short
        run at high ambient heats slowly (RC time constant of tens of
        seconds) but *will* reach equilibrium under sustained traffic.
        """
        peak = result.peak_celsius
        equilibrium = device.npu.thermal.equilibrium_celsius(
            result.soc_avg_watts
        )
        hottest = max(peak, equilibrium)
        if hottest < self._config.throttle_celsius:
            return False
        self._log.record(
            "throttle_detected",
            detail=(
                f"projected {hottest:.1f} C >= "
                f"{self._config.throttle_celsius:.1f} C threshold"
            ),
        )
        return True
