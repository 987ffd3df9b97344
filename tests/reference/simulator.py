"""The looped reference for the fleet's barrier step.

:class:`SimulatedCluster` runs N :class:`~tests.reference.device.ClusterDevice`
objects one by one through the single-device engine.  Production steps
run on :class:`repro.fleet.simulator.FleetSimulator`; this module stays
only as the ground truth :func:`tests.reference.compare.compare_with_cluster`
checks the fleet against (<= 1e-9).

Synchronous data parallelism replays the *same* operator trace on every
device, then exchanges gradients in a ring all-reduce.  The all-reduce
is a barrier: the step completes at

    step = max_d(compute_d) + allreduce

and every faster device spends ``max_d(compute_d) - compute_d`` waiting,
idling at whatever frequency its DVFS plan parked it at.  That wait is
not free — idle power at the barrier is integrated with the same RC
thermal model as everywhere else — and it is exactly the slack
reclamation takes back.

The reference also keeps the watchdog: when a step runs under a
reclaimed plan (``target_compute_us`` provided), any device arriving
measurably after the plan's target is recorded as a ``barrier_overrun``
in the cluster's :class:`~repro.dvfs.guard.IncidentLog`.

The table-based reclamation (:class:`DeviceFrequencyTable`,
:func:`build_frequency_tables`, :func:`reclaim_slack`,
:class:`ClusterStrategy`) is the reference for
:func:`repro.fleet.dvfs.reclaim_fleet_slack`: each device is probed at
every grid frequency through the engine, and the plan is built from
those per-device Python tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.report import ClusterResult
from repro.dvfs.guard import Incident, IncidentLog
from repro.dvfs.strategy import DvfsStrategy, constant_strategy
from repro.errors import ConfigurationError, StrategyError
from repro.fleet.simulator import BARRIER_OVERRUN_TOLERANCE
from repro.fleet.spec import DeviceProfile
from repro.npu.device import ExecutionResult
from repro.npu.execution import GroundTruthEvaluator
from repro.units import US_PER_S
from repro.workloads.trace import Trace
from tests.reference.device import ClusterDevice
from tests.reference.spec import ClusterSpec


@dataclass(frozen=True)
class DeviceStepOutcome:
    """One device's share of a training step."""

    device_id: int
    #: Time the device took to finish its compute (arrival at the barrier).
    compute_us: float
    #: Barrier wait: how long the device idled for the straggler.
    wait_us: float
    #: Frequency the device idled at during wait + all-reduce.
    idle_freq_mhz: float
    #: Compute-phase energy.
    aicore_energy_j: float
    soc_energy_j: float
    #: Idle energy over wait + all-reduce.
    idle_aicore_energy_j: float
    idle_soc_energy_j: float
    end_celsius: float
    execution: ExecutionResult

    @property
    def total_soc_energy_j(self) -> float:
        """Compute plus barrier-idle SoC energy for the step."""
        return self.soc_energy_j + self.idle_soc_energy_j

    @property
    def total_aicore_energy_j(self) -> float:
        """Compute plus barrier-idle AICore energy for the step."""
        return self.aicore_energy_j + self.idle_aicore_energy_j


@dataclass(frozen=True)
class ClusterStepResult:
    """Outcome of one synchronous training step across the fleet."""

    cluster_name: str
    workload: str
    compute_us: float
    allreduce_us: float
    straggler_id: int
    devices: tuple[DeviceStepOutcome, ...]
    incidents: tuple[Incident, ...] = ()

    @property
    def step_us(self) -> float:
        """Wall time of the step: slowest arrival plus the collective."""
        return self.compute_us + self.allreduce_us

    @property
    def fleet_soc_energy_j(self) -> float:
        """Total SoC energy across all devices, barrier idling included."""
        return sum(d.total_soc_energy_j for d in self.devices)

    @property
    def fleet_aicore_energy_j(self) -> float:
        """Total AICore energy across all devices."""
        return sum(d.total_aicore_energy_j for d in self.devices)

    @property
    def fleet_soc_avg_watts(self) -> float:
        """Fleet-wide (summed) average SoC power over the step."""
        return self.fleet_soc_energy_j / (self.step_us / US_PER_S)

    def device_rows(self, top_k: int = 8) -> list[dict]:
        """Straggler top-k table rows plus one fleet-remainder summary.

        The ``top_k`` slowest arrivals (straggler first), then a single
        aggregate row for the remaining ``N - top_k`` devices — O(top_k)
        rows at any fleet size, and the same shape
        :meth:`repro.fleet.simulator.FleetStepResult.device_rows`
        produces, so reports stay comparable across the two simulators.
        """
        order = sorted(
            range(len(self.devices)),
            key=lambda i: -self.devices[i].compute_us,
        )
        rows = [
            {
                "device": d.device_id,
                "compute_ms": round(d.compute_us / 1000.0, 3),
                "wait_ms": round(d.wait_us / 1000.0, 3),
                "idle_mhz": round(d.idle_freq_mhz),
                "soc_j": round(d.total_soc_energy_j, 3),
                "aicore_j": round(d.total_aicore_energy_j, 3),
                "straggler": "*" if d.device_id == self.straggler_id else "",
            }
            for d in (self.devices[i] for i in order[:top_k])
        ]
        rest = [self.devices[i] for i in order[top_k:]]
        if rest:
            rows.append(
                {
                    "device": f"(+{len(rest)} faster)",
                    "compute_ms": round(
                        sum(d.compute_us for d in rest) / len(rest) / 1000.0,
                        3,
                    ),
                    "wait_ms": round(
                        sum(d.wait_us for d in rest) / len(rest) / 1000.0, 3
                    ),
                    "idle_mhz": "",
                    "soc_j": round(
                        sum(d.total_soc_energy_j for d in rest), 3
                    ),
                    "aicore_j": round(
                        sum(d.total_aicore_energy_j for d in rest), 3
                    ),
                    "straggler": "",
                }
            )
        return rows

    def report(self, baseline: "ClusterStepResult") -> ClusterResult:
        """Compare this step against a baseline step of the same workload."""
        return ClusterResult(
            cluster_name=self.cluster_name,
            workload=self.workload,
            n_devices=len(self.devices),
            baseline_step_us=baseline.step_us,
            step_us=self.step_us,
            allreduce_us=self.allreduce_us,
            baseline_soc_energy_j=baseline.fleet_soc_energy_j,
            soc_energy_j=self.fleet_soc_energy_j,
            baseline_aicore_energy_j=baseline.fleet_aicore_energy_j,
            aicore_energy_j=self.fleet_aicore_energy_j,
            straggler_id=self.straggler_id,
            device_rows=tuple(self.device_rows()),
        )


class SimulatedCluster:
    """N :class:`ClusterDevice` members behind one ring interconnect.

    All devices share one memoised ground-truth evaluator (operator
    timing is temperature-independent, and speed bins wrap the evaluator
    per device), so a fleet-wide step costs barely more than N trace
    replays.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self._spec = spec
        self._evaluator = GroundTruthEvaluator(spec.npu)
        self._profiles = spec.device_profiles()
        self._devices = tuple(
            ClusterDevice(profile, spec.npu, base_evaluator=self._evaluator)
            for profile in self._profiles
        )
        self._log = IncidentLog()

    @property
    def spec(self) -> ClusterSpec:
        """The cluster description."""
        return self._spec

    @property
    def devices(self) -> tuple[ClusterDevice, ...]:
        """The ring members, in device order."""
        return self._devices

    @property
    def profiles(self) -> tuple[DeviceProfile, ...]:
        """The realised per-device variation."""
        return self._profiles

    @property
    def incident_log(self) -> IncidentLog:
        """Cluster-level incidents (barrier overruns), across all steps."""
        return self._log

    def run_step(
        self,
        trace: Trace,
        strategies: Sequence[DvfsStrategy] | None = None,
        target_compute_us: float | None = None,
        initial_celsius: Sequence[float] | None = None,
    ) -> ClusterStepResult:
        """Execute one synchronous training step.

        Args:
            trace: the operator sequence every device replays.
            strategies: one DVFS strategy per device (``None`` runs the
                uniform maximum-frequency baseline on every device).
            target_compute_us: the arrival target the strategies were
                planned for; devices arriving later than the tolerance
                are logged as barrier overruns.
            initial_celsius: per-device starting temperatures (``None``
                starts each device at its own board ambient).

        Raises:
            ConfigurationError: on strategy/temperature count mismatch.
        """
        n = len(self._devices)
        if strategies is not None and len(strategies) != n:
            raise ConfigurationError(
                f"{len(strategies)} strategies for {n} devices"
            )
        if initial_celsius is not None and len(initial_celsius) != n:
            raise ConfigurationError(
                f"{len(initial_celsius)} initial temperatures for {n} devices"
            )
        executions: list[tuple[ExecutionResult, float]] = []
        for i, member in enumerate(self._devices):
            strategy = strategies[i] if strategies is not None else None
            celsius = initial_celsius[i] if initial_celsius else None
            executions.append(member.run(trace, strategy, celsius))

        compute = [result.duration_us for result, _ in executions]
        compute_us = max(compute)
        straggler_id = compute.index(compute_us)
        allreduce_us = self._spec.allreduce_us

        incidents_before = len(self._log)
        if target_compute_us is not None:
            for device_id, arrival in enumerate(compute):
                lateness = (arrival - target_compute_us) / target_compute_us
                if lateness > BARRIER_OVERRUN_TOLERANCE:
                    self._log.record(
                        "barrier_overrun",
                        time_us=arrival,
                        detail=(
                            f"device {device_id} arrived {arrival:.0f} us, "
                            f"{lateness:.1%} past the planned barrier at "
                            f"{target_compute_us:.0f} us"
                        ),
                    )

        outcomes: list[DeviceStepOutcome] = []
        for device_id, (member, (result, idle_freq)) in enumerate(
            zip(self._devices, executions)
        ):
            wait_us = compute_us - result.duration_us
            idle_aicore, idle_soc, end_celsius = member.idle(
                wait_us + allreduce_us,
                idle_freq,
                result.end_celsius,
            )
            outcomes.append(
                DeviceStepOutcome(
                    device_id=device_id,
                    compute_us=result.duration_us,
                    wait_us=wait_us,
                    idle_freq_mhz=idle_freq,
                    aicore_energy_j=result.aicore_energy_j,
                    soc_energy_j=result.soc_energy_j,
                    idle_aicore_energy_j=idle_aicore,
                    idle_soc_energy_j=idle_soc,
                    end_celsius=end_celsius,
                    execution=result,
                )
            )
        return ClusterStepResult(
            cluster_name=self._spec.name,
            workload=trace.name,
            compute_us=compute_us,
            allreduce_us=allreduce_us,
            straggler_id=straggler_id,
            devices=tuple(outcomes),
            incidents=self._log.incidents[incidents_before:],
        )

    def run_steps(
        self,
        trace: Trace,
        strategies: Sequence[DvfsStrategy] | None = None,
        steps: int = 3,
        target_compute_us: float | None = None,
    ) -> list[ClusterStepResult]:
        """Run consecutive steps with the thermal state carried across."""
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1: {steps}")
        results: list[ClusterStepResult] = []
        celsius: Sequence[float] | None = None
        for _ in range(steps):
            result = self.run_step(
                trace, strategies, target_compute_us, celsius
            )
            results.append(result)
            celsius = [d.end_celsius for d in result.devices]
        return results


@dataclass(frozen=True)
class DeviceFrequencyTable:
    """One device's trace replay measured at every grid frequency.

    All sequences are indexed by ascending grid frequency.  Durations
    are non-increasing in frequency; ``soc_energy_j`` is the
    compute-phase energy; the idle power (measured at the device's own
    ambient) prices the barrier wait.  The last two are the reference
    for the inputs of the fleet objective's optimum.
    """

    device_id: int
    freqs_mhz: tuple[float, ...]
    duration_us: tuple[float, ...]
    soc_energy_j: tuple[float, ...]
    idle_soc_watts: tuple[float, ...]

    @property
    def max_freq_duration_us(self) -> float:
        """Arrival time at the maximum grid frequency."""
        return self.duration_us[-1]

    def lowest_index_meeting(self, target_us: float) -> int:
        """Lowest grid index whose arrival is within ``target_us``.

        Raises:
            StrategyError: when even the maximum frequency misses the
                target (the caller set an infeasible barrier).
        """
        for index, duration in enumerate(self.duration_us):
            if duration <= target_us:
                return index
        raise StrategyError(
            f"device {self.device_id} cannot reach the barrier at "
            f"{target_us:.0f} us even at {self.freqs_mhz[-1]:.0f} MHz "
            f"({self.duration_us[-1]:.0f} us)"
        )


@dataclass(frozen=True)
class ClusterStrategy:
    """A per-device frequency plan for one synchronised workload.

    ``strategies`` line up with device ids and are plain single-device
    :class:`~repro.dvfs.strategy.DvfsStrategy` objects.
    """

    workload: str
    target_compute_us: float
    allreduce_us: float
    straggler_id: int
    frequencies_mhz: tuple[float, ...]
    predicted_compute_us: tuple[float, ...]
    strategies: tuple[DvfsStrategy, ...]

    @property
    def n_devices(self) -> int:
        """Fleet size the plan covers."""
        return len(self.strategies)

    def strategy_json(self) -> tuple[str, ...]:
        """Per-device serialized strategies (the byte-identity payload)."""
        return tuple(strategy.to_json() for strategy in self.strategies)


def build_device_table(
    member: ClusterDevice,
    trace: Trace,
    freqs_mhz: tuple[float, ...] | None = None,
) -> DeviceFrequencyTable:
    """Measure one device's trace replay at every grid frequency.

    Each grid point runs through the same compile-and-execute path the
    reclaimed plan will later use (a constant strategy through the
    executor), so table entries and deployed arrivals agree to the last
    bit.
    """
    freqs = freqs_mhz or member.npu.frequencies.points
    durations: list[float] = []
    soc: list[float] = []
    idle_soc: list[float] = []
    evaluator = member.device.evaluator
    for freq in freqs:
        probe = constant_strategy(trace.name, freq, duration_us=1.0)
        result, _ = member.run(trace, probe)
        durations.append(result.duration_us)
        soc.append(result.soc_energy_j)
        idle_soc.append(evaluator.idle_soc_power(freq, 0.0))
    return DeviceFrequencyTable(
        device_id=member.device_id,
        freqs_mhz=tuple(freqs),
        duration_us=tuple(durations),
        soc_energy_j=tuple(soc),
        idle_soc_watts=tuple(idle_soc),
    )


def build_frequency_tables(
    cluster: SimulatedCluster, trace: Trace
) -> tuple[DeviceFrequencyTable, ...]:
    """Every device's table, in device order."""
    freqs = cluster.spec.npu.frequencies.points
    return tuple(
        build_device_table(member, trace, freqs) for member in cluster.devices
    )


def reclaim_slack(
    tables: tuple[DeviceFrequencyTable, ...],
    workload: str,
    allreduce_us: float = 0.0,
    slack_margin: float = 0.0,
) -> ClusterStrategy:
    """Downclock non-critical devices to arrive just-in-time.

    The barrier target is the slowest device's maximum-frequency
    arrival, optionally stretched by ``slack_margin`` (a fraction; 0
    keeps the step time untouched, small positive values trade bounded
    step-time loss for deeper downclocking).  Each device gets the
    lowest grid frequency that still meets the target, as a constant
    single-stage strategy — zero SetFreq operations at run time.
    """
    if not tables:
        raise ConfigurationError("reclaim_slack needs at least one table")
    if slack_margin < 0:
        raise ConfigurationError(
            f"slack_margin must be non-negative: {slack_margin}"
        )
    arrivals = [table.max_freq_duration_us for table in tables]
    straggler_id = arrivals.index(max(arrivals))
    target = max(arrivals) * (1.0 + slack_margin)
    frequencies: list[float] = []
    predicted: list[float] = []
    strategies: list[DvfsStrategy] = []
    for table in tables:
        index = table.lowest_index_meeting(target)
        freq = table.freqs_mhz[index]
        duration = table.duration_us[index]
        frequencies.append(freq)
        predicted.append(duration)
        strategies.append(constant_strategy(workload, freq, duration))
    return ClusterStrategy(
        workload=workload,
        target_compute_us=target,
        allreduce_us=allreduce_us,
        straggler_id=straggler_id,
        frequencies_mhz=tuple(frequencies),
        predicted_compute_us=tuple(predicted),
        strategies=tuple(strategies),
    )
