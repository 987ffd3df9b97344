"""Vectorized slack reclamation and delta0 re-targeting for the fleet.

The looped reference's ``reclaim_slack`` (``tests/reference``) walks
per-device Python tables; here the same policy is a few contiguous row
passes over the frequency-major duration table,
``duration_table().T`` of
:meth:`repro.fleet.simulator.FleetSimulator.duration_table` (one
``(capacity,)`` row per grid point).  The simulator builds that table
once and keeps it (it depends only on the trace, the board scales and
the grid), so a reclaim reads from it and recomputes nothing:

1. the barrier target is the straggler's maximum-frequency arrival
   (optionally stretched by ``slack_margin``), read from the table's
   last row;
2. each active device takes the *lowest* grid frequency whose arrival
   meets the target: one comparison over the table, a prefix OR down
   the grid (row ``j`` marks the boards that some point ``<= j``
   serves), and a count of the reached rows — ``F`` minus that count
   is the lowest point;
3. the result is a :class:`~repro.fleet.simulator.FleetPlan` of
   ``(capacity,)`` arrays the simulator gathers from directly, its
   predicted arrivals one flat gather from the table.

Because the duration table is bitwise identical to probing each device
through the engine, the chosen frequencies, predicted arrivals and the
barrier target all match the looped reference exactly — and
:func:`plan_strategies` materialises the same byte-identical per-device
:func:`~repro.dvfs.strategy.constant_strategy` objects the cluster
plan carries, which is what the store-backed serve path persists.

Re-targeting after churn or degradation is just running the same pass
on the current membership — ``O(N·F)`` row passes over the cached table.
:func:`auto_retarget` packages that as the ``replan`` callback of
:meth:`~repro.fleet.simulator.FleetSimulator.run_steps`, and
:func:`degrade_and_retarget` runs the degradation story once: a stale
plan overruns its barrier on a slowed board, and re-reclamation moves
the barrier to the new straggler.

:func:`search_cluster_frequencies` is the search-based cross-check of
the deterministic reclamation: the existing genetic algorithm of
:mod:`repro.dvfs.ga`, re-targeted with one gene per *device* instead of
per stage and scored by fleet ``energy x step-time`` (the fleet analogue
of the paper's Eq. 17 objective, with the same 2x feasibility bonus for
plans within the step-time budget).  :class:`ClusterScorer` reads its
inputs from the simulator: arrivals from the duration table,
compute-phase SoC energy from each grid point's affine solution at
``delta0 = 0`` (a run that starts at the board's ambient), and the idle
power that prices the barrier wait from the same solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.report import ClusterResult
from repro.dvfs.ga import GaConfig, GaResult, run_search
from repro.dvfs.preprocessing import Stage, StageKind
from repro.dvfs.strategy import DvfsStrategy, constant_strategy
from repro.errors import ConfigurationError, StrategyError
from repro.fleet.simulator import FleetPlan, FleetSimulator, FleetStepResult
from repro.units import US_PER_S


def barrier_target(
    sim: FleetSimulator, slack_margin: float = 0.0
) -> tuple[float, int]:
    """The reclaim barrier over the active devices: ``(target, straggler)``.

    The target is the straggler's maximum-frequency arrival stretched by
    ``slack_margin``; the straggler is the first active device with the
    latest such arrival.

    Raises:
        ConfigurationError: when no device is active.
    """
    act = sim.active_ids
    if act.size == 0:
        raise ConfigurationError("reclaim needs at least one active device")
    arrivals = sim.duration_table().T[-1][act]
    straggler_id = int(act[int(np.argmax(arrivals))])
    return float(arrivals.max()) * (1.0 + slack_margin), straggler_id


def reclaim_fleet_slack(
    sim: FleetSimulator, slack_margin: float = 0.0
) -> FleetPlan:
    """Downclock every non-critical active device to just-in-time arrival.

    A few contiguous row passes over the simulator's cached duration
    table; semantics (and bytes) of the looped reference's
    ``reclaim_slack`` at any fleet size.  The returned plan's arrays
    are read-only.

    Raises:
        ConfigurationError: on a negative ``slack_margin``.
        StrategyError: when a device cannot reach the barrier even at
            the maximum grid frequency (only possible with a stale
            externally-supplied target; the self-derived target is
            always feasible).
    """
    if slack_margin < 0:
        raise ConfigurationError(
            f"slack_margin must be non-negative: {slack_margin}"
        )
    target, straggler_id = barrier_target(sim, slack_margin)
    freqs = sim.spec.npu.frequencies.points
    n_freqs = len(freqs)
    by_freq = sim.duration_table().T  # (F, capacity), C-contiguous
    act = sim.active_ids

    # reached[j]: some grid point <= j meets the target.  Every board is
    # compared (inactive ones are masked below), so each pass is a
    # contiguous row.
    reached = by_freq <= target
    for j in range(1, n_freqs):
        np.logical_or(reached[j - 1], reached[j], out=reached[j])
    feasible = reached[-1][act]
    if not feasible.all():
        device = int(act[int(np.argmax(~feasible))])
        raise StrategyError(
            f"device {device} cannot reach the barrier at "
            f"{target:.0f} us even at {freqs[-1]:.0f} MHz"
        )
    # The lowest point meeting the target is F minus the reached rows;
    # the count runs in the narrowest unsigned type that holds F, so it
    # is exact on any grid.
    counts = reached.view(np.uint8).sum(
        axis=0, dtype=np.min_scalar_type(n_freqs)
    )

    capacity = sim.spec.capacity
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
    freq_index = np.subtract(n_freqs, counts, dtype=np.intp)
    freq_index[~covered] = n_freqs - 1
    grid = np.asarray(freqs, dtype=float)
    freq_mhz = grid[freq_index]
    predicted = np.take(by_freq, freq_index * capacity + np.arange(capacity))
    return FleetPlan(
        workload=sim.trace.name,
        target_compute_us=target,
        straggler_id=straggler_id,
        freqs_mhz=tuple(float(f) for f in freqs),
        freq_index=freq_index,
        freq_mhz=freq_mhz,
        predicted_us=predicted,
        covered=covered,
    )


def plan_strategies(plan: FleetPlan) -> tuple[DvfsStrategy, ...]:
    """Per-device constant strategies of a fleet plan, covered ids in order.

    Byte-identical to the cluster plan's ``strategies`` tuple for the
    same devices — the payload the strategy store persists.
    """
    ids = np.flatnonzero(plan.covered)
    return tuple(
        constant_strategy(
            plan.workload,
            float(plan.freq_mhz[i]),
            float(plan.predicted_us[i]),
        )
        for i in ids
    )


def plan_strategy_json(plan: FleetPlan) -> tuple[str, ...]:
    """Serialized per-device strategies (the byte-identity payload)."""
    return tuple(s.to_json() for s in plan_strategies(plan))


def auto_retarget(
    slack_margin: float = 0.0,
) -> Callable[[FleetSimulator], FleetPlan]:
    """A ``replan`` callback re-running reclamation on the live fleet.

    Pass to :meth:`~repro.fleet.simulator.FleetSimulator.run_steps`:
    after any step whose churn changed membership, the plan and barrier
    target are rebuilt for the surviving devices — the fleet-scale
    version of the cluster experiment's degraded-straggler re-target.
    """
    def replan(sim: FleetSimulator) -> FleetPlan:
        return reclaim_fleet_slack(sim, slack_margin)

    return replan


@dataclass(frozen=True)
class DegradedRetarget:
    """A stale plan replayed on a degraded fleet, then re-targeted.

    Every step starts from the boards' ambient temperatures.
    """

    #: The stale plan's step on the degraded fleet (overruns named).
    stale: FleetStepResult
    #: Reclamation re-run on the degraded fleet.
    plan: FleetPlan
    #: The degraded fleet at uniform maximum frequency.
    baseline: FleetStepResult
    #: The re-targeted plan's step.
    retargeted: FleetStepResult

    def report(self) -> ClusterResult:
        """The re-targeted step against the degraded baseline."""
        return self.retargeted.report(self.baseline)


def degrade_and_retarget(
    sim: FleetSimulator,
    plan: FleetPlan,
    device_id: int,
    slowdown: float,
    reason: str = "degraded",
    slack_margin: float = 0.0,
) -> DegradedRetarget:
    """Slow one board, replay ``plan`` on it, then re-run reclamation.

    The stale plan keeps its barrier target, so the slowed device
    arrives late and the step's overrun watchdog names it; reclaiming
    on the degraded fleet moves the barrier to the new straggler and
    reclaims the slack the degradation created on every healthy device.
    ``sim`` supplies the spec and trace; its own state is untouched.
    """
    degraded = FleetSimulator(
        sim.spec.with_degraded_device(device_id, slowdown, reason=reason),
        sim.trace,
    )
    stale = degraded.step(plan, target_compute_us=plan.target_compute_us)
    new_plan = reclaim_fleet_slack(degraded, slack_margin=slack_margin)
    degraded.reset()
    baseline = degraded.step()
    degraded.reset()
    retargeted = degraded.step(
        new_plan, target_compute_us=new_plan.target_compute_us
    )
    return DegradedRetarget(
        stale=stale,
        plan=new_plan,
        baseline=baseline,
        retargeted=retargeted,
    )


@dataclass(frozen=True)
class ClusterScoreBreakdown:
    """Predicted fleet metrics of one gene assignment."""

    step_us: float
    fleet_soc_energy_j: float
    feasible: bool
    frequencies_mhz: tuple[float, ...]


class ClusterScorer:
    """Fleet ``energy x step-time`` objective over per-device genes.

    Satisfies the scorer protocol of :func:`repro.dvfs.ga.run_search`
    (``score`` / ``stage_count`` / ``frequency_count``): an individual
    assigns one grid frequency per active device (in id order), and its
    score is the baseline's energy-time product over the individual's,
    doubled when the step time stays within the loss target — the direct
    fleet analogue of the paper's Eq. 17.
    """

    def __init__(
        self, sim: FleetSimulator, step_loss_target: float = 0.005
    ) -> None:
        if not 0 <= step_loss_target < 1:
            raise ConfigurationError(
                f"step_loss_target must be in [0, 1): {step_loss_target}"
            )
        act = sim.active_ids
        if act.size == 0:
            raise ConfigurationError("ClusterScorer needs an active device")
        self._device_ids = act
        self._freqs = tuple(float(f) for f in sim.spec.npu.frequencies.points)
        self._allreduce_us = sim.collective_cost().chosen_us
        self._loss_target = float(step_loss_target)
        solutions = [sim.solution(f) for f in self._freqs]
        self._durations = sim.duration_table()[act]  # (devices, freqs)
        self._soc_energy = np.stack(
            [solution.e0_soc_j[act] for solution in solutions], axis=1
        )
        self._idle_soc_w = np.array(
            [solution.idle_soc_w0 for solution in solutions]
        )  # (freqs,)
        baseline = np.full(act.size, len(self._freqs) - 1, dtype=int)
        self._baseline_step_us, self._baseline_energy_j = self._evaluate(
            baseline[None, :]
        )
        self._step_limit_us = float(self._baseline_step_us[0]) * (
            1.0 + self._loss_target
        )

    @property
    def stage_count(self) -> int:
        """One gene per active device."""
        return self._durations.shape[0]

    @property
    def frequency_count(self) -> int:
        """Size of the shared frequency grid."""
        return len(self._freqs)

    @property
    def freqs_mhz(self) -> tuple[float, ...]:
        """The shared grid, ascending."""
        return self._freqs

    @property
    def device_ids(self) -> np.ndarray:
        """The active device each gene belongs to."""
        return self._device_ids

    @property
    def baseline_step_us(self) -> float:
        """Step time with every device at maximum frequency."""
        return float(self._baseline_step_us[0])

    @property
    def baseline_energy_j(self) -> float:
        """Fleet SoC energy with every device at maximum frequency."""
        return float(self._baseline_energy_j[0])

    def _evaluate(
        self, population: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step time and fleet SoC energy for each individual."""
        devices = np.arange(self._durations.shape[0])
        arrivals = self._durations[devices[None, :], population]  # (P, D)
        compute = arrivals.max(axis=1)  # (P,)
        step = compute + self._allreduce_us
        active = self._soc_energy[devices[None, :], population]
        idle_w = self._idle_soc_w[population]
        idle_us = compute[:, None] - arrivals + self._allreduce_us
        energy = (active + idle_w * idle_us / US_PER_S).sum(axis=1)
        return step, energy

    def score(self, population: np.ndarray) -> np.ndarray:
        """Eq. 17-style score: normalised E*t product, 2x when feasible."""
        population = np.asarray(population, dtype=int)
        step, energy = self._evaluate(population)
        baseline_product = self.baseline_energy_j * self.baseline_step_us
        norm = baseline_product / (energy * step)
        feasible = step <= self._step_limit_us * (1.0 + 1e-12)
        return norm * np.where(feasible, 2.0, 1.0)

    def breakdown(self, genes: np.ndarray) -> ClusterScoreBreakdown:
        """Predicted fleet metrics of one individual."""
        genes = np.asarray(genes, dtype=int)
        step, energy = self._evaluate(genes[None, :])
        return ClusterScoreBreakdown(
            step_us=float(step[0]),
            fleet_soc_energy_j=float(energy[0]),
            feasible=bool(step[0] <= self._step_limit_us * (1.0 + 1e-12)),
            frequencies_mhz=tuple(self._freqs[g] for g in genes),
        )

    def synthetic_stages(self) -> tuple[Stage, ...]:
        """One pseudo-stage per device, for the GA's prior seeding.

        Devices are HFC-like (the barrier makes every device latency-
        relevant until reclamation proves otherwise), so the GA's prior
        individuals start the fleet near the maximum frequency.
        """
        stages: list[Stage] = []
        clock = 0.0
        for index in range(self.stage_count):
            duration = float(self._durations[index, -1])
            stages.append(
                Stage(
                    index=index,
                    kind=StageKind.HFC,
                    start_us=clock,
                    duration_us=duration,
                    op_indices=(index,),
                    sensitive_time_us=duration,
                )
            )
            clock += duration
        return tuple(stages)


def search_cluster_frequencies(
    sim: FleetSimulator,
    step_loss_target: float = 0.005,
    config: GaConfig | None = None,
) -> tuple[FleetPlan, GaResult, ClusterScoreBreakdown]:
    """GA search over per-device frequencies with the fleet objective.

    Reuses :func:`repro.dvfs.ga.run_search` unchanged — the scorer swaps
    stages for devices.  The all-max individual is always seeded (it is
    the GA's baseline individual) and always feasible, so the result is
    never worse than uniform maximum frequency.  The plan covers the
    active devices; its barrier target is the slowest predicted arrival.
    """
    scorer = ClusterScorer(sim, step_loss_target)
    result = run_search(
        scorer, scorer.synthetic_stages(), scorer.freqs_mhz, config
    )
    act = scorer.device_ids
    capacity = sim.spec.capacity
    freq_index = np.full(capacity, len(scorer.freqs_mhz) - 1, dtype=np.intp)
    freq_index[act] = result.best_genes
    predicted = sim.duration_table()[np.arange(capacity), freq_index]
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
    arrivals = predicted[act]
    plan = FleetPlan(
        workload=sim.trace.name,
        target_compute_us=float(arrivals.max()),
        straggler_id=int(act[int(np.argmax(arrivals))]),
        freqs_mhz=scorer.freqs_mhz,
        freq_index=freq_index,
        freq_mhz=np.asarray(scorer.freqs_mhz)[freq_index],
        predicted_us=predicted,
        covered=covered,
    )
    return plan, result, scorer.breakdown(result.best_genes)
