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
plan carries, the per-device form in which a plan can be persisted.

Re-targeting after churn or degradation is just running the same pass
on the current membership — ``O(N·F)`` row passes over the cached table.
:func:`auto_retarget` packages that as the ``replan`` callback of
:meth:`~repro.fleet.simulator.FleetSimulator.run_steps`, and
:func:`degrade_and_retarget` runs the degradation story once: a stale
plan overruns its barrier on a slowed board, and re-reclamation moves
the barrier to the new straggler.

:func:`optimal_fleet_plan` is the exact optimum of the fleet
``energy x step-time`` objective (the fleet analogue of the paper's
Eq. 17, with the same 2x bonus for plans within the step-time budget),
the cross-check of the reclamation.  Given a compute barrier ``T`` the
objective is separable: each device independently takes the grid point
minimising its compute energy plus the idle energy of its wait, among
those arriving by ``T``.  Enumerating the barriers the duration table
can produce is therefore exact, and reclaim is not always that optimum:
a cheaper point that arrives earlier, or a slightly stretched barrier,
can score higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.report import ClusterResult
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
    same devices: one record per device for anyone who persists a plan.
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


#: Candidate barriers x devices x grid points :func:`optimal_fleet_plan`
#: scores per pass (bounds its working set at fleet size).
_BARRIER_BLOCK = 2**18


class _Objective:
    """The fleet ``energy x step-time`` objective over the active devices.

    Arrivals come from the duration table; compute-phase SoC energy and
    the idle power that prices the barrier wait from each grid point's
    affine solution at ``delta0 = 0`` (a step that starts at ambient).
    """

    def __init__(self, sim: FleetSimulator, step_loss_target: float) -> None:
        if not 0 <= step_loss_target < 1:
            raise ConfigurationError(
                f"step_loss_target must be in [0, 1): {step_loss_target}"
            )
        act = sim.active_ids
        if act.size == 0:
            raise ConfigurationError("the fleet objective needs a device")
        freqs = sim.spec.npu.frequencies.points
        solutions = [sim.solution(f) for f in freqs]
        self.durations = sim.duration_table()[act]  # (devices, F)
        self.soc_energy_j = np.stack([s.e0_soc_j[act] for s in solutions], 1)
        self.idle_soc_w = np.array([s.idle_soc_w0 for s in solutions])
        self.allreduce_us = sim.collective_cost().chosen_us
        step, energy = self.evaluate(np.full((1, act.size), len(freqs) - 1))
        #: The all-max baseline's energy x step time.
        self.product = float(energy[0] * step[0])
        self.step_limit_us = (
            float(step[0]) * (1.0 + step_loss_target) * (1.0 + 1e-12)
        )

    def evaluate(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step time and fleet SoC energy of each row of grid indices.

        The barrier is the latest chosen arrival; every device idles
        from its arrival until the all-reduce completes.
        """
        devices = np.arange(self.durations.shape[0])
        arrivals = self.durations[devices, genes]  # (rows, devices)
        compute = arrivals.max(axis=1)
        idle_us = compute[:, None] - arrivals + self.allreduce_us
        energy = self.soc_energy_j[devices, genes] + self.idle_soc_w[
            genes
        ] * (idle_us / US_PER_S)
        return compute + self.allreduce_us, energy.sum(axis=1)

    def score(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 17-style scores of rows of grid indices, and feasibility.

        The baseline's product over each row's, doubled when the step
        stays within the limit.
        """
        step, energy = self.evaluate(genes)
        feasible = step <= self.step_limit_us
        bonus = np.where(feasible, 2.0, 1.0)
        return self.product / (energy * step) * bonus, feasible

    def best(self, barriers: np.ndarray) -> tuple[np.ndarray, float]:
        """The best per-barrier energy argmin; the lowest barrier on ties."""
        best, best_score = None, -np.inf
        block = max(1, _BARRIER_BLOCK // self.durations.size)
        for start in range(0, barriers.size, block):
            barrier = barriers[start : start + block, None, None]
            wait_us = barrier - self.durations + self.allreduce_us
            cost = self.soc_energy_j + self.idle_soc_w * (wait_us / US_PER_S)
            cost[self.durations > barrier] = np.inf
            genes = cost.argmin(axis=2)  # lowest grid index on ties
            scores, _ = self.score(genes)
            k = int(np.argmax(scores))
            if scores[k] > best_score:
                best, best_score = genes[k], float(scores[k])
        return best, best_score


def optimal_fleet_plan(
    sim: FleetSimulator, step_loss_target: float = 0.005
) -> FleetPlan:
    """The exact optimum of the fleet ``energy x step-time`` score.

    Given a compute barrier ``T``, each active device takes the grid
    point minimising ``e[i, f] + idle_w[f] * (T - d[i, f] + allreduce)``
    among those arriving by ``T`` (the lowest point on ties), and the
    assignment is scored with its own barrier, the latest chosen
    arrival.  An optimum's barrier is a table duration no earlier than
    the earliest barrier every device can meet, so scoring those
    candidates is exact.  Candidates past the step limit lose the 2x
    bonus; they are scored only when the bound ``product /
    (sum_i min_f e[i, f] * (T + allreduce))`` at the first of them
    could beat the best feasible plan.  The plan covers the active
    devices; its barrier target is the slowest predicted arrival.

    Raises:
        ConfigurationError: on a loss target outside ``[0, 1)`` or a
            fleet with no active device.
    """
    objective = _Objective(sim, step_loss_target)
    durations, allreduce_us = objective.durations, objective.allreduce_us
    barriers = np.unique(durations)
    barriers = barriers[barriers >= durations.min(axis=1).max()]
    within = barriers + allreduce_us <= objective.step_limit_us
    genes, score = objective.best(barriers[within])
    late = barriers[~within]
    least_energy = objective.soc_energy_j.min(axis=1).sum()
    if late.size and objective.product > (
        score * least_energy * (late[0] + allreduce_us)
    ):
        late_genes, late_score = objective.best(late)
        if late_score > score:
            genes = late_genes

    act = sim.active_ids
    freqs = sim.spec.npu.frequencies.points
    capacity = sim.spec.capacity
    freq_index = np.full(capacity, len(freqs) - 1, dtype=np.intp)
    freq_index[act] = genes
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
    predicted = sim.duration_table()[np.arange(capacity), freq_index]
    arrivals = predicted[act]
    return FleetPlan(
        workload=sim.trace.name,
        target_compute_us=float(arrivals.max()),
        straggler_id=int(act[int(np.argmax(arrivals))]),
        freqs_mhz=tuple(float(f) for f in freqs),
        freq_index=freq_index,
        freq_mhz=np.asarray(freqs, dtype=float)[freq_index],
        predicted_us=predicted,
        covered=covered,
    )


def fleet_plan_score(
    sim: FleetSimulator, plan: FleetPlan, step_loss_target: float = 0.005
) -> tuple[float, bool]:
    """A plan's fleet score on the active devices, and its feasibility.

    The objective :func:`optimal_fleet_plan` maximises: the all-max
    baseline's predicted ``energy x step-time`` over the plan's, doubled
    when the plan's step is within ``step_loss_target`` of the
    baseline's, so uniform maximum frequency scores 2.
    """
    genes = plan.freq_index[sim.active_ids][None, :]
    scores, feasible = _Objective(sim, step_loss_target).score(genes)
    return float(scores[0]), bool(feasible[0])
