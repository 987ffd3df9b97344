"""Vectorized slack reclamation and delta0 re-targeting for the fleet.

The looped reference's ``reclaim_slack`` (``tests/reference``) walks
per-device Python tables; here the same policy is three array
passes over the ``(capacity, F)`` duration table of
:meth:`repro.fleet.simulator.FleetSimulator.duration_table`.  The
simulator builds that table once and keeps it (it depends only on the
trace, the board scales and the grid), so a reclaim gathers from it and
recomputes nothing:

1. the barrier target is the straggler's maximum-frequency arrival
   (optionally stretched by ``slack_margin``);
2. each active device takes the *lowest* grid frequency whose arrival
   meets the target — a boolean ``argmax`` along the frequency axis;
3. the result is a :class:`~repro.fleet.simulator.FleetPlan` of
   ``(capacity,)`` arrays the simulator gathers from directly.

Because the duration table is bitwise identical to probing each device
through the engine, the chosen frequencies, predicted arrivals and the
barrier target all match the looped reference exactly — and
:func:`plan_strategies` materialises the same byte-identical per-device
:func:`~repro.dvfs.strategy.constant_strategy` objects the cluster
plan carries, which is what the store-backed serve path persists.

Re-targeting after churn or degradation is just running the same pass
on the current membership — an ``O(N·F)`` gather from the cached table
— and :func:`auto_retarget` packages that as the ``replan`` callback of
:meth:`~repro.fleet.simulator.FleetSimulator.run_steps`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dvfs.strategy import DvfsStrategy, constant_strategy
from repro.errors import ConfigurationError, StrategyError
from repro.fleet.simulator import FleetPlan, FleetSimulator


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
    arrivals = sim.duration_table()[act, -1]
    straggler_id = int(act[int(np.argmax(arrivals))])
    return float(arrivals.max()) * (1.0 + slack_margin), straggler_id


def reclaim_fleet_slack(
    sim: FleetSimulator, slack_margin: float = 0.0
) -> FleetPlan:
    """Downclock every non-critical active device to just-in-time arrival.

    One vectorized pass over the simulator's cached duration table;
    semantics (and bytes) of the looped reference's ``reclaim_slack`` at
    any fleet size.  The returned plan's arrays are read-only.

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
    table = sim.duration_table()
    act = sim.active_ids

    meets = table[act] <= target
    feasible = meets.any(axis=1)
    if not feasible.all():
        device = int(act[int(np.argmax(~feasible))])
        raise StrategyError(
            f"device {device} cannot reach the barrier at "
            f"{target:.0f} us even at {freqs[-1]:.0f} MHz"
        )
    chosen = np.argmax(meets, axis=1)

    capacity = sim.spec.capacity
    freq_index = np.full(capacity, len(freqs) - 1, dtype=np.intp)
    freq_index[act] = chosen
    grid = np.asarray(freqs, dtype=float)
    freq_mhz = grid[freq_index]
    predicted = table[np.arange(capacity), freq_index]
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
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
