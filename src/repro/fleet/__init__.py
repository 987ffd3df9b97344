"""Vectorized 10k-device fleet simulation with elastic membership.

This package holds the repository's one production barrier-step
engine; a :mod:`repro.cluster` ring runs on it as a one-rack fleet.
Its reference, the looped ``SimulatedCluster`` under ``tests/reference``,
steps Python device objects through the engine — exact, but O(N)
interpreter work per step.  Here the same physics runs at fleet scale: every device's compiled
constant-frequency affine solution (``E = E0 + E1 * delta0``) is
stacked into ``(devices,)`` NumPy arrays, so the barrier step, the
idle-priced waits, slack reclamation and delta0 re-targeting are single
vectorized passes.

* :mod:`repro.fleet.spec` — the fleet description: the cluster's
  per-device variation, drawn per board, with rack structure and churn;
* :mod:`repro.fleet.topology` — hierarchical collectives: intra-rack
  ring + inter-rack tree, with flat-ring algorithm selection;
* :mod:`repro.fleet.churn` — seeded join/leave/fail dynamics with
  replay-identical histories and deterministic re-sharding;
* :mod:`repro.fleet.simulator` — the vectorized barrier step,
  equivalence-tested (<= 1e-9) against the looped reference at small N
  (``tests/test_fleet_equivalence.py``);
* :mod:`repro.fleet.dvfs` — array-pass slack reclamation producing
  byte-identical per-device constant strategies.

One process steps 100k devices: the simulator caches everything a step
needs per membership/plan/target epoch, so a warm step is a few affine
passes over the thermal state.

Run ``python -m repro.fleet run`` for a demo and
``python -m repro.fleet bench`` for the scaling benchmark
(``BENCH_fleet.json``).
"""

from repro.fleet.churn import ChurnConfig, FleetEvent, draw_churn
from repro.fleet.dvfs import (
    auto_retarget,
    plan_strategies,
    plan_strategy_json,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import (
    FleetPlan,
    FleetSimulator,
    FleetStepResult,
    descending_top_k,
    make_fleet_simulator,
    straggler_summary,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import CollectiveCost, FleetTopology

__all__ = [
    "ChurnConfig",
    "CollectiveCost",
    "FleetEvent",
    "FleetPlan",
    "FleetSimulator",
    "FleetSpec",
    "FleetStepResult",
    "FleetTopology",
    "auto_retarget",
    "descending_top_k",
    "draw_churn",
    "make_fleet_simulator",
    "plan_strategies",
    "plan_strategy_json",
    "reclaim_fleet_slack",
    "straggler_summary",
]
