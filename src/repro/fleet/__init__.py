"""Synchronous data-parallel fleets with per-device DVFS (Sect. 8.1).

The paper optimises one NPU at a time; its deployment story (Sect. 8.1)
is synchronous data-parallel fleets, where per-device DVFS interacts
with the all-reduce barrier: slowing the critical device stalls every
peer, while slowing a non-critical device is free.  This package holds
the repository's one production barrier-step engine and the policies
that run on it.  Its reference, the looped ``SimulatedCluster`` under
``tests/reference``, steps Python device objects through the engine —
exact, but O(N) interpreter work per step.  Here the same physics runs
at fleet scale: every device's compiled constant-frequency affine
solution (``E = E0 + E1 * delta0``) is stacked into ``(devices,)``
NumPy arrays, so the barrier step, the idle-priced waits, slack
reclamation and delta0 re-targeting are single vectorized passes.

* :mod:`repro.fleet.spec` — the fleet description: seeded per-device
  variation (silicon speed bins, rack thermal gradients) plus explicit
  degradation overrides, drawn per board, with rack structure and churn;
* :mod:`repro.fleet.topology` — the ring all-reduce law and hierarchical
  collectives: intra-rack ring + inter-rack tree, with flat-ring
  algorithm selection;
* :mod:`repro.fleet.churn` — seeded join/leave/fail dynamics with
  replay-identical histories and deterministic re-sharding;
* :mod:`repro.fleet.simulator` — the vectorized barrier step,
  equivalence-tested (<= 1e-9) against the looped reference at small N
  (``tests/test_fleet_equivalence.py``);
* :mod:`repro.fleet.dvfs` — array-pass slack reclamation producing
  byte-identical per-device constant strategies, the degrade-and-
  re-target flow, and the exact optimum of the fleet ``energy x
  step-time`` objective that cross-checks the reclamation.

One process steps 100k devices: the simulator caches everything a step
needs per membership/plan/target epoch, so a warm step is a few affine
passes over the thermal state.

Run ``python -m repro.fleet run`` for a demo (``--optimum`` adds the
objective's optimum, ``--degrade DEVICE`` the re-targeted reclamation) and
``python -m repro.fleet bench`` for the scaling benchmark
(``BENCH_fleet.json``).
"""

from repro.fleet.churn import ChurnConfig, FleetEvent, draw_churn
from repro.fleet.dvfs import (
    auto_retarget,
    degrade_and_retarget,
    fleet_plan_score,
    optimal_fleet_plan,
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
from repro.fleet.spec import (
    DeviceOverride,
    DeviceProfile,
    DeviceVariation,
    FleetSpec,
)
from repro.fleet.topology import (
    CollectiveCost,
    FleetTopology,
    InterconnectSpec,
)

__all__ = [
    "ChurnConfig",
    "CollectiveCost",
    "DeviceOverride",
    "DeviceProfile",
    "DeviceVariation",
    "FleetEvent",
    "FleetPlan",
    "FleetSimulator",
    "FleetSpec",
    "FleetStepResult",
    "FleetTopology",
    "InterconnectSpec",
    "auto_retarget",
    "degrade_and_retarget",
    "descending_top_k",
    "draw_churn",
    "fleet_plan_score",
    "make_fleet_simulator",
    "optimal_fleet_plan",
    "plan_strategies",
    "plan_strategy_json",
    "reclaim_fleet_slack",
    "straggler_summary",
]
