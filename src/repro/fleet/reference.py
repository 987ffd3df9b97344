"""Equivalence harness for the vectorized fleet.

:func:`compare_with_cluster` runs the fleet against the looped
:class:`~repro.cluster.simulator.SimulatedCluster` at N <= 16 — the
ground-truth semantics check: same seeded profiles, same engine
physics, same barrier.  Durations and reclaimed strategies must be
bitwise/byte identical; energies and temperatures, whose barrier idle
integration the fleet collapses to its per-epoch affine form, must
agree within 1e-9.

The CLI bench, the ``ext_fleet_scale`` experiment and the equivalence
tests all consume this harness, so the acceptance bar is measured the
same way everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.dvfs import build_frequency_tables, reclaim_slack
from repro.cluster.simulator import ClusterStepResult, SimulatedCluster
from repro.errors import ConfigurationError
from repro.fleet.dvfs import plan_strategy_json, reclaim_fleet_slack
from repro.fleet.simulator import FleetSimulator, FleetStepResult
from repro.fleet.spec import FleetSpec
from repro.workloads.trace import Trace

#: The acceptance bar on every relative error the harness measures.
EQUIVALENCE_TOLERANCE = 1e-9


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = np.maximum(np.abs(ref), 1e-12)
    return float(np.max(np.abs(got - ref) / scale)) if got.size else 0.0


@dataclass(frozen=True)
class ReferenceComparison:
    """Worst-case divergence between fleet and cluster simulations."""

    n_devices: int
    steps: int
    #: Reclamation byte-identity: same frequencies, same barrier
    #: target, identical serialized per-device strategies.
    plans_byte_identical: bool
    #: Per-device arrivals bitwise identical (max |rel| over steps).
    max_rel_duration: float
    max_rel_energy: float
    max_rel_celsius: float
    max_rel_fleet_total: float
    overruns_equal: bool

    @property
    def max_rel_err(self) -> float:
        """The single worst relative error across every observable."""
        return max(
            self.max_rel_duration,
            self.max_rel_energy,
            self.max_rel_celsius,
            self.max_rel_fleet_total,
        )

    def ok(self, tolerance: float = EQUIVALENCE_TOLERANCE) -> bool:
        """Whether every observable is within ``tolerance``."""
        return (
            self.plans_byte_identical
            and self.overruns_equal
            and self.max_rel_err <= tolerance
        )


def _compare_steps(
    fleet_steps: list[FleetStepResult],
    cluster_steps: list[ClusterStepResult],
) -> tuple[float, float, float, float]:
    rel_dur = rel_energy = rel_celsius = rel_total = 0.0
    for fleet, cluster in zip(fleet_steps, cluster_steps):
        ref_dur = [d.compute_us for d in cluster.devices]
        rel_dur = max(
            rel_dur,
            _rel(fleet.arrival_us, ref_dur),
            _rel(fleet.wait_us, [d.wait_us for d in cluster.devices]),
            _rel([fleet.compute_us], [cluster.compute_us]),
            _rel([fleet.collective_us], [cluster.allreduce_us]),
        )
        rel_energy = max(
            rel_energy,
            _rel(
                fleet.aicore_energy_j,
                [d.aicore_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.soc_energy_j,
                [d.soc_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.idle_aicore_energy_j,
                [d.idle_aicore_energy_j for d in cluster.devices],
            ),
            _rel(
                fleet.idle_soc_energy_j,
                [d.idle_soc_energy_j for d in cluster.devices],
            ),
        )
        rel_celsius = max(
            rel_celsius,
            _rel(
                fleet.end_celsius,
                [d.end_celsius for d in cluster.devices],
            ),
        )
        rel_total = max(
            rel_total,
            _rel(
                [fleet.fleet_soc_energy_j], [cluster.fleet_soc_energy_j]
            ),
            _rel(
                [fleet.fleet_aicore_energy_j],
                [cluster.fleet_aicore_energy_j],
            ),
        )
    return rel_dur, rel_energy, rel_celsius, rel_total


def compare_with_cluster(
    spec: FleetSpec,
    trace: Trace,
    steps: int = 2,
    slack_margin: float = 0.0,
) -> ReferenceComparison:
    """Run fleet and cluster side by side; report the worst divergence.

    Both simulators execute ``steps`` baseline steps and ``steps``
    reclaimed steps (thermal state carried within each phase), plus an
    overrun-watchdog cross-check under a deliberately tight target.
    The fleet must be churn-free and single-rack — otherwise the looped
    cluster is not its reference semantics.

    Raises:
        ConfigurationError: on a churned or multi-rack fleet.
    """
    if spec.churn.any_active:
        raise ConfigurationError(
            "the looped cluster has no churn; compare a churn-free spec"
        )
    if len(spec.topology.rack_sizes(spec.n_devices)) > 1:
        raise ConfigurationError(
            "the looped cluster is a single ring; compare a fleet that "
            "fits one rack"
        )
    cluster = SimulatedCluster(spec.cluster_spec())
    sim = FleetSimulator(spec, trace)

    fleet_base = sim.run_steps(None, steps=steps)
    cluster_base = cluster.run_steps(trace, None, steps=steps)

    tables = build_frequency_tables(cluster, trace)
    cluster_plan = reclaim_slack(
        tables,
        trace.name,
        allreduce_us=cluster.spec.allreduce_us,
        slack_margin=slack_margin,
    )
    fleet_plan = reclaim_fleet_slack(sim, slack_margin=slack_margin)
    plans_identical = (
        plan_strategy_json(fleet_plan) == cluster_plan.strategy_json()
        and fleet_plan.target_compute_us == cluster_plan.target_compute_us
        and fleet_plan.straggler_id == cluster_plan.straggler_id
    )

    sim.reset()
    fleet_rec = sim.run_steps(
        fleet_plan,
        steps=steps,
        target_compute_us=fleet_plan.target_compute_us,
    )
    fresh = SimulatedCluster(spec.cluster_spec())
    cluster_rec = fresh.run_steps(
        trace,
        cluster_plan.strategies,
        steps=steps,
        target_compute_us=cluster_plan.target_compute_us,
    )

    # Watchdog cross-check: an impossibly tight barrier must trip the
    # same per-device overruns in both simulators.
    tight = fleet_plan.target_compute_us / 2.0
    sim.reset()
    fleet_tight = sim.step(fleet_plan, target_compute_us=tight)
    tight_cluster = SimulatedCluster(spec.cluster_spec())
    cluster_tight = tight_cluster.run_step(
        trace, cluster_plan.strategies, target_compute_us=tight
    )
    overruns_equal = (
        sum(r.overrun_count for r in fleet_rec)
        == sum(len(r.incidents) for r in cluster_rec)
        and fleet_tight.overrun_count == len(cluster_tight.incidents)
    )

    rels = [
        _compare_steps(fleet_base, cluster_base),
        _compare_steps(fleet_rec, cluster_rec),
    ]
    return ReferenceComparison(
        n_devices=spec.n_devices,
        steps=steps,
        plans_byte_identical=plans_identical,
        max_rel_duration=max(r[0] for r in rels),
        max_rel_energy=max(r[1] for r in rels),
        max_rel_celsius=max(r[2] for r in rels),
        max_rel_fleet_total=max(r[3] for r in rels),
        overruns_equal=overruns_equal,
    )
