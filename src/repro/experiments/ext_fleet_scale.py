"""Extension — vectorized fleet scaling with hierarchical collectives.

The ``ext_cluster`` study works the barrier-slack asymmetry on one
small ring; the paper's deployment story (Sect. 8.1) is fleets of
thousands of accelerators, where a Python loop per device per step is
the bottleneck, not the model.  This study exercises :mod:`repro.fleet`
— the same physics with every device's compiled affine solution stacked
into arrays — and measures what the vectorization buys and what it must
not change (the fleet's <= 1e-9 equivalence with the looped reference
is checked by ``tests/test_fleet_equivalence.py``):

* **reclamation at scale** — vectorized slack reclamation on a
  ``devices``-sized fleet: SoC savings at ~zero step-time regression,
  now over thousands of varied boards;
* **hierarchical collectives** — intra-rack ring + inter-rack
  recursive-doubling tree, never slower than the flat ring beyond one
  rack and exactly the ring law inside one;
* **elastic membership** — seeded join/leave/fail churn with
  re-targeted reclamation; replaying the same seed reproduces the
  identical event history and energies;
* **scaling** — warm barrier steps per second at increasing fleet
  sizes (the checked-in ``BENCH_fleet.json`` carries the 10k point).

Plans are recomputed, never cached: a reclaim at 10k devices is about
1 ms, well under the cost of keying one store record per device
(``docs/performance.md``, "Store-backed fleet plans do not amortize").
"""

from __future__ import annotations

import time

from repro.experiments.base import ExperimentResult, percent
from repro.fleet.churn import ChurnConfig
from repro.fleet.dvfs import auto_retarget, reclaim_fleet_slack
from repro.fleet.simulator import FleetSimulator
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import FleetTopology
from repro.workloads import generate


def _steps_per_second(sim: FleetSimulator, plan, target, steps: int) -> float:
    sim.reset()
    sim.step(plan, target_compute_us=target)  # warm the caches
    start = time.perf_counter()
    sim.run_steps(plan, steps=steps, target_compute_us=target)
    return steps / (time.perf_counter() - start)


def run(
    scale: float = 0.02,
    seed: int = 0,
    devices: int = 512,
    devices_per_rack: int = 16,
    gradient_mb: float = 64.0,
    steps: int = 3,
    scaling_sizes: tuple[int, ...] = (64, 512, 2048),
    workload: str = "gpt3",
) -> ExperimentResult:
    """Measure the vectorized fleet at scale."""
    trace = generate(workload, scale=scale, seed=seed)
    topology = FleetTopology(devices_per_rack=devices_per_rack)

    # Phase 1: reclamation on the full fleet.
    spec = FleetSpec(
        n_devices=devices,
        topology=topology,
        gradient_bytes=gradient_mb * 2**20,
        seed=seed,
    )
    sim = FleetSimulator(spec, trace)
    baseline = sim.run_steps(None, steps=steps)
    sim.reset()
    plan = reclaim_fleet_slack(sim)
    reclaimed = sim.run_steps(
        plan, steps=steps, target_compute_us=plan.target_compute_us
    )
    report = reclaimed[-1].report(baseline[-1])

    # Phase 2: the hierarchical collective against the flat ring.
    collective = sim.collective_cost()
    one_rack = topology.breakdown(
        spec.gradient_bytes, topology.rack_sizes(devices_per_rack)
    )
    single_rack_exact = (
        one_rack.hierarchical_us
        == spec.topology.intra.allreduce_us(
            spec.gradient_bytes, devices_per_rack
        )
    )

    # Phase 3: churn replay identity — same seed, same history.
    churn_spec = FleetSpec(
        n_devices=devices,
        topology=topology,
        gradient_bytes=gradient_mb * 2**20,
        seed=seed,
        churn=ChurnConfig(
            join_rate=1.0, leave_rate=1.0, fail_rate=0.5, max_joins=16
        ),
    )

    def churn_run():
        churned = FleetSimulator(churn_spec, trace)
        churn_plan = reclaim_fleet_slack(churned)
        results = churned.run_steps(
            churn_plan,
            steps=steps,
            target_compute_us=churn_plan.target_compute_us,
            replan=auto_retarget(),
        )
        events = tuple(e for r in results for e in r.events)
        energy = sum(r.fleet_soc_energy_j for r in results)
        return events, energy, results[-1].n_devices

    events_a, energy_a, final_a = churn_run()
    events_b, energy_b, final_b = churn_run()
    churn_identical = (
        events_a == events_b and energy_a == energy_b and final_a == final_b
    )

    # Phase 4: scaling curve (warm steps/s per fleet size).
    rows = []
    for size in scaling_sizes:
        size_spec = FleetSpec(
            n_devices=size,
            topology=topology,
            gradient_bytes=gradient_mb * 2**20,
            seed=seed,
        )
        size_sim = FleetSimulator(size_spec, trace)
        size_plan = reclaim_fleet_slack(size_sim)
        rate = _steps_per_second(
            size_sim, size_plan, size_plan.target_compute_us, steps
        )
        cost = size_sim.collective_cost()
        rows.append(
            {
                "devices": size,
                "racks": len(topology.rack_sizes(size)),
                "steps_per_s": round(rate, 1),
                "collective_ms": round(cost.chosen_us / 1000.0, 3),
                "algorithm": cost.algorithm,
                "vs_flat_ring": percent(
                    1.0 - cost.chosen_us / cost.flat_ring_us
                ),
            }
        )

    return ExperimentResult(
        experiment_id="ext_fleet_scale",
        title="Vectorized fleet scaling with hierarchical collectives",
        paper_reference={
            "context": "Sect. 8.1: per-device DVFS amortized over "
            "synchronized fleets; the analytical model makes "
            "thousand-device planning a few array passes, and the "
            "barrier physics must not change when the loop is "
            "vectorized",
        },
        measured={
            "devices": devices,
            "racks": len(topology.rack_sizes(devices)),
            "workload": trace.name,
            "soc_energy_savings": report.soc_energy_savings,
            "aicore_energy_savings": report.aicore_energy_savings,
            "step_time_regression": report.step_time_regression,
            "collective_algorithm": collective.algorithm,
            "hierarchical_not_slower": (
                collective.chosen_us <= collective.flat_ring_us
            ),
            "single_rack_exact_ring": single_rack_exact,
            "churn_events": len(events_a),
            "churn_final_devices": final_a,
            "churn_replay_identical": churn_identical,
            "scaling_max_devices": max(scaling_sizes),
            "scaling_min_steps_per_s": min(r["steps_per_s"] for r in rows),
        },
        rows=rows,
        notes=(
            f"The stacked-array fleet scales the barrier physics to "
            f"{max(scaling_sizes)} devices at "
            f"{rows[-1]['steps_per_s']:.0f} steps/s. Reclamation saves "
            f"{report.soc_energy_savings:.2%} of fleet SoC energy at "
            f"{report.step_time_regression:+.3%} step time; the "
            f"hierarchical collective is never slower than the flat ring "
            f"and churn replays are bit-identical."
        ),
    )
