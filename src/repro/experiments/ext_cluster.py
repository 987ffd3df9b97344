"""Extension — cluster slack reclamation on a varied data-parallel fleet.

The paper's pipeline optimises one NPU; its deployment story
(Sect. 8.1) is synchronous data-parallel fleets, where the all-reduce
barrier makes per-device DVFS asymmetric: slowing the critical device
stalls every peer, slowing a non-critical device is free.  This study
quantifies that asymmetry on a simulated cluster of ``devices`` NPUs
with seeded silicon/thermal variation, stepped as a one-rack
:class:`~repro.fleet.simulator.FleetSimulator` (every phase starts from
the boards' ambient temperatures):

* **baseline** — every device at uniform maximum frequency; the step
  completes at the straggler's arrival plus the ring all-reduce, and
  faster devices burn idle power waiting at the barrier;
* **reclaimed** — non-critical devices are downclocked to arrive
  just-in-time, and the plan is asserted byte-identical on a fresh
  simulator;
* **fleet optimum** — the exact optimum of the fleet ``energy x
  step-time`` objective, the cross-check of the deterministic
  reclamation: both plans are scored, so the gap between them is
  measured;
* **degraded** — one device is slowed (silicon degradation).  The stale
  reclaimed plan now overruns the planned barrier — the step's overrun
  watchdog names the device — and re-running reclamation re-targets
  the new straggler, reclaiming the (larger) slack the degradation
  created on every healthy device.

Headline metrics: fleet SoC-energy savings at the step-time regression
(must be ~zero), byte-identity across repeated runs, and the degraded
phase's overrun count and re-targeted straggler.  The plan is not
cached: reclamation is a few row passes over a table the simulator
already holds, cheaper than keying a store lookup per device
(``docs/performance.md``, "Store-backed fleet plans do not amortize").
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, percent
from repro.fleet.dvfs import (
    degrade_and_retarget,
    fleet_plan_score,
    optimal_fleet_plan,
    plan_strategy_json,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import FleetSimulator
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import FleetTopology
from repro.workloads import generate


def run(
    scale: float = 0.02,
    seed: int = 0,
    devices: int = 8,
    gradient_mb: float = 64.0,
    slowdown: float = 1.3,
    workload: str = "gpt3",
) -> ExperimentResult:
    """Measure slack reclamation on a varied data-parallel fleet."""
    trace = generate(workload, scale=scale, seed=seed)
    spec = FleetSpec(
        name="ring-cluster",
        n_devices=devices,
        topology=FleetTopology(devices_per_rack=devices),
        gradient_bytes=gradient_mb * 2**20,
        seed=seed,
    )
    sim = FleetSimulator(spec, trace)
    allreduce_us = sim.collective_cost().chosen_us
    baseline = sim.step()
    plan = reclaim_fleet_slack(sim)

    # Repeated-run identity on a fresh simulator.
    repeat_plan = reclaim_fleet_slack(FleetSimulator(spec, trace))
    identical_repeat = plan_strategy_json(plan) == plan_strategy_json(
        repeat_plan
    )

    sim.reset()
    reclaimed = sim.step(plan, target_compute_us=plan.target_compute_us)
    reclaim_report = reclaimed.report(baseline)

    # Cross-check: the fleet objective's exact optimum.
    best = optimal_fleet_plan(sim)
    best_score, best_feasible = fleet_plan_score(sim, best)
    reclaim_score, _ = fleet_plan_score(sim, plan)
    sim.reset()
    best_step = sim.step(best, target_compute_us=best.target_compute_us)
    best_report = best_step.report(baseline)

    # Degraded phase: one non-straggler device slowed.
    victim = (baseline.straggler_id + 1) % devices
    degraded = degrade_and_retarget(
        sim, plan, victim, slowdown, reason="injected silicon degradation"
    )
    stale = degraded.stale
    retarget_report = degraded.report()

    def phase_row(phase: str, report) -> dict:
        return {
            "phase": phase,
            "step_ms": round(report.step_us / 1000.0, 3),
            "regression": percent(report.step_time_regression),
            "soc_savings": percent(report.soc_energy_savings),
            "aicore_savings": percent(report.aicore_energy_savings),
            "straggler": report.straggler_id,
        }

    rows = [
        phase_row("reclaimed", reclaim_report),
        phase_row("fleet_optimum", best_report),
        phase_row("retargeted_degraded", retarget_report),
    ]
    return ExperimentResult(
        experiment_id="ext_cluster",
        title=(
            "Slack-reclaiming cluster DVFS on a varied "
            "data-parallel fleet"
        ),
        paper_reference={
            "context": "Sect. 8.1: the paper deploys per-device DVFS "
            "in synchronized data-parallel fleets; at the all-reduce "
            "barrier, downclocking non-critical devices to arrive "
            "just-in-time converts idle waiting into energy savings "
            "at zero step-time cost",
        },
        measured={
            "devices": devices,
            "workload": trace.name,
            "allreduce_ms": allreduce_us / 1000.0,
            "baseline_step_ms": baseline.step_us / 1000.0,
            "soc_energy_savings": reclaim_report.soc_energy_savings,
            "aicore_energy_savings": (
                reclaim_report.aicore_energy_savings
            ),
            "step_time_regression": reclaim_report.step_time_regression,
            "optimum_soc_energy_savings": best_report.soc_energy_savings,
            "optimum_step_time_regression": (
                best_report.step_time_regression
            ),
            "optimum_feasible": best_feasible,
            "optimum_score": best_score,
            "reclaim_score": reclaim_score,
            "identical_across_runs": identical_repeat,
            "degraded_device": victim,
            "barrier_overruns": stale.overrun_count,
            "overrun_names_victim": victim in stale.overrun_device_ids,
            "retargeted_straggler": degraded.plan.straggler_id,
            "retargeted_soc_energy_savings": (
                retarget_report.soc_energy_savings
            ),
            "retargeted_step_time_regression": (
                retarget_report.step_time_regression
            ),
        },
        rows=rows,
        notes=(
            f"Reclamation downclocks non-critical devices to "
            f"just-in-time arrival: fleet SoC energy "
            f"-{reclaim_report.soc_energy_savings:.2%} at "
            f"{reclaim_report.step_time_regression:+.3%} step time. "
            f"After device {victim} degrades {slowdown:.1f}x, the "
            f"stale plan logs {stale.overrun_count} barrier "
            f"overrun(s) and re-reclamation targets the new "
            f"straggler, saving "
            f"{retarget_report.soc_energy_savings:.2%} of the "
            f"degraded fleet's energy."
        ),
    )
