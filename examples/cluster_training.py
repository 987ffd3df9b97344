#!/usr/bin/env python3
"""Multi-device demo: reclaim barrier slack on a data-parallel fleet.

Simulates one synchronous training step of a (scaled-down) GPT-3
iteration on eight NPUs with seeded silicon/thermal variation, then
applies slack reclamation: the slowest device sets the all-reduce
barrier, and every other device is downclocked to arrive just-in-time —
trading useless barrier waiting for cheaper compute at zero step-time
cost.  Finally one device is degraded to show the stale plan tripping a
barrier overrun and the re-targeted reclamation.

Usage::

    python examples/cluster_training.py [scale]
"""

from __future__ import annotations

import sys

from repro.core.report import format_table
from repro.fleet import (
    FleetSimulator,
    FleetSpec,
    FleetTopology,
    degrade_and_retarget,
    reclaim_fleet_slack,
)
from repro.workloads import generate


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02
    print(f"Generating a GPT-3 training iteration (scale={scale})...")
    trace = generate("gpt3", scale=scale)

    spec = FleetSpec(  # one rack: a single ring
        name="ring-cluster",
        n_devices=8,
        topology=FleetTopology(devices_per_rack=8),
        seed=0,
    )
    sim = FleetSimulator(spec, trace)
    print(f"Fleet of {spec.n_devices} devices, ring all-reduce "
          f"{sim.collective_cost().chosen_us / 1000.0:.2f} ms per step.")
    for profile in spec.device_profiles():
        print(f"  device {profile.device_id}: "
              f"speed x{profile.total_duration_scale:.4f}, "
              f"ambient {profile.ambient_offset_celsius:+.1f} C")

    print("\nBaseline step (every device at maximum frequency)...")
    baseline = sim.step()
    print(f"  step {baseline.step_us / 1000.0:.2f} ms, straggler device "
          f"{baseline.straggler_id}, fleet SoC "
          f"{baseline.fleet_soc_energy_j:.1f} J")

    print("\nReclaiming barrier slack "
          "(downclock non-critical devices to just-in-time arrival)...")
    plan = reclaim_fleet_slack(sim)
    sim.reset()  # start the reclaimed step from ambient, like the baseline
    reclaimed = sim.step(plan, target_compute_us=plan.target_compute_us)
    report = reclaimed.report(baseline)
    print()
    print(report.summary())
    print()
    print(format_table(reclaimed.device_rows()))

    print("\nDegrading one device 1.3x and replaying the stale plan...")
    victim = (baseline.straggler_id + 1) % spec.n_devices
    degraded = degrade_and_retarget(
        sim, plan, victim, 1.3, reason="demo degradation"
    )
    stale = degraded.stale
    print(f"  {stale.overrun_count} barrier overrun(s), latest first: "
          f"devices {list(stale.overrun_device_ids)}")
    new_plan = degraded.plan
    healthy_mhz = sorted(
        {float(f) for f in new_plan.freq_mhz[new_plan.covered]}
    )
    print(f"  re-targeted reclamation: straggler is now device "
          f"{new_plan.straggler_id}; devices run at {healthy_mhz} MHz.")


if __name__ == "__main__":
    main()
