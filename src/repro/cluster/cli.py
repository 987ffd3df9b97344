"""Command-line entry point: ``python -m repro.cluster``.

Simulates one data-parallel training step on an N-device cluster (a
one-rack :class:`~repro.fleet.simulator.FleetSimulator`), applies slack
reclamation (and optionally the fleet GA), and prints the per-device
table plus the fleet summary.  Every phase starts from the boards'
ambient temperatures.

Examples::

    python -m repro.cluster gpt3 --scale 0.02 --devices 8
    python -m repro.cluster bert --scale 0.05 --ga
    python -m repro.cluster gpt3 --scale 0.02 --degrade 3 --slowdown 1.3
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cluster.dvfs import search_cluster_frequencies
from repro.core.report import format_table
from repro.dvfs.ga import GaConfig
from repro.errors import ReproError
from repro.fleet.dvfs import reclaim_fleet_slack
from repro.fleet.simulator import FleetSimulator, FleetStepResult
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import FleetTopology
from repro.workloads import generate, workload_names


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description=(
            "Simulate synchronous data-parallel training on a fleet of "
            "varied NPUs and reclaim barrier slack with per-device DVFS."
        ),
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default="gpt3",
        help=f"workload name (one of: {', '.join(workload_names())})",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05, help="workload scale"
    )
    parser.add_argument(
        "--devices", type=int, default=8, help="fleet size"
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--gradient-mb",
        type=float,
        default=64.0,
        help="all-reduce payload per step, in MiB",
    )
    parser.add_argument(
        "--ga",
        action="store_true",
        help="also run the fleet GA objective after reclamation",
    )
    parser.add_argument(
        "--iterations", type=int, default=80, help="GA iterations"
    )
    parser.add_argument(
        "--population", type=int, default=40, help="GA population size"
    )
    parser.add_argument(
        "--degrade",
        type=int,
        default=None,
        metavar="DEVICE",
        help="degrade one device and show the re-targeted reclamation",
    )
    parser.add_argument(
        "--slowdown",
        type=float,
        default=1.3,
        help="duration multiplier of the degraded device",
    )
    return parser


def _print_step(title: str, report_text: str) -> None:
    print(f"== {title} ==")
    print(report_text)
    print()


def _overrun_rows(result: FleetStepResult, target_us: float) -> list[dict]:
    """One row per reported barrier overrun, latest arrival first."""
    positions = result.device_ids.searchsorted(result.overrun_device_ids)
    rows = []
    for device, pos in zip(result.overrun_device_ids, positions):
        arrival = float(result.arrival_us[pos])
        rows.append(
            {
                "kind": "barrier_overrun",
                "device": device,
                "arrival_us": round(arrival, 1),
                "late": f"{(arrival - target_us) / target_us:.1%}",
                "target_us": round(target_us, 1),
            }
        )
    return rows


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        trace = generate(args.workload, scale=args.scale, seed=args.seed)
        spec = FleetSpec(
            name="ring-cluster",
            n_devices=args.devices,
            topology=FleetTopology(devices_per_rack=args.devices),
            gradient_bytes=args.gradient_mb * 2**20,
            seed=args.seed,
        )
        sim = FleetSimulator(spec, trace)
        baseline = sim.step()
        plan = reclaim_fleet_slack(sim)
        sim.reset()
        reclaimed = sim.step(plan, target_compute_us=plan.target_compute_us)
        _print_step(
            f"slack reclamation ({args.devices} devices)",
            reclaimed.report(baseline).render(),
        )
        if args.ga:
            ga_plan, ga_result, breakdown = search_cluster_frequencies(
                sim,
                config=GaConfig(
                    population_size=args.population,
                    iterations=args.iterations,
                    seed=args.seed,
                    patience=30,
                ),
            )
            sim.reset()
            ga_step = sim.step(
                ga_plan, target_compute_us=ga_plan.target_compute_us
            )
            _print_step(
                f"fleet GA ({ga_result.generations} generations, "
                f"predicted step {breakdown.step_us / 1000.0:.2f} ms)",
                ga_step.report(baseline).render(),
            )
        if args.degrade is not None:
            degraded = FleetSimulator(
                spec.with_degraded_device(
                    args.degrade, args.slowdown, reason="cli --degrade"
                ),
                trace,
            )
            stale = degraded.step(
                plan, target_compute_us=plan.target_compute_us
            )
            rows = _overrun_rows(stale, plan.target_compute_us)
            print(f"== stale plan on degraded device {args.degrade} ==")
            print(format_table(rows) if rows else "(no overruns)")
            print()
            new_plan = reclaim_fleet_slack(degraded)
            degraded.reset()
            degraded_baseline = degraded.step()
            degraded.reset()
            retargeted = degraded.step(
                new_plan, target_compute_us=new_plan.target_compute_us
            )
            _print_step(
                f"re-targeted reclamation (straggler now device "
                f"{new_plan.straggler_id})",
                retargeted.report(degraded_baseline).render(),
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
