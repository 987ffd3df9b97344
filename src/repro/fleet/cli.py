"""Command-line entry point: ``python -m repro.fleet``.

Two subcommands:

``run``
    Simulate a fleet — baseline, reclaimed, optionally churned — and
    print the straggler top-k table plus the fleet summary.

``bench``
    The scaling benchmark behind ``BENCH_fleet.json``: warm
    steps-per-second of the vectorized barrier step at fleet size,
    optionally one large scale run, plus the small-N equivalence check
    against the looped cluster.

Examples::

    python -m repro.fleet run gpt3 --scale 0.02 --devices 64
    python -m repro.fleet run gpt3 --devices 256 --leave-rate 0.5
    python -m repro.fleet bench --devices 10000 --output BENCH_fleet.json
    python -m repro.fleet bench --devices 10000 --scale-devices 100000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from typing import Sequence

import numpy as np

from repro.core.report import format_table
from repro.errors import ReproError
from repro.fleet.churn import ChurnConfig
from repro.fleet.dvfs import auto_retarget, reclaim_fleet_slack
from repro.fleet.reference import EQUIVALENCE_TOLERANCE, compare_with_cluster
from repro.fleet.simulator import FleetSimulator, straggler_summary
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import FleetTopology
from repro.workloads import generate, workload_names


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "workload",
        nargs="?",
        default="gpt3",
        help=f"workload name (one of: {', '.join(workload_names())})",
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="workload scale"
    )
    parser.add_argument(
        "--devices", type=int, default=64, help="fleet size"
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--devices-per-rack",
        type=int,
        default=16,
        help="intra-rack ring size of the hierarchical collective",
    )
    parser.add_argument(
        "--gradient-mb",
        type=float,
        default=64.0,
        help="all-reduce payload per step, in MiB",
    )
    parser.add_argument(
        "--steps", type=int, default=3, help="training steps to simulate"
    )
    parser.add_argument(
        "--slack-margin",
        type=float,
        default=0.0,
        help="extra fraction of step time the reclaimed plan may spend",
    )
    parser.add_argument(
        "--join-rate",
        type=float,
        default=0.0,
        help="expected device joins per step (Poisson)",
    )
    parser.add_argument(
        "--leave-rate",
        type=float,
        default=0.0,
        help="expected graceful leaves per step (Poisson)",
    )
    parser.add_argument(
        "--fail-rate",
        type=float,
        default=0.0,
        help="expected failures per step (Poisson)",
    )
    parser.add_argument(
        "--max-joins",
        type=int,
        default=0,
        help="spare devices provisioned beyond the starting fleet",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=8,
        help="stragglers shown in the per-device table",
    )


def _spec_from_args(args: argparse.Namespace) -> FleetSpec:
    churn = ChurnConfig(
        join_rate=args.join_rate,
        leave_rate=args.leave_rate,
        fail_rate=args.fail_rate,
        max_joins=args.max_joins,
    )
    return FleetSpec(
        n_devices=args.devices,
        topology=FleetTopology(devices_per_rack=args.devices_per_rack),
        gradient_bytes=args.gradient_mb * 2**20,
        seed=args.seed,
        churn=churn,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=(
            "Vectorized fleet simulation: stacked affine device solutions, "
            "hierarchical collectives, elastic membership."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="simulate a fleet and print the straggler summary"
    )
    _add_fleet_arguments(run)

    bench = commands.add_parser(
        "bench", help="measure barrier steps/s and write BENCH_fleet.json"
    )
    _add_fleet_arguments(bench)
    bench.set_defaults(devices=10000, steps=5)
    bench.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="timing rounds per arm (best round is reported)",
    )
    bench.add_argument(
        "--reference-devices",
        type=int,
        default=8,
        help="fleet size of the looped-cluster equivalence check",
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the benchmark JSON to this file",
    )
    bench.add_argument(
        "--assert-steps-per-sec",
        type=float,
        default=None,
        metavar="FLOOR",
        help="exit 1 when the warm baseline rate falls below FLOOR",
    )
    bench.add_argument(
        "--assert-equivalence",
        action="store_true",
        help=(
            "exit 1 when the looped-cluster check exceeds "
            f"{EQUIVALENCE_TOLERANCE:g} or plans are not byte-identical"
        ),
    )
    bench.add_argument(
        "--scale-devices",
        type=int,
        default=0,
        metavar="N",
        help=(
            "also complete one N-device run (baseline + reclaim) and "
            "record wall time and peak RSS; 0 skips"
        ),
    )
    return parser


def _print_step(title: str, body: str) -> None:
    print(f"== {title} ==")
    print(body)
    print()


def _run(args: argparse.Namespace) -> int:
    trace = generate(args.workload, scale=args.scale, seed=args.seed)
    spec = _spec_from_args(args)
    sim = FleetSimulator(spec, trace)
    baseline = sim.run_steps(None, steps=args.steps)
    sim.reset()
    plan = reclaim_fleet_slack(sim, slack_margin=args.slack_margin)
    replan = auto_retarget(args.slack_margin) if spec.churn.any_active else None
    reclaimed = sim.run_steps(
        plan,
        steps=args.steps,
        target_compute_us=plan.target_compute_us,
        replan=replan,
    )

    last = reclaimed[-1]
    _print_step(
        f"reclaimed step {args.steps} ({last.n_devices} devices, "
        f"straggler {last.straggler_id})",
        format_table(last.device_rows(args.top_k)),
    )
    collective = last.collective
    print(
        f"collective: {collective.chosen_us / 1000.0:.3f} ms "
        f"({collective.algorithm}; flat ring "
        f"{collective.flat_ring_us / 1000.0:.3f} ms)"
    )
    base_j = sum(r.fleet_soc_energy_j for r in baseline)
    rec_j = sum(r.fleet_soc_energy_j for r in reclaimed)
    base_us = sum(r.step_us for r in baseline)
    rec_us = sum(r.step_us for r in reclaimed)
    print(
        f"fleet SoC energy: {rec_j:.1f} J vs {base_j:.1f} J baseline "
        f"({(1.0 - rec_j / base_j):+.1%} saved); step time "
        f"{rec_us / args.steps / 1000.0:.2f} ms vs "
        f"{base_us / args.steps / 1000.0:.2f} ms"
    )
    summary = straggler_summary(reclaimed)
    events = [e for r in reclaimed for e in r.events]
    if events:
        print(f"churn ({len(events)} events):")
        print(format_table([e.to_row() for e in events]))
    print(f"summary: {json.dumps(summary)}")
    return 0


def _time_steps(
    sim: FleetSimulator, plan, target, steps: int, rounds: int, replan=None
) -> float:
    """Warm steps-per-second, best of ``rounds`` timing rounds."""
    best = float("inf")
    for _ in range(rounds):
        sim.reset()
        sim.step(plan, target_compute_us=target)  # warm the caches
        start = time.perf_counter()
        sim.run_steps(
            plan, steps=steps, target_compute_us=target, replan=replan
        )
        best = min(best, time.perf_counter() - start)
    return steps / best


def _bench(args: argparse.Namespace) -> int:
    trace = generate(args.workload, scale=args.scale, seed=args.seed)
    spec = _spec_from_args(args)

    start = time.perf_counter()
    sim = FleetSimulator(spec, trace)
    max_freq = spec.npu.frequencies.points[-1]
    sim.solution(max_freq)
    compile_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sim.duration_table()
    table_seconds = time.perf_counter() - start

    plan = reclaim_fleet_slack(sim, slack_margin=args.slack_margin)
    baseline_rate = _time_steps(sim, None, None, args.steps, args.rounds)
    reclaimed_rate = _time_steps(
        sim, plan, plan.target_compute_us, args.steps, args.rounds
    )

    churn_spec = FleetSpec(
        n_devices=args.devices,
        topology=spec.topology,
        gradient_bytes=spec.gradient_bytes,
        seed=args.seed,
        churn=ChurnConfig(
            join_rate=1.0, leave_rate=1.0, fail_rate=0.5, max_joins=16
        ),
    )
    churn_sim = FleetSimulator(churn_spec, trace)
    churn_plan = reclaim_fleet_slack(churn_sim)
    churn_rate = _time_steps(
        churn_sim,
        churn_plan,
        churn_plan.target_compute_us,
        args.steps,
        args.rounds,
        replan=auto_retarget(args.slack_margin),
    )

    scale_run = None
    if args.scale_devices:
        scale_run = _scale_run(args, spec, trace)

    collective = sim.collective_cost()
    comparison = compare_with_cluster(
        FleetSpec(
            n_devices=args.reference_devices,
            gradient_bytes=spec.gradient_bytes,
            seed=args.seed,
        ),
        trace,
        slack_margin=args.slack_margin,
    )

    sizes = spec.topology.rack_sizes(args.devices)
    payload = {
        "meta": {
            "devices": args.devices,
            "workload": trace.name,
            "scale": args.scale,
            "operators": trace.operator_count,
            "racks": len(sizes),
            "devices_per_rack": args.devices_per_rack,
            "steps": args.steps,
            "rounds": args.rounds,
            "seed": args.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": {
            "compile_seconds": compile_seconds,
            "duration_table_seconds": table_seconds,
            "baseline_steps_per_s": baseline_rate,
            "reclaimed_steps_per_s": reclaimed_rate,
            "churn_steps_per_s": churn_rate,
            "collective": {
                "hierarchical_us": collective.hierarchical_us,
                "flat_ring_us": collective.flat_ring_us,
                "chosen_us": collective.chosen_us,
                "algorithm": collective.algorithm,
            },
        },
        "scale_run": scale_run,
        "equivalence": {
            "devices": comparison.n_devices,
            "steps": comparison.steps,
            "plans_byte_identical": comparison.plans_byte_identical,
            "overruns_equal": comparison.overruns_equal,
            "max_rel_duration": comparison.max_rel_duration,
            "max_rel_energy": comparison.max_rel_energy,
            "max_rel_celsius": comparison.max_rel_celsius,
            "max_rel_fleet_total": comparison.max_rel_fleet_total,
            "max_rel_err": comparison.max_rel_err,
            "tolerance": EQUIVALENCE_TOLERANCE,
            "ok": comparison.ok(),
        },
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    print(
        f"{args.devices} devices: baseline {baseline_rate:.1f} steps/s, "
        f"reclaimed {reclaimed_rate:.1f} steps/s, churned "
        f"{churn_rate:.1f} steps/s; equivalence max rel err "
        f"{comparison.max_rel_err:.3e} over {comparison.n_devices} devices"
    )
    if scale_run is not None:
        print(
            f"scale run: {scale_run['devices']} devices completed in "
            f"{scale_run['wall_seconds']:.1f} s "
            f"({scale_run['warm_steps_per_s']:.1f} warm steps/s, peak "
            f"RSS {scale_run['max_rss_mb']:.0f} MiB)"
        )

    failed = False
    if (
        args.assert_steps_per_sec is not None
        and baseline_rate < args.assert_steps_per_sec
    ):
        print(
            f"FAIL: baseline {baseline_rate:.1f} steps/s below the "
            f"{args.assert_steps_per_sec:.1f} steps/s floor",
            file=sys.stderr,
        )
        failed = True
    if args.assert_equivalence and not comparison.ok():
        print(
            f"FAIL: equivalence check ({comparison.max_rel_err:.3e} rel "
            f"err, plans identical: {comparison.plans_byte_identical}, "
            f"overruns equal: {comparison.overruns_equal})",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _scale_run(args: argparse.Namespace, spec: FleetSpec, trace) -> dict:
    """One large run: baseline, reclaim, reclaimed steps.

    The bounded-memory evidence for the scale target: wall time, warm
    rate and the peak RSS of the process.
    """
    scale_spec = FleetSpec(
        n_devices=args.scale_devices,
        topology=spec.topology,
        gradient_bytes=spec.gradient_bytes,
        seed=args.seed,
    )
    start = time.perf_counter()
    sim = FleetSimulator(scale_spec, trace)
    baseline = sim.run_steps(None, steps=args.steps)
    plan = reclaim_fleet_slack(sim, slack_margin=args.slack_margin)
    sim.reset()
    reclaimed = sim.run_steps(
        plan, steps=args.steps, target_compute_us=plan.target_compute_us
    )
    warm_start = time.perf_counter()
    sim.run_steps(
        plan, steps=args.steps, target_compute_us=plan.target_compute_us
    )
    warm_rate = args.steps / (time.perf_counter() - warm_start)
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    saved = 1.0 - (
        sum(r.fleet_soc_energy_j for r in reclaimed)
        / sum(r.fleet_soc_energy_j for r in baseline)
    )
    return {
        "devices": args.scale_devices,
        "steps": args.steps,
        "completed": True,
        "wall_seconds": wall,
        "warm_steps_per_s": warm_rate,
        "soc_energy_saved_frac": saved,
        "max_rss_mb": rss_kb / 1024.0,
    }


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run(args)
        return _bench(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
