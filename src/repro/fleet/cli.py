"""Command-line entry point: ``python -m repro.fleet``.

Two subcommands:

``run``
    Simulate a fleet — baseline, reclaimed, optionally churned — and
    print the straggler top-k table plus the fleet summary.
    ``--optimum`` adds the exact optimum of the fleet ``energy x
    step-time`` objective, scored against reclamation's plan;
    ``--degrade DEVICE`` replays the reclaimed plan on a fleet with
    that board slowed, shows the barrier overruns and the re-targeted
    reclamation.  These phases and the first reclaimed step start from
    the boards' ambient temperatures.

``bench``
    The scaling benchmark behind ``BENCH_fleet.json``: warm
    steps-per-second of the vectorized barrier step at fleet size, and
    optionally the large runs: the same fleet on the paper-scale trace
    (compile, first planned step, peak RSS) and one larger fleet.

Examples::

    python -m repro.fleet run gpt3 --scale 0.02 --devices 64
    python -m repro.fleet run gpt3 --devices 256 --leave-rate 0.5
    python -m repro.fleet run gpt3 --devices 24 --devices-per-rack 24 \
        --optimum --degrade 3
    python -m repro.fleet bench --devices 10000 --output BENCH_fleet.json
    python -m repro.fleet bench --devices 10000 --scale-devices 100000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Sequence

import numpy as np

from repro.core.report import format_table
from repro.errors import ReproError
from repro.fleet.churn import ChurnConfig
from repro.fleet.dvfs import (
    auto_retarget,
    degrade_and_retarget,
    fleet_plan_score,
    optimal_fleet_plan,
    reclaim_fleet_slack,
)
from repro.fleet.simulator import (
    FleetSimulator,
    FleetStepResult,
    straggler_summary,
)
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
    run.add_argument(
        "--optimum",
        action="store_true",
        help="also step the fleet objective's exact optimum after "
        "reclamation",
    )
    run.add_argument(
        "--degrade",
        type=int,
        default=None,
        metavar="DEVICE",
        help="degrade one device and show the re-targeted reclamation",
    )
    run.add_argument(
        "--slowdown",
        type=float,
        default=1.3,
        help="duration multiplier of the degraded device",
    )

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
        "--scale-devices",
        type=int,
        default=0,
        metavar="N",
        help=(
            "also compile the fleet on the paper-scale trace, complete "
            "one N-device run (baseline + reclaim), and record their "
            "times and peak RSS; 0 skips both"
        ),
    )
    return parser


def _print_step(title: str, body: str) -> None:
    print(f"== {title} ==")
    print(body)
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


def _run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.degrade is not None:
        # Fail on a bad --degrade before any simulation is printed.
        spec.with_degraded_device(args.degrade, args.slowdown)
    trace = generate(args.workload, scale=args.scale, seed=args.seed)
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

    _print_step(
        f"slack reclamation, step 1 ({spec.n_devices} devices)",
        reclaimed[0].report(baseline[0]).summary(),
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
    if args.optimum:
        sim.reset()
        best = optimal_fleet_plan(sim)
        best_score, _ = fleet_plan_score(sim, best)
        reclaim_score, _ = fleet_plan_score(sim, plan)
        best_step = sim.step(best, target_compute_us=best.target_compute_us)
        _print_step(
            f"fleet optimum (score {best_score:.5f} vs reclaim "
            f"{reclaim_score:.5f}, predicted barrier "
            f"{best.target_compute_us / 1000.0:.2f} ms)",
            best_step.report(baseline[0]).render(),
        )
    if args.degrade is not None:
        degraded = degrade_and_retarget(
            sim,
            plan,
            args.degrade,
            args.slowdown,
            reason="cli --degrade",
            slack_margin=args.slack_margin,
        )
        rows = _overrun_rows(degraded.stale, plan.target_compute_us)
        _print_step(
            f"stale plan on degraded device {args.degrade}",
            format_table(rows) if rows else "(no overruns)",
        )
        _print_step(
            f"re-targeted reclamation (straggler now device "
            f"{degraded.plan.straggler_id})",
            degraded.report().render(),
        )
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


#: Reclaim calls :func:`_replan_ms` takes the median of.
REPLAN_REPEATS = 21


def _replan_ms(sim: FleetSimulator, slack_margin: float) -> float:
    """Median wall time of a reclaim on a warm simulator, in ms.

    The duration table is already built, so this is the cost every
    ``auto_retarget`` replan pays after churn.
    """
    times = []
    for _ in range(REPLAN_REPEATS):
        start = time.perf_counter()
        reclaim_fleet_slack(sim, slack_margin=slack_margin)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


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
    replan_ms = _replan_ms(sim, args.slack_margin)
    # The first reclaimed step solves the boards the plan moved off the
    # maximum frequency, one row per board at its planned grid point.
    sim.reset()
    start = time.perf_counter()
    sim.step(plan, target_compute_us=plan.target_compute_us)
    first_planned_seconds = time.perf_counter() - start
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

    paper_scale = scale_run = None
    if args.scale_devices:
        paper_scale = _paper_scale_run(args, spec)
        scale_run = _scale_run(args, spec, trace)

    collective = sim.collective_cost()

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
            "first_planned_step_seconds": first_planned_seconds,
            "duration_table_seconds": table_seconds,
            "replan_ms": replan_ms,
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
        "paper_scale": paper_scale,
        "scale_run": scale_run,
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
        f"{churn_rate:.1f} steps/s, replan {replan_ms:.2f} ms"
    )
    if paper_scale is not None:
        print(
            f"paper scale: {paper_scale['devices']} devices on "
            f"{paper_scale['operators']} operators, compile "
            f"{paper_scale['compile_seconds']:.2f} s + first planned step "
            f"{paper_scale['first_planned_step_seconds']:.2f} s "
            f"({paper_scale['speed_classes']} speed classes, peak RSS "
            f"{paper_scale['max_rss_mb']:.0f} MiB)"
        )
    if scale_run is not None:
        print(
            f"scale run: {scale_run['devices']} devices completed in "
            f"{scale_run['wall_seconds']:.1f} s "
            f"({scale_run['warm_steps_per_s']:.1f} warm steps/s, replan "
            f"{scale_run['replan_ms']:.2f} ms, peak RSS "
            f"{scale_run['max_rss_mb']:.0f} MiB)"
        )

    if (
        args.assert_steps_per_sec is not None
        and baseline_rate < args.assert_steps_per_sec
    ):
        print(
            f"FAIL: baseline {baseline_rate:.1f} steps/s below the "
            f"{args.assert_steps_per_sec:.1f} steps/s floor",
            file=sys.stderr,
        )
        return 1
    return 0


#: Trace scale of the paper-scale leg: a whole GPT-3 iteration is the
#: ~14k-operator case of the paper's Sect. 7.4.
PAPER_SCALE = 1.0


def _paper_scale_run(args: argparse.Namespace, spec: FleetSpec) -> dict:
    """The bench fleet on the paper-scale trace: compile, then plan.

    Compile is construction, the baseline step and the duration table;
    the first planned step then solves the grid points the plan uses.
    ``max_rss_mb`` is the process peak at the end of the leg.
    """
    trace = generate(args.workload, scale=PAPER_SCALE, seed=args.seed)
    start = time.perf_counter()
    sim = FleetSimulator(spec, trace)
    baseline = sim.step()
    sim.duration_table()
    compile_seconds = time.perf_counter() - start
    plan = reclaim_fleet_slack(sim, slack_margin=args.slack_margin)
    sim.reset()
    start = time.perf_counter()
    planned = sim.step(plan, target_compute_us=plan.target_compute_us)
    first_planned_seconds = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "devices": spec.n_devices,
        "workload": trace.name,
        "scale": PAPER_SCALE,
        "operators": trace.operator_count,
        "speed_classes": int(sim.class_scales.size),
        "compile_seconds": compile_seconds,
        "first_planned_step_seconds": first_planned_seconds,
        "soc_energy_saved_frac": 1.0
        - planned.fleet_soc_energy_j / baseline.fleet_soc_energy_j,
        "max_rss_mb": rss_kb / 1024.0,
    }


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
    replan_ms = _replan_ms(sim, args.slack_margin)
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
        "replan_ms": replan_ms,
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
