"""Command-line entry point: ``repro-experiments`` / ``python -m repro.experiments``.

Examples::

    repro-experiments --list
    repro-experiments fig09
    repro-experiments table3 --scale 0.1 --iterations 300
    repro-experiments all --scale 0.05 --quick
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import ReproError
from repro.experiments.registry import experiment_ids, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of the ASPLOS'25 "
            "fine-grained-DVFS paper on the simulated NPU."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (e.g. fig15, table3) or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default: each experiment's own default)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root random seed"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="GA iterations (search experiments only)",
    )
    parser.add_argument(
        "--population",
        type=int,
        default=None,
        help="GA population size (search experiments only)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the result as JSON (one file per experiment; for "
        "'all', the experiment id is appended)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small fast settings (tiny scale, short GA) for smoke runs",
    )
    return parser


#: Experiments that accept GA-size keyword arguments.
_GA_EXPERIMENTS = {
    "ext_fault_tolerance",
    "ext_fleet",
    "ext_granularity",
    "ext_robustness",
    "ext_whole_program",
    "fig14",
    "fig17",
    "fig18",
    "table3",
}


def _kwargs_for(experiment_id: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {"seed": args.seed}
    if args.quick:
        kwargs["scale"] = 0.05
        if experiment_id in _GA_EXPERIMENTS:
            kwargs["iterations"] = 120
            kwargs["population"] = 60
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if experiment_id in _GA_EXPERIMENTS:
        if args.iterations is not None:
            kwargs["iterations"] = args.iterations
        if args.population is not None:
            kwargs["population"] = args.population
    return kwargs


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    targets = (
        experiment_ids() if args.experiment == "all" else [args.experiment]
    )
    for experiment_id in targets:
        start = time.perf_counter()
        try:
            result = run_experiment(
                experiment_id, **_kwargs_for(experiment_id, args)
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(result.render())
        print(f"[{experiment_id} finished in "
              f"{time.perf_counter() - start:.1f}s]\n")
        if args.json:
            path = args.json
            if len(targets) > 1:
                path = f"{path}.{experiment_id}.json"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
