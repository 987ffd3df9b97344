#!/usr/bin/env python
"""Repo-wide performance microbenchmarks for the simulation engine.

Measures the hot paths the compiled-trace engine accelerates, each A/B
against the reference per-chunk loop (forced via
:func:`repro.npu.engine.reference_only`):

* ``simulate``  — single-iteration trace execution (operators/second);
* ``sweep``     — a full-grid constant-frequency ``run_stable`` profiler
  sweep (wall seconds);
* ``ga``        — genetic-algorithm strategy search (seconds/generation;
  array-scoring based, engine-independent, tracked for the trajectory);
* ``pipeline``  — cold-path strategy generation, profile to search.

Methodology: every arm runs ``--warmup`` untimed rounds first (populating
the evaluator memo, compiled-trace cache, and the constant-frequency
affine reductions — the warm regime is the representative one, since
sweeps, ``repro.serve`` warm-up and GA baselines all rerun the same
trace), then ``--rounds`` timed rounds; the minimum is the
headline number.  The first fast-path round of each section is also
reported separately as ``cold_seconds`` (compile + column build cost).

Numerical equivalence between the two arms is asserted at 1e-9 relative
tolerance on duration/energy/temperature aggregates for every section
that exercises the engine; any violation fails the run (exit 1), which is
what the CI perf-smoke job gates on.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_benchmarks.py \
        --scale 0.02 --rounds 3 --output BENCH_simulator.json
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import EnergyOptimizer, OptimizerConfig  # noqa: E402
from repro.dvfs.ga import GaConfig, run_search  # noqa: E402
from repro.npu import (  # noqa: E402
    FrequencyTimeline,
    NpuDevice,
    default_npu_spec,
    reference_only,
)
from repro.workloads import generate  # noqa: E402

EQUIV_REL_TOL = 1e-9


class EquivalenceFailure(AssertionError):
    """Fast path diverged from the reference loop beyond the budget."""


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale


def check_result_equivalence(fast, ref, context: str) -> float:
    """Max relative error across result aggregates; raises past budget."""
    worst = 0.0
    for field in (
        "duration_us", "aicore_energy_j", "soc_energy_j", "end_celsius",
    ):
        err = _rel_err(getattr(fast, field), getattr(ref, field))
        worst = max(worst, err)
        if err > EQUIV_REL_TOL:
            raise EquivalenceFailure(
                f"{context}: {field} diverged by {err:.3e} "
                f"(fast={getattr(fast, field)!r}, ref={getattr(ref, field)!r})"
            )
    return worst


def time_rounds(fn, warmup: int, rounds: int) -> dict:
    """Warm up, then time ``rounds`` calls of ``fn``."""
    cold_start = time.perf_counter()
    fn()
    cold = time.perf_counter() - cold_start
    for _ in range(max(0, warmup - 1)):
        fn()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "cold_seconds": cold,
        "best_seconds": min(samples),
        "mean_seconds": sum(samples) / len(samples),
        "rounds": rounds,
        "warmup": warmup,
    }


def bench_simulate(trace, warmup: int, rounds: int) -> dict:
    """Single-iteration execution, fast path vs reference loop."""
    spec = default_npu_spec()
    timeline = FrequencyTimeline.constant(spec.max_frequency_mhz)
    fast_dev = NpuDevice(spec)
    ref_dev = NpuDevice(spec)

    def ref_run():
        with reference_only():
            return ref_dev.run(trace, timeline)

    fast = time_rounds(lambda: fast_dev.run(trace, timeline), warmup, rounds)
    ref = time_rounds(ref_run, warmup, rounds)
    worst = check_result_equivalence(
        fast_dev.run(trace, timeline), ref_run(), "simulate"
    )
    n_ops = len(trace.entries)
    return {
        "trace": trace.name,
        "operators": n_ops,
        "fast": fast,
        "reference": ref,
        "fast_ops_per_second": n_ops / fast["best_seconds"],
        "reference_ops_per_second": n_ops / ref["best_seconds"],
        "speedup": ref["best_seconds"] / fast["best_seconds"],
        "max_rel_error": worst,
    }


def bench_sweep(trace, warmup: int, rounds: int) -> dict:
    """Full-grid constant-frequency run_stable sweep (profiling shape)."""
    spec = default_npu_spec()
    freqs = spec.frequencies.points
    fast_dev = NpuDevice(spec)
    ref_dev = NpuDevice(spec)

    def sweep(device):
        return [
            device.run_stable(trace, FrequencyTimeline.constant(freq))
            for freq in freqs
        ]

    def ref_sweep():
        with reference_only():
            return sweep(ref_dev)

    fast = time_rounds(lambda: sweep(fast_dev), warmup, rounds)
    ref = time_rounds(ref_sweep, warmup, rounds)
    worst = 0.0
    for freq, fast_res, ref_res in zip(freqs, sweep(fast_dev), ref_sweep()):
        worst = max(
            worst,
            check_result_equivalence(
                fast_res, ref_res, f"sweep@{freq:.0f}MHz"
            ),
        )
    return {
        "trace": trace.name,
        "grid_points": len(freqs),
        "fast": fast,
        "reference": ref,
        "speedup": ref["best_seconds"] / fast["best_seconds"],
        "max_rel_error": worst,
    }


def bench_ga(trace, warmup: int, rounds: int) -> dict:
    """GA search seconds/generation over a profiled model of ``trace``."""
    ga = GaConfig(population_size=64, iterations=40, seed=0)
    optimizer = EnergyOptimizer(OptimizerConfig(ga=ga))
    bundle = optimizer.profile(trace)
    models = optimizer.build_models(bundle)
    candidates = optimizer.preprocess(bundle)
    from repro.dvfs.scoring import StrategyScorer

    scorer = StrategyScorer(
        trace=trace,
        stages=candidates.stages,
        perf_model=models.performance,
        power_table=models.power,
        freqs_mhz=optimizer.config.npu.frequencies.points,
        performance_loss_target=0.02,
    )
    freqs = optimizer.config.npu.frequencies.points
    timing = time_rounds(
        lambda: run_search(scorer, candidates.stages, freqs, ga),
        warmup,
        rounds,
    )
    result = run_search(scorer, candidates.stages, freqs, ga)
    return {
        "trace": trace.name,
        "stages": len(candidates.stages),
        "population": ga.population_size,
        "generations": result.generations,
        "timing": timing,
        "seconds_per_generation": timing["best_seconds"] / result.generations,
        "best_score": result.best_score,
    }


def bench_pipeline(trace, warmup: int, rounds: int) -> dict:
    """Cold-path strategy generation: profile -> fit -> score -> search.

    Fast arm: compiled-trace engine, so the optimizer profiles the whole
    sweep in one grid pass.  Reference arm: per-chunk execution loop
    under :func:`reference_only`, which also sends profiling down the
    sequential sweep.  Offline calibration is shared (it is per-device,
    not per-workload, and would otherwise dominate both arms
    identically).

    Gate (fatal): fitted-model predictions within ``EQUIV_REL_TOL``
    between the two arms (the engine-off measurements differ at float
    rounding level).  The grid pass's byte-identical ``best_genes``
    against the sequential sweep at this config is a unit test
    (``tests/test_pipeline_batched.py``).
    """
    spec = default_npu_spec()
    grid = np.asarray(spec.frequencies.points, dtype=float)
    constants = EnergyOptimizer(OptimizerConfig()).calibrate()

    def cold_path(seed=0):
        config = OptimizerConfig(
            ga=GaConfig(population_size=64, iterations=16, seed=seed),
            seed=seed,
        )
        optimizer = EnergyOptimizer(config)
        optimizer.use_calibration(constants)
        bundle = optimizer.profile(trace)
        models = optimizer.build_models(bundle)
        candidates = optimizer.preprocess(bundle)
        _, _, result = optimizer.search(trace, models, candidates)
        return models, result

    fast = time_rounds(lambda: cold_path(), warmup, rounds)

    def ref_cold_path(seed=0):
        with reference_only():
            return cold_path(seed)

    ref = time_rounds(lambda: ref_cold_path(), min(warmup, 1), rounds)

    # Model-prediction gate vs the full (engine-off) reference arm.
    fast_models, _ = cold_path()
    ref_models, _ = ref_cold_path()
    names = list(fast_models.performance.operators)
    if set(names) != set(ref_models.performance.operators):
        raise EquivalenceFailure("pipeline: operator sets diverged")
    worst = 0.0
    pairs = [
        (
            fast_models.performance.duration_matrix(names, grid),
            ref_models.performance.duration_matrix(names, grid),
            "duration",
        ),
        (
            fast_models.power.aicore_power_matrix(names, grid),
            ref_models.power.aicore_power_matrix(names, grid),
            "aicore_power",
        ),
        (
            fast_models.power.soc_power_matrix(names, grid),
            ref_models.power.soc_power_matrix(names, grid),
            "soc_power",
        ),
    ]
    for got, want, label in pairs:
        scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-30)
        err = float((np.abs(got - want) / scale).max())
        worst = max(worst, err)
        if err > EQUIV_REL_TOL:
            raise EquivalenceFailure(
                f"pipeline: {label} matrix diverged by {err:.3e}"
            )

    return {
        "trace": trace.name,
        "operators": len(trace.entries),
        "distinct_names": len(names),
        "grid_points": int(grid.size),
        "ga_population": 64,
        "ga_iterations": 16,
        "fast": fast,
        "reference": ref,
        "speedup": ref["best_seconds"] / fast["best_seconds"],
        "max_rel_error": worst,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="gpt3", help="workload generator name"
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="workload scale factor"
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument(
        "--skip-ga", action="store_true",
        help="skip the GA section (it dominates smoke-run wall time)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of sections to run "
        "(simulate,sweep,ga,pipeline)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_simulator.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    trace = generate(args.workload, scale=args.scale)
    print(
        f"workload={args.workload} scale={args.scale} "
        f"operators={len(trace.entries)}",
        flush=True,
    )

    report = {
        "meta": {
            "workload": args.workload,
            "scale": args.scale,
            "operators": len(trace.entries),
            "rounds": args.rounds,
            "warmup": args.warmup,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "equivalence_rel_tol": EQUIV_REL_TOL,
        },
        "benchmarks": {},
    }
    failed = False
    sections = [
        ("simulate", lambda: bench_simulate(trace, args.warmup, args.rounds)),
        ("sweep", lambda: bench_sweep(trace, args.warmup, args.rounds)),
    ]
    if not args.skip_ga:
        sections.append(
            ("ga", lambda: bench_ga(trace, min(args.warmup, 1), args.rounds))
        )
    sections.append(
        (
            "pipeline",
            lambda: bench_pipeline(trace, args.warmup, args.rounds),
        )
    )
    if args.only:
        wanted = {part.strip() for part in args.only.split(",") if part.strip()}
        unknown = wanted - {name for name, _ in sections}
        if unknown:
            parser.error(f"unknown sections: {sorted(unknown)}")
        sections = [(n, r) for n, r in sections if n in wanted]
    for name, runner in sections:
        print(f"[{name}] running ...", flush=True)
        try:
            section = runner()
        except EquivalenceFailure as exc:
            print(f"[{name}] EQUIVALENCE FAILURE: {exc}", file=sys.stderr)
            report["benchmarks"][name] = {"error": str(exc)}
            failed = True
            continue
        report["benchmarks"][name] = section
        if "speedup" in section:
            print(
                f"[{name}] speedup {section['speedup']:.2f}x "
                f"(fast {section['fast']['best_seconds']*1e3:.2f} ms, "
                f"reference {section['reference']['best_seconds']*1e3:.2f} ms, "
                f"max rel err {section['max_rel_error']:.2e})",
                flush=True,
            )
        else:
            print(
                f"[{name}] {section['seconds_per_generation']*1e3:.2f} "
                "ms/generation",
                flush=True,
            )

    report["equivalence_ok"] = not failed
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if failed:
        return 1
    for name, section in report["benchmarks"].items():
        if "max_rel_error" in section and not math.isfinite(
            section["max_rel_error"]
        ):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
