"""Sect. 8.1 — model-based versus model-free strategy search.

The paper's argument for building models at all: with the fitted
performance/power models a policy is scored in milliseconds (20,000
strategies within 5 minutes with multiprocessing), while a model-free
search must execute each policy for a full training iteration (~11 s on
GPT-3), evaluating only ~30 candidates in the same time — far too slow for
the GA to converge.

We measure both costs directly: the throughput of the vectorised
model-based scorer, and the *simulated* wall time a model-free search
would spend executing candidates on the device (plus its much smaller
evaluated-strategy budget for equal time).

The model-based "strategies" count is ``GaResult.evaluations``: the rows
the scorer actually scored.  Elites and children whose genes equal their
parent's carry their score over, so it is below ``population +
generations * (population - elite)``, and the strategies-per-second rate
divides it by the search's wall time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import EnergyOptimizer, OptimizerConfig
from repro.dvfs import GaConfig, StrategyScorer, run_search
from repro.dvfs.model_free import ModelFreeScorer
from repro.experiments.base import ExperimentResult
from repro.workloads import generate


def run(
    scale: float = 0.05,
    seed: int = 0,
    model_free_budget: int = 24,
) -> ExperimentResult:
    """Compare model-based scoring throughput against real execution."""
    config = OptimizerConfig(
        ga=GaConfig(population_size=100, iterations=200, seed=seed),
        seed=seed,
    )
    optimizer = EnergyOptimizer(config)
    trace = generate("gpt3", scale=scale, seed=seed)
    bundle = optimizer.profile(trace)
    models = optimizer.build_models(bundle)
    candidates = optimizer.preprocess(bundle)
    freqs = config.npu.frequencies.points

    # Model-based: full GA, wall-clock measured.
    scorer = StrategyScorer(
        trace=trace,
        stages=candidates.stages,
        perf_model=models.performance,
        power_table=models.power,
        freqs_mhz=freqs,
    )
    search = run_search(scorer, candidates.stages, freqs, config.ga)
    model_based_rate = search.evaluations / max(search.wall_seconds, 1e-9)

    # Model-free: execute a budget of random strategies on the device and
    # account the simulated iteration time each one costs.
    free_scorer = ModelFreeScorer(
        device=optimizer.device,
        trace=trace,
        stages=candidates.stages,
        freqs_mhz=freqs,
    )
    rng = np.random.default_rng(seed)
    population = rng.integers(
        0, len(freqs), size=(model_free_budget, free_scorer.stage_count)
    )
    population[0, :] = len(freqs) - 1  # include the baseline
    start = time.perf_counter()
    free_scores = free_scorer.score(population)
    free_wall = time.perf_counter() - start

    iteration_seconds = free_scorer.baseline_time_us / 1e6
    # How many candidates fit in the time the GA's full search needs, if
    # each costs one on-device iteration (the paper's 11 s -> ~30 budget)?
    equal_time_budget = max(
        1, int(search.evaluations / model_based_rate / iteration_seconds)
    )

    rows = [
        {
            "approach": "model-based (vectorised scorer, rows scored)",
            "strategies": search.evaluations,
            "cost": f"{search.wall_seconds:.2f}s wall",
            "best_score": round(search.best_score, 4),
        },
        {
            "approach": "model-free (execute each policy)",
            "strategies": free_scorer.evaluations,
            "cost": f"{free_scorer.simulated_seconds:.1f}s of device time",
            "best_score": round(float(free_scores.max()), 4),
        },
    ]
    return ExperimentResult(
        experiment_id="sec81",
        title="Model-based vs model-free strategy search (Sect. 8.1)",
        paper_reference={
            "model_based": "20,000 strategies within 5 minutes",
            "model_free": "~30 strategies in the same time "
            "(one ~11 s training round each)",
        },
        measured={
            "model_based_strategies_per_second": model_based_rate,
            "device_seconds_per_model_free_eval": iteration_seconds,
            "model_free_budget_for_equal_time": equal_time_budget,
            "model_based_finds_better": (
                search.best_score >= float(free_scores.max())
            ),
            "speed_ratio": model_based_rate * iteration_seconds,
        },
        rows=rows,
        notes=(
            "The model-free column charges each candidate its simulated "
            "on-device iteration time; at paper scale (11 s iterations) "
            "the same GA would need days.  The best-score comparison uses "
            "the random population the model-free budget affords."
        ),
    )
