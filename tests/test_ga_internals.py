"""Focused tests for GA internals and the model-free scorer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import OptimizerConfig
from repro.core.optimizer import EnergyOptimizer
from repro.dvfs.ga import GaConfig, _nearest_index, _roulette_pick, run_search
from repro.dvfs.model_free import ModelFreeScorer
from repro.dvfs.preprocessing import Stage, StageKind
from repro.dvfs.scoring import StrategyScorer
from repro.errors import StrategyError
from repro.npu import NpuDevice, noise_free_spec
from repro.workloads import build_trace, generate
from tests.conftest import (
    RowCountingScorer,
    evaluation_ceiling,
    make_compute_op,
)

FREQS = tuple(1000.0 + 100.0 * i for i in range(9))


class TestRouletteSelection:
    def test_prefers_high_scores(self):
        rng = np.random.default_rng(0)
        scores = np.array([1.0, 1.0, 1.0, 100.0])
        cumulative = np.cumsum(scores)
        picks = _roulette_pick(rng, cumulative, 2000)
        assert np.mean(picks == 3) > 0.9

    def test_uniform_scores_uniform_picks(self):
        rng = np.random.default_rng(0)
        cumulative = np.cumsum(np.ones(4))
        picks = _roulette_pick(rng, cumulative, 4000)
        counts = np.bincount(picks, minlength=4) / 4000
        assert np.all(np.abs(counts - 0.25) < 0.05)

    def test_picks_in_range(self):
        rng = np.random.default_rng(1)
        cumulative = np.cumsum(np.array([0.5, 2.0, 0.1]))
        picks = _roulette_pick(rng, cumulative, 500)
        assert picks.min() >= 0 and picks.max() <= 2


class TestNearestIndex:
    def test_exact(self):
        assert _nearest_index(FREQS, 1600.0) == 6

    def test_between(self):
        assert _nearest_index(FREQS, 1640.0) == 6
        assert _nearest_index(FREQS, 1770.0) == 8

    def test_out_of_range_clamps(self):
        assert _nearest_index(FREQS, 100.0) == 0
        assert _nearest_index(FREQS, 9999.0) == 8


class TestGaConfigPriors:
    def test_prior_levels_on_grid(self):
        config = GaConfig()
        assert config.prior_lfc_mhz in FREQS
        assert config.prior_hfc_mhz in FREQS


def _stages(n=3, duration=10_000.0):
    return tuple(
        Stage(
            index=i,
            kind=StageKind.LFC if i % 2 else StageKind.HFC,
            start_us=i * duration,
            duration_us=duration,
            op_indices=(i,),
            sensitive_time_us=duration if i % 2 == 0 else 0.0,
        )
        for i in range(n)
    )


@pytest.fixture(scope="module")
def model_free_setup():
    device = NpuDevice(noise_free_spec())
    ops = [
        make_compute_op(name=f"mf.op{i}", core_cycles=200_000.0)
        for i in range(3)
    ]
    trace = build_trace("mf", ops)
    durations = [
        device.evaluator.duration_us(op, 1800.0) for op in ops
    ]
    clock = 0.0
    stages = []
    for i, duration in enumerate(durations):
        stages.append(
            Stage(
                index=i,
                kind=StageKind.HFC,
                start_us=clock,
                duration_us=duration,
                op_indices=(i,),
                sensitive_time_us=duration,
            )
        )
        clock += duration
    scorer = ModelFreeScorer(
        device=device,
        trace=trace,
        stages=tuple(stages),
        freqs_mhz=FREQS,
        performance_loss_target=0.10,
    )
    return scorer


class TestModelFreeScorer:
    def test_baseline_scores_two(self, model_free_setup):
        scorer = model_free_setup
        baseline = np.full((1, scorer.stage_count), 8, dtype=int)
        assert scorer.score(baseline)[0] == pytest.approx(2.0, rel=1e-6)

    def test_counts_evaluations_and_time(self, model_free_setup):
        scorer = model_free_setup
        before = scorer.evaluations
        scorer.score(np.array([[7, 7, 7]]))
        assert scorer.evaluations == before + 1
        assert scorer.simulated_seconds > 0

    def test_caches_repeated_individuals(self, model_free_setup):
        scorer = model_free_setup
        population = np.array([[6, 6, 6], [6, 6, 6]])
        before = scorer.evaluations
        scores = scorer.score(population)
        assert scores[0] == scores[1]
        assert scorer.evaluations == before + 1

    def test_infeasible_strategy_scores_below_two(self, model_free_setup):
        scorer = model_free_setup
        lowest = np.zeros((1, scorer.stage_count), dtype=int)
        # All compute-bound ops at 1000 MHz: an 80% slowdown, infeasible
        # under the 10% target, so no 2x feasibility bonus.
        assert scorer.score(lowest)[0] < 2.0

    def test_shape_validation(self, model_free_setup):
        with pytest.raises(StrategyError):
            model_free_setup.score(np.zeros((1, 99), dtype=int))

    def test_objective_validation(self):
        device = NpuDevice(noise_free_spec())
        trace = build_trace("x", [make_compute_op(name="x0")])
        with pytest.raises(StrategyError):
            ModelFreeScorer(
                device=device,
                trace=trace,
                stages=_stages(1),
                freqs_mhz=FREQS,
                objective="bogus",
            )


@pytest.fixture(scope="module")
def gpt3():
    trace = generate("gpt3", scale=0.02)
    config = OptimizerConfig()
    optimizer = EnergyOptimizer(config)
    bundle = optimizer.profile(trace)
    models = optimizer.build_models(bundle)
    candidates = optimizer.preprocess(bundle)
    scorer = StrategyScorer(
        trace=trace,
        stages=candidates.stages,
        perf_model=models.performance,
        power_table=models.power,
        freqs_mhz=config.npu.frequencies.points,
        performance_loss_target=config.performance_loss_target,
        objective=config.objective,
    )
    return config, candidates, scorer


class TestEvaluationAccounting:
    """GaResult.evaluations counts the rows the scorer scored.

    Carried elites and children that are copies of their parent A keep
    their score and cost nothing.
    """

    def test_counts_scored_rows(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        for elite in (0, 2, 5):
            ga = GaConfig(
                population_size=24, iterations=10, seed=0, elite_count=elite
            )
            counting = RowCountingScorer(scorer)
            result = run_search(counting, candidates.stages, freqs, ga)
            assert result.generations == ga.iterations
            assert result.evaluations == counting.rows
            assert result.evaluations < evaluation_ceiling(
                ga, result.generations
            )

    def test_counts_scored_rows_under_patience(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        ga = GaConfig(
            population_size=24, iterations=400, seed=0, patience=5
        )
        counting = RowCountingScorer(scorer)
        result = run_search(counting, candidates.stages, freqs, ga)
        assert result.generations < ga.iterations  # patience actually fired
        assert result.evaluations == counting.rows
        assert result.evaluations <= evaluation_ceiling(
            ga, result.generations
        )

    def test_unbred_children_are_never_scored(self, gpt3):
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        ga = GaConfig(
            population_size=24,
            iterations=10,
            seed=0,
            crossover_rate=0.0,
            mutation_rate=0.0,
        )
        counting = RowCountingScorer(scorer)
        result = run_search(counting, candidates.stages, freqs, ga)
        # Every child is a copy of its parent A: only the initial
        # population reaches the scorer.
        assert result.evaluations == counting.rows == ga.population_size


class TestPatience:
    def test_patience_truncates_the_full_search(self, gpt3):
        """Patience ends the search early; it does not stop at the end.

        The RNG stream is the same with and without it, so a patient
        search's history is a prefix of the full one and its best score
        can only be lower or equal.
        """
        config, candidates, scorer = gpt3
        freqs = config.npu.frequencies.points
        for seed in (0, 1, 2):
            ga = GaConfig(population_size=48, iterations=200, seed=seed)
            full = run_search(scorer, candidates.stages, freqs, ga)
            patient = run_search(
                scorer, candidates.stages, freqs, replace(ga, patience=6)
            )
            assert patient.generations < full.generations
            assert patient.history == full.history[: len(patient.history)]
            assert patient.best_score <= full.best_score
