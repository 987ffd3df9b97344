"""Genetic-algorithm search over stage frequencies (paper Sect. 6.3).

Individuals assign one grid frequency to each preprocessing stage.  The
initial population seeds the baseline (all stages at the maximum frequency)
and the *prior* individual (LFC stages at 1600 MHz, HFC at 1800 MHz —
Sect. 6.3.1), filling the rest with uniform-random strategies.  Each
generation keeps an elite, then fills the population by score-proportional
(roulette) selection with tail-swap crossover and point mutation
(Sect. 6.3.3).  Each individual carries its exact integer stage sums
(``StrategyScorer.stage_sums``) beside its score.  A child whose genes
differ from its first parent's is scored from that parent's sums plus the
table differences at the changed genes; the rest, like the elite, keep
the sums and score they had.  At gpt3 scale 1.0 (780 stages, GA 200 x
600, seed 0) the ~140 changed children of a generation differ from their
parents in ~2,800 genes in all: the search gathers the table at 1.7M
changed genes, where rescoring each changed child would gather 65M.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.dvfs.preprocessing import Stage, StageKind
from repro.dvfs.scoring import StrategyScorer
from repro.errors import StrategyError


@dataclass(frozen=True)
class GaConfig:
    """Search hyper-parameters (defaults follow Sect. 7.4)."""

    population_size: int = 200
    iterations: int = 600
    mutation_rate: float = 0.15
    crossover_rate: float = 0.7
    elite_count: int = 2
    seed: int = 0
    #: Stop early after this many generations without best-score
    #: improvement (0 disables early stopping).  Patience truncates the
    #: search: the generations run are those of the full search, so the
    #: result is the full search's after fewer generations, and a later
    #: improvement is lost (gpt3 at scale 0.02, GA 48 x 200: patience 6
    #: stopped at generations 7-26 with a lower best score on seeds 0-9).
    patience: int = 0
    #: Grid frequency assigned to LFC stages in the prior individual.
    prior_lfc_mhz: float = 1600.0
    #: Grid frequency assigned to HFC stages in the prior individual.
    prior_hfc_mhz: float = 1800.0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise StrategyError("population_size must be >= 4")
        if self.iterations < 1:
            raise StrategyError("iterations must be >= 1")
        if not 0 <= self.mutation_rate <= 1:
            raise StrategyError(f"mutation_rate out of range: {self.mutation_rate}")
        if not 0 <= self.crossover_rate <= 1:
            raise StrategyError(
                f"crossover_rate out of range: {self.crossover_rate}"
            )
        if self.elite_count < 0 or self.elite_count >= self.population_size:
            raise StrategyError(f"bad elite_count: {self.elite_count}")
        if self.patience < 0:
            raise StrategyError(f"patience must be >= 0: {self.patience}")


@dataclass(frozen=True)
class GaResult:
    """Outcome of one search run.

    ``evaluations`` counts the rows the scorer actually scored: the
    initial population, then each generation's changed children.  Elites
    and children that are copies of their parent A carry their score
    over and are not counted, so it is at most ``population_size +
    generations * (population_size - elite_count)``.
    """

    best_genes: np.ndarray
    best_score: float
    #: Best score after each generation (Fig. 17's trajectory).
    history: tuple[float, ...] = field(repr=False)
    generations: int
    evaluations: int
    wall_seconds: float

    @property
    def converged_generation(self) -> int:
        """First generation whose best score is within 1e-9 of the final."""
        final = self.history[-1]
        for i, score in enumerate(self.history):
            if abs(score - final) <= 1e-9:
                return i
        return len(self.history) - 1


def initial_population(
    scorer: StrategyScorer,
    stages: tuple[Stage, ...],
    config: GaConfig,
    freqs_mhz: tuple[float, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Baseline + prior individuals + uniform-random rest (Sect. 6.3.1).

    Beyond the paper's single (LFC 1600 / HFC 1800) prior, a small family
    of priors at deeper LFC levels and mildly lowered HFC levels is seeded,
    so loose loss budgets start near their region of the search space —
    with hundreds of stages, single-gene mutations alone take too long to
    walk there.
    """
    n_stages = scorer.stage_count
    n_freqs = scorer.frequency_count
    population = rng.integers(
        0, n_freqs, size=(config.population_size, n_stages)
    )
    # Baseline individual: everything at the maximum frequency.
    population[0, :] = n_freqs - 1
    # Prior family: the paper's prior first, then deeper variants.
    prior_levels = [
        (config.prior_lfc_mhz, config.prior_hfc_mhz),
        (1300.0, 1800.0),
        (1000.0, 1800.0),
        (1300.0, 1700.0),
        (1000.0, 1600.0),
        (1200.0, 1500.0),
    ]
    slots = min(len(prior_levels), config.population_size - 1)
    lfc_mask = np.array(
        [stage.kind is StageKind.LFC for stage in stages], dtype=bool
    )
    freqs_arr = np.asarray(freqs_mhz, dtype=float)
    for slot, (lfc_mhz, hfc_mhz) in enumerate(prior_levels[:slots], start=1):
        lfc_index = _nearest_index(freqs_arr, lfc_mhz)
        hfc_index = _nearest_index(freqs_arr, hfc_mhz)
        population[slot, :] = np.where(lfc_mask, lfc_index, hfc_index)
    return population


def _nearest_index(
    freqs_mhz: tuple[float, ...] | np.ndarray, target: float
) -> int:
    """Index of the grid frequency closest to ``target``.

    Accepts a precomputed ndarray so callers in a loop (the prior family
    above) convert the grid once instead of re-allocating per call.
    """
    freqs = (
        freqs_mhz
        if isinstance(freqs_mhz, np.ndarray)
        else np.asarray(freqs_mhz, dtype=float)
    )
    return int(np.argmin(np.abs(freqs - target)))


def _roulette_pick(
    rng: np.random.Generator, cumulative: np.ndarray, count: int
) -> np.ndarray:
    draws = rng.random(count) * cumulative[-1]
    return np.searchsorted(cumulative, draws)


def run_search(
    scorer: StrategyScorer,
    stages: tuple[Stage, ...],
    freqs_mhz: tuple[float, ...],
    config: GaConfig | None = None,
) -> GaResult:
    """Run the full GA and return the fittest strategy found.

    Selection probability is proportional to the Eq. (17) score, so
    strategies meeting the performance bound (scored 2x) dominate the
    mating pool while infeasible ones still contribute genetic material.
    """
    config = config or GaConfig()
    rng = np.random.default_rng(config.seed)
    n_stages = scorer.stage_count
    n_freqs = scorer.frequency_count
    pop_size = config.population_size
    elite_count = config.elite_count
    parent_count = pop_size - elite_count
    # The RNG draws stay int64; the population holds them in the
    # narrowest unsigned dtype that fits the grid (uint8 for 9 points).
    gene_dtype = np.min_scalar_type(n_freqs - 1)
    population = initial_population(
        scorer, stages, config, freqs_mhz, rng
    ).astype(gene_dtype)
    # Double buffer: each generation is gathered into ``spare``, elites
    # first, then the children (copies of their parent A until bred).
    spare = np.empty_like(population)
    parents_a = np.empty_like(population[elite_count:])
    parents_b = np.empty_like(parents_a)
    # Row ``c`` masks the last ``c`` genes; row 0 masks none, so a row
    # that does not cross over gathers row 0.
    tail_table = (
        np.arange(n_stages)[None, :]
        >= n_stages - np.arange(n_stages + 1)[:, None]
    )
    cells = scorer.cells
    # Table row of grid point 0 for each gene of the flattened children.
    flat_offsets = np.tile(np.arange(n_stages) * n_freqs, parent_count)

    start = time.perf_counter()
    sums = scorer.stage_sums(population)
    scores = scorer.score_sums(sums)
    evaluations = pop_size
    history: list[float] = [float(scores.max())]
    stale_generations = 0

    for _ in range(config.iterations):
        # ``[-k:]`` would return the whole array for ``elite_count == 0``
        # and silently grow the population; slice from ``parent_count``.
        elite_idx = np.argsort(scores)[parent_count:]
        cumulative = np.cumsum(np.maximum(scores, 1e-12))
        # One draw of both parents' picks: the same stream as A's picks
        # followed by B's.
        picks = _roulette_pick(rng, cumulative, 2 * parent_count)
        ia, ib = picks[:parent_count], picks[parent_count:]
        rows = np.concatenate([elite_idx, ia])
        # ``mode="clip"`` keeps ``out=`` unbuffered.  It never clips:
        # argsort indices are in range, and searchsorted maps every draw
        # to an entry at or above it, at most the last.
        population.take(rows, axis=0, out=spare, mode="clip")
        population.take(ia, axis=0, out=parents_a, mode="clip")
        population.take(ib, axis=0, out=parents_b, mode="clip")
        children = spare[elite_count:]

        # Tail-swap crossover: exchange the last k genes (Sect. 6.3.3).
        do_cross = rng.random(parent_count) < config.crossover_rate
        cut = rng.integers(1, n_stages + 1, size=parent_count)
        np.copyto(
            children, parents_b, where=tail_table.take(cut * do_cross, axis=0)
        )
        # Point mutation: one random gene to one random frequency.
        do_mutate = rng.random(parent_count) < config.mutation_rate
        positions = rng.integers(0, n_stages, size=parent_count)
        values = rng.integers(0, n_freqs, size=parent_count)
        mutate_rows = np.nonzero(do_mutate)[0]
        children[mutate_rows, positions[mutate_rows]] = values[mutate_rows]

        # Every individual starts from its parent A's sums (an elite from
        # its own).  A child whose genes differ from A's adds the table
        # differences at those genes: integer sums are exact, so this is
        # bit for bit its sums from scratch, and only the changed
        # children reach the closure.
        sums = sums.take(rows, axis=0)
        scores = scores[rows]
        changed = np.flatnonzero(children != parents_a)
        if changed.size:
            offsets = flat_offsets.take(changed)
            new_rows = offsets + children.ravel().take(changed)
            old_rows = offsets + parents_a.ravel().take(changed)
            deltas = cells.take(new_rows, axis=0)
            deltas -= cells.take(old_rows, axis=0)
            # ``changed`` is sorted, so each child's cells are one run.
            child_rows = changed // n_stages
            run_start = np.empty(changed.size, dtype=bool)
            run_start[0] = True
            np.not_equal(child_rows[1:], child_rows[:-1], out=run_start[1:])
            starts = np.flatnonzero(run_start)
            scored = child_rows.take(starts)
            scored += elite_count
            child_sums = sums.take(scored, axis=0)
            child_sums += np.add.reduceat(deltas, starts, axis=0)
            sums[scored] = child_sums
            scores[scored] = scorer.score_sums(child_sums)
            evaluations += scored.size
        population, spare = spare, population
        history.append(float(scores.max()))
        if history[-1] > history[-2] + 1e-12:
            stale_generations = 0
        else:
            stale_generations += 1
            if config.patience and stale_generations >= config.patience:
                break

    best = int(np.argmax(scores))
    return GaResult(
        best_genes=population[best].astype(np.intp),
        best_score=float(scores[best]),
        history=tuple(history),
        generations=len(history) - 1,
        evaluations=evaluations,
        wall_seconds=time.perf_counter() - start,
    )
