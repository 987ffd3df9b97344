"""Scalar reference builds that the array fast paths are pinned against.

Each oracle is the former production form of a hot path, kept only here
so the equivalence tests can compare the array form bit for bit:

* :func:`scalar_column` — one ``GroundTruthEvaluator.evaluate`` call per
  distinct operator character at one frequency (the engine's columns now
  come from the vectorised ``CompiledTrace.unique_grid``);
* :class:`PerStageScorer` — ``StrategyScorer`` with its tables built by
  a per-stage loop over the duration/power matrices (the scorer now
  evaluates each distinct operator name once and gathers);
* :func:`four_gather_evaluate` — ``StrategyScorer.evaluate`` as four 2-D
  fancy gathers of the float tables plus the ``volts[genes] * time``
  product, summed in floating point (the scorer now sums its quantised
  integer table; within 1e-12 relative);
* :func:`exact_sum_evaluate` — ``StrategyScorer.evaluate`` with each
  stage sum of the quantised cells taken in Python's arbitrary-precision
  integers (the scorer's int64 sums, bit for bit);
* :func:`full_rescore_search` — ``run_search`` scoring every child of
  every generation on an int64 population stacked with ``vstack`` (the
  GA now scores only the children whose genes differ from their parent
  A, as A's exact stage sums plus the changed cells, on a narrow
  double-buffered population);
* :func:`row_crossover_search` — ``run_search`` with the crossover as a
  gather/mask/scatter over the crossing rows (the GA now does one masked
  ``np.copyto``);
* :func:`stepwise_run_idle` — ``NpuDevice.run_idle`` with both idle
  powers and the thermal step recomputed every step (the device now
  hoists the frequency's idle terms, ``GroundTruthEvaluator.idle_point``,
  and the RC decay);
* :func:`scalar_sample_chunks` — ``PowerTelemetry.sample_chunks`` as a
  ``t += interval`` walk with three scalar noise draws per sample (the
  telemetry now draws all noise at once and gathers by ``searchsorted``);
* :func:`object_fit_calibration` (with :func:`object_sample_chunks`,
  :func:`object_measure_chunks`, :func:`object_measure` and
  :func:`scalar_telemetry_fault`) — ``fit_calibration`` walking the
  calibration's power chunks and execution results
  (:func:`collect_object_calibration_runs`) into ``PowerSample`` lists
  and chunk-level measurements, with scalar noise and one fault decision
  per reading (the calibration now keeps only the true values the
  telemetry reads and replays its array reads over them);
* :func:`eager_step_arrays` — ``FleetSimulator.step`` building a step's
  four energy arrays and its end temperatures as it runs (a step result
  now keeps only ``delta0`` and computes them on access);
* :func:`allocating_block`, :func:`allocating_const_solutions` and
  :func:`allocating_const_durations` — the fleet's batched
  constant-frequency kernels with a fresh array per block-sized
  temporary (the engine now writes them into a few reused buffers
  through one shared block geometry);
* :func:`argmax_barrier_target` / :func:`argmax_reclaim` — the fleet
  reclaim as a gather of the active rows of the ``(capacity, F)``
  duration table, a boolean ``argmax`` along each row, an
  ``any(axis=1)`` feasibility check and a 2-D ``table[arange, index]``
  gather (the reclaim now makes row passes over the frequency-major
  table: a prefix OR down the grid and a count of the reached rows);
* :func:`gather_scatter_step` — ``FleetSimulator.step`` gathering
  ``delta0`` from the capacity-wide thermal state and scattering the end
  temperatures back on every step (the simulator now keeps the active
  temperatures in a dense array for the whole epoch);
* :class:`SequentialProfiler` / :func:`sequential_sweep` — the optimizer
  profiling one frequency at a time (it now profiles the whole sweep in
  one grid pass whenever its instruments are the plain pair);
* :class:`FleetObjectiveScorer` — the fleet ``energy x step-time``
  objective as the former fleet GA's scorer evaluated it, one
  individual (one grid index per active device) per row, with the
  brute-force :meth:`~FleetObjectiveScorer.enumerated_best` over every
  assignment and :meth:`~FleetObjectiveScorer.every_barrier_best`, the
  naive barrier enumeration (``fleet.dvfs.optimal_fleet_plan`` now
  prunes the barriers it scores);
* :class:`ObjectCheckGuard` — ``GuardedDvfsExecutor`` with its post-hoc
  checks read through objects: the throttle peak as a ``max`` over every
  ``PowerChunk`` and each anchor's start frequency from its
  ``OperatorRecord`` (the guard now reads ``ExecutionResult.peak_celsius``
  and the ``op_start_freq_mhz`` column).

The looped multi-device reference is larger and lives in its own
package, :mod:`tests.reference`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.dvfs.ga import GaConfig, GaResult, _roulette_pick, initial_population
from repro.dvfs.guard import _FREQ_MATCH_TOLERANCE_MHZ, GuardedDvfsExecutor
from repro.dvfs.scoring import PopulationEvaluation, StrategyScorer
from repro.errors import (
    CalibrationError,
    ProfilingError,
    StrategyError,
    TelemetryError,
)
from repro.fleet.simulator import FleetPlan, FleetStepResult, _affine, _read_only
from repro.npu.device import IDLE_INDEX, PowerChunk
from repro.npu.engine import _BATCH_CELL_BUDGET, _SCAN_UNDERFLOW, _affine_parts
from repro.npu.profiler import CannStyleProfiler
from repro.npu.telemetry import PowerMeasurement, PowerSample
from repro.npu.thermal import ThermalState
from repro.units import US_PER_S


@dataclass(frozen=True)
class ScalarColumn:
    """Per-operator tables at one frequency, built one spec at a time."""

    dur: np.ndarray
    a0: np.ndarray
    ga: np.ndarray
    s0: np.ndarray
    gs: np.ndarray
    idle_a0: float
    idle_ga: float
    idle_s0: float
    idle_gs: float


def scalar_column(compiled, evaluator, freq_mhz: float) -> ScalarColumn:
    """Build one engine column with a scalar ``evaluate`` per spec."""
    specs = compiled.unique_specs
    m = len(specs)
    dur_u = np.empty(m)
    a0_u = np.empty(m)
    ga_u = np.empty(m)
    s0_u = np.empty(m)
    gs_u = np.empty(m)
    for j, spec in enumerate(specs):
        evaluation = evaluator.evaluate(spec, freq_mhz)
        a_cold = evaluator.aicore_power(evaluation, 0.0)
        s_cold = evaluator.soc_power(evaluation, 0.0)
        dur_u[j] = evaluation.duration_us
        a0_u[j] = a_cold
        ga_u[j] = evaluator.aicore_power(evaluation, 1.0) - a_cold
        s0_u[j] = s_cold
        gs_u[j] = evaluator.soc_power(evaluation, 1.0) - s_cold
    idle_a_cold = evaluator.idle_aicore_power(freq_mhz, 0.0)
    idle_s_cold = evaluator.idle_soc_power(freq_mhz, 0.0)
    idx = compiled.unique_index
    return ScalarColumn(
        dur=dur_u[idx],
        a0=a0_u[idx],
        ga=ga_u[idx],
        s0=s0_u[idx],
        gs=gs_u[idx],
        idle_a0=idle_a_cold,
        idle_ga=evaluator.idle_aicore_power(freq_mhz, 1.0) - idle_a_cold,
        idle_s0=idle_s_cold,
        idle_gs=evaluator.idle_soc_power(freq_mhz, 1.0) - idle_s_cold,
    )


class PerStageScorer(StrategyScorer):
    """``StrategyScorer`` whose tables come from the per-stage loop."""

    def _build_tables(
        self, all_names, perf_model, power_table, idle_ai, idle_soc
    ) -> None:
        for j, stage in enumerate(self._stages):
            names = [all_names[i] for i in stage.op_indices]
            if names:
                times = perf_model.duration_matrix(names, self._freqs)
                p_ai = power_table.aicore_power_matrix(names, self._freqs)
                p_soc = power_table.soc_power_matrix(names, self._freqs)
                self._stage_time[j] = times.sum(axis=0)
                self._stage_aicore_energy[j] = (times * p_ai).sum(axis=0)
                self._stage_soc_energy[j] = (times * p_soc).sum(axis=0)
            self._add_stage_idle(j, stage, idle_ai, idle_soc)


def _thermal_closure(
    scorer: StrategyScorer,
    time_us: np.ndarray,
    aicore_j: np.ndarray,
    soc_j: np.ndarray,
    volts_time: np.ndarray,
) -> PopulationEvaluation:
    volts_avg = volts_time / time_us
    soc_base = soc_j / time_us
    loop_gain = scorer._k * scorer._gamma_soc * volts_avg
    soc_watts = soc_base / np.maximum(1e-9, 1.0 - loop_gain)
    delta = scorer._k * soc_watts
    aicore_watts = aicore_j / time_us + (
        scorer._gamma_aicore * delta * volts_avg
    )
    return PopulationEvaluation(
        time_us=time_us,
        aicore_watts=aicore_watts,
        soc_watts=soc_watts,
        delta_celsius=delta,
    )


def four_gather_evaluate(
    scorer: StrategyScorer, population: np.ndarray
) -> PopulationEvaluation:
    """``StrategyScorer.evaluate`` as one fancy gather per float table."""
    genes = np.asarray(population)
    rows = np.arange(scorer.stage_count)[None, :]
    stage_time = scorer._stage_time
    time_us = stage_time[rows, genes].sum(axis=1)
    return _thermal_closure(
        scorer,
        time_us,
        scorer._stage_aicore_energy[rows, genes].sum(axis=1),
        scorer._stage_soc_energy[rows, genes].sum(axis=1),
        (scorer._volts[genes] * stage_time[rows, genes]).sum(axis=1),
    )


def exact_sums(scorer: StrategyScorer, population) -> list[list[int]]:
    """Each individual's four stage sums of the quantised cells, as ints."""
    n_freqs = scorer.frequency_count
    cells = scorer.cells.tolist()
    return [
        [
            sum(column)
            for column in zip(
                *(cells[s * n_freqs + g] for s, g in enumerate(row))
            )
        ]
        for row in np.asarray(population).tolist()
    ]


def exact_sum_evaluate(
    scorer: StrategyScorer, population: np.ndarray
) -> PopulationEvaluation:
    """``StrategyScorer.evaluate`` from arbitrary-precision stage sums."""
    unscale = [int(k) for k in scorer._unscale]
    columns = np.array(
        [
            [math.ldexp(float(total), k) for total, k in zip(row, unscale)]
            for row in exact_sums(scorer, population)
        ]
    ).reshape(-1, 4)
    return _thermal_closure(scorer, *columns.T)


def full_rescore_search(
    scorer: StrategyScorer,
    stages,
    freqs_mhz,
    config: GaConfig,
) -> GaResult:
    """``run_search`` scoring every child of every generation."""
    rng = np.random.default_rng(config.seed)
    population = initial_population(scorer, stages, config, freqs_mhz, rng)
    n_stages = scorer.stage_count
    n_freqs = scorer.frequency_count
    pop_size = config.population_size

    start = time.perf_counter()
    scores = scorer.score(population)
    evaluations = pop_size
    history: list[float] = [float(scores.max())]
    stale_generations = 0
    gene_positions = np.arange(n_stages)

    for _ in range(config.iterations):
        # ``[-k:]`` would return the whole array for ``elite_count == 0``
        # and silently grow the population; slice from ``pop_size - k``.
        elite_idx = np.argsort(scores)[pop_size - config.elite_count:]
        elite = population[elite_idx].copy()
        elite_scores = scores[elite_idx]

        cumulative = np.cumsum(np.maximum(scores, 1e-12))
        parent_count = pop_size - config.elite_count
        parents_a = population[_roulette_pick(rng, cumulative, parent_count)]
        parents_b = population[_roulette_pick(rng, cumulative, parent_count)]

        # Fancy indexing copies, so the children own their genes.
        children = parents_a
        # Tail-swap crossover: exchange the last k genes (Sect. 6.3.3).
        do_cross = rng.random(parent_count) < config.crossover_rate
        cut = rng.integers(1, n_stages + 1, size=parent_count)
        # One masked copy over all rows: a gene comes from ``parents_b``
        # iff its row crosses and it lies in that row's tail.  Gene
        # copies are integer-exact, so this matches a per-row tail swap.
        tail = gene_positions[None, :] >= (n_stages - cut)[:, None]
        np.copyto(children, parents_b, where=tail & do_cross[:, None])
        # Point mutation: one random gene to one random frequency.
        do_mutate = rng.random(parent_count) < config.mutation_rate
        positions = rng.integers(0, n_stages, size=parent_count)
        values = rng.integers(0, n_freqs, size=parent_count)
        mutate_rows = np.nonzero(do_mutate)[0]
        children[mutate_rows, positions[mutate_rows]] = values[mutate_rows]

        population = np.vstack([elite, children])
        # Elite score carry-over: elites are unchanged genes, and the
        # scorer is row-independent (per-row gathers and reductions), so
        # concatenating their previous scores with freshly scored children
        # is bit-identical to re-scoring the stacked population — while
        # charging only ``pop_size - elite_count`` scorer evaluations.
        scores = np.concatenate([elite_scores, scorer.score(children)])
        evaluations += pop_size - config.elite_count
        history.append(float(scores.max()))
        if history[-1] > history[-2] + 1e-12:
            stale_generations = 0
        else:
            stale_generations += 1
            if config.patience and stale_generations >= config.patience:
                break

    best = int(np.argmax(scores))
    return GaResult(
        best_genes=population[best].copy(),
        best_score=float(scores[best]),
        history=tuple(history),
        generations=len(history) - 1,
        evaluations=evaluations,
        wall_seconds=time.perf_counter() - start,
    )


def row_crossover_search(
    scorer: StrategyScorer,
    stages,
    freqs_mhz,
    config: GaConfig,
) -> GaResult:
    """``run_search`` with the crossover scattered over crossing rows."""
    rng = np.random.default_rng(config.seed)
    population = initial_population(scorer, stages, config, freqs_mhz, rng)
    n_stages = scorer.stage_count
    n_freqs = scorer.frequency_count
    pop_size = config.population_size

    start = time.perf_counter()
    scores = scorer.score(population)
    evaluations = pop_size
    history: list[float] = [float(scores.max())]
    stale_generations = 0

    for _ in range(config.iterations):
        elite_idx = np.argsort(scores)[pop_size - config.elite_count:]
        elite = population[elite_idx].copy()
        elite_scores = scores[elite_idx]

        cumulative = np.cumsum(np.maximum(scores, 1e-12))
        parent_count = pop_size - config.elite_count
        parents_a = population[_roulette_pick(rng, cumulative, parent_count)]
        parents_b = population[_roulette_pick(rng, cumulative, parent_count)]

        children = parents_a.copy()
        do_cross = rng.random(parent_count) < config.crossover_rate
        cut = rng.integers(1, n_stages + 1, size=parent_count)
        cross_rows = np.nonzero(do_cross)[0]
        if cross_rows.size:
            tail = np.arange(n_stages)[None, :] >= (
                n_stages - cut[cross_rows]
            )[:, None]
            crossed = children[cross_rows]
            crossed[tail] = parents_b[cross_rows][tail]
            children[cross_rows] = crossed
        do_mutate = rng.random(parent_count) < config.mutation_rate
        positions = rng.integers(0, n_stages, size=parent_count)
        values = rng.integers(0, n_freqs, size=parent_count)
        mutate_rows = np.nonzero(do_mutate)[0]
        children[mutate_rows, positions[mutate_rows]] = values[mutate_rows]

        population = np.vstack([elite, children])
        scores = np.concatenate([elite_scores, scorer.score(children)])
        evaluations += pop_size - config.elite_count
        history.append(float(scores.max()))
        if history[-1] > history[-2] + 1e-12:
            stale_generations = 0
        else:
            stale_generations += 1
            if config.patience and stale_generations >= config.patience:
                break

    best = int(np.argmax(scores))
    return GaResult(
        best_genes=population[best].copy(),
        best_score=float(scores[best]),
        history=tuple(history),
        generations=len(history) - 1,
        evaluations=evaluations,
        wall_seconds=time.perf_counter() - start,
    )


def stepwise_run_idle(
    device,
    duration_us: float,
    freq_mhz: float,
    initial_celsius: float | None = None,
    steps: int = 60,
) -> list[PowerChunk]:
    """``NpuDevice.run_idle`` recomputing every term at every step.

    The idle powers are spelled out from the power spec the device's
    evaluator computes against (a cluster die's ``VariedEvaluator``
    wraps the nominal one), as ``GroundTruthEvaluator`` once did.
    """
    evaluator = device.evaluator
    power_npu = getattr(evaluator, "inner", evaluator).npu
    power = power_npu.power
    thermal = ThermalState(device.npu.thermal, initial_celsius)
    step_us = duration_us / steps
    chunks: list[PowerChunk] = []
    clock = 0.0
    for _ in range(steps):
        delta = thermal.delta_celsius
        volts = power_npu.volts_at(freq_mhz)
        aicore_w = power.aicore_idle_power(freq_mhz, volts) + (
            power.aicore_thermal_power(delta, volts)
        )
        soc_w = (
            aicore_w
            + power.coupled_power(freq_mhz, volts)
            + power.uncore_power(0.0, delta)
        )
        chunks.append(
            PowerChunk(
                start_us=clock,
                end_us=clock + step_us,
                freq_mhz=freq_mhz,
                aicore_watts=aicore_w,
                soc_watts=soc_w,
                celsius=thermal.celsius,
                op_index=IDLE_INDEX,
            )
        )
        thermal.advance(soc_w, step_us)
        clock += step_us
    return chunks


def scalar_sample_chunks(
    telemetry, chunks, interval_us: float = 1000.0
) -> list[PowerSample]:
    """``PowerTelemetry.sample_chunks`` as a walk over the sample times."""
    noise = telemetry._npu.noise
    rng = telemetry.rng
    samples: list[PowerSample] = []
    chunk_iter = iter(chunks)
    current = next(chunk_iter)
    t = chunks[0].start_us
    end = chunks[-1].end_us
    while t < end:
        while current.end_us <= t:
            current = next(chunk_iter)
        samples.append(
            PowerSample(
                time_us=t,
                soc_watts=telemetry._noisy(
                    current.soc_watts, noise.power_sigma
                ),
                aicore_watts=telemetry._noisy(
                    current.aicore_watts, noise.power_sigma
                ),
                celsius=current.celsius
                + (
                    rng.normal(0.0, noise.temperature_sigma_celsius)
                    if noise.temperature_sigma_celsius > 0
                    else 0.0
                ),
            )
        )
        t += interval_us
    return samples


def scalar_telemetry_fault(injector, time_us: float | None = None):
    """``FaultInjector.telemetry_fault`` as three scalar comparisons."""
    cfg = injector.config
    draws = injector._rng.random(3)
    if draws[0] < cfg.telemetry_dropout_rate:
        injector.record("telemetry", "dropout", time_us)
        return "dropout"
    if draws[1] < cfg.telemetry_stuck_rate:
        injector.record("telemetry", "stuck", time_us)
        return "stuck"
    if draws[2] < cfg.telemetry_spike_rate:
        injector.record("telemetry", "spike", time_us)
        return "spike"
    return None


def object_sample_chunks(
    telemetry, chunks, interval_us: float = 1000.0
) -> list[PowerSample]:
    """``sample_chunks`` as a list of ``PowerSample`` objects, then the
    per-sample fault loop ``FaultyPowerTelemetry`` used to run over it."""
    samples = scalar_sample_chunks(telemetry, chunks, interval_us)
    injector = getattr(telemetry, "injector", None)
    if injector is None:
        return samples
    kept: list[PowerSample] = []
    last: PowerSample | None = None
    for sample in samples:
        fault = scalar_telemetry_fault(injector, sample.time_us)
        if fault == "dropout":
            continue
        if fault == "stuck" and last is not None:
            sample = PowerSample(
                time_us=sample.time_us,
                soc_watts=last.soc_watts,
                aicore_watts=last.aicore_watts,
                celsius=last.celsius,
            )
        elif fault == "spike":
            factor = injector.spike_factor()
            sample = replace(
                sample,
                soc_watts=sample.soc_watts * factor,
                aicore_watts=sample.aicore_watts * factor,
            )
        kept.append(sample)
        last = sample
    if not kept:
        raise TelemetryError("every telemetry sample of the window was dropped")
    return kept


def _object_measurement(
    telemetry, duration_us: float, soc: float, aicore: float, celsius: float
) -> PowerMeasurement:
    """Two scalar ``_noisy`` draws, then a possible spike."""
    sigma = telemetry._npu.noise.power_sigma
    measurement = PowerMeasurement(
        duration_us=duration_us,
        soc_avg_watts=telemetry._noisy(soc, sigma),
        aicore_avg_watts=telemetry._noisy(aicore, sigma),
        avg_celsius=celsius,
    )
    injector = getattr(telemetry, "injector", None)
    if injector is None or scalar_telemetry_fault(injector) != "spike":
        return measurement
    factor = injector.spike_factor()
    return replace(
        measurement,
        soc_avg_watts=measurement.soc_avg_watts * factor,
        aicore_avg_watts=measurement.aicore_avg_watts * factor,
    )


def object_measure_chunks(telemetry, chunks) -> PowerMeasurement:
    """``PowerTelemetry.measure_chunks`` as a walk over the chunk objects."""
    if not chunks:
        raise ProfilingError("no power chunks to measure")
    duration = chunks[-1].end_us - chunks[0].start_us
    weights = np.array([c.duration_us for c in chunks])
    if not weights.sum() > 0:
        raise ProfilingError("power chunks span no time")
    return _object_measurement(
        telemetry,
        duration,
        float(np.average([c.soc_watts for c in chunks], weights=weights)),
        float(np.average([c.aicore_watts for c in chunks], weights=weights)),
        float(np.average([c.celsius for c in chunks], weights=weights)),
    )


def object_measure(telemetry, result) -> PowerMeasurement:
    """``PowerTelemetry.measure`` as a walk over the result's chunks."""
    weights = np.array([c.duration_us for c in result.chunks])
    temps = np.array([c.celsius for c in result.chunks])
    return _object_measurement(
        telemetry,
        result.duration_us,
        result.soc_avg_watts,
        result.aicore_avg_watts,
        float(np.average(temps, weights=weights)),
    )


@dataclass(frozen=True)
class ObjectCalibrationRuns:
    """The offline phase's device runs kept as chunks and results."""

    voltage: object
    ambient_celsius: float
    #: ``(freq_mhz, chunks)`` per idle pass.
    idle: tuple
    cooldown_freq_mhz: float
    cooldown_interval_us: float
    cooldown: tuple
    #: One ``ExecutionResult`` per (k-load, frequency) pair, load-major.
    load_points: tuple


def collect_object_calibration_runs(
    device, test_load, k_loads
) -> ObjectCalibrationRuns:
    """``collect_calibration_runs``'s device calls, keeping the objects."""
    from repro.npu.setfreq import FrequencyTimeline
    from repro.power.calibration import (
        _COOLDOWN_STEPS,
        _COOLDOWN_US,
        _SETTLE_US,
    )

    npu = device.npu
    grid = npu.frequencies
    idle = tuple(
        (freq, tuple(device.run_idle(_SETTLE_US, freq, steps=20)))
        for freq in (grid.min_mhz, grid.max_mhz)
    )
    loaded = device.run_stable(test_load)
    cooldown = tuple(
        device.run_idle(
            _COOLDOWN_US,
            grid.min_mhz,
            initial_celsius=loaded.end_celsius,
            steps=_COOLDOWN_STEPS,
        )
    )
    mid = grid.nearest((grid.min_mhz + grid.max_mhz) / 2.0)
    load_points = []
    for load in k_loads:
        for freq in (grid.min_mhz, mid, grid.max_mhz):
            result = device.run_stable(load, FrequencyTimeline.constant(freq))
            load_points.append(
                replace(result, chunks=tuple(result.chunks))
            )
    return ObjectCalibrationRuns(
        voltage=npu.voltage,
        ambient_celsius=npu.thermal.ambient_celsius,
        idle=idle,
        cooldown_freq_mhz=grid.min_mhz,
        cooldown_interval_us=_COOLDOWN_US / _COOLDOWN_STEPS,
        cooldown=cooldown,
        load_points=tuple(load_points),
    )


def object_fit_calibration(runs: ObjectCalibrationRuns, telemetry):
    """``fit_calibration`` as the walk over objects it used to be: two
    chunk-level idle measurements, the cooldown's ``PowerSample`` list,
    one measurement per load point, each read one object at a time."""
    from repro.analysis.linear import fit_line, solve_two_basis
    from repro.power.calibration import CalibrationConstants, IdlePowerFit

    voltage = runs.voltage
    measurements = [
        (freq, object_measure_chunks(telemetry, chunks))
        for freq, chunks in runs.idle
    ]
    fits = []
    for attr in ("aicore_avg_watts", "soc_avg_watts"):
        (fa, ma), (fb, mb) = measurements
        beta, theta = solve_two_basis(
            fa,
            getattr(ma, attr),
            fb,
            getattr(mb, attr),
            lambda f: (f / 1000.0) * float(voltage.volts(f)) ** 2,
            lambda f: float(voltage.volts(f)),
        )
        fits.append(IdlePowerFit(beta_w_per_ghz_v2=beta, theta_w_per_v=theta))
    samples = object_sample_chunks(
        telemetry, runs.cooldown, runs.cooldown_interval_us
    )
    deltas = [s.celsius - runs.ambient_celsius for s in samples]
    if max(deltas) - min(deltas) < 2.0:
        raise CalibrationError("test load did not heat the chip enough")
    volts = float(voltage.volts(runs.cooldown_freq_mhz))
    aicore_fit = fit_line(deltas, [s.aicore_watts for s in samples])
    soc_fit = fit_line(deltas, [s.soc_watts for s in samples])
    points = []
    for result in runs.load_points:
        measurement = object_measure(telemetry, result)
        points.append((measurement.soc_avg_watts, measurement.avg_celsius))
    if len(points) < 2:
        raise CalibrationError("need at least two load points to fit k")
    k_fit = fit_line([p for p, _ in points], [t for _, t in points])
    return CalibrationConstants(
        voltage=voltage,
        aicore_idle=fits[0],
        soc_idle=fits[1],
        gamma_aicore_w_per_c_v=aicore_fit.slope / volts,
        gamma_soc_w_per_c_v=soc_fit.slope / volts,
        k_celsius_per_watt=k_fit.slope,
        ambient_celsius=runs.ambient_celsius,
    )


#: The per-device arrays a fleet step used to build, with the epoch's
#: ``(p, q)`` pair each is affine in.
EAGER_STEP_PAIRS = {
    "aicore_energy_j": ("aicore_p", "aicore_q"),
    "soc_energy_j": ("soc_p", "soc_q"),
    "idle_aicore_energy_j": ("idle_aicore_p", "idle_aicore_q"),
    "idle_soc_energy_j": ("idle_soc_p", "idle_soc_q"),
    "end_celsius": ("celsius_p", "celsius_q"),
}


def eager_step_arrays(epoch, delta0: np.ndarray) -> dict[str, np.ndarray]:
    """A fleet step's five affine arrays, built the way the step used to.

    One ``out = q * delta0; out += p`` pass per array, in the step's
    initial temperature rise ``delta0``, from the epoch's coefficient
    pairs.
    """
    arrays = {}
    for name, (p_name, q_name) in EAGER_STEP_PAIRS.items():
        out = getattr(epoch, q_name) * delta0
        out += getattr(epoch, p_name)
        arrays[name] = out
    return arrays


def allocating_block(
    compiled,
    col,
    scales: np.ndarray,
    k: float,
    tau: float,
) -> tuple[np.ndarray, ...]:
    """One block of the batched constant-frequency reduction.

    Lays every device row out as the rectangular chunk interleave
    ``[idle_0, op_0, idle_1, op_1, ...]``: rows without a wait before
    operator ``i`` simply get a zero-length idle chunk there, which is
    an exact identity of both the affine thermal scan (``a = 1``,
    ``b = 0``) and the energy sum (``dt = 0``), so the rectangular
    layout reproduces the per-device compressed layout bit for bit.
    """
    n = compiled.n_ops
    d = col.dur[None, :] * scales[:, None]
    rows = scales.size
    prev_d = np.concatenate([np.zeros((rows, 1)), d[:, :-1]], axis=1)
    start = np.cumsum(
        np.maximum(prev_d + compiled.gap[None, :], compiled.host[None, :]),
        axis=1,
    )
    end = start + d
    duration = end[:, -1].copy()
    prev_end = np.concatenate([np.zeros((rows, 1)), end[:, :-1]], axis=1)
    idle_dt = start - prev_end

    cdt = np.empty((rows, 2 * n))
    cdt[:, 0::2] = idle_dt
    cdt[:, 1::2] = d
    ca0 = np.empty(2 * n)
    cga = np.empty(2 * n)
    cs0 = np.empty(2 * n)
    cgs = np.empty(2 * n)
    ca0[0::2] = col.idle_a0
    cga[0::2] = col.idle_ga
    cs0[0::2] = col.idle_s0
    cgs[0::2] = col.idle_gs
    ca0[1::2] = col.a0
    cga[1::2] = col.ga
    cs0[1::2] = col.s0
    cgs[1::2] = col.gs

    e = np.exp(-cdt / tau)
    one_m = 1.0 - e
    a = e + (k * cgs[None, :]) * one_m
    b = (k * cs0[None, :]) * one_m
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.cumprod(a, axis=1)
        tail = c[:, -1]
        bad = (
            ~np.isfinite(tail)
            | (tail <= _SCAN_UNDERFLOW)
            | (np.min(a, axis=1) <= 0.0)
        )
        acc = np.cumsum(b / c, axis=1)
    th_b = np.concatenate([np.ones((rows, 1)), c[:, :-1]], axis=1)
    th_a = th_b * np.concatenate([np.zeros((rows, 1)), acc[:, :-1]], axis=1)
    end_a = tail * acc[:, -1]
    end_b = tail.copy()
    for i in np.flatnonzero(bad):
        # Pathological decay on this row: same sequential fallback as
        # the per-device path (see _affine_parts).
        th_a[i], th_b[i], end_a[i], end_b[i] = _affine_parts(
            cdt[i], cs0, cgs, k, tau
        )

    per_dt = cdt / US_PER_S
    e0_aicore = ((ca0[None, :] + cga[None, :] * th_a) * per_dt).sum(axis=1)
    e1_aicore = ((cga[None, :] * th_b) * per_dt).sum(axis=1)
    e0_soc = ((cs0[None, :] + cgs[None, :] * th_a) * per_dt).sum(axis=1)
    e1_soc = ((cgs[None, :] * th_b) * per_dt).sum(axis=1)
    return duration, e0_aicore, e1_aicore, e0_soc, e1_soc, end_a, end_b


def allocating_const_solutions(
    compiled, freq_mhz: float, scales: np.ndarray, k: float, tau: float
) -> tuple[np.ndarray, ...]:
    """The seven ``ConstAffineBatch`` arrays, one allocating block at a time.

    In ``ConstAffineBatch`` field order: duration, the four energy
    coefficients, ``end_a``, ``end_b``.
    """
    scales = np.ascontiguousarray(scales, dtype=float)
    rows = scales.size
    col = compiled.column(freq_mhz)
    parts = [np.empty(rows) for _ in range(7)]
    block = max(1, _BATCH_CELL_BUDGET // (2 * compiled.n_ops))
    for lo in range(0, rows, block):
        chunk = allocating_block(
            compiled, col, scales[lo : lo + block], k, tau
        )
        for dest, src in zip(parts, chunk):
            dest[lo : lo + src.size] = src
    return tuple(parts)


def allocating_const_durations(
    compiled, freq_mhz: float, scales: np.ndarray
) -> np.ndarray:
    """Per-device constant-frequency durations, one allocating block at a time."""
    scales = np.ascontiguousarray(scales, dtype=float)
    if compiled.n_ops == 0:
        return np.zeros(scales.size)
    col = compiled.column(freq_mhz)
    out = np.empty(scales.size)
    block = max(1, _BATCH_CELL_BUDGET // max(1, compiled.n_ops))
    for lo in range(0, scales.size, block):
        s = scales[lo : lo + block, None]
        d = col.dur[None, :] * s
        prev_d = np.concatenate([np.zeros((s.size, 1)), d[:, :-1]], axis=1)
        start = np.cumsum(
            np.maximum(
                prev_d + compiled.gap[None, :], compiled.host[None, :]
            ),
            axis=1,
        )
        out[lo : lo + block] = start[:, -1] + d[:, -1]
    return out


class SequentialProfiler(CannStyleProfiler):
    """The plain profiler under a type the grid pass does not accept.

    ``EnergyOptimizer`` takes the one-pass grid profiler only for the
    exact ``CannStyleProfiler``/``PowerTelemetry`` pair, so this
    subclass, with no overrides, sends it down the sequential sweep.
    """


def sequential_sweep(optimizer):
    """Make ``optimizer`` profile one frequency at a time; returns it.

    The swapped-in profiler draws from the optimizer's own profiler RNG,
    so both routes consume the same noise stream.
    """
    optimizer._profiler = SequentialProfiler(
        optimizer.config.npu, optimizer.profiler.rng
    )
    return optimizer


def argmax_barrier_target(sim, slack_margin: float = 0.0) -> tuple[float, int]:
    """``barrier_target`` as a gather of the table's last column."""
    act = sim.active_ids
    arrivals = sim.duration_table()[act, -1]
    straggler_id = int(act[int(np.argmax(arrivals))])
    return float(arrivals.max()) * (1.0 + slack_margin), straggler_id


def argmax_reclaim(sim, target: float, straggler_id: int) -> FleetPlan:
    """``reclaim_fleet_slack`` at a given barrier, the row-wise way.

    Gathers the active rows of the ``(capacity, F)`` table, takes each
    row's first grid point meeting ``target`` with a boolean ``argmax``,
    checks feasibility with ``any(axis=1)`` and gathers the predicted
    arrivals with ``table[arange, freq_index]``.
    """
    freqs = sim.spec.npu.frequencies.points
    table = sim.duration_table()
    act = sim.active_ids

    meets = table[act] <= target
    feasible = meets.any(axis=1)
    if not feasible.all():
        device = int(act[int(np.argmax(~feasible))])
        raise StrategyError(
            f"device {device} cannot reach the barrier at "
            f"{target:.0f} us even at {freqs[-1]:.0f} MHz"
        )
    chosen = np.argmax(meets, axis=1)

    capacity = sim.spec.capacity
    freq_index = np.full(capacity, len(freqs) - 1, dtype=np.intp)
    freq_index[act] = chosen
    grid = np.asarray(freqs, dtype=float)
    freq_mhz = grid[freq_index]
    predicted = table[np.arange(capacity), freq_index]
    covered = np.zeros(capacity, dtype=bool)
    covered[act] = True
    return FleetPlan(
        workload=sim.trace.name,
        target_compute_us=target,
        straggler_id=straggler_id,
        freqs_mhz=tuple(float(f) for f in freqs),
        freq_index=freq_index,
        freq_mhz=freq_mhz,
        predicted_us=predicted,
        covered=covered,
    )


def gather_scatter_step(
    sim, plan=None, target_compute_us=None, events=()
) -> FleetStepResult:
    """``FleetSimulator.step`` on the capacity-wide thermal state.

    Every step gathers ``delta0`` from ``sim._celsius`` by device id and
    scatters the end temperatures back.  The simulator's live epoch
    array is dropped, so ``sim`` must only ever be stepped through this
    oracle.
    """
    ep = sim._epoch_for(plan, target_compute_us)
    sim._live = None
    delta0 = _read_only(sim._celsius[ep.device_ids] - ep.ambient)
    sim._celsius[ep.device_ids] = _affine(ep.celsius_p, ep.celsius_q, delta0)
    sim._overrun_total += ep.overrun_count
    return FleetStepResult(
        fleet_name=sim.spec.name,
        workload=sim.trace.name,
        compute_us=ep.compute_us,
        collective=ep.collective,
        straggler_id=ep.straggler_id,
        device_ids=ep.device_ids,
        arrival_us=ep.arrival_us,
        wait_us=ep.wait_us,
        freq_mhz=ep.freq_mhz,
        delta0=delta0,
        epoch=ep,
        overrun_count=ep.overrun_count,
        overrun_device_ids=ep.overrun_device_ids,
        events=events,
    )


class FleetObjectiveScorer:
    """The fleet objective, scored the way the fleet GA scored it.

    An individual assigns one grid index per active device (in id
    order).  Its barrier is the latest arrival; every device pays its
    compute-phase SoC energy at ``delta0 = 0`` plus idle power from its
    arrival until the all-reduce completes.  The score is the all-max
    baseline's energy-time product over the individual's, doubled when
    the step stays within the loss target.
    """

    def __init__(self, sim, step_loss_target: float = 0.005) -> None:
        act = sim.active_ids
        freqs = tuple(float(f) for f in sim.spec.npu.frequencies.points)
        solutions = [sim.solution(f) for f in freqs]
        self.device_ids = act
        self.allreduce_us = sim.collective_cost().chosen_us
        self.durations = sim.duration_table()[act]  # (devices, freqs)
        self.soc_energy = np.stack(
            [solution.e0_soc_j[act] for solution in solutions], axis=1
        )
        self.idle_soc_w = np.array(
            [solution.idle_soc_w0 for solution in solutions]
        )
        baseline = np.full((1, act.size), len(freqs) - 1, dtype=int)
        step, energy = self.evaluate(baseline)
        self.baseline_step_us = float(step[0])
        self.baseline_energy_j = float(energy[0])
        self.step_limit_us = self.baseline_step_us * (1.0 + step_loss_target)

    def evaluate(self, population: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step time and fleet SoC energy for each individual."""
        devices = np.arange(self.durations.shape[0])
        arrivals = self.durations[devices[None, :], population]  # (P, D)
        compute = arrivals.max(axis=1)  # (P,)
        step = compute + self.allreduce_us
        active = self.soc_energy[devices[None, :], population]
        idle_w = self.idle_soc_w[population]
        idle_us = compute[:, None] - arrivals + self.allreduce_us
        energy = (active + idle_w * idle_us / US_PER_S).sum(axis=1)
        return step, energy

    def feasible(self, population: np.ndarray) -> np.ndarray:
        """Whether each individual's step is within the loss target."""
        step, _ = self.evaluate(np.asarray(population, dtype=int))
        return step <= self.step_limit_us * (1.0 + 1e-12)

    def score(self, population: np.ndarray) -> np.ndarray:
        """Eq. 17-style score: normalised E*t product, 2x when feasible."""
        population = np.asarray(population, dtype=int)
        step, energy = self.evaluate(population)
        baseline_product = self.baseline_energy_j * self.baseline_step_us
        norm = baseline_product / (energy * step)
        feasible = step <= self.step_limit_us * (1.0 + 1e-12)
        return norm * np.where(feasible, 2.0, 1.0)

    def plan_genes(self, plan: FleetPlan) -> np.ndarray:
        """A plan's individual: its grid index on every active device."""
        return plan.freq_index[self.device_ids][None, :]

    def enumerated_best(self) -> float:
        """The best score over all ``F ** devices`` individuals."""
        n_devices, n_freqs = self.durations.shape
        population = np.indices((n_freqs,) * n_devices).reshape(
            n_devices, -1
        ).T
        return float(self.score(population).max())

    def every_barrier_best(self) -> float:
        """The best per-device energy argmin over every table duration.

        No pruning: each distinct duration of an active device is a
        candidate barrier, and each device takes its cheapest grid point
        arriving by it.
        """
        best = -np.inf
        for barrier in np.unique(self.durations):
            wait_us = barrier - self.durations + self.allreduce_us
            cost = self.soc_energy + self.idle_soc_w * wait_us / US_PER_S
            cost[self.durations > barrier] = np.inf
            if np.isinf(cost.min(axis=1)).any():
                continue
            genes = cost.argmin(axis=1)[None, :]
            best = max(best, float(self.score(genes)[0]))
        return best



class ObjectCheckGuard(GuardedDvfsExecutor):
    """The guard with its post-hoc checks read through result objects."""

    def _verify_anchors(self, result, strategy) -> None:
        if self.device.npu.setfreq.extra_delay_us > 0:
            return
        for op_index, freq in strategy.anchored_switches():
            record = result.records[op_index]
            if abs(record.start_freq_mhz - freq) > _FREQ_MATCH_TOLERANCE_MHZ:
                self._log.record(
                    "anchor_mismatch",
                    time_us=record.start_us,
                    op_index=op_index,
                    detail=(
                        f"planned {freq:.0f} MHz, ran at "
                        f"{record.start_freq_mhz:.0f} MHz"
                    ),
                )

    def _throttled(self, device, result) -> bool:
        peak = max(chunk.celsius for chunk in result.chunks)
        equilibrium = device.npu.thermal.equilibrium_celsius(
            result.soc_avg_watts
        )
        hottest = max(peak, equilibrium)
        if hottest < self._config.throttle_celsius:
            return False
        self._log.record(
            "throttle_detected",
            detail=(
                f"projected {hottest:.1f} C >= "
                f"{self._config.throttle_celsius:.1f} C threshold"
            ),
        )
        return True
