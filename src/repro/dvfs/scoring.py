"""Strategy scoring against the fitted models (paper Sect. 6.3.2, Eq. 17).

For a candidate strategy (one frequency per preprocessing stage), the
performance and power models predict the resulting iteration time and
average power.  Everything is precomputed into per-stage lookup tables
over the frequency grid: stage time, AICore energy, SoC energy and
volts x time.  Each of the four is then quantised once onto its own
power-of-two fixed-point scale, into one ``(stages * freqs, 4)`` int64
table whose largest possible sums stay below 2**61.  A strategy's four
sums are integer sums over that table, so they are exact and do not
depend on the order of summation; each is converted to float once, by
an exact power-of-two scaling, before the thermal closure (within ~1e-15
relative of summing the float tables).

Exactness is what lets the GA score a child as its parent's sums plus
the table differences at the genes it changed, bit for bit as a rescore
would (``StrategyScorer.score_sums``).  At paper scale (gpt3 at scale
1.0: 780 stages) a generation's ~140 changed children differ from their
parents in ~2,800 genes in all, against the ~110,000 cells a rescore of
those children gathers.  This speed is the paper's argument for
model-based over model-free search (Sect. 8.1: ~milliseconds per policy,
20,000 strategies within 5 minutes).

Scoring follows Eq. (17): individuals are rewarded with (normalised)
``2 * Per^2 / Power`` when they meet the performance lower bound and get
half that score as a penalty when they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dvfs.preprocessing import Stage
from repro.errors import StrategyError
from repro.perf.model import WorkloadPerformanceModel
from repro.power.optable import OperatorPowerTable
from repro.units import US_PER_S
from repro.workloads.trace import Trace

#: Bits a quantity's largest possible stage sum may use.  A parent's sums
#: plus a child's cell differences stay below 3 * 2**61 < 2**63.
_SUM_BITS = 61


@dataclass(frozen=True)
class ScoreBreakdown:
    """Model-predicted outcome of one strategy."""

    time_us: float
    aicore_watts: float
    soc_watts: float
    delta_celsius: float
    score: float
    meets_target: bool

    @property
    def performance(self) -> float:
        """Iterations per second under the strategy."""
        return US_PER_S / self.time_us


class StrategyScorer:
    """Vectorised Eq. (17) scorer over the preprocessed stages.

    Args:
        trace: the workload iteration being optimised.
        stages: preprocessing output (candidate points).
        perf_model: fitted per-operator duration predictors.
        power_table: fitted per-operator power coefficients.
        freqs_mhz: the hardware frequency grid (genes index into this).
        performance_loss_target: allowed fractional slowdown (0.02 = 2%).
        objective: which rail's power the score minimises
            (``"aicore"`` like the paper's AICore optimisation, or
            ``"soc"``).
        target_utilisation: fraction of the loss budget the search is
            allowed to spend.  The fitted models carry percent-level bias,
            so deployments hold part of the budget in reserve; the paper's
            measured losses land at 80-86% of each target (Table 3), which
            this default reproduces.
    """

    def __init__(
        self,
        trace: Trace,
        stages: Sequence[Stage],
        perf_model: WorkloadPerformanceModel,
        power_table: OperatorPowerTable,
        freqs_mhz: Sequence[float],
        performance_loss_target: float = 0.02,
        objective: str = "aicore",
        target_utilisation: float = 0.85,
    ) -> None:
        if objective not in ("aicore", "soc"):
            raise StrategyError(f"unknown objective {objective!r}")
        if not 0 < performance_loss_target < 1:
            raise StrategyError(
                f"performance loss target must be in (0, 1): "
                f"{performance_loss_target}"
            )
        if not 0 < target_utilisation <= 1:
            raise StrategyError(
                f"target_utilisation must be in (0, 1]: {target_utilisation}"
            )
        self._stages = tuple(stages)
        self._freqs = np.asarray(freqs_mhz, dtype=float)
        if np.any(np.diff(self._freqs) <= 0):
            raise StrategyError(
                "frequency grid must be strictly ascending (baseline last)"
            )
        self._loss_target = performance_loss_target * target_utilisation
        self._objective = objective
        constants = power_table.constants
        self._k = constants.k_celsius_per_watt
        self._gamma_soc = constants.gamma_soc_w_per_c_v
        self._gamma_aicore = constants.gamma_aicore_w_per_c_v
        self._volts = np.array([constants.volts(f) for f in self._freqs])

        n_stages = len(self._stages)
        n_freqs = self._freqs.size
        # Per-stage lookup tables over the frequency grid.
        self._stage_time = np.zeros((n_stages, n_freqs))
        self._stage_aicore_energy = np.zeros((n_stages, n_freqs))
        self._stage_soc_energy = np.zeros((n_stages, n_freqs))
        # One per-trace name list, hoisted out of the per-stage loop.
        all_names = [entry.spec.name for entry in trace.entries]
        # Idle power depends only on the frequency grid, not on the stage:
        # build both vectors once instead of per stage.
        idle_ai = np.array(
            [
                constants.aicore_idle.predict(f, v)
                for f, v in zip(self._freqs, self._volts)
            ]
        )
        idle_soc = np.array(
            [
                constants.soc_idle.predict(f, v)
                for f, v in zip(self._freqs, self._volts)
            ]
        )
        self._build_tables(
            all_names, perf_model, power_table, idle_ai, idle_soc
        )

        # The four quantities of each (stage, frequency) cell: stage
        # time, AICore energy, SoC energy and volts-weighted time.
        quantities = np.stack(
            [
                self._stage_time,
                self._stage_aicore_energy,
                self._stage_soc_energy,
                self._volts[None, :] * self._stage_time,
            ],
            axis=-1,
        )
        finite = np.isfinite(quantities).all(axis=(1, 2))
        if not finite.all():
            j = int(np.argmin(finite))
            raise StrategyError(
                f"stage {self._stages[j].index} has a non-finite predicted "
                f"time or energy; check the performance and power models "
                f"of its {len(self._stages[j].op_indices)} operators"
            )
        # Each quantity gets its own scale 2**k, the largest power of two
        # with sum_s max_f |x[s, f]| * 2**k < 2**_SUM_BITS: no row sum, and
        # no parent's sums plus a child's cell differences, leaves int64.
        _, exponents = np.frexp(np.abs(quantities).max(axis=1).sum(axis=0))
        scale = _SUM_BITS - exponents
        # Gene ``g`` of stage ``s`` reads row ``s*F + g``.
        self._cells = np.rint(np.ldexp(quantities, scale)).astype(
            np.int64
        ).reshape(n_stages * n_freqs, 4)
        self._cells.flags.writeable = False
        self._unscale = -scale
        self._offsets = np.arange(n_stages) * n_freqs

        # Baseline: everything at the maximum frequency.
        baseline = self.evaluate(
            np.full(n_stages, n_freqs - 1, dtype=int)[None, :]
        )
        self._baseline_time = float(baseline.time_us[0])
        self._baseline_power = float(
            baseline.aicore_watts[0]
            if objective == "aicore"
            else baseline.soc_watts[0]
        )

    def _build_tables(
        self,
        all_names: list[str],
        perf_model: WorkloadPerformanceModel,
        power_table: OperatorPowerTable,
        idle_ai: np.ndarray,
        idle_soc: np.ndarray,
    ) -> None:
        """Per-stage tables, grouped by distinct operator name.

        A per-stage loop would evaluate the duration/power matrices once
        per stage *occurrence* of a name; here each distinct name gets one
        row — duration, power, and their products — and stages gather
        their rows and reduce.  The gathered rows carry the exact same
        values the per-stage matrices would, and the reduction is the
        same ``sum(axis=0)`` over the same row order, so the tables are
        bit-identical to that loop (``tests/oracles.py::PerStageScorer``;
        deliberately NOT ``np.add.reduceat``, whose pairwise summation
        splits differ from ``sum`` on a gathered block).
        """
        uniq: dict[str, int] = {}
        stage_rows: list[np.ndarray] = []
        for stage in self._stages:
            stage_rows.append(
                np.array(
                    [
                        uniq.setdefault(all_names[i], len(uniq))
                        for i in stage.op_indices
                    ],
                    dtype=np.intp,
                )
            )
        if uniq:
            names = list(uniq)
            t_rows = perf_model.duration_matrix(names, self._freqs)
            p_ai_rows = power_table.aicore_power_matrix(names, self._freqs)
            p_soc_rows = power_table.soc_power_matrix(names, self._freqs)
            ta_rows = t_rows * p_ai_rows
            ts_rows = t_rows * p_soc_rows
        for j, stage in enumerate(self._stages):
            rows = stage_rows[j]
            if rows.size:
                self._stage_time[j] = t_rows[rows].sum(axis=0)
                self._stage_aicore_energy[j] = ta_rows[rows].sum(axis=0)
                self._stage_soc_energy[j] = ts_rows[rows].sum(axis=0)
            self._add_stage_idle(j, stage, idle_ai, idle_soc)

    def _add_stage_idle(
        self,
        j: int,
        stage: Stage,
        idle_ai: np.ndarray,
        idle_soc: np.ndarray,
    ) -> None:
        # Idle spans inside the stage (host gaps, pure-gap stages) are
        # frequency-independent: their length is the measured baseline
        # stage duration minus the operators' time at the baseline
        # (maximum) frequency, and they draw idle power.
        op_time = self._stage_time[j].copy()
        idle_time = max(0.0, stage.duration_us - float(op_time[-1]))
        self._stage_time[j] = op_time + idle_time
        self._stage_aicore_energy[j] += idle_time * idle_ai
        self._stage_soc_energy[j] += idle_time * idle_soc

    @property
    def stage_count(self) -> int:
        """Number of genes per individual."""
        return len(self._stages)

    @property
    def frequency_count(self) -> int:
        """Number of grid frequencies a gene can take."""
        return self._freqs.size

    @property
    def baseline_time_us(self) -> float:
        """Model-predicted iteration time at the maximum frequency."""
        return self._baseline_time

    @property
    def baseline_power_watts(self) -> float:
        """Objective-rail power at the maximum frequency (normaliser)."""
        return self._baseline_power

    @property
    def objective(self) -> str:
        """Which rail's power the score minimises (aicore or soc)."""
        return self._objective

    @property
    def time_lower_bound_us(self) -> float:
        """Maximum admissible iteration time (Eq. 17's ``Per_lb``)."""
        return self._baseline_time * (1.0 + self._loss_target)

    @property
    def cells(self) -> np.ndarray:
        """The quantised tables, read-only ``(stages * freqs, 4)`` int64.

        Row ``s * frequency_count + g`` holds stage ``s`` at grid point
        ``g``: time, AICore energy, SoC energy and volts x time, each an
        integer on its own power-of-two scale.  A strategy's
        :meth:`stage_sums` are the column sums of its rows.
        """
        return self._cells

    def stage_sums(self, population: np.ndarray) -> np.ndarray:
        """Exact integer stage sums of a population of gene vectors.

        Args:
            population: integer array (any signed or unsigned width) of
                shape ``(individuals, stages)`` with values in
                ``[0, frequency_count)``.

        Returns:
            ``(individuals, 4)`` int64: the column sums of each
            individual's :attr:`cells` rows.

        Raises:
            StrategyError: on a wrong shape, a non-integer dtype (bool
                and float included) or a gene outside the grid.
        """
        genes = np.asarray(population)
        if genes.ndim != 2 or genes.shape[1] != self.stage_count:
            raise StrategyError(
                f"population must be (n, {self.stage_count}), got {genes.shape}"
            )
        # Bool genes would gather as indices 0/1 and float genes fail
        # inside ``np.take``; only integer arrays index the grid.
        if not np.issubdtype(genes.dtype, np.integer):
            raise StrategyError(
                f"genes must be an integer array, got dtype {genes.dtype}"
            )
        if genes.size and (
            genes.min() < 0 or genes.max() >= self.frequency_count
        ):
            raise StrategyError(
                f"genes must lie in [0, {self.frequency_count})"
            )
        return np.take(self._cells, genes + self._offsets, axis=0).sum(
            axis=1
        )

    def _evaluate_sums(self, sums: np.ndarray) -> "PopulationEvaluation":
        """Predict time/power from :meth:`stage_sums` rows."""
        # int64 -> float64 rounds once; the power-of-two scaling is exact.
        time_us, aicore_j, soc_j, volts_time = np.ldexp(
            sums, self._unscale
        ).T
        # Chip-level thermal closure (Sect. 5.4.2): the base average powers
        # gain a leakage term at the equilibrium temperature rise.  With
        # AT = k * P_soc this solves in closed form per individual.
        volts_avg = volts_time / time_us
        soc_base = soc_j / time_us
        loop_gain = self._k * self._gamma_soc * volts_avg
        soc_watts = soc_base / np.maximum(1e-9, 1.0 - loop_gain)
        delta = self._k * soc_watts
        aicore_watts = aicore_j / time_us + (
            self._gamma_aicore * delta * volts_avg
        )
        return PopulationEvaluation(
            time_us=time_us,
            aicore_watts=aicore_watts,
            soc_watts=soc_watts,
            delta_celsius=delta,
        )

    def evaluate(self, population: np.ndarray) -> "PopulationEvaluation":
        """Predict time/power for a population of gene vectors.

        See :meth:`stage_sums` for the accepted populations and errors.
        """
        return self._evaluate_sums(self.stage_sums(population))

    def score_evaluation(
        self, evaluation: "PopulationEvaluation"
    ) -> np.ndarray:
        """Eq. (17) scores for an already-evaluated population."""
        power = (
            evaluation.aicore_watts
            if self._objective == "aicore"
            else evaluation.soc_watts
        )
        per_norm = self._baseline_time / evaluation.time_us
        power_norm = power / self._baseline_power
        base_score = per_norm * per_norm / power_norm
        meets = evaluation.time_us <= self.time_lower_bound_us
        return np.where(meets, 2.0 * base_score, base_score)

    def score_sums(self, sums: np.ndarray) -> np.ndarray:
        """Eq. (17) scores from :meth:`stage_sums` rows.

        Any ``(individuals, 4)`` int64 rows that equal some genes'
        :meth:`stage_sums` score bit for bit as those genes do: the GA
        passes a parent's sums plus a child's :attr:`cells` differences.
        """
        return self.score_evaluation(self._evaluate_sums(sums))

    def score(self, population: np.ndarray) -> np.ndarray:
        """Eq. (17) scores for a population (higher is better)."""
        return self.score_sums(self.stage_sums(population))

    def breakdown(self, genes: Sequence[int]) -> ScoreBreakdown:
        """Full model-predicted outcome of a single strategy."""
        evaluation = self.evaluate(np.asarray(genes, dtype=int)[None, :])
        time_us = float(evaluation.time_us[0])
        return ScoreBreakdown(
            time_us=time_us,
            aicore_watts=float(evaluation.aicore_watts[0]),
            soc_watts=float(evaluation.soc_watts[0]),
            delta_celsius=float(evaluation.delta_celsius[0]),
            score=float(self.score_evaluation(evaluation)[0]),
            meets_target=time_us <= self.time_lower_bound_us,
        )


@dataclass(frozen=True)
class PopulationEvaluation:
    """Vectorised model predictions for a population."""

    time_us: np.ndarray
    aicore_watts: np.ndarray
    soc_watts: np.ndarray
    delta_celsius: np.ndarray
